"""Every import in the repository names a declared dependency, and is read.

``pyproject.toml`` declares NumPy and SciPy for the package, and
pytest, pytest-benchmark and hypothesis as its ``test`` extra; CI
installs exactly those.  Any other import works only where the module
happens to be installed, and costs every process that reaches it.
This guard parses each ``.py`` file under ``src/``, ``tests/``,
``benchmarks/``, ``perfbench/`` and ``examples/`` with :mod:`ast`
(imports inside functions included) and names every module it does not
allow.  It also names every imported name that its file never reads:
an import nothing uses is a dependency kept for nothing.
"""

import ast
import importlib.util
import os
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: The package and pyproject.toml's ``dependencies``.
PACKAGE = frozenset({"repro", "numpy", "scipy"})
#: Also the ``test`` extra, and the helper modules that ``benchmarks/``
#: and ``perfbench/`` import by bare name from their own directories.
TOOLING = PACKAGE | {
    "pytest", "pytest_benchmark", "hypothesis",
    "conftest", "calibration", "checks", "workloads", "tracing",
    "bench_e3_interarrival_shared",
}
#: directory -> the non-standard-library modules its files may import.
ALLOWED = {
    "src": PACKAGE,
    "tests": TOOLING,
    "benchmarks": TOOLING,
    "perfbench": TOOLING,
    "examples": TOOLING,
}


def imported_modules(path):
    """Top-level name of every absolute import in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def _under(path, directory):
    directory = os.path.realpath(directory)
    return os.path.commonpath([path, directory]) == directory


def stdlib_by_origin(name):
    """Whether ``name`` is standard library, judged by where its spec
    points: built into the interpreter, frozen, or a file in the
    standard library's directory but outside its site-packages."""
    spec = importlib.util.find_spec(name)
    if spec is None or spec.origin is None:
        return False
    if spec.origin in ("built-in", "frozen"):
        return True
    paths = sysconfig.get_paths()
    origin = os.path.realpath(spec.origin)
    return _under(origin, paths["stdlib"]) and not (
        _under(origin, paths["purelib"]) or _under(origin, paths["platlib"])
    )


def is_stdlib(name):
    """The interpreter's own list where it has one (3.10+); on 3.9,
    the origin rule above."""
    names = getattr(sys, "stdlib_module_names", None)
    return name in names if names is not None else stdlib_by_origin(name)


def python_files():
    """``(path, modules that path may import)`` per ``.py`` file."""
    for directory, allowed in ALLOWED.items():
        files = sorted((ROOT / directory).rglob("*.py"))
        assert files, f"no Python files under {directory}/"
        for path in files:
            yield path, allowed


def repository_imports():
    """``(path relative to the root, module, allowed)`` per imported module."""
    for path, allowed in python_files():
        for module in sorted(set(imported_modules(path))):
            yield path.relative_to(ROOT), module, allowed


def unread_imports(path):
    """``(line, name)`` of every name ``path`` imports and never reads.

    A name counts as read wherever a ``Name`` node uses it, the root of
    an attribute chain included (``np`` in ``np.linalg.solve``).  Names
    the module lists in ``__all__`` are its exports, and ``__future__``
    imports are compiler directives, so neither needs a reader.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    read = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(
        (line, name) for name, line in imported.items() if name not in read | exported
    )


def test_every_import_is_declared():
    undeclared = [
        f"{path}: imports {module}"
        for path, module, allowed in repository_imports()
        if module not in allowed and not is_stdlib(module)
    ]
    assert not undeclared, "undeclared dependencies:\n" + "\n".join(undeclared)


def test_no_import_goes_unread():
    # A package's __init__.py imports names to re-export them.
    unread = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path, _ in python_files()
        if path.name != "__init__.py"
        for line, name in unread_imports(path)
    ]
    assert not unread, "imported and never read:\n" + "\n".join(unread)


@pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"), reason="needs sys.stdlib_module_names"
)
def test_origin_rule_agrees_with_the_interpreter():
    # The guard runs on the origin rule where the list is missing, so
    # hold that rule to the list for every module the repository imports.
    modules = {module for _, module, _ in repository_imports()}
    by_origin = {m for m in modules if stdlib_by_origin(m)}
    assert by_origin == modules & sys.stdlib_module_names
