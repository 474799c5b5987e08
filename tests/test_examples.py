"""Smoke tests: every example script runs end to end.

Examples are the repository's user-facing entry points; each ``main``
must execute without error and print its headline sections.  They run
at their shipped problem sizes (seconds each), so this module doubles
as a coarse integration test of the whole stack.
"""

import runpy
import sys
from pathlib import Path


EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, capsys, argv=("prog",)):
    """Execute an example as __main__ and return its stdout."""
    old_argv = sys.argv
    sys.argv = list(argv)
    try:
        runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "=== 1d-fft (dynamic, 8 nodes) ===" in out
    assert "spatial distribution" not in out  # quickstart uses tables
    assert "network log:" in out


def test_characterize_shared_memory_small(capsys):
    out = run_example(
        "characterize_shared_memory.py", capsys, argv=("prog", "--small")
    )
    for name in ("1d-fft", "is", "cholesky", "nbody", "maxflow"):
        assert name in out
    assert "favorites: p1->p0" in out  # IS favorite story
    assert "dominant pattern: butterfly" in out


def test_characterize_message_passing(capsys):
    out = run_example("characterize_message_passing.py", capsys)
    assert "3d-fft" in out and "mg" in out
    assert "dominant pattern: uniform" in out


def test_synthetic_traffic_study(capsys):
    out = run_example("synthetic_traffic_study.py", capsys)
    assert "synthetic-vs-original validation" in out
    assert "rate scale" in out


def test_phase_analysis(capsys):
    out = run_example("phase_analysis.py", capsys)
    assert "execution phases" in out
    assert "XOR-distance 1" in out
    assert "autocorrelation:" in out


def test_icn_design_study(capsys):
    out = run_example("icn_design_study.py", capsys)
    assert "topology comparison" in out
    assert "hypercube" in out
    assert "bit-complement" in out
