"""What SciPy a process loads, and when; and that maxflow loads no networkx.

Every process that imports :mod:`repro` (each CLI call, ``repro serve``,
sweep workers) would otherwise carry SciPy's statistics package: about
430 more modules, 45 MiB and 0.8 s of start-up.  The pipeline never
imports ``scipy.stats``.  ``scipy.special`` (about 300 modules and
0.2 s) loads at the first fit, so a process that only drives the
network, reads a manifest back or reports on a run never loads it.
Maxflow checks its answer against an in-repo reference max-flow, not
networkx (about 330 modules and 12 MiB, and not a declared dependency).
Each check runs in a fresh interpreter, since this test process may
already hold the modules for other reasons.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

SCRIPT = r"""
import json
import sys

import repro
import repro.cli
import repro.serve.app
import repro.simkernel.engine_parallel
import repro.sweep.runner
from repro import create_app, run_dynamic
from repro.core.methodology import characterize_log
from repro.core.synthetic import SyntheticTrafficGenerator
from repro.mesh.config import MeshConfig
from repro.stats import Gamma, correlation_profile, fit_mle, ks_statistic

seen = {}
config = MeshConfig.parse("4x2")
run = run_dynamic(create_app("1d-fft", n=64), mesh_config=config)
characterization = characterize_log(run.log, config, per_source_temporal=True)
seen["special_after_fit"] = "scipy.special" in sys.modules
gaps = run.log.interarrival_times()
ks_statistic(gaps, characterization.temporal.fit.distribution)
correlation_profile(gaps)
SyntheticTrafficGenerator(characterization, mesh_config=config, seed=1).generate(10)
seen["pipeline"] = sorted(m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules)
fit_mle(gaps, Gamma)
seen["after_mle"] = sorted(m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules)
print(json.dumps(seen))
"""

COLD_START_SCRIPT = r"""
import json
import sys
import tempfile

import repro
import repro.cli
import repro.serve.app
import repro.sweep.runner
from repro.core.options import RunOptions
from repro.core.run import run_pattern
from repro.mesh.config import MeshConfig
from repro.mesh.netlog_stream import materialize_manifest, read_manifest, summary_from_manifest
from repro.obs.report import netlog_health, report_from_summary, report_health

repro.cli.build_parser().format_help()
with tempfile.TemporaryDirectory() as spill:
    config = MeshConfig.parse("4x4x2:torus")
    result = run_pattern(
        mesh_config=config,
        pattern="tornado",
        messages_per_source=20,
        seed=3,
        options=RunOptions(log_spill=spill),
    )
    doc = read_manifest(result.manifest_path)
    summary = summary_from_manifest(result.manifest_path)
    restored = materialize_manifest(result.manifest_path)
    report = report_from_summary(
        summary, app="tornado", strategy="pattern", mesh=config.spec.canonical()
    )
    netlog_health(summary)
    report_health(report.as_dict())
print(json.dumps({
    "records": doc["records"],
    "messages": report.messages,
    "restored": len(restored),
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
}))
"""

CONCURRENT_SCRIPT = r"""
import json
import sys
import threading

import numpy as np

from repro.stats import Gamma, Normal, Weibull

THREADS = 4
x = np.concatenate([[-1.0, 0.0, np.nan, np.inf], np.linspace(0.01, 12.0, 301)])
calls = (
    lambda: Gamma(shape=2.5, scale=1.5).pdf(x),
    lambda: Weibull(shape=1.5, scale=2.0).cdf(x),
    lambda: Normal(mu=1.0, sigma=2.0).cdf(x),
)
loaded_before = "scipy.special" in sys.modules
barrier = threading.Barrier(THREADS)
results = [None] * THREADS
errors = []


def first_use(index):
    try:
        barrier.wait(timeout=60)
        results[index] = [call().tobytes().hex() for call in calls]
    except BaseException as error:
        errors.append(repr(error))


# Switch threads often, so they interleave inside the import.  The
# interpreter is this script's alone, so the interval is not restored.
sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=first_use, args=(i,)) for i in range(THREADS)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=120)
sequential = [call().tobytes().hex() for call in calls]
print(json.dumps({
    "loaded_before": loaded_before,
    "alive": sum(thread.is_alive() for thread in threads),
    "errors": errors,
    "matching": sum(result == sequential for result in results),
}))
"""


MAXFLOW_SCRIPT = r"""
import json
import sys

from repro import create_app
from repro.core.run import run_dynamic

run = run_dynamic(create_app("maxflow", n=8, extra_edges=4, seed=2))
print(json.dumps({"messages": len(run.log), "networkx": "networkx" in sys.modules}))
"""


def _run_fresh(script):
    """Run ``script`` in a fresh interpreter and decode its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_pipeline_runs_without_scipy_stats():
    seen = _run_fresh(SCRIPT)
    assert seen["special_after_fit"]
    assert seen["pipeline"] == []
    # scipy.optimize arrives only with the MLE ablation.
    assert "scipy.optimize" in seen["after_mle"]


def test_drive_spill_and_report_never_load_scipy():
    seen = _run_fresh(COLD_START_SCRIPT)
    assert seen["records"] == seen["messages"] == seen["restored"] == 32 * 20
    assert seen["scipy"] == []


def test_concurrent_first_use_of_the_special_functions():
    seen = _run_fresh(CONCURRENT_SCRIPT)
    assert not seen["loaded_before"]
    assert seen["alive"] == 0
    assert seen["errors"] == []
    assert seen["matching"] == 4


def test_maxflow_never_loads_networkx():
    seen = _run_fresh(MAXFLOW_SCRIPT)
    assert seen["messages"] > 0
    assert not seen["networkx"]
