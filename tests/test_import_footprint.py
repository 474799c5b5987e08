"""The pipeline never imports ``scipy.stats``.

Every process that imports :mod:`repro` (each CLI call, ``repro serve``,
sweep workers) would otherwise carry SciPy's statistics package: about
430 more modules, 45 MiB and 0.8 s of start-up.  The check runs in a
fresh interpreter, since this test process may already hold the modules
for other reasons.
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
from repro import characterize_shared_memory, create_app
from repro.core.methodology import characterize_log
from repro.core.synthetic import SyntheticTrafficGenerator
from repro.mesh.config import MeshConfig
from repro.stats import Gamma, correlation_profile, fit_mle, ks_statistic

seen = {}
config = MeshConfig.parse("4x2")
run = characterize_shared_memory(create_app("1d-fft", n=64), mesh_config=config)
characterization = characterize_log(run.log, config, per_source_temporal=True)
gaps = run.log.interarrival_times()
ks_statistic(gaps, characterization.temporal.fit.distribution)
correlation_profile(gaps)
SyntheticTrafficGenerator(characterization, mesh_config=config, seed=1).generate(10)
seen["pipeline"] = sorted(m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules)
fit_mle(gaps, Gamma)
seen["after_mle"] = sorted(m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules)
print(json.dumps(seen))
"""


def test_pipeline_runs_without_scipy_stats():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    seen = json.loads(result.stdout.strip().splitlines()[-1])
    assert seen["pipeline"] == []
    # scipy.optimize arrives only with the MLE ablation.
    assert "scipy.optimize" in seen["after_mle"]
