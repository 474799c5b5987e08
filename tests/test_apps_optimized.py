"""Every application's ``verify()`` rejects a wrong answer under ``python -O``.

``-O`` strips ``assert`` statements, so each check raises
``AssertionError`` explicitly.  The check runs in a fresh interpreter
started with ``-O``: this test process runs with assertions on.
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

from repro.apps.mp.fft3d import FFT3DApp
from repro.apps.mp.mg import MultigridApp
from repro.apps.shared.cholesky import CholeskyApp
from repro.apps.shared.fft1d import FFT1DApp
from repro.apps.shared.is_sort import IntegerSortApp
from repro.apps.shared.maxflow import MaxflowApp
from repro.apps.shared.nbody import NbodyApp

if __debug__:
    sys.exit("expected an interpreter started with -O")


def bump(array, index):
    array.poke(index, array.peek(index) + 1.0)


def bump_slab(app):
    app._slabs[0][0, 0, 0] += 1.0


CASES = [
    (FFT1DApp(n=64), lambda app: bump(app._final, 0)),
    (IntegerSortApp(n=64, buckets=8), lambda app: app.ranks.poke(0, app.ranks.peek(1))),
    (CholeskyApp(n=12, density=0.2), lambda app: bump(app.factor, 0)),
    (NbodyApp(n=16, steps=1), lambda app: bump(app.pos, 0)),
    (MaxflowApp(n=8, extra_edges=4, seed=2), lambda app: bump(app.excess, app.sink)),
    (FFT3DApp(n=8), bump_slab),
    (MultigridApp(n=16), lambda app: setattr(app, "final_residual", app.initial_residual)),
]

verdicts = {}
for app, corrupt in CASES:
    app.run()
    corrupt(app)
    try:
        app.verify()
    except AssertionError as error:
        verdicts[app.name] = str(error)
    else:
        verdicts[app.name] = None
print(json.dumps(verdicts))
"""


#: What each app's ``verify()`` says about its corrupted result.
REJECTIONS = {
    "1d-fft": "1D-FFT result disagrees with numpy.fft.fft",
    "is": "ranks are not a permutation",
    "cholesky": "L L^T does not reconstruct the input matrix",
    "nbody": "positions diverged",
    "maxflow": "push-relabel found flow",
    "3d-fft": "3D-FFT slab of rank 0 disagrees with numpy.fft.fftn",
    "mg": "V-cycles reduced the residual only to 1.000 of initial",
}


def test_verify_rejects_a_corrupted_result_under_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    verdicts = json.loads(result.stdout.strip().splitlines()[-1])
    assert list(verdicts) == list(REJECTIONS)
    for name, message in REJECTIONS.items():
        assert verdicts[name] is not None, f"{name} accepted a corrupted result"
        assert verdicts[name].startswith(message), verdicts[name]
