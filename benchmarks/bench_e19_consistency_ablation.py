"""E19 (extension ablation) -- sequential vs release consistency.

The paper's machine is sequentially consistent ("an invalidation-based
cache coherence scheme with sequential consistency using a full-map
directory"); relaxed models were the era's major design debate.  This
ablation re-runs the shared-memory applications with a write-buffered
release-consistency variant and compares execution time and the
communication characterization: the message *mix* barely changes (the
same coherence transactions happen, just overlapped), but store
latency leaves the critical path so executions finish sooner and the
injection process gets denser.
"""

import pytest

from repro import create_app, run_dynamic
from repro.coherence import CoherenceConfig

APPS = {
    "1d-fft": {"n": 128},
    "is": {"n": 512, "buckets": 32},
    "nbody": {"n": 32, "steps": 2},
    "cholesky": {"n": 24, "density": 0.2},
}


@pytest.fixture(scope="module")
def consistency_runs():
    out = {}
    for name, params in APPS.items():
        out[name] = {
            consistency: run_dynamic(
                create_app(name, **params),
                coherence_config=CoherenceConfig(consistency=consistency),
            )
            for consistency in ("sequential", "release")
        }
    return out


def test_e19_consistency_table(consistency_runs, benchmark):
    print()
    header = (
        f"{'app':<9} {'consistency':<12} {'exec span':>10} {'messages':>9} "
        f"{'rate':>10} {'cv':>6}"
    )
    print(header)
    print("-" * len(header))
    for name, by_mode in consistency_runs.items():
        for mode, run in by_mode.items():
            temporal = run.characterization.temporal
            print(
                f"{name:<9} {mode:<12} {run.log.span():>10.0f} {len(run.log):>9} "
                f"{temporal.rate:>10.5f} {temporal.cv:>6.2f}"
            )

    for name, by_mode in consistency_runs.items():
        sc = by_mode["sequential"].log
        rc = by_mode["release"].log
        # Store overlap shortens the execution...
        assert rc.span() < sc.span() * 1.05, name
        # ...without changing the communication volume much.
        assert len(rc) == pytest.approx(len(sc), rel=0.35), name

    benchmark.pedantic(
        lambda: run_dynamic(
            create_app("1d-fft", n=64),
            coherence_config=CoherenceConfig(consistency="release"),
        ),
        rounds=1,
        iterations=1,
    )


def test_e19_release_densifies_injection(consistency_runs):
    # With stores off the critical path, at least some applications
    # generate messages at a measurably higher rate.
    faster = 0
    for name, by_mode in consistency_runs.items():
        sc = by_mode["sequential"].characterization.temporal.rate
        rc = by_mode["release"].characterization.temporal.rate
        if rc > sc:
            faster += 1
    assert faster >= 2
