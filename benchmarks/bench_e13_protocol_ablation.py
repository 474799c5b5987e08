"""E13 (extension ablation) -- invalidate vs write-update coherence.

The paper's machine uses an invalidation-based full-map directory.
This ablation re-runs the shared-memory applications under a
write-update variant and contrasts the resulting communication
characterizations: update protocols trade a few large
invalidation-triggered refetches for floods of small word updates,
shifting the volume attribute (message count up, mean length down) and
sharpening the temporal burstiness around write phases.
"""

import pytest

from repro import create_app, run_dynamic
from repro.coherence import CoherenceConfig

APPS = {
    "1d-fft": {"n": 128},
    "is": {"n": 512, "buckets": 32},
    "nbody": {"n": 32, "steps": 2},
}


@pytest.fixture(scope="module")
def protocol_runs():
    out = {}
    for name, params in APPS.items():
        out[name] = {
            protocol: run_dynamic(
                create_app(name, **params),
                coherence_config=CoherenceConfig(protocol=protocol),
            )
            for protocol in ("invalidate", "update")
        }
    return out


def test_e13_protocol_comparison_table(protocol_runs, benchmark):
    print()
    header = (
        f"{'app':<8} {'protocol':<11} {'messages':>9} {'bytes':>9} "
        f"{'mean len':>9} {'latency':>9} {'exec span':>10}"
    )
    print(header)
    print("-" * len(header))
    for name, by_protocol in protocol_runs.items():
        for protocol, run in by_protocol.items():
            log = run.log
            print(
                f"{name:<8} {protocol:<11} {len(log):>9} {log.total_bytes():>9} "
                f"{log.message_lengths().mean():>9.2f} {log.mean_latency():>9.2f} "
                f"{log.span():>10.0f}"
            )

    for name, by_protocol in protocol_runs.items():
        invalidate = by_protocol["invalidate"].log
        update = by_protocol["update"].log
        assert len(update) > len(invalidate), name
        assert update.message_lengths().mean() < invalidate.message_lengths().mean(), name

    benchmark.pedantic(
        lambda: run_dynamic(
            create_app("1d-fft", n=64),
            coherence_config=CoherenceConfig(protocol="update"),
        ),
        rounds=1,
        iterations=1,
    )


def test_e13_update_kills_writebacks(protocol_runs):
    for name, by_protocol in protocol_runs.items():
        kinds = by_protocol["update"].log.kinds()
        assert "writeback" not in kinds, name
        assert "inv" not in kinds, name


def test_e13_characterizations_stay_fittable(protocol_runs):
    # The methodology applies unchanged to the variant protocol.
    for name, by_protocol in protocol_runs.items():
        temporal = by_protocol["update"].characterization.temporal
        assert temporal.rate > 0
        assert temporal.fit.r2 > 0.0
