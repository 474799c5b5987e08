"""E16 (extension) -- characterized traffic in an analytical ICN model.

The paper positions characterization as the missing input for
analytical network models (Adve & Vernon, Kim & Das).  This experiment
feeds 1D-FFT's fitted characterization into the M/G/1-style wormhole
latency model and validates its predictions against the simulator
across a load sweep, including the predicted saturation point.
"""

import pytest

from repro.core import SyntheticTrafficGenerator, WormholeLatencyModel

RATE_SCALES = (0.5, 1.0, 2.0, 4.0, 8.0)


def test_e16_model_vs_simulation_table(runs, benchmark):
    run = runs.run("1d-fft")
    model = WormholeLatencyModel(run.characterization)
    print()
    print(f"saturation predicted at {model.saturation_scale():.1f}x characterized load")
    print(f"{'scale':>6} {'model latency':>14} {'sim latency':>12} {'model util':>11}")
    rows = []
    for scale in RATE_SCALES:
        estimate = model.predict(scale)
        log = SyntheticTrafficGenerator(
            run.characterization, seed=21, rate_scale=scale
        ).generate(messages_per_source=120)
        rows.append((scale, estimate, log))
        print(
            f"{scale:>6.1f} {estimate.mean_latency:>14.2f} "
            f"{log.mean_latency():>12.2f} {estimate.max_channel_utilization:>11.3f}"
        )

    for scale, estimate, log in rows:
        # First-order queueing model: right regime (within 2x), never
        # below the zero-load floor the simulator obeys.
        assert estimate.mean_latency == pytest.approx(log.mean_latency(), rel=1.0)
        assert estimate.mean_latency >= log.mean_latency() * 0.5
    # Both curves rise with load.
    model_latencies = [e.mean_latency for _, e, _ in rows]
    assert model_latencies == sorted(model_latencies)

    benchmark(lambda: model.predict(2.0))


def test_e16_saturation_is_beyond_operating_point(runs):
    run = runs.run("1d-fft")
    model = WormholeLatencyModel(run.characterization)
    # The application ran fine on the simulated machine, so its own
    # operating point must be below the model's saturation load.
    assert model.saturation_scale() > 1.0
    assert not model.predict(1.0).saturated
