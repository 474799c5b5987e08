"""E8 -- methodology validation: synthetic traffic vs the original.

The methodology's purpose is generating realistic ICN workloads from
the fitted distributions.  For a dynamic-strategy application (1D-FFT)
and a static-strategy one (3D-FFT), synthetic traffic drawn from the
characterization drives the same mesh, and the network-level metrics
are compared with the original run's.  Rate and message-length fidelity
must be tight; latency must agree within the documented tolerance
(independent closed-loop sources cannot reproduce cross-source barrier
correlation, so synthetic contention is an underestimate).
"""

import pytest

from repro import SyntheticTrafficGenerator, compare_logs


@pytest.mark.parametrize("name", ["1d-fft", "3d-fft"])
def test_e8_synthetic_validation(runs, name, benchmark):
    run = runs.run(name)
    generator = SyntheticTrafficGenerator(run.characterization, seed=42)
    synthetic = benchmark.pedantic(
        lambda: generator.generate(messages_per_source=150), rounds=1, iterations=1
    )
    report = compare_logs(run.log, synthetic)
    print()
    print(f"--- {name}: synthetic vs original ---")
    print(report.describe())
    assert report.length_error < 0.1, "message-length distribution must replicate"
    assert report.rate_error < 0.5, "generation rate must be in the right regime"
    assert report.acceptable(tolerance=0.6)


def test_e8_synthetic_preserves_spatial_shape(runs):
    run = runs.run("1d-fft")
    generator = SyntheticTrafficGenerator(run.characterization, seed=43)
    synthetic = generator.generate(messages_per_source=200)
    # Butterfly partners carry all synthetic traffic, as characterized.
    for src in range(8):
        counts = synthetic.destination_counts(src, 8)
        partners = {src ^ 1, src ^ 2, src ^ 4}
        non_partner = sum(counts[d] for d in range(8) if d not in partners)
        assert non_partner == 0
