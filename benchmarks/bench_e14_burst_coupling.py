"""E14 (extension) -- burst-coupled synthetic traffic.

E8 documents the structural limit of independent closed-loop sources:
they reproduce each source's marginal distributions but not the
cross-source barrier bursts, so synthetic contention underestimates
the original's.  This extension fits a two-level burst model to the
aggregate inter-arrival series and replays whole bursts; the table
compares original vs independent vs burst-coupled traffic on the
contention and latency the mesh observes.
"""

import pytest

from repro.core import (
    PhaseCoupledTrafficGenerator,
    SyntheticTrafficGenerator,
    estimate_bursts,
)
from repro.stats import correlation_profile


@pytest.mark.parametrize("name", ["1d-fft", "is"])
def test_e14_burst_coupling_closes_contention_gap(runs, name, benchmark):
    run = runs.run(name)
    original = run.log
    series = original.interarrival_times()
    model = estimate_bursts(series)
    dependence = correlation_profile(series, max_lag=20)
    print()
    print(f"--- {name}: {model.describe()} ---")
    print(f"    temporal dependence: {dependence.describe()}")
    # The whole premise: real barrier traffic is not a renewal process.
    assert not dependence.is_renewal_like

    independent = SyntheticTrafficGenerator(run.characterization, seed=7).generate(
        messages_per_source=120
    )
    coupled = PhaseCoupledTrafficGenerator(
        run.characterization, burst_model=model, seed=7
    ).generate(total_messages=len(original))

    rows = [
        ("original", original),
        ("independent", independent),
        ("burst-coupled", coupled),
    ]
    print(f"{'traffic':<14} {'latency':>9} {'contention':>11} {'rate':>9}")
    for label, log in rows:
        print(
            f"{label:<14} {log.mean_latency():>9.2f} "
            f"{log.mean_contention():>11.2f} {log.offered_rate():>9.4f}"
        )

    target = original.mean_contention()
    gap_independent = abs(target - independent.mean_contention())
    gap_coupled = abs(target - coupled.mean_contention())
    assert gap_coupled < gap_independent, (
        "burst coupling should recover contention the independent "
        "generator misses"
    )
    # Latency fidelity must improve too (latency = zero-load + contention).
    lat_gap_independent = abs(original.mean_latency() - independent.mean_latency())
    lat_gap_coupled = abs(original.mean_latency() - coupled.mean_latency())
    assert lat_gap_coupled <= lat_gap_independent + 0.5

    benchmark.pedantic(
        lambda: PhaseCoupledTrafficGenerator(
            run.characterization, burst_model=model, seed=8
        ).generate(total_messages=200),
        rounds=1,
        iterations=1,
    )
