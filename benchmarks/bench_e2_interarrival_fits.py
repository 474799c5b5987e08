"""E2 -- the fitted inter-arrival distribution table.

Regenerates the paper's central result: for every application, the
best-fitting message inter-arrival time distribution with its
parameters and regression R^2 ("it is possible to express the message
generation ... of an application in terms of commonly used
distributions").  The benchmarked operation is the SAS-substitute
regression over all candidate families.
"""

from repro.core.report import temporal_table
from repro.stats import fit_distribution

from conftest import MESSAGE_PASSING, SHARED_MEMORY


def test_e2_interarrival_distribution_table(runs, benchmark):
    results = [runs.run(name).characterization for name in SHARED_MEMORY + MESSAGE_PASSING]
    print()
    print(temporal_table(results))

    # Every application is expressible as a common distribution with a
    # real fit (the paper's headline claim).
    for characterization in results:
        assert characterization.temporal.fit.r2 > 0.0
        assert characterization.temporal.rate > 0.0

    # Benchmark the full candidate-library regression on 1D-FFT's series.
    series = runs.run("1d-fft").log.interarrival_times()
    fits = benchmark(fit_distribution, series)
    assert fits[0].r2 > 0.3


def test_e2_shared_memory_traffic_is_bursty(runs):
    # Coherence traffic clusters around misses/barriers: CV > 1 for the
    # shared-memory applications (non-Poisson, hyperexponential-like).
    for name in SHARED_MEMORY:
        temporal = runs.run(name).characterization.temporal
        assert temporal.cv > 1.0, f"{name} unexpectedly smooth (cv={temporal.cv:.2f})"
