"""E10 -- network performance: characterized vs uniform traffic,
plus the two methodology ablations DESIGN.md calls out.

The paper's motivation: ICN studies assuming uniform traffic
misrepresent real applications.  This bench sweeps injection load under
(a) the 1D-FFT characterization and (b) the same workload with its
spatial structure replaced by the uniform assumption, and reports the
latency series.  Ablations: dependency-preserving vs open-loop trace
replay (the trace-driven pitfall), and equal-mass vs equal-width
regression binning.
"""

import numpy as np

from repro import SyntheticTrafficGenerator
from repro.core.attributes import (
    CommunicationCharacterization,
    SpatialCharacterization,
)
from repro.mesh import MeshConfig, MeshNetwork
from repro.simkernel import Simulator
from repro.stats import fit_distribution
from repro.stats.spatial_models import SpatialFit, UniformPattern
from repro.trace import replay_trace

RATE_SCALES = (0.5, 1.0, 2.0, 4.0)


def with_uniform_spatial(c: CommunicationCharacterization) -> CommunicationCharacterization:
    uniform = {s: SpatialFit(pattern=UniformPattern(), r2=0.0) for s in c.spatial.per_source}
    n = c.num_nodes
    matrix = np.array([UniformPattern().fractions(s, n) for s in range(n)])
    return CommunicationCharacterization(
        app_name=c.app_name + "+uniform",
        strategy=c.strategy,
        num_nodes=n,
        temporal=c.temporal,
        spatial=SpatialCharacterization(
            per_source=uniform, fraction_matrix=matrix, dominant_pattern="uniform"
        ),
        volume=c.volume,
    )


def test_e10_uniform_vs_characterized_load_sweep(runs, benchmark):
    characterization = runs.run("1d-fft").characterization
    uniform = with_uniform_spatial(characterization)
    rows = []
    for scale in RATE_SCALES:
        char_log = SyntheticTrafficGenerator(
            characterization, seed=1, rate_scale=scale
        ).generate(messages_per_source=120)
        uni_log = SyntheticTrafficGenerator(
            uniform, seed=1, rate_scale=scale
        ).generate(messages_per_source=120)
        rows.append((scale, char_log.mean_latency(), uni_log.mean_latency()))
    print()
    print(f"{'rate scale':>10} {'characterized':>14} {'uniform':>10} {'uniform/char':>13}")
    for scale, char_latency, uni_latency in rows:
        print(
            f"{scale:>10.1f} {char_latency:>14.2f} {uni_latency:>10.2f} "
            f"{uni_latency / char_latency:>13.2f}"
        )
    # Butterfly traffic is shorter-range than uniform on a mesh: the
    # uniform assumption overstates latency at every load point.
    for _, char_latency, uni_latency in rows:
        assert uni_latency > char_latency

    benchmark.pedantic(
        lambda: SyntheticTrafficGenerator(
            characterization, seed=2, rate_scale=1.0
        ).generate(messages_per_source=60),
        rounds=1,
        iterations=1,
    )


def test_e10_ablation_replay_mode(runs):
    """Dependency-preserving vs open-loop replay (the trace pitfall)."""
    trace = runs.run("3d-fft").trace
    dep_log = replay_trace(trace, MeshNetwork(Simulator(), MeshConfig()), mode="dependency")
    open_log = replay_trace(trace, MeshNetwork(Simulator(), MeshConfig()), mode="open-loop")
    print()
    print(f"dependency replay: latency {dep_log.mean_latency():.2f}, "
          f"contention {dep_log.mean_contention():.2f}")
    print(f"open-loop replay:  latency {open_log.mean_latency():.2f}, "
          f"contention {open_log.mean_contention():.2f}")
    # Open-loop ignores back-pressure: it injects everything at traced
    # timestamps, so its queueing (and hence contention) is at least as
    # large, and injection order can't stretch.
    assert open_log.mean_contention() >= dep_log.mean_contention() - 1e-9
    assert len(dep_log) == len(open_log) == len(trace)


def test_e10_ablation_binning_policy(runs):
    """Equal-mass vs equal-width regression binning on bursty data.

    R^2 values are not comparable across binnings (different observed
    series), so the ablation criterion is tail recovery: the burstier
    the fitted model's coefficient of variation, the more of the
    heavy tail the regression saw.  Equal-mass binning must recover at
    least as much burstiness as equal-width on the same series.
    """
    series = runs.run("1d-fft").log.interarrival_times()
    sample_cv = float(np.std(series) / np.mean(series))
    mass_best = fit_distribution(series, policy="equal-mass")[0]
    width_best = fit_distribution(series, policy="equal-width")[0]
    print()
    print(f"sample cv:   {sample_cv:.2f}")
    print(f"equal-mass:  {mass_best.describe()}  cv={mass_best.distribution.cv():.2f}")
    print(f"equal-width: {width_best.describe()}  cv={width_best.distribution.cv():.2f}")
    assert sample_cv > 1.5, "1d-fft inter-arrivals should be bursty"
    assert mass_best.distribution.cv() >= width_best.distribution.cv() - 0.05
