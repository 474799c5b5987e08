"""E20 (extension) -- per-source vs aggregate temporal models.

The paper, on Maxflow: "The distribution functions for each processor
can be used to generate the messages accurately.  On the other hand, a
simple averaging of the means of all the processors can be done to
define a single expression."  This experiment quantifies that choice
on IS, whose processors have wildly different generation processes
(p0 serves everyone; p1..p7 burst at it): per-source fits reproduce
each processor's pacing an order of magnitude better than the single
aggregate expression.
"""

import numpy as np
import pytest

from repro import SyntheticTrafficGenerator, create_app, run_dynamic
from repro.core.attributes import (
    CommunicationCharacterization,
    TemporalCharacterization,
)


def strip_per_source(c: CommunicationCharacterization) -> CommunicationCharacterization:
    """The same characterization with only the aggregate temporal fit."""
    t = c.temporal
    aggregate_only = TemporalCharacterization(
        fit=t.fit,
        mean_interarrival=t.mean_interarrival,
        rate=t.rate,
        cv=t.cv,
        sample_size=t.sample_size,
    )
    return CommunicationCharacterization(
        app_name=c.app_name,
        strategy=c.strategy,
        num_nodes=c.num_nodes,
        temporal=aggregate_only,
        spatial=c.spatial,
        volume=c.volume,
    )


def pacing_errors(original_log, synthetic_log, num_nodes: int):
    """Per-source relative error of the mean inter-arrival time."""
    errors = {}
    for src in range(num_nodes):
        original = original_log.interarrival_times(src)
        synthetic = synthetic_log.interarrival_times(src)
        if original.size >= 20 and synthetic.size >= 20:
            errors[src] = float(
                abs(synthetic.mean() - original.mean()) / original.mean()
            )
    return errors


@pytest.fixture(scope="module")
def is_run():
    return run_dynamic(
        create_app("is", n=1024, buckets=64), per_source_temporal=True
    )


def test_e20_per_source_models_beat_aggregate(is_run, benchmark):
    characterization = is_run.characterization
    assert characterization.temporal.per_source_fits, "per-source fits missing"

    per_source_log = SyntheticTrafficGenerator(characterization, seed=31).generate(
        messages_per_source=80
    )
    aggregate_log = SyntheticTrafficGenerator(
        strip_per_source(characterization), seed=31
    ).generate(messages_per_source=80)

    err_ps = pacing_errors(is_run.log, per_source_log, 8)
    err_ag = pacing_errors(is_run.log, aggregate_log, 8)
    print()
    print(f"{'source':>7} {'per-source err':>15} {'aggregate err':>14}  fitted model")
    for src in sorted(err_ps):
        fit = characterization.temporal.per_source_fits.get(src)
        label = fit.distribution.describe() if fit else "(aggregate)"
        print(f"p{src:<6} {err_ps[src]:>15.3f} {err_ag.get(src, float('nan')):>14.3f}  {label}")
    mean_ps = float(np.mean(list(err_ps.values())))
    mean_ag = float(np.mean(list(err_ag.values())))
    print(f"mean pacing error: per-source {mean_ps:.3f} vs aggregate {mean_ag:.3f}")

    # The paper's "accurately" vs "simple averaging" trade, quantified.
    assert mean_ps < mean_ag * 0.5
    # The favorite processor p0 is where averaging fails hardest.
    assert err_ag[0] > 1.0
    assert err_ps[0] < 0.5

    benchmark.pedantic(
        lambda: SyntheticTrafficGenerator(characterization, seed=32).generate(
            messages_per_source=40
        ),
        rounds=1,
        iterations=1,
    )


def test_e20_per_source_fits_reflect_heterogeneity(is_run):
    fits = is_run.characterization.temporal.per_source_fits
    means = {src: is_run.characterization.temporal.per_source_means[src] for src in fits}
    assert len(means) >= 2
    # p0 (the favorite, receiving everyone) generates on a visibly
    # different timescale than the workers.
    values = list(means.values())
    assert max(values) > 1.5 * min(values)
