"""E12 (extension ablation) -- secant regression vs maximum likelihood.

The paper fits distributions with SAS's multivariate-secant non-linear
regression on binned densities.  This ablation re-fits every
application's inter-arrival series by maximum likelihood over the same
candidate library and compares the two procedures: chosen family,
recovered mean, and KS distance.  MLE optimizes the sample likelihood
directly, so its KS should never be meaningfully worse -- quantifying
what the 1997-era regression methodology gives up.
"""

import numpy as np

from repro.stats import continuous_candidates, fit_distribution, fit_mle_best, ks_statistic
from repro.stats.mle import negative_log_likelihood

from conftest import MESSAGE_PASSING, SHARED_MEMORY

APPS = SHARED_MEMORY + MESSAGE_PASSING


def test_e12_regression_vs_mle_table(runs, benchmark):
    rows = []
    for name in APPS:
        series = runs.run(name).log.interarrival_times()
        regression = fit_distribution(series)[0]
        mle = fit_mle_best(series, continuous_candidates())
        mle_ks = ks_statistic(series, mle.distribution)
        rows.append((name, series, regression, mle, mle_ks))

    print()
    header = (
        f"{'app':<10} {'regression family':<18} {'reg KS':>7} {'reg mean':>9} "
        f"{'MLE family':<18} {'MLE KS':>7} {'MLE mean':>9} {'sample':>9}"
    )
    print(header)
    print("-" * len(header))
    for name, series, regression, mle, mle_ks in rows:
        print(
            f"{name:<10} {regression.name:<18} {regression.ks:>7.3f} "
            f"{regression.distribution.mean():>9.2f} "
            f"{mle.distribution.name:<18} {mle_ks:>7.3f} "
            f"{mle.distribution.mean():>9.2f} {float(np.mean(series)):>9.2f}"
        )

    for name, series, regression, mle, mle_ks in rows:
        # MLE maximizes the likelihood over the same candidate library,
        # so its chosen model is never less likely than the
        # regression's (the quantitative gap is what the ablation
        # reports).  KS may differ either way: the regression pipeline
        # selects with a KS veto, MLE by AIC.
        regression_nll = negative_log_likelihood(regression.distribution, series)
        mle_nll = -mle.log_likelihood
        assert mle_nll <= regression_nll + 1e-6, name

    series = runs.run("cholesky").log.interarrival_times()
    benchmark.pedantic(
        lambda: fit_mle_best(series, continuous_candidates()), rounds=1, iterations=1
    )
