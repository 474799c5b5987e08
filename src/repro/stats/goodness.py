"""Goodness-of-fit measures for the regression analysis."""

from __future__ import annotations

import numpy as np

from repro.stats.distributions import Distribution


def r_squared(observed: np.ndarray, predicted: np.ndarray) -> float:
    """Coefficient of determination of ``predicted`` against ``observed``.

    This is the fit-quality number the paper reports for its regression
    models.  A constant observed series yields 1.0 for an exact match
    and 0.0 otherwise.
    """
    observed = np.asarray(observed, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if observed.shape != predicted.shape:
        raise ValueError(
            f"shape mismatch: observed {observed.shape} vs predicted {predicted.shape}"
        )
    if observed.size == 0:
        raise ValueError("cannot compute R^2 of empty series")
    ss_res = float(np.sum((observed - predicted) ** 2))
    ss_tot = float(np.sum((observed - np.mean(observed)) ** 2))
    if ss_tot <= 0.0:
        return 1.0 if ss_res <= 1e-30 else 0.0
    return 1.0 - ss_res / ss_tot


def ks_statistic(data: np.ndarray, distribution: Distribution) -> float:
    """Kolmogorov-Smirnov distance between a sample and a model CDF."""
    data = np.sort(np.asarray(data, dtype=float))
    n = data.size
    if n == 0:
        raise ValueError("cannot compute KS statistic of empty sample")
    cdf = np.asarray(distribution.cdf(data), dtype=float)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(upper - cdf), np.abs(cdf - lower))))
