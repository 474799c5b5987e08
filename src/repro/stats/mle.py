"""Maximum-likelihood fitting (the regression ablation's comparator).

The paper fits distributions by non-linear regression on the binned
density (SAS PROC NLIN with the multivariate secant method).  Maximum
likelihood is the modern alternative; this module provides it over the
same distribution library so the two procedures can be compared
(benchmark E12).  Optimization is derivative-free Nelder-Mead on each
family's unconstrained parameter space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Type

import numpy as np

from repro.stats.distributions import Distribution

#: Floor applied to densities inside the log-likelihood so single
#: out-of-support observations do not produce -inf.
_DENSITY_FLOOR = 1e-300


@dataclass(frozen=True)
class MLEResult:
    """One family's maximum-likelihood fit.

    Attributes
    ----------
    distribution:
        Fitted distribution instance.
    log_likelihood:
        Total log-likelihood at the estimate.
    aic:
        Akaike information criterion (``2k - 2 lnL``).
    converged:
        Whether the optimizer reported success.
    """

    distribution: Distribution
    log_likelihood: float
    aic: float
    converged: bool

    def describe(self) -> str:
        """One-line report for ablation tables."""
        return (
            f"{self.distribution.describe()}  lnL={self.log_likelihood:.1f} "
            f"AIC={self.aic:.1f}"
        )


def negative_log_likelihood(distribution: Distribution, data: np.ndarray) -> float:
    """NLL of ``data`` under ``distribution`` (floored densities)."""
    with np.errstate(all="ignore"):
        density = np.asarray(distribution.pdf(np.asarray(data, dtype=float)), dtype=float)
    density = np.where(np.isfinite(density), density, 0.0)
    return float(-np.sum(np.log(np.maximum(density, _DENSITY_FLOOR))))


def fit_mle(
    data: np.ndarray,
    family: Type[Distribution],
    max_iter: int = 400,
) -> Optional[MLEResult]:
    """Maximum-likelihood fit of one family; None if it cannot start."""
    # Imported here: only the MLE ablation needs scipy.optimize.
    from scipy import optimize

    data = np.asarray(data, dtype=float)
    if data.size < 2:
        raise ValueError(f"need at least 2 observations, got {data.size}")
    if not np.all(np.isfinite(data)):
        raise ValueError("sample contains non-finite values; clean it before fitting")
    try:
        start = family.initial_guess(data)
    except (ValueError, ZeroDivisionError):
        return None
    template = start  # instance-level transform (Erlang keeps k frozen)

    def objective(vector: np.ndarray) -> float:
        try:
            candidate = template.from_unconstrained(vector)
        except (ValueError, OverflowError):
            return 1e300
        return negative_log_likelihood(candidate, data)

    x0 = start.to_unconstrained()
    result = optimize.minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={"maxiter": max_iter, "xatol": 1e-8, "fatol": 1e-10},
    )
    best_vector = result.x if np.isfinite(objective(result.x)) else x0
    try:
        fitted = template.from_unconstrained(best_vector)
    except (ValueError, OverflowError):
        return None
    log_likelihood = -negative_log_likelihood(fitted, data)
    k = x0.size
    return MLEResult(
        distribution=fitted,
        log_likelihood=log_likelihood,
        aic=2.0 * k - 2.0 * log_likelihood,
        converged=bool(result.success),
    )


def fit_mle_best(
    data: np.ndarray,
    candidates: Sequence[Type[Distribution]],
) -> MLEResult:
    """MLE-fit every family, return the lowest-AIC result."""
    results = []
    for family in candidates:
        fit = fit_mle(data, family)
        if fit is not None and np.isfinite(fit.aic):
            results.append(fit)
    if not results:
        raise ValueError("no candidate family produced a finite MLE fit")
    results.sort(key=lambda r: r.aic)
    return results[0]
