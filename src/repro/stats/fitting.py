"""End-to-end distribution fitting with model selection.

This is the analysis step of the methodology: take the inter-arrival
(or message-length) series from the network activity log, bin it, run
the secant regression of each candidate family's PDF against the
empirical density, score by R-squared (as the paper does) with the KS
distance as a secondary check, and report the winning "commonly used
distribution".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Type

import numpy as np

from repro.stats.distributions import (
    Deterministic,
    Distribution,
    continuous_candidates,
)
from repro.stats.goodness import ks_statistic, r_squared
from repro.stats.histogram import Histogram, build_histogram
from repro.stats.secant import secant_least_squares

#: Relative coefficient of variation below which a sample is treated as
#: deterministic (no regression needed).
DETERMINISTIC_CV_THRESHOLD = 1e-6


@dataclass(frozen=True)
class FitResult:
    """One candidate family's fit to a sample.

    Attributes
    ----------
    distribution:
        The fitted distribution instance.
    r2:
        Regression R-squared against the empirical density (the paper's
        headline fit-quality number).
    ks:
        Kolmogorov-Smirnov distance between sample and fitted CDF.
    sse:
        Regression sum of squared errors.
    converged:
        Whether the secant solver converged.
    """

    distribution: Distribution
    r2: float
    ks: float
    sse: float
    converged: bool

    @property
    def name(self) -> str:
        """Family name of the fitted distribution."""
        return self.distribution.name

    def describe(self) -> str:
        """One-line report, e.g. for the experiment tables."""
        return f"{self.distribution.describe()}  R2={self.r2:.4f}  KS={self.ks:.4f}"


def _fit_one(
    data: np.ndarray,
    histogram: Histogram,
    family: Type[Distribution],
    max_iter: int,
) -> Optional[FitResult]:
    """Regress one family's PDF onto the empirical density."""
    try:
        start = family.initial_guess(data)
    except (ValueError, ZeroDivisionError):
        return None

    template = start  # Erlang freezes k on the instance; others are classmethods.
    mask = histogram.counts > 0
    centers = histogram.centers[mask]
    density = histogram.density[mask]
    weights = histogram.counts[mask].astype(float)
    if centers.size == 0:
        return None

    # Every parameter point still builds its instance, so each family's
    # parameter checks run; on finite, positive centers the instance's
    # in-support density gives pdf's bits without pdf's masks.  Each
    # residual is weighted by the square root of its bin's count, so
    # dense bins dominate the fit.
    positive = bool(np.isfinite(centers).all() and (centers > 0).all())
    sqrt_w = np.sqrt(weights)

    def residual(params: np.ndarray) -> np.ndarray:
        dist = template.from_unconstrained(params)
        predicted = (
            dist._density(centers) if positive else np.asarray(dist.pdf(centers), dtype=float)
        )
        return (predicted - density) * sqrt_w

    try:
        solution = secant_least_squares(
            residual, start.to_unconstrained(), max_iter=max_iter, tol=1e-10
        )
        fitted = template.from_unconstrained(solution.x)
    except (ValueError, np.linalg.LinAlgError):
        return None

    # R2 for ranking is computed unweighted on the nonempty bins so all
    # candidates are compared on identical ground.
    predicted = np.asarray(fitted.pdf(centers), dtype=float)
    if not np.all(np.isfinite(predicted)):
        return None
    return FitResult(
        distribution=fitted,
        r2=r_squared(density, predicted),
        ks=ks_statistic(data, fitted),
        sse=solution.sse,
        converged=solution.converged,
    )


def fit_distribution(
    data: np.ndarray,
    candidates: Optional[Sequence[Type[Distribution]]] = None,
    bins: int = 0,
    policy: str = "equal-mass",
    max_iter: int = 60,
) -> List[FitResult]:
    """Fit all candidate families to ``data``; best fit first.

    Parameters
    ----------
    data:
        The observed sample (e.g. inter-arrival times). Needs >= 2 points.
    candidates:
        Families to try (default: :func:`continuous_candidates`).
    bins, policy:
        Histogram construction (see :func:`build_histogram`).  The
        default equal-mass binning keeps tail bins as informative as
        bulk bins, which matters for bursty (CV > 1) series; equal-width
        is available for the binning ablation called out in DESIGN.md.
    max_iter:
        Secant-solver iteration budget per family.

    Returns
    -------
    list of FitResult
        Sorted best-first by the selection score ``R2 - KS``.  The
        regression R-squared (the paper's fit-quality number) dominates,
        but the KS term vetoes degenerate fits that ace the binned
        density while misrepresenting the CDF (e.g. a collapsed uniform
        on heavy-tailed data).  A deterministic sample short-circuits to
        a single :class:`Deterministic` result with R2 = 1.
    """
    data = np.asarray(data, dtype=float)
    if data.size < 2:
        raise ValueError(f"need at least 2 observations to fit, got {data.size}")
    if not np.all(np.isfinite(data)):
        raise ValueError("sample contains non-finite values; clean it before fitting")

    mean = float(np.mean(data))
    std = float(np.std(data))
    if mean > 0 and std / mean < DETERMINISTIC_CV_THRESHOLD or std == 0.0:
        dist = Deterministic(value=mean)
        return [FitResult(distribution=dist, r2=1.0, ks=0.0, sse=0.0, converged=True)]

    histogram = build_histogram(data, bins=bins, policy=policy)
    families = list(candidates) if candidates is not None else continuous_candidates()
    results: List[FitResult] = []
    for family in families:
        fit = _fit_one(data, histogram, family, max_iter)
        if fit is not None and np.isfinite(fit.r2):
            results.append(fit)
    if not results:
        raise ValueError("no candidate family produced a finite fit")
    results.sort(key=lambda f: (-(f.r2 - f.ks), f.ks))
    return results

