"""Temporal-dependence analysis of inter-arrival series.

Fitting a marginal distribution (the paper's methodology) captures
*how often* messages are generated but not *in what order* the gaps
occur.  The lag-k autocorrelation of the inter-arrival series measures
that ordering: barrier-synchronized applications show strong positive
correlation at small lags (short gaps cluster inside bursts), which is
exactly the structure the phase-coupled generator models and the
independent-renewal generator discards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


def autocorrelation(series: np.ndarray, lag: int) -> float:
    """Sample autocorrelation of ``series`` at ``lag``.

    Returns 0.0 for degenerate series (zero variance).
    """
    series = np.asarray(series, dtype=float)
    if lag < 0:
        raise ValueError(f"lag must be >= 0, got {lag}")
    if series.size < lag + 2:
        raise ValueError(
            f"need at least lag+2={lag + 2} observations, got {series.size}"
        )
    if lag == 0:
        return 1.0
    centered = series - series.mean()
    denominator = float(np.dot(centered, centered))
    if denominator <= 0:
        return 0.0
    numerator = float(np.dot(centered[:-lag], centered[lag:]))
    return numerator / denominator


@dataclass(frozen=True)
class CorrelationProfile:
    """Autocorrelation structure of an inter-arrival series.

    Attributes
    ----------
    lags:
        The lags evaluated (1..max_lag).
    values:
        Autocorrelation at each lag.
    significance_bound:
        The +-1.96/sqrt(n) white-noise band (per-lag diagnostic).
    q_statistic:
        Ljung-Box portmanteau statistic over all evaluated lags.
    p_value:
        Ljung-Box p-value under the white-noise null; small values
        mean the series has real temporal dependence.
    """

    lags: List[int]
    values: List[float]
    significance_bound: float
    q_statistic: float
    p_value: float

    @property
    def significant_lags(self) -> List[int]:
        """Lags whose autocorrelation escapes the white-noise band."""
        return [
            lag
            for lag, value in zip(self.lags, self.values)
            if abs(value) > self.significance_bound
        ]

    @property
    def is_renewal_like(self) -> bool:
        """True when the Ljung-Box test cannot reject white noise (an
        independent-marginal generator is then sufficient)."""
        return self.p_value > 0.01

    @property
    def peak_lag(self) -> int:
        """Lag with the largest absolute autocorrelation (e.g. the
        burst period of phase-structured traffic)."""
        index = int(np.argmax(np.abs(self.values)))
        return self.lags[index]

    def describe(self) -> str:
        """One-line summary for reports."""
        shown = ", ".join(
            f"r{lag}={value:.2f}" for lag, value in zip(self.lags[:5], self.values[:5])
        )
        verdict = (
            "renewal-like"
            if self.is_renewal_like
            else f"dependent (peak lag {self.peak_lag}, p={self.p_value:.2g})"
        )
        return f"{shown} (band +-{self.significance_bound:.3f}; {verdict})"


def correlation_profile(series: np.ndarray, max_lag: int = 10) -> CorrelationProfile:
    """Autocorrelations of ``series`` at lags 1..``max_lag``."""
    series = np.asarray(series, dtype=float)
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    usable = min(max_lag, series.size - 2)
    if usable < 1:
        raise ValueError(f"series too short ({series.size}) for any lag")
    lags = list(range(1, usable + 1))
    values = [autocorrelation(series, lag) for lag in lags]
    n = series.size
    q_statistic = float(
        n * (n + 2) * sum(r * r / (n - lag) for lag, r in zip(lags, values))
    )
    # Imported here, so that a process that never fits skips scipy.special.
    from scipy.special import chdtrc

    # chi2(df).sf, with SciPy's 1 on the closed lower tail q <= 0.
    p_value = 1.0 if q_statistic <= 0 else float(chdtrc(len(lags), q_statistic))
    return CorrelationProfile(
        lags=lags,
        values=values,
        significance_bound=1.96 / np.sqrt(n),
        q_statistic=q_statistic,
        p_value=p_value,
    )
