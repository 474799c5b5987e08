"""Burst-structure estimation for phase-coupled traffic generation.

Independent closed-loop sources reproduce each processor's *marginal*
inter-arrival distribution but not the cross-source correlation that
barrier-synchronized applications exhibit (all processors fire at
once after a phase boundary).  The validation experiment E8 quantifies
the resulting contention gap.

This module extracts a simple two-level burst model from the aggregate
inter-arrival series: gaps below a threshold are *within-burst*, gaps
above it separate bursts.  The model feeds
:class:`repro.core.synthetic.PhaseCoupledTrafficGenerator`, which
replays whole bursts at a time and recovers most of the original
contention (experiment E14).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass(frozen=True)
class BurstModel:
    """Two-level description of a bursty injection process.

    Attributes
    ----------
    threshold:
        Gap size separating within-burst from between-burst intervals.
    mean_within_gap:
        Mean gap between messages inside a burst.
    mean_between_gap:
        Mean silent interval between bursts.
    mean_burst_size:
        Mean number of messages per burst.
    burst_count:
        Number of bursts observed in the source series.
    """

    threshold: float
    mean_within_gap: float
    mean_between_gap: float
    mean_burst_size: float
    burst_count: int

    def describe(self) -> str:
        """One-line summary for reports."""
        return (
            f"bursts: {self.burst_count} x ~{self.mean_burst_size:.1f} msgs, "
            f"within-gap {self.mean_within_gap:.2f}, "
            f"between-gap {self.mean_between_gap:.2f} "
            f"(threshold {self.threshold:.2f})"
        )


def estimate_bursts(interarrivals: np.ndarray, threshold: float = 0.0) -> BurstModel:
    """Fit a :class:`BurstModel` to an aggregate inter-arrival series.

    Parameters
    ----------
    interarrivals:
        Gaps between consecutive injections (network-wide).
    threshold:
        Within/between cutoff; 0 selects the series mean (a gap larger
        than the average is, by definition of burstiness, a lull).
    """
    series = np.asarray(interarrivals, dtype=float)
    if series.size < 2:
        raise ValueError(f"need at least 2 gaps to estimate bursts, got {series.size}")
    if threshold <= 0.0:
        threshold = float(np.mean(series))
    within_mask = series < threshold
    within = series[within_mask]
    between = series[~within_mask]
    if between.size == 0:
        # Degenerate: one giant burst.
        return BurstModel(
            threshold=threshold,
            mean_within_gap=float(np.mean(within)) if within.size else threshold,
            mean_between_gap=threshold,
            mean_burst_size=float(series.size + 1),
            burst_count=1,
        )

    burst_sizes: List[int] = []
    current = 1  # messages in the burst under construction
    for is_within in within_mask:
        if is_within:
            current += 1
        else:
            burst_sizes.append(current)
            current = 1
    burst_sizes.append(current)

    return BurstModel(
        threshold=threshold,
        mean_within_gap=float(np.mean(within)) if within.size else 0.0,
        mean_between_gap=float(np.mean(between)),
        mean_burst_size=float(np.mean(burst_sizes)),
        burst_count=len(burst_sizes),
    )
