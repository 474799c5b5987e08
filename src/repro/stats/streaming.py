"""One-pass, mergeable streaming statistics.

The activity log's summary fold (:class:`repro.mesh.netlog.LogSummary`)
observes bounded chunks and combines per-chunk partial results, one
per spilled segment (:mod:`repro.mesh.netlog_stream`).  Its estimator,
:class:`StreamingMoments` (the count, sum, min and max, and so the mean,
of a series), therefore satisfies this contract:

* **one-pass** -- ``observe`` consumes a chunk in a single vectorized
  sweep and retains O(1) state, never the data;
* **mergeable** -- ``merge(other)`` folds another partial into this
  one, and merging partials in a fixed order is *deterministic*: the
  same partials merged in the same order produce bit-identical state
  (integer tallies are exact in any order; float accumulations are
  exact for the order merged);
* **serializable** -- ``as_dict``/``from_dict`` round-trip the state
  through JSON without drift (Python's ``repr``-based float
  serialization is exact), so partials can live inside spill
  manifests.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

import numpy as np

__all__ = [
    "StreamingMoments",
]


def _float_or_none(value: float) -> Optional[float]:
    """Non-finite sentinels (untouched min/max) serialize as None."""
    return None if math.isinf(value) else float(value)


class StreamingMoments:
    """Count, sum, min and max of a series, one chunk at a time.

    The running sum is a plain left-to-right accumulation over chunk
    sums: merging partials in a fixed order is deterministic, but the
    total differs from :func:`numpy.sum` over the whole series (which
    uses pairwise summation) by normal float round-off -- consumers
    compare means to a documented tolerance, never bit-for-bit.
    Integer inputs tally exactly.
    """

    __slots__ = ("count", "total", "min_value", "max_value")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf

    def observe(self, values: np.ndarray) -> None:
        """Fold one chunk (any array-like of numbers) into the state."""
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        self.count += int(values.size)
        self.total += float(values.sum())
        self.min_value = min(self.min_value, float(values.min()))
        self.max_value = max(self.max_value, float(values.max()))

    def merge(self, other: "StreamingMoments") -> None:
        """Fold another partial into this one (other is unchanged)."""
        self.count += other.count
        self.total += other.total
        self.min_value = min(self.min_value, other.min_value)
        self.max_value = max(self.max_value, other.max_value)

    @property
    def mean(self) -> float:
        """Mean of everything observed (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total": self.total,
            "min": _float_or_none(self.min_value),
            "max": _float_or_none(self.max_value),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "StreamingMoments":
        out = cls()
        out.count = int(doc["count"])  # type: ignore[arg-type]
        out.total = float(doc["total"])  # type: ignore[arg-type]
        out.min_value = math.inf if doc["min"] is None else float(doc["min"])  # type: ignore[arg-type]
        out.max_value = -math.inf if doc["max"] is None else float(doc["max"])  # type: ignore[arg-type]
        return out
