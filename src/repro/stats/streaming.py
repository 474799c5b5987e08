"""One-pass, mergeable streaming statistics.

The activity log's summary fold (:class:`repro.mesh.netlog.LogSummary`)
observes bounded chunks and combines per-chunk partial results, one
per spilled segment (:mod:`repro.mesh.netlog_stream`).  Every estimator
here therefore satisfies the same contract:

* **one-pass** -- ``observe``/``observe_sorted`` consume a chunk in a
  single vectorized sweep and retain O(1) or O(K) state, never the
  data;
* **mergeable** -- ``merge(other)`` folds another partial into this
  one, and merging partials in a fixed order is *deterministic*: the
  same partials merged in the same order produce bit-identical state
  (integer tallies are exact in any order; float accumulations are
  exact for the order merged);
* **serializable** -- ``as_dict``/``from_dict`` round-trip the state
  through JSON without drift (Python's ``repr``-based float
  serialization is exact), so partials can live inside spill
  manifests.

Estimators:

* :class:`StreamingMoments` -- count/sum/min/max (and mean) of a
  series.
* :class:`QuantileDigest` -- a bounded weighted order-statistic sketch
  that is mergeable: each chunk contributes evenly spaced order
  statistics weighted to the chunk size, and the sketch compresses
  back to a fixed budget.  The spill manifests store one for latency.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

import numpy as np

__all__ = [
    "QuantileDigest",
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


class QuantileDigest:
    """Bounded, mergeable weighted order-statistic sketch.

    A chunk of ``n`` sorted values contributes ``min(n, chunk_samples)``
    evenly spaced order statistics, each weighted ``n / k`` so the
    sketch keeps representing all ``n`` observations.  When the stored
    point budget exceeds ``maxlen`` the sketch re-quantizes to
    ``maxlen // 2`` evenly spaced *weighted* quantile points.  Merging
    concatenates two sketches' points (stable sort by value) and
    compresses the same way, so fold order is deterministic:
    bit-identical partials merged in the same order give bit-identical
    sketches.  Accuracy is that of ~``maxlen // 2`` quantile knots:
    a few parts in a thousand of rank for smooth distributions.
    """

    DEFAULT_MAXLEN = 512
    DEFAULT_CHUNK_SAMPLES = 128

    __slots__ = ("maxlen", "chunk_samples", "count", "_values", "_weights")

    def __init__(
        self,
        maxlen: int = DEFAULT_MAXLEN,
        chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
    ) -> None:
        if maxlen < 4:
            raise ValueError(f"maxlen must be >= 4, got {maxlen}")
        if chunk_samples < 2:
            raise ValueError(f"chunk_samples must be >= 2, got {chunk_samples}")
        self.maxlen = int(maxlen)
        self.chunk_samples = int(chunk_samples)
        self.count = 0
        self._values = np.empty(0, dtype=float)
        self._weights = np.empty(0, dtype=float)

    def observe_sorted(self, sorted_values: np.ndarray) -> None:
        """Fold one ascending-sorted chunk into the sketch."""
        sorted_values = np.asarray(sorted_values, dtype=float)
        n = int(sorted_values.size)
        if n == 0:
            return
        self.count += n
        k = min(n, self.chunk_samples)
        if k == n:
            values = sorted_values.copy()
            weights = np.ones(n, dtype=float)
        else:
            # Midpoint order statistics: rank (j + 0.5) / k for each of
            # the k samples, each standing in for n / k observations.
            idx = ((np.arange(k) + 0.5) * (n / k)).astype(np.int64)
            values = sorted_values[idx].astype(float)
            weights = np.full(k, n / k, dtype=float)
        self._absorb(values, weights)

    def observe(self, values: np.ndarray) -> None:
        """Fold one chunk (sorted internally)."""
        self.observe_sorted(np.sort(np.asarray(values, dtype=float)))

    def _absorb(self, values: np.ndarray, weights: np.ndarray) -> None:
        if self._values.size == 0:
            self._values, self._weights = values, weights
        else:
            merged_values = np.concatenate([self._values, values])
            merged_weights = np.concatenate([self._weights, weights])
            order = np.argsort(merged_values, kind="stable")
            self._values = merged_values[order]
            self._weights = merged_weights[order]
        if self._values.size > self.maxlen:
            self._compress()

    def _compress(self) -> None:
        k = self.maxlen // 2
        cum = np.cumsum(self._weights)
        total = cum[-1]
        targets = (np.arange(k) + 0.5) / k * total
        pos = np.searchsorted(cum, targets, side="left")
        pos = np.clip(pos, 0, self._values.size - 1)
        self._values = self._values[pos].copy()
        self._weights = np.full(k, total / k, dtype=float)

    def merge(self, other: "QuantileDigest") -> None:
        """Fold another sketch into this one (other is unchanged)."""
        if other.count == 0:
            return
        self.count += other.count
        self._absorb(other._values.copy(), other._weights.copy())

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (NaN when nothing was observed)."""
        if self.count == 0:
            return math.nan
        q = min(max(float(q), 0.0), 1.0)
        cum = np.cumsum(self._weights)
        centers = cum - 0.5 * self._weights
        target = q * cum[-1]
        return float(np.interp(target, centers, self._values))

    def as_dict(self) -> Dict[str, object]:
        return {
            "maxlen": self.maxlen,
            "chunk_samples": self.chunk_samples,
            "count": self.count,
            "values": [float(v) for v in self._values],
            "weights": [float(w) for w in self._weights],
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "QuantileDigest":
        out = cls(
            maxlen=int(doc["maxlen"]),  # type: ignore[arg-type]
            chunk_samples=int(doc["chunk_samples"]),  # type: ignore[arg-type]
        )
        out.count = int(doc["count"])  # type: ignore[arg-type]
        values = np.asarray(doc["values"], dtype=float)
        weights = np.asarray(doc["weights"], dtype=float)
        if values.shape != weights.shape:
            raise ValueError("digest values and weights must have equal length")
        out._values = values
        out._weights = weights
        return out
