"""Out-of-core network activity logs: bounded window, spilled segments,
mergeable one-pass summaries.

The columnar :class:`~repro.mesh.netlog.NetworkLog` (and everything
downstream of it) materializes every record in RAM before analysis.
This module adds the streaming mode that takes characterization to
10M+ messages without that ceiling:

* :class:`StreamingNetworkLog` keeps a bounded in-memory *window* (a
  plain :class:`NetworkLog`); whenever the window fills it is sealed,
  written to a sharded compressed segment (``<stem>.part-000.npz``,
  ``part-001`` ...) and replaced by a fresh window.  ``finalize()``
  spills the remainder and writes a JSON *manifest*
  (``<stem>.manifest.json``) describing every segment plus the merged
  summary.
* :class:`StreamingSummary` is the mergeable one-pass statistics layer:
  running :class:`~repro.mesh.netlog.LogSummary` moments, incremental
  destination/volume traffic matrices (dense ``int64``, grown to the
  highest endpoint seen), per-length and per-kind tallies, a fixed-bin
  latency histogram, and bounded quantile sketches for latency and
  inter-arrival percentiles.  One partial is built per window before it
  spills; the log-level summary is the fold of the per-segment partials
  *in segment order*.

Determinism contract (the one per-region merges will inherit):

* Everything integer -- message/byte totals, traffic matrices, length,
  kind and histogram tallies -- is **exact**: independent of window
  size, chunking, and merge order, and therefore bit-identical to the
  in-memory oracle.
* Float accumulations (latency/contention sums, hence means) are exact
  *for the merge order used*: merging the same partials in the same
  order is bit-for-bit reproducible, but differs from
  :func:`numpy.mean` over the whole column (pairwise summation) by
  normal round-off.  Quantiles come from bounded sketches and carry a
  documented rank error instead of bit-equality.
* Inter-arrival statistics are *segment-local*: each window
  contributes the diffs of its own sorted injection times, so the one
  gap per segment boundary is not observed (a ``1 / window`` fraction
  of the series).  Full-fidelity inter-arrival series remain available
  from the segments via :meth:`StreamingNetworkLog.interarrival_times`.

Readers: :func:`read_manifest`, :func:`iter_segments` (one bounded
:class:`NetworkLog` per shard), :func:`summary_from_manifest` (no
segment reads at all -- the manifest embeds the partials),
:func:`materialize_manifest` (the escape hatch back to an in-memory
log), and :func:`summarize_csv` / :func:`summarize_npz` which build the
same fold from non-segmented files, O(window) for CSV.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.mesh.netlog import (
    LogSummary,
    NetLogFormatError,
    NetLogRecord,
    NetworkLog,
)
from repro.obs.fsio import atomic_write_text
from repro.stats.streaming import (
    QuantileDigest,
    StreamingHistogram,
    StreamingMoments,
    geometric_edges,
)

__all__ = [
    "DEFAULT_WINDOW",
    "LATENCY_EDGES",
    "MANIFEST_KIND",
    "MANIFEST_SUFFIX",
    "StreamingNetworkLog",
    "StreamingSummary",
    "iter_segments",
    "materialize_manifest",
    "read_manifest",
    "summarize_csv",
    "summarize_npz",
    "summary_from_manifest",
]

#: Default in-memory window (records) before a spill: ~20 MB of sealed
#: columns -- small against any modern RSS budget, large enough that
#: per-segment overheads (compression, partial summaries) amortize.
DEFAULT_WINDOW = 262_144

#: Shared fixed edges for the streaming latency histogram.  Fixed-bin
#: is what makes the histogram mergeable; this geometric ladder covers
#: every latency the simulator produces (sub-cycle to 10^6 time units)
#: with ~11% resolution, and out-of-range values land in the
#: underflow/overflow tallies rather than being dropped.
LATENCY_EDGES = geometric_edges(1e-3, 1e6, 180)

MANIFEST_KIND = "netlog-spill"
MANIFEST_SUFFIX = ".manifest.json"
MANIFEST_SCHEMA_VERSION = 1


class StreamingSummary:
    """Mergeable one-pass statistics over chunks of log columns.

    Build one per sealed chunk with :meth:`from_log` (or feed chunks
    into a single instance via :meth:`observe_log`), then fold partials
    with :meth:`merge` / :meth:`merged`.  See the module docstring for
    the exactness/determinism contract.
    """

    SCHEMA_VERSION = 1

    __slots__ = (
        "messages",
        "total_bytes",
        "chunks",
        "first_inject",
        "last_inject",
        "last_deliver",
        "latency",
        "contention",
        "count_matrix",
        "volume_matrix",
        "length_counts",
        "kind_counts",
        "latency_hist",
        "latency_digest",
        "interarrival_digest",
    )

    def __init__(self) -> None:
        self.messages = 0
        self.total_bytes = 0
        self.chunks = 0
        self.first_inject = math.inf
        self.last_inject = -math.inf
        self.last_deliver = -math.inf
        self.latency = StreamingMoments()
        self.contention = StreamingMoments()
        #: Dense (src, dst) tallies grown to the highest endpoint + 1.
        #: int64 keeps both matrices exact under any merge order.
        self.count_matrix = np.zeros((0, 0), dtype=np.int64)
        self.volume_matrix = np.zeros((0, 0), dtype=np.int64)
        self.length_counts: Dict[int, int] = {}
        self.kind_counts: Dict[str, int] = {}
        self.latency_hist = StreamingHistogram(LATENCY_EDGES)
        self.latency_digest = QuantileDigest()
        self.interarrival_digest = QuantileDigest()

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    @classmethod
    def from_log(cls, log: NetworkLog) -> "StreamingSummary":
        """The partial summary of one in-memory log (one chunk)."""
        out = cls()
        out.observe_log(log)
        return out

    def observe_log(self, log: NetworkLog) -> None:
        """Fold one sealed log's columns in as a single chunk."""
        cols, kind_vocab = log.columns()
        self.observe_chunk(cols, kind_vocab)

    def _ensure_nodes(self, size: int) -> None:
        if size <= self.count_matrix.shape[0]:
            return
        for name in ("count_matrix", "volume_matrix"):
            old = getattr(self, name)
            grown = np.zeros((size, size), dtype=np.int64)
            grown[: old.shape[0], : old.shape[1]] = old
            setattr(self, name, grown)

    def observe_chunk(
        self, cols: Mapping[str, np.ndarray], kind_vocab: Sequence[str]
    ) -> None:
        """Fold one chunk of sealed columns into the running state.

        Validates endpoints are non-negative (naming the offending
        ``msg_id``); the upper bound is checked later, when a matrix is
        requested for a concrete network size.
        """
        src = np.asarray(cols["src"])
        dst = np.asarray(cols["dst"])
        n = int(src.size)
        if n == 0:
            self.chunks += 1
            return
        negative = (src < 0) | (dst < 0)
        if negative.any():
            i = int(np.flatnonzero(negative)[0])
            raise ValueError(
                f"record msg_id={int(cols['msg_id'][i])} has negative endpoint "
                f"(src={int(src[i])}, dst={int(dst[i])})"
            )
        lengths = np.asarray(cols["length_bytes"])
        inject = np.asarray(cols["inject_time"])
        deliver = np.asarray(cols["deliver_time"])

        self.messages += n
        self.total_bytes += int(lengths.sum())
        self.chunks += 1
        self.first_inject = min(self.first_inject, float(inject.min()))
        self.last_inject = max(self.last_inject, float(inject.max()))
        self.last_deliver = max(self.last_deliver, float(deliver.max()))

        latency = deliver - inject
        self.latency.observe(latency)
        self.contention.observe(cols["contention"])
        self.latency_hist.observe(latency)
        self.latency_digest.observe_sorted(np.sort(latency))
        if n >= 2:
            gaps = np.diff(np.sort(inject))
            self.interarrival_digest.observe_sorted(np.sort(gaps))

        size = int(max(src.max(), dst.max())) + 1
        self._ensure_nodes(size)
        m = self.count_matrix.shape[0]
        flat = src * m + dst
        self.count_matrix += np.bincount(flat, minlength=m * m).reshape(m, m)
        # bincount weights are float64; payload sums stay < 2**53, so
        # the cast back to int64 is exact.
        volume = np.bincount(
            flat, weights=lengths.astype(float), minlength=m * m
        ).reshape(m, m)
        self.volume_matrix += volume.astype(np.int64)

        values, counts = np.unique(lengths, return_counts=True)
        for value, count in zip(values, counts):
            key = int(value)
            self.length_counts[key] = self.length_counts.get(key, 0) + int(count)
        if len(kind_vocab):
            codes = np.bincount(
                np.asarray(cols["kind"]), minlength=len(kind_vocab)
            )
            for i, kind in enumerate(kind_vocab):
                if codes[i]:
                    self.kind_counts[kind] = self.kind_counts.get(kind, 0) + int(
                        codes[i]
                    )

    # ------------------------------------------------------------------
    # merging
    # ------------------------------------------------------------------
    def merge(self, other: "StreamingSummary") -> None:
        """Fold another partial into this one (other is unchanged).

        Deterministic: merging the same partials in the same order is
        bit-for-bit reproducible (see the module contract).
        """
        self.messages += other.messages
        self.total_bytes += other.total_bytes
        self.chunks += other.chunks
        self.first_inject = min(self.first_inject, other.first_inject)
        self.last_inject = max(self.last_inject, other.last_inject)
        self.last_deliver = max(self.last_deliver, other.last_deliver)
        self.latency.merge(other.latency)
        self.contention.merge(other.contention)
        if other.count_matrix.shape[0]:
            self._ensure_nodes(other.count_matrix.shape[0])
            m = other.count_matrix.shape[0]
            self.count_matrix[:m, :m] += other.count_matrix
            self.volume_matrix[:m, :m] += other.volume_matrix
        for key, count in other.length_counts.items():
            self.length_counts[key] = self.length_counts.get(key, 0) + count
        for kind, count in other.kind_counts.items():
            self.kind_counts[kind] = self.kind_counts.get(kind, 0) + count
        self.latency_hist.merge(other.latency_hist)
        self.latency_digest.merge(other.latency_digest)
        self.interarrival_digest.merge(other.interarrival_digest)

    @classmethod
    def merged(cls, parts: Sequence["StreamingSummary"]) -> "StreamingSummary":
        """Fold ``parts`` left to right into a fresh summary.

        The canonical construction: a segmented log's summary is
        ``merged(per-segment partials in segment order)``.  Zero parts
        give the empty summary.
        """
        out = cls()
        for part in parts:
            out.merge(part)
        return out

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------
    def summary(self) -> LogSummary:
        """The scalar :class:`LogSummary`, from O(1) running state."""
        if self.messages == 0:
            return LogSummary(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        span = self.last_deliver - self.first_inject
        injection_span = self.last_inject - self.first_inject
        return LogSummary(
            messages=self.messages,
            total_bytes=self.total_bytes,
            span=span,
            injection_span=injection_span,
            mean_latency=self.latency.mean,
            mean_contention=self.contention.mean,
            offered_rate=self.messages / injection_span if injection_span > 0 else 0.0,
            throughput=self.messages / span if span > 0 else 0.0,
        )

    def latency_percentile(self, q: float) -> float:
        """Estimated latency quantile (documented sketch tolerance)."""
        return self.latency_digest.quantile(q)

    def interarrival_percentile(self, q: float) -> float:
        """Estimated inter-arrival quantile (segment-local gaps)."""
        return self.interarrival_digest.quantile(q)

    def num_nodes_seen(self) -> int:
        """Highest endpoint id observed, plus one (0 when empty)."""
        return int(self.count_matrix.shape[0])

    def matrix(self, num_nodes: int, volume: bool = False) -> np.ndarray:
        """The (src, dst) count or byte-volume matrix padded/validated
        to ``num_nodes``; raises :class:`ValueError` when the log holds
        endpoints outside ``[0, num_nodes)``."""
        source = self.volume_matrix if volume else self.count_matrix
        seen = source.shape[0]
        if seen > num_nodes:
            outside = source[num_nodes:, :].sum() + source[:, num_nodes:].sum()
            if outside > 0:
                raise ValueError(
                    f"log contains endpoints up to {seen - 1} outside the "
                    f"{num_nodes}-node network"
                )
            return source[:num_nodes, :num_nodes].astype(float)
        out = np.zeros((num_nodes, num_nodes), dtype=float)
        out[:seen, :seen] = source
        return out

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """JSON-safe state; :meth:`from_dict` round-trips bit-exactly
        (floats serialize via ``repr``)."""
        return {
            "schema": self.SCHEMA_VERSION,
            "messages": self.messages,
            "total_bytes": self.total_bytes,
            "chunks": self.chunks,
            "first_inject": None if self.messages == 0 else self.first_inject,
            "last_inject": None if self.messages == 0 else self.last_inject,
            "last_deliver": None if self.messages == 0 else self.last_deliver,
            "latency": self.latency.as_dict(),
            "contention": self.contention.as_dict(),
            "count_matrix": [[int(v) for v in row] for row in self.count_matrix],
            "volume_matrix": [[int(v) for v in row] for row in self.volume_matrix],
            "length_counts": {
                str(size): count for size, count in sorted(self.length_counts.items())
            },
            "kind_counts": dict(sorted(self.kind_counts.items())),
            "latency_hist": self.latency_hist.as_dict(),
            "latency_digest": self.latency_digest.as_dict(),
            "interarrival_digest": self.interarrival_digest.as_dict(),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "StreamingSummary":
        try:
            version = int(doc["schema"])  # type: ignore[arg-type]
            if version != cls.SCHEMA_VERSION:
                raise ValueError(
                    f"streaming summary schema {version} is not supported "
                    f"(this build reads {cls.SCHEMA_VERSION})"
                )
            out = cls()
            out.messages = int(doc["messages"])  # type: ignore[arg-type]
            out.total_bytes = int(doc["total_bytes"])  # type: ignore[arg-type]
            out.chunks = int(doc["chunks"])  # type: ignore[arg-type]
            if doc["first_inject"] is not None:
                out.first_inject = float(doc["first_inject"])  # type: ignore[arg-type]
                out.last_inject = float(doc["last_inject"])  # type: ignore[arg-type]
                out.last_deliver = float(doc["last_deliver"])  # type: ignore[arg-type]
            out.latency = StreamingMoments.from_dict(doc["latency"])  # type: ignore[arg-type]
            out.contention = StreamingMoments.from_dict(doc["contention"])  # type: ignore[arg-type]
            count = np.asarray(doc["count_matrix"], dtype=np.int64)
            volume = np.asarray(doc["volume_matrix"], dtype=np.int64)
            if count.size == 0:
                count = np.zeros((0, 0), dtype=np.int64)
            if volume.size == 0:
                volume = np.zeros((0, 0), dtype=np.int64)
            if (
                count.ndim != 2
                or count.shape[0] != count.shape[1]
                or count.shape != volume.shape
            ):
                raise ValueError(
                    f"traffic matrices must be square and equal-shaped, got "
                    f"{count.shape} and {volume.shape}"
                )
            out.count_matrix = count
            out.volume_matrix = volume
            out.length_counts = {
                int(size): int(count)
                for size, count in doc["length_counts"].items()  # type: ignore[union-attr]
            }
            out.kind_counts = {
                str(kind): int(count)
                for kind, count in doc["kind_counts"].items()  # type: ignore[union-attr]
            }
            out.latency_hist = StreamingHistogram.from_dict(doc["latency_hist"])  # type: ignore[arg-type]
            out.latency_digest = QuantileDigest.from_dict(doc["latency_digest"])  # type: ignore[arg-type]
            out.interarrival_digest = QuantileDigest.from_dict(
                doc["interarrival_digest"]  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, AttributeError) as error:
            raise ValueError(f"not a streaming summary document: {error!r}") from error
        return out


class StreamingNetworkLog:
    """A :class:`NetworkLog`-compatible collector that spills full
    windows to compressed npz segments (see the module docstring).

    Presents the analysis surface the characterization pipelines
    consume -- ``summary()``, traffic matrices, length/kind tallies,
    inter-arrival series -- with everything except the explicit
    inter-arrival/materialization escape hatches served from O(window)
    state.
    """

    def __init__(
        self,
        directory: str,
        stem: str = "netlog",
        window: int = DEFAULT_WINDOW,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.directory = str(directory)
        self.stem = str(stem)
        self.window = int(window)
        os.makedirs(self.directory, exist_ok=True)
        self._window_log = NetworkLog()
        # Records in the live window, counted here so an append needs
        # no ``len()`` of the window log.
        self._window_fill = 0
        self._partials: List[StreamingSummary] = []
        self._segments: List[Dict[str, object]] = []
        self._spilled_records = 0
        self._merged_cache: Optional[StreamingSummary] = None

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, self.stem + MANIFEST_SUFFIX)

    @property
    def segment_count(self) -> int:
        """Segments spilled so far (the live window is not one)."""
        return len(self._segments)

    def __len__(self) -> int:
        return self._spilled_records + self._window_fill

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def append(
        self,
        msg_id: int,
        src: int,
        dst: int,
        length_bytes: int,
        kind: str,
        inject_time: float,
        start_time: float,
        deliver_time: float,
        contention: float,
        hops: int,
    ) -> None:
        """Append one record; spills the window when it fills."""
        self._window_log.append(
            msg_id,
            src,
            dst,
            length_bytes,
            kind,
            inject_time,
            start_time,
            deliver_time,
            contention,
            hops,
        )
        self._merged_cache = None
        self._window_fill += 1
        if self._window_fill >= self.window:
            self._spill()

    def add(self, record: NetLogRecord) -> None:
        """Append one delivered-message record (the delivery path: one
        call into the window log, as :meth:`append` makes)."""
        self._window_log.append(
            record.msg_id,
            record.src,
            record.dst,
            record.length_bytes,
            record.kind,
            record.inject_time,
            record.start_time,
            record.deliver_time,
            record.contention,
            record.hops,
        )
        self._merged_cache = None
        self._window_fill += 1
        if self._window_fill >= self.window:
            self._spill()

    def extend(self, records) -> None:
        """Append many records."""
        for record in records:
            self.add(record)

    def extend_columns(self, **columns) -> None:
        """Bulk append parallel column arrays, splitting at window
        boundaries (the benchmark/reader ingestion fast path).  Takes
        the same keyword columns as :meth:`NetworkLog.extend_columns`.
        """
        kind = columns.pop("kind")
        arrays = {name: np.asarray(values) for name, values in columns.items()}
        n = arrays["msg_id"].size
        kind_tags = None if isinstance(kind, str) else np.asarray(kind)
        start = 0
        while start < n:
            take = min(n - start, self.window - self._window_fill)
            stop = start + take
            self._window_log.extend_columns(
                kind=kind if kind_tags is None else kind_tags[start:stop],
                **{name: array[start:stop] for name, array in arrays.items()},
            )
            self._merged_cache = None
            self._window_fill += take
            if self._window_fill >= self.window:
                self._spill()
            start = stop

    def _spill(self) -> None:
        window_log = self._window_log
        records = self._window_fill
        if records == 0:
            return
        index = len(self._segments)
        name = f"{self.stem}.part-{index:03d}.npz"
        window_log.write_npz(os.path.join(self.directory, name))
        partial = StreamingSummary.from_log(window_log)
        self._partials.append(partial)
        self._segments.append(
            {
                "path": name,
                "records": records,
                "summary": partial.as_dict(),
            }
        )
        self._spilled_records += records
        self._window_log = NetworkLog()
        self._window_fill = 0
        self._merged_cache = None

    def finalize(self) -> str:
        """Spill the remaining window and write the manifest.

        Idempotent -- callable repeatedly, and again after further
        appends (the manifest is atomically rewritten to cover the new
        segments).  Returns the manifest path.
        """
        self._spill()
        doc = {
            "schema": MANIFEST_SCHEMA_VERSION,
            "kind": MANIFEST_KIND,
            "stem": self.stem,
            "window": self.window,
            "records": self._spilled_records,
            "segments": self._segments,
            "summary": StreamingSummary.merged(self._partials).as_dict(),
        }
        atomic_write_text(self.manifest_path, json.dumps(doc, sort_keys=True))
        return self.manifest_path

    # ------------------------------------------------------------------
    # O(window) summary surface
    # ------------------------------------------------------------------
    def streaming_summary(self) -> StreamingSummary:
        """The canonical fold: per-segment partials in segment order,
        then the live window's partial."""
        merged = self._merged_cache
        if merged is None:
            parts = list(self._partials)
            if self._window_fill:
                parts.append(StreamingSummary.from_log(self._window_log))
            merged = StreamingSummary.merged(parts)
            self._merged_cache = merged
        return merged

    def summary(self) -> LogSummary:
        """Scalar summary from O(window) state."""
        return self.streaming_summary().summary()

    def seal(self) -> None:
        """Seal the live window's pending rows (run-harness hook)."""
        self._window_log.seal()

    def sources(self) -> List[int]:
        """Sorted distinct source node ids (from the count matrix)."""
        matrix = self.streaming_summary().count_matrix
        if matrix.size == 0:
            return []
        return [int(s) for s in np.flatnonzero(matrix.sum(axis=1) > 0)]

    def destination_count_matrix(self, num_nodes: int) -> np.ndarray:
        """Message-count matrix (exact, from the running tallies)."""
        return self.streaming_summary().matrix(num_nodes, volume=False)

    def destination_fraction_matrix(self, num_nodes: int) -> np.ndarray:
        """Row-normalized count matrix (zero rows stay zero)."""
        counts = self.destination_count_matrix(num_nodes)
        totals = counts.sum(axis=1, keepdims=True)
        return np.divide(counts, totals, out=np.zeros_like(counts), where=totals > 0)

    def volume_matrix(self, num_nodes: int) -> np.ndarray:
        """Byte-volume matrix (exact, from the running tallies)."""
        return self.streaming_summary().matrix(num_nodes, volume=True)

    def volume_fraction_matrix(self, num_nodes: int) -> np.ndarray:
        """Row-normalized volume matrix."""
        volume = self.volume_matrix(num_nodes)
        totals = volume.sum(axis=1, keepdims=True)
        return np.divide(volume, totals, out=np.zeros_like(volume), where=totals > 0)

    def destination_counts(self, src: int, num_nodes: int) -> np.ndarray:
        """One source's row of the count matrix."""
        return self.destination_count_matrix(num_nodes)[src]

    def destination_fractions(self, src: int, num_nodes: int) -> np.ndarray:
        """One source's row of the fraction matrix."""
        return self.destination_fraction_matrix(num_nodes)[src]

    def volume_by_destination(self, src: int, num_nodes: int) -> np.ndarray:
        """One source's row of the volume matrix."""
        return self.volume_matrix(num_nodes)[src]

    def volume_fractions(self, src: int, num_nodes: int) -> np.ndarray:
        """One source's row of the volume fraction matrix."""
        return self.volume_fraction_matrix(num_nodes)[src]

    def length_counts(self) -> Dict[int, int]:
        """Message count per distinct payload length, ascending."""
        return dict(sorted(self.streaming_summary().length_counts.items()))

    def message_lengths(self, src: Optional[int] = None) -> np.ndarray:
        """Payload lengths expanded from the length tally.

        Ascending order rather than delivery order (the tally does not
        retain ordering); distribution-shaped consumers (means,
        histograms) are unaffected beyond float round-off.  Per-source
        restriction requires reading the segments, so it is only
        supported via :meth:`materialize`.
        """
        if src is not None:
            raise ValueError(
                "per-source message lengths need the full record stream; "
                "use materialize() for small logs"
            )
        tally = self.length_counts()
        if not tally:
            return np.empty(0, dtype=float)
        sizes = np.fromiter(tally.keys(), dtype=float, count=len(tally))
        counts = np.fromiter(tally.values(), dtype=np.int64, count=len(tally))
        return np.repeat(sizes, counts)

    def kinds(self) -> Dict[str, int]:
        """Message count per kind tag (sorted by tag)."""
        return dict(self.streaming_summary().kind_counts)

    def total_bytes(self) -> int:
        return self.streaming_summary().total_bytes

    def span(self) -> float:
        return self.streaming_summary().summary().span

    def injection_span(self) -> float:
        return self.streaming_summary().summary().injection_span

    def offered_rate(self) -> float:
        return self.streaming_summary().summary().offered_rate

    def throughput(self) -> float:
        return self.streaming_summary().summary().throughput

    def mean_latency(self) -> float:
        return self.streaming_summary().latency.mean

    def mean_contention(self) -> float:
        return self.streaming_summary().contention.mean

    # ------------------------------------------------------------------
    # full-fidelity escape hatches (read back through the segments)
    # ------------------------------------------------------------------
    def _iter_logs(self) -> Iterator[NetworkLog]:
        """Every spilled segment (read back one at a time) then the
        live window; peak memory is one segment's columns."""
        for entry in self._segments:
            yield NetworkLog.read_npz(
                os.path.join(self.directory, str(entry["path"]))
            )
        if self._window_fill:
            yield self._window_log

    def injection_times(self, src: Optional[int] = None) -> np.ndarray:
        """Sorted injection timestamps, optionally for one source.

        O(total records) float64 -- one column, not the whole log; the
        price of exact inter-arrival series across segment boundaries.
        """
        chunks: List[np.ndarray] = []
        for log in self._iter_logs():
            cols, _ = log.columns()
            inject = cols["inject_time"]
            if src is not None:
                inject = inject[cols["src"] == src]
            if inject.size:
                chunks.append(np.array(inject, dtype=float))
        if not chunks:
            return np.empty(0, dtype=float)
        return np.sort(np.concatenate(chunks))

    def interarrival_times(self, src: Optional[int] = None) -> np.ndarray:
        """Exact inter-arrival series (diffs of sorted injections)."""
        times = self.injection_times(src)
        if times.size < 2:
            return np.empty(0, dtype=float)
        return np.diff(times)

    def interarrivals_by_source(self) -> Dict[int, np.ndarray]:
        """Exact per-source inter-arrival series, keyed ascending."""
        per_source: Dict[int, List[np.ndarray]] = {}
        for log in self._iter_logs():
            cols, _ = log.columns()
            src_col = cols["src"]
            inject = cols["inject_time"]
            for source in np.unique(src_col):
                per_source.setdefault(int(source), []).append(
                    np.array(inject[src_col == source], dtype=float)
                )
        out: Dict[int, np.ndarray] = {}
        for source in sorted(per_source):
            times = np.sort(np.concatenate(per_source[source]))
            out[source] = (
                np.diff(times) if times.size >= 2 else np.empty(0, dtype=float)
            )
        return out

    def write_csv(self, path: str) -> None:
        """Export everything as one CSV (via :meth:`materialize` --
        an escape hatch with in-memory cost, not the O(window) path)."""
        self.materialize().write_csv(path)

    def write_npz(self, path) -> str:
        """Export everything as one monolithic npz (via
        :meth:`materialize`; the segments themselves already are npz).
        Returns the path written (see :meth:`NetworkLog.write_npz`)."""
        return self.materialize().write_npz(path)

    def materialize(self) -> NetworkLog:
        """Read everything back into one in-memory :class:`NetworkLog`
        (delivery order per segment, segments in spill order).  The
        escape hatch for consumers that genuinely need rows; defeats
        the O(window) bound by construction."""
        out = NetworkLog()
        for log in self._iter_logs():
            cols, vocab = log.columns()
            if not len(log):
                continue
            tags = (
                np.asarray(vocab, dtype=np.str_)[cols["kind"]]
                if vocab
                else np.empty(0, dtype=np.str_)
            )
            out.extend_columns(
                msg_id=cols["msg_id"],
                src=cols["src"],
                dst=cols["dst"],
                length_bytes=cols["length_bytes"],
                kind=tags,
                inject_time=cols["inject_time"],
                start_time=cols["start_time"],
                deliver_time=cols["deliver_time"],
                contention=cols["contention"],
                hops=cols["hops"],
            )
        return out


# ----------------------------------------------------------------------
# manifest readers
# ----------------------------------------------------------------------
def read_manifest(path: str) -> Dict[str, object]:
    """Load and validate a spill manifest document.

    Raises :class:`NetLogFormatError` naming the path (and the
    offending segment entry) on anything unreadable or schema-drifted.
    """
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise NetLogFormatError(
            f"{path}: not a netlog spill manifest: {error}"
        ) from error
    if not isinstance(doc, dict) or doc.get("kind") != MANIFEST_KIND:
        raise NetLogFormatError(
            f"{path}: not a netlog spill manifest (kind "
            f"{doc.get('kind') if isinstance(doc, dict) else type(doc).__name__!r})"
        )
    version = doc.get("schema")
    if version != MANIFEST_SCHEMA_VERSION:
        raise NetLogFormatError(
            f"{path}: manifest schema version {version} is not supported "
            f"(this build reads version {MANIFEST_SCHEMA_VERSION})"
        )
    segments = doc.get("segments")
    if not isinstance(segments, list):
        raise NetLogFormatError(f"{path}: manifest 'segments' is not a list")
    for i, entry in enumerate(segments):
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("path"), str)
            or not isinstance(entry.get("records"), int)
            or not isinstance(entry.get("summary"), dict)
        ):
            raise NetLogFormatError(
                f"{path}: segment entry {i} is malformed "
                f"(need path/records/summary)"
            )
    return doc


def iter_segments(
    manifest_path: str,
) -> Iterator[Tuple[Dict[str, object], NetworkLog]]:
    """Yield ``(entry, log)`` per segment shard, one at a time.

    Segment paths resolve relative to the manifest's directory.  A
    missing or corrupt shard raises :class:`NetLogFormatError` naming
    that shard; a shard whose record count disagrees with the manifest
    is likewise rejected (a torn or mismatched spill).
    """
    doc = read_manifest(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    for entry in doc["segments"]:  # type: ignore[union-attr]
        shard_path = os.path.join(base, entry["path"])
        if not os.path.exists(shard_path):
            raise NetLogFormatError(
                f"{shard_path}: segment shard named by {manifest_path} is missing"
            )
        log = NetworkLog.read_npz(shard_path)
        if len(log) != entry["records"]:
            raise NetLogFormatError(
                f"{shard_path}: segment shard has {len(log)} records, manifest "
                f"expects {entry['records']}"
            )
        yield entry, log


def summary_from_manifest(path: str) -> StreamingSummary:
    """The merged summary, from the manifest alone -- no segment reads.

    The manifest stores both per-segment partials and their fold;
    this returns the fold (re-merging the stored partials yields a
    bit-identical document, which the test suite asserts).
    """
    doc = read_manifest(path)
    try:
        return StreamingSummary.from_dict(doc["summary"])  # type: ignore[arg-type]
    except (KeyError, ValueError) as error:
        raise NetLogFormatError(f"{path}: manifest summary: {error}") from error


def merge_manifest_partials(path: str) -> StreamingSummary:
    """Re-fold the per-segment partials stored in the manifest, in
    segment order (the canonical construction; used to cross-check the
    stored merged summary)."""
    doc = read_manifest(path)
    parts = [
        StreamingSummary.from_dict(entry["summary"])  # type: ignore[arg-type]
        for entry in doc["segments"]  # type: ignore[union-attr]
    ]
    return StreamingSummary.merged(parts)


def materialize_manifest(path: str) -> NetworkLog:
    """Read every segment back into one in-memory log (escape hatch)."""
    out = NetworkLog()
    for _, log in iter_segments(path):
        cols, vocab = log.columns()
        if not len(log):
            continue
        tags = (
            np.asarray(vocab, dtype=np.str_)[cols["kind"]]
            if vocab
            else np.empty(0, dtype=np.str_)
        )
        out.extend_columns(
            msg_id=cols["msg_id"],
            src=cols["src"],
            dst=cols["dst"],
            length_bytes=cols["length_bytes"],
            kind=tags,
            inject_time=cols["inject_time"],
            start_time=cols["start_time"],
            deliver_time=cols["deliver_time"],
            contention=cols["contention"],
            hops=cols["hops"],
        )
    return out


def _summarize_chunks(chunks: Iterator[NetworkLog]) -> StreamingSummary:
    """The canonical fold over an iterator of bounded chunk logs."""
    out = StreamingSummary()
    for chunk in chunks:
        out.merge(StreamingSummary.from_log(chunk))
    return out


def summarize_csv(path: str, window: int = DEFAULT_WINDOW) -> StreamingSummary:
    """Summarize a CSV activity log in O(window) memory.

    Chunk boundaries follow ``window``, so the result is bit-identical
    to a :class:`StreamingNetworkLog` fed the same records with the
    same window.
    """
    return _summarize_chunks(NetworkLog.iter_csv_chunks(path, window))


def summarize_npz(path: str, window: int = DEFAULT_WINDOW) -> StreamingSummary:
    """Summarize a monolithic npz log with the same canonical fold.

    ``np.load`` materializes whole columns, so this is bounded-yield
    convenience (identical results to :func:`summarize_csv` for the
    same records and window), not an O(window) guarantee -- segmented
    spills via :class:`StreamingNetworkLog` are the O(window) binary
    path.
    """
    log = NetworkLog.read_npz(path)
    cols, vocab = log.columns()
    n = len(log)

    def chunks() -> Iterator[NetworkLog]:
        for start in range(0, n, window):
            chunk = NetworkLog()
            stop = min(start + window, n)
            tags = (
                np.asarray(vocab, dtype=np.str_)[cols["kind"][start:stop]]
                if vocab
                else np.empty(0, dtype=np.str_)
            )
            chunk.extend_columns(
                msg_id=cols["msg_id"][start:stop],
                src=cols["src"][start:stop],
                dst=cols["dst"][start:stop],
                length_bytes=cols["length_bytes"][start:stop],
                kind=tags,
                inject_time=cols["inject_time"][start:stop],
                start_time=cols["start_time"][start:stop],
                deliver_time=cols["deliver_time"][start:stop],
                contention=cols["contention"][start:stop],
                hops=cols["hops"][start:stop],
            )
            yield chunk

    return _summarize_chunks(chunks())
