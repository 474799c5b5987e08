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
* Each window's :class:`~repro.mesh.netlog.LogSummary` (the mergeable
  one-pass fold every log answers its aggregate views from) is kept as
  the segment's partial before it spills; the log-level summary is the
  fold of the per-segment partials *in segment order*, and the
  aggregate views of :class:`~repro.mesh.netlog.AggregateViews` read
  it, so they run in O(window) memory.

Determinism contract (the one per-region merges inherit):

* Everything integer -- message/byte totals, traffic matrices, length
  and kind tallies -- is **exact**: independent of window size,
  chunking, and merge order, and therefore bit-identical to the
  in-memory log.
* Float accumulations (latency/contention sums, hence means) are exact
  *for the merge order used*: merging the same partials in the same
  order is bit-for-bit reproducible, but differs from
  :func:`numpy.mean` over the whole column (pairwise summation) by
  normal round-off.  Latency quantiles come from a bounded sketch and
  carry a documented rank error instead of bit-equality.
* Exact inter-arrival series are read back from the segments
  (:meth:`StreamingNetworkLog.interarrival_times`).

Readers: :func:`read_manifest`, :func:`iter_segments` (one bounded
:class:`NetworkLog` per shard), :func:`summary_from_manifest` (no
segment reads at all -- the manifest embeds the partials),
:func:`materialize_manifest` (the escape hatch back to an in-memory
log), and :func:`summarize_csv` / :func:`summarize_npz` which build the
same fold from non-segmented files, O(window) for CSV.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.mesh.netlog import (
    AggregateViews,
    LogSummary,
    NetLogFormatError,
    NetLogRecord,
    NetworkLog,
)
from repro.obs.fsio import atomic_write_text

__all__ = [
    "DEFAULT_WINDOW",
    "MANIFEST_KIND",
    "MANIFEST_SUFFIX",
    "StreamingNetworkLog",
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

MANIFEST_KIND = "netlog-spill"
MANIFEST_SUFFIX = ".manifest.json"
MANIFEST_SCHEMA_VERSION = 1


class StreamingNetworkLog(AggregateViews):
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
        self._partials: List[LogSummary] = []
        self._segments: List[Dict[str, object]] = []
        self._spilled_records = 0
        self._merged_cache: Optional[LogSummary] = None

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
        partial = window_log.summary()
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
            "summary": self.summary().as_dict(),
        }
        atomic_write_text(self.manifest_path, json.dumps(doc, sort_keys=True))
        return self.manifest_path

    # ------------------------------------------------------------------
    # O(window) summary surface (the aggregate views read summary())
    # ------------------------------------------------------------------
    def summary(self) -> LogSummary:
        """The canonical fold: per-segment partials in segment order,
        then the live window's partial."""
        merged = self._merged_cache
        if merged is None:
            parts = list(self._partials)
            if self._window_fill:
                parts.append(self._window_log.summary())
            merged = LogSummary.merged(parts)
            self._merged_cache = merged
        return merged

    def seal(self) -> None:
        """Seal the live window's pending rows (run-harness hook)."""
        self._window_log.seal()

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
            out.extend_log(log, slice(None))
        return out


# ----------------------------------------------------------------------
# manifest readers
# ----------------------------------------------------------------------
def read_manifest(path: str) -> Dict[str, object]:
    """Load and validate a spill manifest document.

    Raises :class:`NetLogFormatError` naming the path (and the
    offending field or segment entry) on anything unreadable or
    schema-drifted.
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
    for field in ("records", "window"):
        if not isinstance(doc.get(field), int):
            raise NetLogFormatError(
                f"{path}: manifest {field!r} is not an integer "
                f"(got {doc.get(field)!r})"
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


def summary_from_manifest(path: str) -> LogSummary:
    """The merged summary, from the manifest alone -- no segment reads.

    The manifest stores both per-segment partials and their fold;
    this returns the fold (re-merging the stored partials yields a
    bit-identical document, which the test suite asserts).
    """
    doc = read_manifest(path)
    try:
        return LogSummary.from_dict(doc["summary"])  # type: ignore[arg-type]
    except (KeyError, ValueError) as error:
        raise NetLogFormatError(f"{path}: manifest summary: {error}") from error


def merge_manifest_partials(path: str) -> LogSummary:
    """Re-fold the per-segment partials stored in the manifest, in
    segment order (the canonical construction; used to cross-check the
    stored merged summary)."""
    doc = read_manifest(path)
    parts = [
        LogSummary.from_dict(entry["summary"])  # type: ignore[arg-type]
        for entry in doc["segments"]  # type: ignore[union-attr]
    ]
    return LogSummary.merged(parts)


def materialize_manifest(path: str) -> NetworkLog:
    """Read every segment back into one in-memory log (escape hatch)."""
    out = NetworkLog()
    for _, log in iter_segments(path):
        out.extend_log(log, slice(None))
    return out


def summarize_csv(path: str, window: int = DEFAULT_WINDOW) -> LogSummary:
    """Summarize a CSV activity log in O(window) memory.

    Chunk boundaries follow ``window``, so the result is bit-identical
    to a :class:`StreamingNetworkLog` fed the same records with the
    same window.
    """
    chunks = NetworkLog.iter_csv_chunks(path, window)
    return LogSummary.merged(chunk.summary() for chunk in chunks)


def summarize_npz(path: str, window: int = DEFAULT_WINDOW) -> LogSummary:
    """Summarize a monolithic npz log with the same canonical fold.

    ``np.load`` materializes whole columns, so this is bounded-yield
    convenience (identical results to :func:`summarize_csv` for the
    same records and window), not an O(window) guarantee -- segmented
    spills via :class:`StreamingNetworkLog` are the O(window) binary
    path.
    """
    log = NetworkLog.read_npz(path)

    def chunks() -> Iterator[NetworkLog]:
        for start in range(0, len(log), window):
            chunk = NetworkLog()
            chunk.extend_log(log, slice(start, start + window))
            yield chunk

    return LogSummary.merged(chunk.summary() for chunk in chunks())
