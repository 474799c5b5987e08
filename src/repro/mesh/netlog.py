"""The network activity log (columnar).

Everything the characterization methodology analyzes comes from this
log: "From this log, we obtain the source-destination information of
the messages along with the message length and time of injection."
Each delivered message contributes one :class:`NetLogRecord` worth of
fields; the :class:`NetworkLog` offers the derived views (inter-arrival
series, destination histograms, length histograms) that the statistics
package consumes.

Every aggregate view -- sources, traffic matrices and their rows,
length and kind tallies, the scalar metrics -- is answered from one
:class:`LogSummary`, a mergeable one-pass fold over chunks of the
columns.  The views are written once, on :class:`AggregateViews`, which
both this in-memory log and the spilled
:class:`~repro.mesh.netlog_stream.StreamingNetworkLog` inherit: the
in-memory log's summary is the fold over one chunk, the spilled log's
the fold of its per-segment partials.

Storage is struct-of-arrays, not row objects:

* **Collection** stays cheap: :meth:`NetworkLog.add` stages the
  record's fields into a pending row list (one tuple append per
  delivery, no per-append numpy cost).
* **Sealing** is amortized: the first derived view after a mutation
  flushes pending rows into preallocated, doubling numpy column
  buffers, so each record crosses the Python/numpy boundary exactly
  once (:meth:`NetworkLog.seal`).
* **Analysis** is vectorized: every derived view is an
  argsort/bincount/ufunc reduction over the sealed columns, and the
  memoized per-source index, row materializations, summary fold and
  group views are discarded wholesale whenever the log mutates.

Row-shaped accessors (:attr:`NetworkLog.records`, ``__iter__``,
:meth:`NetworkLog.by_source`) still return :class:`NetLogRecord`
objects, materialized lazily from the columns, so existing consumers
keep working unchanged.  ``tests/test_netlog_columnar.py`` holds every
view bit-identical to a plain loop over those records.

Persistence: :meth:`NetworkLog.write_csv` / :meth:`NetworkLog.read_csv`
remain the interchange format (gzip-transparent); ``write_npz`` /
``read_npz`` store the columns directly as a compressed ``.npz`` for
fast binary round trips at sweep scale.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import math
import os
import zipfile
from dataclasses import dataclass, fields
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.stats.streaming import QuantileDigest, StreamingMoments


def _open_csv(path: str, mode: str):
    """Open ``path`` for text CSV I/O, transparently gzipped for
    ``.gz`` paths (``mode`` is ``"r"`` or ``"w"``)."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", newline="")
    return open(path, mode, newline="")


class NetLogFormatError(ValueError):
    """A persisted activity log (CSV or npz) that cannot be parsed.

    The message names the offending path and, for row-level problems,
    the 1-based row number, so truncated or schema-drifted files fail
    with an actionable diagnosis instead of a raw ``KeyError``.
    """


@dataclass(frozen=True)
class NetLogRecord:
    """One delivered message's entry in the network activity log.

    Attributes
    ----------
    msg_id:
        Unique message id.
    src, dst:
        Endpoint node ids.
    length_bytes:
        Payload bytes.
    kind:
        Message class tag (coherence request, data reply, MPI p2p, ...).
    inject_time:
        When the source generated the message (before any queueing).
    start_time:
        When the head flit actually entered the network.
    deliver_time:
        When the tail flit arrived at the destination NI.
    contention:
        Total time spent waiting for channels (the paper's "contention
        incurred by the message").
    hops:
        Path length in channels.
    """

    msg_id: int
    src: int
    dst: int
    length_bytes: int
    kind: str
    inject_time: float
    start_time: float
    deliver_time: float
    contention: float
    hops: int

    @property
    def latency(self) -> float:
        """End-to-end latency including source queueing."""
        return self.deliver_time - self.inject_time


_new_object = object.__new__


def make_record(
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
) -> NetLogRecord:
    """Build a :class:`NetLogRecord` without running its frozen-dataclass
    ``__init__``, which pays one ``object.__setattr__`` call per field.

    Fills the instance ``__dict__`` in field order, which is all that
    ``__init__`` leaves behind, so the record is indistinguishable from
    a constructed one: ``==``, ``hash``, ``repr``, pickled bytes,
    ``vars()`` order and :class:`dataclasses.FrozenInstanceError` on
    assignment are the same.  Values are stored as given.  Every record
    the network and the log views build comes from here.
    """
    record = _new_object(NetLogRecord)
    fields_ = record.__dict__
    fields_["msg_id"] = msg_id
    fields_["src"] = src
    fields_["dst"] = dst
    fields_["length_bytes"] = length_bytes
    fields_["kind"] = kind
    fields_["inject_time"] = inject_time
    fields_["start_time"] = start_time
    fields_["deliver_time"] = deliver_time
    fields_["contention"] = contention
    fields_["hops"] = hops
    return record


#: Cells of the largest (src, dst) table :func:`_tally_pairs` fills with
#: one dense ``bincount``; a larger table is still used while it has at
#: most four cells per item tallied, and past both the pairs are sorted
#: instead.  Either way the fold's memory follows the records, never the
#: square of the largest endpoint id: a log naming node 10**9 costs what
#: one naming node 9 does.
_DENSE_PAIR_CELLS = 1 << 16


def _tally_pairs(
    src: np.ndarray, dst: np.ndarray, messages: np.ndarray, volume: np.ndarray
) -> np.ndarray:
    """Sum ``messages`` and ``volume`` per distinct (src, dst) pair.

    Returns a (4, pairs) int64 array -- rows src, dst, messages and
    bytes -- with the pairs in (src, dst) order.  Endpoints are >= 0.
    """
    if src.size == 0:
        return np.zeros((4, 0), dtype=np.int64)
    m = int(max(src.max(), dst.max())) + 1
    if m * m <= max(_DENSE_PAIR_CELLS, 4 * src.size):
        flat = src * m + dst
        # bincount weights are float64; tallies stay < 2**53, so the
        # casts back to int64 are exact.
        counts = np.bincount(flat, weights=messages, minlength=m * m)
        volumes = np.bincount(flat, weights=volume, minlength=m * m)
        keys = np.flatnonzero(counts)
        return np.stack(
            (
                keys // m,
                keys % m,
                counts[keys].astype(np.int64),
                volumes[keys].astype(np.int64),
            )
        )
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    changed = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    first = np.flatnonzero(np.r_[True, changed])
    return np.stack(
        (
            src[first],
            dst[first],
            np.add.reduceat(messages[order], first),
            np.add.reduceat(volume[order], first),
        )
    )


class LogSummary:
    """Every aggregate of an activity log, as one mergeable one-pass fold.

    The state is the message and byte totals, the first/last injection
    and last delivery times, running latency and contention sums, exact
    int64 message and byte tallies per distinct (src, dst) pair, length
    and kind tallies, and a bounded latency quantile sketch.  The eight
    scalar metrics are read-only properties derived from it.

    :meth:`NetworkLog.summary` is the fold over one chunk, the whole
    log; a spilled log's summary is :meth:`merged` over its per-segment
    partials in segment order.  No public method changes a summary once
    built, so a log can hand every caller its cached one.  Integer
    state is exact under any chunking and merge order.  Float sums are
    exact for the order merged: a one-chunk fold reports the floats
    numpy gives over the whole column, a multi-chunk fold differs from
    them by round-off, and merging the same partials in the same order
    is bit-for-bit reproducible.  Two summaries are equal when their
    :meth:`as_dict` documents are.
    """

    SCHEMA_VERSION = 1

    __slots__ = (
        "_messages",
        "_total_bytes",
        "first_inject",
        "last_inject",
        "last_deliver",
        "latency",
        "contention",
        "pairs",
        "length_counts",
        "kind_counts",
        "latency_digest",
    )

    def __init__(self) -> None:
        """The empty summary."""
        self._messages = 0
        self._total_bytes = 0
        self.first_inject = math.inf
        self.last_inject = -math.inf
        self.last_deliver = -math.inf
        self.latency = StreamingMoments()
        self.contention = StreamingMoments()
        #: Rows src, dst, messages, bytes; one column per distinct pair.
        self.pairs = np.zeros((4, 0), dtype=np.int64)
        self.length_counts: Dict[int, int] = {}
        self.kind_counts: Dict[str, int] = {}
        self.latency_digest = QuantileDigest()

    # ------------------------------------------------------------------
    # folding and merging
    # ------------------------------------------------------------------
    @classmethod
    def _of_chunk(
        cls, cols: Mapping[str, np.ndarray], kind_vocab: Sequence[str]
    ) -> "LogSummary":
        """The fold of one chunk of sealed columns (as
        :meth:`NetworkLog.columns` returns them).

        Raises :class:`ValueError` naming the first record with a
        negative endpoint; the upper bound is checked when a matrix is
        cut to a concrete network size (:meth:`matrix`).
        """
        out = cls()
        src = np.asarray(cols["src"])
        dst = np.asarray(cols["dst"])
        n = int(src.size)
        if n == 0:
            return out
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

        out._messages = n
        out._total_bytes = int(lengths.sum())
        out.first_inject = min(out.first_inject, float(inject.min()))
        out.last_inject = max(out.last_inject, float(inject.max()))
        out.last_deliver = max(out.last_deliver, float(deliver.max()))

        latency = deliver - inject
        out.latency.observe(latency)
        out.contention.observe(cols["contention"])
        out.latency_digest.observe_sorted(np.sort(latency))

        out.pairs = _tally_pairs(src, dst, np.ones(n, dtype=np.int64), lengths)

        values, counts = np.unique(lengths, return_counts=True)
        out.length_counts = {
            int(value): int(count) for value, count in zip(values, counts)
        }
        if len(kind_vocab):
            codes = np.bincount(np.asarray(cols["kind"]), minlength=len(kind_vocab))
            out.kind_counts = {
                kind: int(codes[i]) for i, kind in enumerate(kind_vocab) if codes[i]
            }
        return out

    @classmethod
    def merged(cls, parts: Iterable["LogSummary"]) -> "LogSummary":
        """Fold ``parts`` left to right into a fresh summary (zero parts
        give the empty one); an iterator is consumed one part at a
        time, and the parts are left unchanged."""
        out = cls()
        for part in parts:
            out._messages += part._messages
            out._total_bytes += part._total_bytes
            out.first_inject = min(out.first_inject, part.first_inject)
            out.last_inject = max(out.last_inject, part.last_inject)
            out.last_deliver = max(out.last_deliver, part.last_deliver)
            out.latency.merge(part.latency)
            out.contention.merge(part.contention)
            if part.pairs.size:
                out.pairs = _tally_pairs(
                    *np.concatenate((out.pairs, part.pairs), axis=1)
                )
            for key, count in part.length_counts.items():
                out.length_counts[key] = out.length_counts.get(key, 0) + count
            for kind, count in part.kind_counts.items():
                out.kind_counts[kind] = out.kind_counts.get(kind, 0) + count
            out.latency_digest.merge(part.latency_digest)
        return out

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------
    @property
    def messages(self) -> int:
        """Messages delivered."""
        return self._messages

    @property
    def total_bytes(self) -> int:
        """Total payload bytes delivered."""
        return self._total_bytes

    @property
    def span(self) -> float:
        """Time from first injection to last delivery."""
        return self.last_deliver - self.first_inject if self._messages else 0.0

    @property
    def injection_span(self) -> float:
        """Time from first to last injection (the offered-load window)."""
        return self.last_inject - self.first_inject if self._messages else 0.0

    @property
    def mean_latency(self) -> float:
        """Mean end-to-end message latency (source queueing included)."""
        return self.latency.mean

    @property
    def mean_contention(self) -> float:
        """Mean per-message channel-wait time."""
        return self.contention.mean

    @property
    def offered_rate(self) -> float:
        """Messages injected per unit time over the injection window.

        The denominator is :attr:`injection_span`, not :attr:`span`:
        near saturation the post-injection drain time dominates the
        full span and would under-report the offered load.  Delivery
        capacity over the full span is :attr:`throughput`.
        """
        duration = self.injection_span
        return self._messages / duration if duration > 0 else 0.0

    @property
    def throughput(self) -> float:
        """Messages delivered per unit time, first injection to last
        delivery (the network's sustained delivery capacity)."""
        duration = self.span
        return self._messages / duration if duration > 0 else 0.0

    def latency_percentile(self, q: float) -> float:
        """Estimated latency quantile (documented sketch tolerance)."""
        return self.latency_digest.quantile(q)

    @property
    def node_bound(self) -> int:
        """One past the largest endpoint id (0 for the empty log): the
        smallest network the log fits in."""
        return int(self.pairs[:2].max()) + 1 if self.pairs.size else 0

    def _dense(self, num_nodes: int, row: int, dtype=float) -> np.ndarray:
        """Pair row ``row`` (2 messages, 3 bytes) spread into a
        ``num_nodes`` x ``num_nodes`` matrix."""
        out = np.zeros((num_nodes, num_nodes), dtype=dtype)
        out[self.pairs[0], self.pairs[1]] = self.pairs[row]
        return out

    def _check_within(self, num_nodes: int) -> None:
        bound = self.node_bound
        if bound > num_nodes:
            raise ValueError(
                f"log contains endpoints up to {bound - 1} outside the "
                f"{num_nodes}-node network"
            )

    def matrix(self, num_nodes: int, volume: bool = False) -> np.ndarray:
        """The (src, dst) message-count or byte-volume matrix of a
        ``num_nodes``-node network; raises :class:`ValueError` when the
        log holds an endpoint outside ``[0, num_nodes)``."""
        self._check_within(num_nodes)
        return self._dense(num_nodes, 3 if volume else 2)

    def row(self, src: int, num_nodes: int, volume: bool = False) -> np.ndarray:
        """Row ``src`` of :meth:`matrix`, built from ``src``'s pairs
        alone (zeros for a source outside the network); validates the
        whole log like :meth:`matrix`."""
        self._check_within(num_nodes)
        picked = self.pairs[0] == src
        out = np.zeros(num_nodes)
        out[self.pairs[1, picked]] = self.pairs[3 if volume else 2, picked]
        return out

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        """JSON-safe state; :meth:`from_dict` round-trips bit-exactly
        (floats serialize via ``repr``).  The pair tallies are stored as
        dense count and volume matrices over :attr:`node_bound` nodes."""
        empty = self._messages == 0
        nodes = self.node_bound
        return {
            "schema": self.SCHEMA_VERSION,
            "messages": self._messages,
            "total_bytes": self._total_bytes,
            "first_inject": None if empty else self.first_inject,
            "last_inject": None if empty else self.last_inject,
            "last_deliver": None if empty else self.last_deliver,
            "latency": self.latency.as_dict(),
            "contention": self.contention.as_dict(),
            "count_matrix": self._dense(nodes, 2, np.int64).tolist(),
            "volume_matrix": self._dense(nodes, 3, np.int64).tolist(),
            "length_counts": {
                str(size): count for size, count in sorted(self.length_counts.items())
            },
            "kind_counts": dict(sorted(self.kind_counts.items())),
            "latency_digest": self.latency_digest.as_dict(),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "LogSummary":
        """Rebuild a summary from :meth:`as_dict` output; keys it does
        not read (such as the sketches older manifests carry) are
        ignored."""
        try:
            version = int(doc["schema"])  # type: ignore[arg-type]
            if version != cls.SCHEMA_VERSION:
                raise ValueError(
                    f"log summary schema {version} is not supported "
                    f"(this build reads {cls.SCHEMA_VERSION})"
                )
            out = cls()
            out._messages = int(doc["messages"])  # type: ignore[arg-type]
            out._total_bytes = int(doc["total_bytes"])  # type: ignore[arg-type]
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
            src, dst = np.nonzero(count)
            out.pairs = np.stack((src, dst, count[src, dst], volume[src, dst]))
            out.length_counts = {
                int(size): int(count)
                for size, count in doc["length_counts"].items()  # type: ignore[union-attr]
            }
            out.kind_counts = {
                str(kind): int(count)
                for kind, count in doc["kind_counts"].items()  # type: ignore[union-attr]
            }
            out.latency_digest = QuantileDigest.from_dict(doc["latency_digest"])  # type: ignore[arg-type]
        except (KeyError, TypeError, AttributeError) as error:
            raise ValueError(f"not a log summary document: {error!r}") from error
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogSummary):
            return NotImplemented
        return self.as_dict() == other.as_dict()


def _normalized(values: np.ndarray) -> np.ndarray:
    """``values`` divided by their sum along the last axis (each row of
    a matrix); a row with no traffic stays zero."""
    totals = values.sum(axis=-1, keepdims=True)
    return np.divide(values, totals, out=np.zeros_like(values), where=totals > 0)


class AggregateViews:
    """The aggregate views of an activity log, each answered from the
    log's :class:`LogSummary` (``self.summary()``).

    :class:`NetworkLog` and
    :class:`~repro.mesh.netlog_stream.StreamingNetworkLog` inherit
    them, so an in-memory and a spilled log answer every aggregate
    question with the same code.  A log holding a negative endpoint
    fails every view with the fold's :class:`ValueError` naming the
    record.
    """

    def summary(self) -> LogSummary:
        """The log's summary fold; each log class builds its own."""
        raise NotImplementedError

    def _check_endpoints(self, num_nodes: int) -> None:
        """Hook run when the log holds an endpoint at or past
        ``num_nodes``.  A log that keeps its columns overrides it to name
        the first such record; the fold alone can only say one exists."""

    def _summary_within(self, num_nodes: int) -> LogSummary:
        """The summary, once :meth:`_check_endpoints` has had its say
        about a log that does not fit ``num_nodes`` nodes (a log that
        fits skips the column scan)."""
        summary = self.summary()
        if summary.node_bound > num_nodes:
            self._check_endpoints(num_nodes)
        return summary

    def sources(self) -> List[int]:
        """Sorted distinct source node ids present in the log."""
        return np.unique(self.summary().pairs[0]).tolist()

    def destination_count_matrix(self, num_nodes: int) -> np.ndarray:
        """Message-count matrix, row per source, column per destination.

        Raises :class:`ValueError` if the log holds an endpoint outside
        ``[0, num_nodes)``; every per-source and matrix view below
        validates the same way.
        """
        return self._summary_within(num_nodes).matrix(num_nodes)

    def destination_fraction_matrix(self, num_nodes: int) -> np.ndarray:
        """Row-normalized :meth:`destination_count_matrix` (rows with no
        messages stay zero) -- the spatial attribute's input matrix."""
        return _normalized(self.destination_count_matrix(num_nodes))

    def volume_matrix(self, num_nodes: int) -> np.ndarray:
        """Byte-volume matrix, row per source, column per destination."""
        return self._summary_within(num_nodes).matrix(num_nodes, volume=True)

    def volume_fraction_matrix(self, num_nodes: int) -> np.ndarray:
        """Row-normalized :meth:`volume_matrix` -- the volume
        attribute's input matrix."""
        return _normalized(self.volume_matrix(num_nodes))

    def destination_counts(self, src: int, num_nodes: int) -> np.ndarray:
        """Messages sent by ``src`` to each node (length ``num_nodes``;
        zeros for a source outside the network)."""
        return self._summary_within(num_nodes).row(src, num_nodes)

    def destination_fractions(self, src: int, num_nodes: int) -> np.ndarray:
        """Fraction of ``src``'s messages sent to each node.

        This is the paper's spatial-distribution plot: "the fraction of
        messages sent by a processor to others in the system".
        """
        return _normalized(self.destination_counts(src, num_nodes))

    def volume_by_destination(self, src: int, num_nodes: int) -> np.ndarray:
        """Bytes sent by ``src`` to each node (the *volume* distribution)."""
        return self._summary_within(num_nodes).row(src, num_nodes, volume=True)

    def volume_fractions(self, src: int, num_nodes: int) -> np.ndarray:
        """Fraction of ``src``'s byte volume sent to each node."""
        return _normalized(self.volume_by_destination(src, num_nodes))

    def length_counts(self) -> Dict[int, int]:
        """Message count per distinct payload length, ascending sizes."""
        return dict(sorted(self.summary().length_counts.items()))

    def kinds(self) -> Dict[str, int]:
        """Message count per kind tag, in the order the fold met them."""
        return dict(self.summary().kind_counts)

    def total_bytes(self) -> int:
        """Total payload bytes delivered."""
        return self.summary().total_bytes

    def span(self) -> float:
        """Time from first injection to last delivery."""
        return self.summary().span

    def injection_span(self) -> float:
        """Time from first to last injection (the offered-load window)."""
        return self.summary().injection_span

    def offered_rate(self) -> float:
        """Messages injected per unit time over the injection window
        (see :attr:`LogSummary.offered_rate`)."""
        return self.summary().offered_rate

    def throughput(self) -> float:
        """Messages delivered per unit time, first injection to last
        delivery."""
        return self.summary().throughput

    def mean_latency(self) -> float:
        """Mean end-to-end message latency."""
        return self.summary().mean_latency

    def mean_contention(self) -> float:
        """Mean per-message channel-wait time."""
        return self.summary().mean_contention


#: Columnar schema, in :class:`NetLogRecord` field order.  ``kind`` is
#: dictionary-encoded: the column stores int32 codes indexing the log's
#: kind vocabulary (tag strings in first-appearance order).
_SCHEMA: Tuple[Tuple[str, type], ...] = (
    ("msg_id", np.int64),
    ("src", np.int64),
    ("dst", np.int64),
    ("length_bytes", np.int64),
    ("kind", np.int32),
    ("inject_time", np.float64),
    ("start_time", np.float64),
    ("deliver_time", np.float64),
    ("contention", np.float64),
    ("hops", np.int64),
)

_CSV_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(NetLogRecord))

#: Index of the ``kind`` column within :data:`_SCHEMA` row tuples.
_KIND_POS = [name for name, _ in _SCHEMA].index("kind")

#: Deflate level of :meth:`NetworkLog.write_npz` members.  Level 1
#: writes a 4,096-record spill segment in a bit over half the time of
#: :func:`numpy.savez_compressed`'s level 6, for about 2% more bytes;
#: storing uncompressed is faster still but 2.5x larger (DESIGN §5n).
NPZ_COMPRESSLEVEL = 1


class _LogViews:
    """Immutable snapshot of the sealed columns plus memoized derived
    structures (per-source index, materialized rows, summary fold).

    One instance exists per log *state*: :meth:`NetworkLog.add`
    discards it, so every cache here is trivially consistent -- there
    is no per-cache invalidation protocol to get wrong.
    """

    __slots__ = (
        "n",
        "cols",
        "kind_vocab",
        "_source_rows",
        "_by_source",
        "_records",
        "_summary",
    )

    def __init__(
        self, buf: Dict[str, np.ndarray], n: int, kind_vocab: Tuple[str, ...]
    ) -> None:
        self.n = n
        cols: Dict[str, np.ndarray] = {}
        for name, _ in _SCHEMA:
            view = buf[name][:n]
            view.flags.writeable = False
            cols[name] = view
        self.cols = cols
        self.kind_vocab = kind_vocab
        self._source_rows: Optional[Dict[int, np.ndarray]] = None
        self._by_source: Dict[int, Tuple[NetLogRecord, ...]] = {}
        self._records: Optional[Tuple[NetLogRecord, ...]] = None
        self._summary: Optional[LogSummary] = None

    def summary(self) -> LogSummary:
        """The fold over the columns as one chunk (cached)."""
        summary = self._summary
        if summary is None:
            summary = self._summary = LogSummary._of_chunk(self.cols, self.kind_vocab)
        return summary

    def source_rows(self) -> Dict[int, np.ndarray]:
        """Row indices per source id, in delivery (append) order.

        Built once per log state with a single stable argsort; keys
        ascend, and the stable sort keeps each group in append order.
        """
        rows = self._source_rows
        if rows is None:
            src = self.cols["src"]
            if src.size == 0:
                rows = {}
            else:
                order = np.argsort(src, kind="stable")
                grouped = src[order]
                starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
                bounds = np.append(starts, grouped.size)
                rows = {
                    int(grouped[starts[i]]): order[bounds[i] : bounds[i + 1]]
                    for i in range(starts.size)
                }
            self._source_rows = rows
        return rows

    def records(self) -> Tuple[NetLogRecord, ...]:
        """All rows materialized as :class:`NetLogRecord` (cached)."""
        recs = self._records
        if recs is None:
            columns = [self.cols[name].tolist() for name, _ in _SCHEMA]
            vocab = self.kind_vocab
            columns[_KIND_POS] = [vocab[code] for code in columns[_KIND_POS]]
            recs = tuple(map(make_record, *columns))
            self._records = recs
        return recs

    def record_at(self, row: int) -> NetLogRecord:
        """Materialize a single row (used by sparse accessors)."""
        if self._records is not None:
            return self._records[row]
        c = self.cols
        return make_record(
            int(c["msg_id"][row]),
            int(c["src"][row]),
            int(c["dst"][row]),
            int(c["length_bytes"][row]),
            self.kind_vocab[int(c["kind"][row])],
            float(c["inject_time"][row]),
            float(c["start_time"][row]),
            float(c["deliver_time"][row]),
            float(c["contention"][row]),
            int(c["hops"][row]),
        )

    def by_source(self, src: int) -> Tuple[NetLogRecord, ...]:
        """``src``'s records in injection order; sorted once, cached."""
        cached = self._by_source.get(src)
        if cached is None:
            rows = self.source_rows().get(src)
            if rows is None:
                cached = ()
            else:
                ordered = rows[np.argsort(self.cols["inject_time"][rows], kind="stable")]
                cached = tuple(self.record_at(int(i)) for i in ordered)
            self._by_source[src] = cached
        return cached


class NetworkLog(AggregateViews):
    """Accumulates delivered-message records in columnar buffers and
    derives vectorized analysis views (see the module docstring for
    the append/seal/view lifecycle)."""

    #: Smallest sealed-buffer allocation (buffers double beyond it).
    _MIN_CAPACITY = 512

    #: Bumped when the npz layout changes incompatibly.
    NPZ_SCHEMA_VERSION = 1

    def __init__(self) -> None:
        self._pending: List[tuple] = []
        self._n = 0
        self._capacity = 0
        self._buf: Dict[str, np.ndarray] = {
            name: np.empty(0, dtype=dtype) for name, dtype in _SCHEMA
        }
        self._kind_vocab: List[str] = []
        self._kind_codes: Dict[str, int] = {}
        # Snapshot of every derived structure; None means stale (any
        # mutation resets it, so caches never need point invalidation).
        self._views: Optional[_LogViews] = None

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def add(self, record: NetLogRecord) -> None:
        """Append one delivered-message record."""
        self.append(
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

    def _intern_kind(self, kind: str) -> int:
        """Dictionary-encode a kind tag, growing the vocabulary."""
        code = self._kind_codes.get(kind)
        if code is None:
            code = len(self._kind_vocab)
            self._kind_codes[kind] = code
            self._kind_vocab.append(kind)
        return code

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
        """Append one record from its fields (no :class:`NetLogRecord`
        construction needed -- the collection fast path).

        Values are staged as given, not converted: every caller passes
        them typed (``transfer`` its own locals, :meth:`add` a record's
        fields, the CSV reader what it parsed), and :meth:`seal` casts
        each column to its dtype, so an ``int`` and a NumPy integer of
        the same value seal to the same bytes.
        """
        code = self._kind_codes.get(kind)
        if code is None:
            code = self._intern_kind(kind)
        self._pending.append(
            (
                msg_id,
                src,
                dst,
                length_bytes,
                code,
                inject_time,
                start_time,
                deliver_time,
                contention,
                hops,
            )
        )
        self._views = None

    def extend(self, records: Iterable[NetLogRecord]) -> None:
        """Append many records."""
        for record in records:
            self.add(record)

    def _grow_to(self, need: int) -> None:
        if need <= self._capacity:
            return
        new_capacity = max(need, 2 * self._capacity, self._MIN_CAPACITY)
        for name, dtype in _SCHEMA:
            grown = np.empty(new_capacity, dtype=dtype)
            grown[: self._n] = self._buf[name][: self._n]
            self._buf[name] = grown
        self._capacity = new_capacity

    def extend_columns(
        self,
        msg_id: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        length_bytes: np.ndarray,
        kind,
        inject_time: np.ndarray,
        start_time: np.ndarray,
        deliver_time: np.ndarray,
        contention: np.ndarray,
        hops: np.ndarray,
    ) -> None:
        """Bulk append from parallel column arrays (vectorized path).

        ``kind`` is either one tag applied to every record or a
        per-record sequence of tags; tags are dictionary-encoded into
        the log's vocabulary.  All columns must be the same length.
        This is the ingestion fast path for chunked readers and
        synthesized benchmark traffic: each array crosses into the
        sealed buffers with one slice assignment instead of one tuple
        append per record.
        """
        self.seal()
        arrays = {
            "msg_id": np.asarray(msg_id),
            "src": np.asarray(src),
            "dst": np.asarray(dst),
            "length_bytes": np.asarray(length_bytes),
            "inject_time": np.asarray(inject_time),
            "start_time": np.asarray(start_time),
            "deliver_time": np.asarray(deliver_time),
            "contention": np.asarray(contention),
            "hops": np.asarray(hops),
        }
        n_new = arrays["msg_id"].size
        for name, array in arrays.items():
            if array.ndim != 1 or array.size != n_new:
                raise ValueError(
                    f"column {name!r} has shape {array.shape}; expected "
                    f"{n_new} values in 1-D"
                )
        if isinstance(kind, str):
            codes = np.full(n_new, self._intern_kind(kind), dtype=np.int32)
        else:
            tags = np.asarray(kind)
            if tags.ndim != 1 or tags.size != n_new:
                raise ValueError(
                    f"column 'kind' has shape {tags.shape}; expected "
                    f"{n_new} values in 1-D"
                )
            uniques, inverse = np.unique(tags, return_inverse=True)
            lut = np.asarray(
                [self._intern_kind(str(tag)) for tag in uniques], dtype=np.int32
            )
            codes = lut[inverse] if n_new else np.empty(0, dtype=np.int32)
        if n_new == 0:
            return
        need = self._n + n_new
        self._grow_to(need)
        for name, dtype in _SCHEMA:
            values = codes if name == "kind" else arrays[name]
            self._buf[name][self._n : need] = values.astype(dtype, copy=False)
        self._n = need
        self._views = None

    def extend_log(self, other: "NetworkLog", rows) -> None:
        """Append the records of ``other`` that ``rows`` picks -- a
        slice (``slice(None)`` for all of them) or an index array, which
        also orders them -- with kind tags decoded through ``other``'s
        vocabulary.  How segments are read back into one log, and a log
        is cut into chunks or reordered."""
        cols, vocab = other.columns()
        picked = {name: column[rows] for name, column in cols.items()}
        picked["kind"] = np.asarray(vocab, dtype=np.str_)[picked["kind"]]
        self.extend_columns(**picked)

    def columns(self) -> Tuple[Dict[str, np.ndarray], Tuple[str, ...]]:
        """The sealed column arrays (read-only views) plus the kind
        vocabulary -- the zero-copy handoff used by digests, reorderings
        and chunked writers."""
        view = self._view()
        return dict(view.cols), view.kind_vocab

    def seal(self) -> None:
        """Flush staged rows into the sealed column buffers.

        Every derived view calls this implicitly; run harnesses call it
        once after collection so the first analysis query is pure
        numpy.  Amortized O(1) per record: buffers grow by doubling and
        each pending row is bulk-copied exactly once.
        """
        pending = self._pending
        if not pending:
            return
        need = self._n + len(pending)
        self._grow_to(need)
        columns = tuple(zip(*pending))
        for (name, _), values in zip(_SCHEMA, columns):
            self._buf[name][self._n : need] = values
        self._n = need
        pending.clear()

    def _view(self) -> _LogViews:
        views = self._views
        if views is None:
            self.seal()
            views = self._views = _LogViews(self._buf, self._n, tuple(self._kind_vocab))
        return views

    def __len__(self) -> int:
        return self._n + len(self._pending)

    def __iter__(self) -> Iterator[NetLogRecord]:
        return iter(self._view().records())

    @property
    def records(self) -> Tuple[NetLogRecord, ...]:
        """All records in delivery order (materialized lazily)."""
        return self._view().records()

    # ------------------------------------------------------------------
    # row and per-source column views for the statistics package (the
    # aggregate views come from AggregateViews, over summary())
    # ------------------------------------------------------------------
    def summary(self) -> LogSummary:
        """The log's :class:`LogSummary`: the fold over its columns as
        one chunk, built once per log state."""
        return self._view().summary()

    def by_source(self, src: int) -> Tuple[NetLogRecord, ...]:
        """Records generated by node ``src``, in injection order.

        Sorted once when first requested and returned as a cached
        tuple; the cache lives until the log next mutates.
        """
        return self._view().by_source(src)

    def _source_column(self, name: str, src: Optional[int]) -> np.ndarray:
        """Column ``name``, restricted to ``src``'s rows when given
        (delivery order either way)."""
        view = self._view()
        column = view.cols[name]
        if src is None:
            return column
        rows = view.source_rows().get(src)
        if rows is None:
            return np.empty(0, dtype=column.dtype)
        return column[rows]

    def injection_times(self, src: Optional[int] = None) -> np.ndarray:
        """Sorted injection timestamps, optionally for one source."""
        return np.sort(self._source_column("inject_time", src))

    def interarrival_times(self, src: Optional[int] = None) -> np.ndarray:
        """Message inter-arrival times (diffs of sorted injection times).

        With ``src=None`` this is the aggregate network inter-arrival
        series; with a source id it is that processor's message
        generation series -- the quantity the paper fits distributions
        to.
        """
        times = self.injection_times(src)
        if times.size < 2:
            return np.empty(0, dtype=float)
        return np.diff(times)

    def interarrivals_by_source(self) -> Dict[int, np.ndarray]:
        """Inter-arrival series for every source, keyed ascending.

        One pass over the per-source index instead of a full-column
        scan per source; used by the per-source temporal analysis.
        """
        view = self._view()
        inject = view.cols["inject_time"]
        out: Dict[int, np.ndarray] = {}
        for src, rows in view.source_rows().items():
            if rows.size < 2:
                out[src] = np.empty(0, dtype=float)
            else:
                out[src] = np.diff(np.sort(inject[rows]))
        return out

    def message_lengths(self, src: Optional[int] = None) -> np.ndarray:
        """Message payload lengths, optionally for one source."""
        return self._source_column("length_bytes", src).astype(float)

    def _check_endpoints(self, num_nodes: int) -> None:
        """Raise a :class:`ValueError` naming the first record with an
        endpoint at or past ``num_nodes`` (the fold has already
        rejected negative ones)."""
        view = self._view()
        for role in ("src", "dst"):
            outside = view.cols[role] >= num_nodes
            if outside.any():
                record = view.record_at(int(outside.argmax()))
                raise ValueError(
                    f"record msg_id={record.msg_id} (src={record.src}, "
                    f"dst={record.dst}) has {role}={getattr(record, role)} "
                    f"outside the {num_nodes}-node network"
                )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def write_csv(self, path: str) -> None:
        """Write the log as CSV (one row per record).

        Paths ending in ``.gz`` are written gzip-compressed, so large
        activity logs from instrumented runs stay manageable.
        """
        view = self._view()
        vocab = view.kind_vocab
        columns = [view.cols[name].tolist() for name, _ in _SCHEMA]
        with _open_csv(path, "w") as handle:
            writer = csv.writer(handle)
            writer.writerow(_CSV_FIELDS)
            for row in zip(*columns):
                out = list(row)
                out[_KIND_POS] = vocab[out[_KIND_POS]]
                writer.writerow(out)

    @classmethod
    def read_csv(cls, path: str) -> "NetworkLog":
        """Read a log previously written by :meth:`write_csv`
        (transparently gunzips ``.gz`` paths).

        Raises :class:`NetLogFormatError` -- naming the path and the
        offending 1-based row -- on a missing/mismatched header,
        truncated rows, or unparsable field values.
        """
        log = cls()
        for chunk in cls._iter_csv(path, chunk_size=None):
            log = chunk
        return log

    @classmethod
    def iter_csv_chunks(cls, path: str, chunk_size: int) -> Iterator["NetworkLog"]:
        """Yield a CSV log as bounded :class:`NetworkLog` chunks.

        Each yielded log holds at most ``chunk_size`` records in file
        order; an empty file (header only) yields nothing.  This is the
        O(window) ingestion path for out-of-core summaries
        (:func:`repro.mesh.netlog_stream.summarize_csv`): no more than
        one chunk of columns is ever materialized.  Raises
        :class:`NetLogFormatError` exactly like :meth:`read_csv`.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        for chunk in cls._iter_csv(path, chunk_size=chunk_size):
            if len(chunk):
                yield chunk

    @classmethod
    def _iter_csv(
        cls, path: str, chunk_size: Optional[int]
    ) -> Iterator["NetworkLog"]:
        """Shared CSV reader: yields logs of at most ``chunk_size``
        records, or one log of everything when ``chunk_size`` is None
        (always yields at least that one, possibly empty)."""
        log = cls()
        with _open_csv(path, "r") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise NetLogFormatError(
                    f"{path}: empty file (expected a netlog CSV header)"
                ) from None
            expected = set(_CSV_FIELDS)
            got = set(header)
            if got != expected or len(header) != len(_CSV_FIELDS):
                problems = []
                missing = sorted(expected - got)
                extra = sorted(got - expected)
                if missing:
                    problems.append(f"missing column(s) {missing}")
                if extra:
                    problems.append(f"unexpected column(s) {extra}")
                if not problems:
                    problems.append("duplicated column names")
                raise NetLogFormatError(
                    f"{path}: not a netlog CSV: " + "; ".join(problems)
                )
            index = {name: header.index(name) for name in _CSV_FIELDS}
            width = len(header)
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != width:
                    raise NetLogFormatError(
                        f"{path}: row {lineno}: expected {width} fields, got "
                        f"{len(row)} (truncated or corrupt log)"
                    )
                try:
                    log.append(
                        msg_id=int(row[index["msg_id"]]),
                        src=int(row[index["src"]]),
                        dst=int(row[index["dst"]]),
                        length_bytes=int(row[index["length_bytes"]]),
                        kind=row[index["kind"]],
                        inject_time=float(row[index["inject_time"]]),
                        start_time=float(row[index["start_time"]]),
                        deliver_time=float(row[index["deliver_time"]]),
                        contention=float(row[index["contention"]]),
                        hops=int(row[index["hops"]]),
                    )
                except ValueError as error:
                    raise NetLogFormatError(
                        f"{path}: row {lineno}: {error}"
                    ) from error
                if chunk_size is not None and len(log) >= chunk_size:
                    yield log
                    log = cls()
        yield log

    def write_npz(self, path) -> str:
        """Write the sealed columns as a compressed ``.npz``; returns the
        path written.

        Binary, exact (floats round-trip bit-identically without a
        decimal detour), and loaded back column-at-a-time by
        :meth:`read_npz` or plain :func:`numpy.load` -- the persistence
        fast path for sweep-scale logs and the spill segment format.
        The archive holds the members :func:`numpy.savez_compressed`
        would write, deflated at :data:`NPZ_COMPRESSLEVEL`.  As with
        NumPy, a ``str`` or path-like ``path`` lacking the ``.npz``
        suffix gains it.
        """
        view = self._view()
        vocab = view.kind_vocab
        members = {
            "schema": np.array([self.NPZ_SCHEMA_VERSION], dtype=np.int64),
            "kind_vocab": (
                np.asarray(vocab, dtype=np.str_)
                if vocab
                else np.empty(0, dtype="U1")
            ),
        }
        members.update((name, view.cols[name]) for name, _ in _SCHEMA)
        path = os.fspath(path)
        if not path.endswith(".npz"):
            path += ".npz"
        with zipfile.ZipFile(
            path,
            "w",
            compression=zipfile.ZIP_DEFLATED,
            compresslevel=NPZ_COMPRESSLEVEL,
            allowZip64=True,
        ) as archive:
            for name, array in members.items():
                with archive.open(name + ".npy", "w", force_zip64=True) as member:
                    np.lib.format.write_array(member, array, allow_pickle=False)
        return path

    @classmethod
    def read_npz(cls, path: str) -> "NetworkLog":
        """Read a log previously written by :meth:`write_npz`.

        Raises :class:`NetLogFormatError` on missing arrays, a schema
        member that is not one integer, an unknown schema version, a
        kind vocabulary that is not a 1-D array of strings, mismatched
        column lengths, or kind codes pointing outside the vocabulary.
        """
        with contextlib.ExitStack() as stack:
            # The file is ours to close: on a truncated npz (torn spill
            # segment) np.load raises BadZipFile, not an OSError, with
            # the file it opened itself still open.
            try:
                handle = stack.enter_context(open(path, "rb"))
                data = stack.enter_context(np.load(handle, allow_pickle=False))
            except (OSError, ValueError, zipfile.BadZipFile) as error:
                raise NetLogFormatError(f"{path}: not a netlog npz: {error}") from error
            present = set(data.files)
            required = {name for name, _ in _SCHEMA} | {"schema", "kind_vocab"}
            missing = sorted(required - present)
            if missing:
                raise NetLogFormatError(
                    f"{path}: not a netlog npz: missing array(s) {missing}"
                )
            schema = np.asarray(data["schema"]).ravel()
            if schema.size != 1 or schema.dtype.kind not in "iu":
                raise NetLogFormatError(
                    f"{path}: 'schema' must hold one integer version number, "
                    f"got {schema.size} value(s) of dtype {schema.dtype}"
                )
            version = int(schema[0])
            if version != cls.NPZ_SCHEMA_VERSION:
                raise NetLogFormatError(
                    f"{path}: npz schema version {version} is not supported "
                    f"(this build reads version {cls.NPZ_SCHEMA_VERSION})"
                )
            kind_vocab = np.asarray(data["kind_vocab"])
            if kind_vocab.ndim != 1 or kind_vocab.dtype.kind != "U":
                raise NetLogFormatError(
                    f"{path}: 'kind_vocab' must be a 1-D array of strings, got "
                    f"shape {kind_vocab.shape} of dtype {kind_vocab.dtype}"
                )
            vocab = [str(kind) for kind in kind_vocab]
            columns: Dict[str, np.ndarray] = {}
            n: Optional[int] = None
            for name, dtype in _SCHEMA:
                array = np.asarray(data[name])
                if array.ndim != 1:
                    raise NetLogFormatError(
                        f"{path}: column {name!r} is not 1-D"
                    )
                if n is None:
                    n = array.size
                elif array.size != n:
                    raise NetLogFormatError(
                        f"{path}: column {name!r} has {array.size} rows, "
                        f"expected {n}"
                    )
                columns[name] = array.astype(dtype)
            codes = columns["kind"]
            if codes.size and ((codes < 0) | (codes >= len(vocab))).any():
                raise NetLogFormatError(
                    f"{path}: kind codes point outside the stored vocabulary "
                    f"({len(vocab)} entries)"
                )
        log = cls()
        log._buf = columns
        log._n = log._capacity = 0 if n is None else int(n)
        log._kind_vocab = vocab
        log._kind_codes = {kind: i for i, kind in enumerate(vocab)}
        return log
