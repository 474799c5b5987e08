"""Cross-process heartbeat streams (append-only JSONL progress records).

A running simulation is opaque from outside its process: the metrics
registry and the network log only materialize when the run returns.
Heartbeats fix that with the cheapest possible channel -- an append-only
JSONL file, one record per sampling window, flushed on every write so a
tailing reader (``repro watch``, or a human with ``tail -f``) sees
progress while the run is alive.  Files cross the sweep runner's
``ProcessPoolExecutor`` boundary for free: each worker writes its own
per-cell file, the supervisor and ``repro watch`` only ever read.

Record schema (version :data:`HEARTBEAT_SCHEMA_VERSION`)::

    {"schema": 1, "label": ..., "seq": N, "wall": <unix time>,
     "status": "running" | "done" | "failed" | "cached" | "pending",
     "sim_time": ..., "events": ..., "events_per_sec": ...,
     "health": "ok" | "idle" | "saturating" | "stalled",
     "notes": [...], "window": {<live-series columns>},
     "error": ...}

Only ``schema``, ``label``, ``seq``, ``wall`` and ``status`` are
guaranteed; everything else is optional per record.  Readers must
ignore unknown fields and tolerate a truncated final line (a record cut
mid-write by a crash or a kill signal) -- :func:`read_heartbeats`
implements exactly that contract.  The ``schema`` field is the forward-
compatibility hook: bump :data:`HEARTBEAT_SCHEMA_VERSION` on any
incompatible layout change so old watchers can refuse loudly instead of
mis-rendering.

Records are mergeable by design: every record is self-describing
(label + seq + wall), so several runs (sweep cells, say) can each write
their own stream and a reader can interleave them by ``wall`` without
coordination.
"""

from __future__ import annotations

import json
import os
import re
import time
from typing import Callable, Dict, List, Mapping, Optional, Sequence

#: Bumped when the heartbeat record layout changes incompatibly.
HEARTBEAT_SCHEMA_VERSION = 1

#: Statuses after which a stream will receive no further records.
TERMINAL_STATUSES = ("done", "failed", "cached")

#: File suffix heartbeat streams are written (and scanned) under.
HEARTBEAT_SUFFIX = ".jsonl"


def safe_label(label: str) -> str:
    """A filesystem-safe file stem for a run/cell label."""
    return re.sub(r"[^A-Za-z0-9._=\-]+", "_", label).strip("._") or "run"


class HeartbeatWriter:
    """Appends heartbeat records for one run to one JSONL file.

    Opens the file fresh (truncating any stale stream from a previous
    attempt) and emits an initial ``running`` record immediately, so a
    watcher sees the run the moment it starts, not at its first
    sampling window.  Every record is flushed; the file handle stays
    open for the run's lifetime.  ``wall_clock`` is injectable for
    deterministic tests.
    """

    def __init__(
        self,
        path: str,
        label: str = "run",
        wall_clock: Optional[Callable[[], float]] = None,
    ) -> None:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self.path = path
        self.label = label
        self._wall = wall_clock if wall_clock is not None else time.time
        self._seq = 0
        self._started = self._wall()
        self._handle = open(path, "w")
        self.closed = False
        self._emit({"status": "running", "sim_time": 0.0, "events": 0})

    def _emit(self, doc: Dict[str, object]) -> None:
        record: Dict[str, object] = {
            "schema": HEARTBEAT_SCHEMA_VERSION,
            "label": self.label,
            "seq": self._seq,
            "wall": self._wall(),
        }
        record.update(doc)
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        self._seq += 1

    def write_window(
        self,
        sim_time: float,
        events: int,
        window: Optional[Mapping[str, float]] = None,
        health: str = "ok",
        notes: Sequence[str] = (),
    ) -> None:
        """Append one progress record for a completed sampling window."""
        if self.closed:
            return
        elapsed = self._wall() - self._started
        doc: Dict[str, object] = {
            "status": "running",
            "sim_time": sim_time,
            "events": events,
            "events_per_sec": events / elapsed if elapsed > 0 else 0.0,
            "health": health,
        }
        if notes:
            doc["notes"] = list(notes)
        if window:
            doc["window"] = dict(window)
        self._emit(doc)

    def finish(
        self,
        status: str = "done",
        sim_time: Optional[float] = None,
        events: Optional[int] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """Append the terminal record and close the stream (idempotent)."""
        if self.closed:
            return
        doc: Dict[str, object] = {"status": status}
        if sim_time is not None:
            doc["sim_time"] = sim_time
        if events is not None:
            doc["events"] = events
            elapsed = self._wall() - self._started
            doc["events_per_sec"] = events / elapsed if elapsed > 0 else 0.0
        if error is not None:
            doc["error"] = f"{type(error).__name__}: {error}"
        self._emit(doc)
        self._handle.close()
        self.closed = True

    def __enter__(self) -> "HeartbeatWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.finish("failed", error=exc)
        else:
            self.finish("done")


def write_status_record(
    path: str,
    label: str,
    status: str,
    error: Optional[str] = None,
    append: bool = False,
) -> None:
    """Write a single supervisor-side status record.

    Used by the sweep runner for cells that never run a kernel in this
    process: a fresh one-record stream for ``cached``/``pending`` cells
    (``append=False`` truncates any stale stream), and an appended
    terminal ``failed`` record after a worker died or timed out without
    writing its own (``append=True`` keeps the worker's partial stream
    as history).
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    record: Dict[str, object] = {
        "schema": HEARTBEAT_SCHEMA_VERSION,
        "label": label,
        "seq": 0,
        "wall": time.time(),
        "status": status,
    }
    if error is not None:
        record["error"] = error
    with open(path, "a" if append else "w") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_heartbeats(path: str) -> List[Dict[str, object]]:
    """Every parseable record of one heartbeat stream, in write order.

    A truncated *final* line (the producer was killed mid-write, or the
    reader raced an in-progress append) is silently dropped -- that is
    the documented reader contract.  A corrupt line anywhere else is a
    real integrity problem and raises :class:`ValueError`.
    """
    with open(path) as handle:
        lines = handle.read().splitlines()
    records: List[Dict[str, object]] = []
    last_index = len(lines) - 1
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            if i == last_index:
                break
            raise ValueError(f"{path}:{i + 1}: corrupt heartbeat record")
        if isinstance(doc, dict):
            records.append(doc)
    return records


def last_heartbeat(path: str) -> Optional[Dict[str, object]]:
    """The most recent record of one stream, or None when empty."""
    records = read_heartbeats(path)
    return records[-1] if records else None


def scan_heartbeat_dir(directory: str) -> Dict[str, Dict[str, object]]:
    """Latest record per stream under ``directory`` (a sweep's fleet).

    Keys are file stems (the sanitized cell labels); files that exist
    but hold no complete record yet are skipped.
    """
    rows: Dict[str, Dict[str, object]] = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(HEARTBEAT_SUFFIX):
            continue
        record = last_heartbeat(os.path.join(directory, name))
        if record is not None:
            rows[name[: -len(HEARTBEAT_SUFFIX)]] = record
    return rows


def heartbeat_rows(path: str) -> Dict[str, Dict[str, object]]:
    """Latest record(s) at ``path``: a directory scans its fleet, a
    single file yields one row keyed by its stem."""
    if os.path.isdir(path):
        return scan_heartbeat_dir(path)
    record = last_heartbeat(path)
    if record is None:
        return {}
    stem = os.path.basename(path)
    if stem.endswith(HEARTBEAT_SUFFIX):
        stem = stem[: -len(HEARTBEAT_SUFFIX)]
    return {stem: record}


class HeartbeatFollower:
    """Incremental tailer of one stream or a directory of streams.

    Where :func:`read_heartbeats` re-reads a whole file per call, a
    follower remembers a byte offset per file and each :meth:`poll`
    returns only the records appended since the last one — the seam
    the serve SSE endpoint (and any other live consumer) tails on.
    The contract is tuned for liveness rather than forensics:

    * a path (or directory) that does not exist *yet* is not an error
      — heartbeat directories are created lazily by the producer, so
      ``poll`` just returns nothing until it appears;
    * a partial final line is left unconsumed (it completes on a later
      poll);
    * a *restarted* stream (a new attempt rewrote the file) resets its
      offset and is re-read from the top.  Shrinkage is one signal;
      the other is a first-line fingerprint per file, which catches
      the restart the size check misses: a rewrite that lands at or
      beyond the stored offset would otherwise splice the new
      attempt's bytes mid-stream as if they continued the old one;
    * an unparseable completed line is skipped rather than raised — a
      live tail must keep flowing past one torn record.
    """

    #: First-line fingerprint cap: heartbeat header records are tens of
    #: bytes, so 4 KB of first line is identity enough.
    _FINGERPRINT_BYTES = 4096

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._offsets: Dict[str, int] = {}
        self._fingerprints: Dict[str, bytes] = {}

    def _files(self) -> List[str]:
        if os.path.isdir(self.path):
            try:
                names = sorted(os.listdir(self.path))
            except OSError:
                return []
            return [
                os.path.join(self.path, name)
                for name in names
                if name.endswith(HEARTBEAT_SUFFIX)
            ]
        if os.path.isfile(self.path):
            return [self.path]
        return []

    def poll(self) -> List[Dict[str, object]]:
        """New complete records across all followed files, in
        (file name, write order)."""
        records: List[Dict[str, object]] = []
        for path in self._files():
            offset = self._offsets.get(path, 0)
            try:
                with open(path, "rb") as handle:
                    head = handle.readline(self._FINGERPRINT_BYTES)
                    known = self._fingerprints.get(path)
                    if known is not None and head != known:
                        offset = 0  # restarted in place: re-read
                    if head.endswith(b"\n") or len(head) >= self._FINGERPRINT_BYTES:
                        # Only a *stable* first line is identity; a
                        # partial one may still be mid-write.
                        self._fingerprints[path] = head
                    size = os.fstat(handle.fileno()).st_size
                    if size < offset:
                        offset = 0  # truncated and restarted: re-read
                    if size == offset:
                        continue
                    handle.seek(offset)
                    chunk = handle.read()
            except OSError:
                continue
            complete, sep, _partial = chunk.rpartition(b"\n")
            if not sep:
                continue  # no complete line yet
            self._offsets[path] = offset + len(complete) + len(sep)
            for line in complete.split(b"\n"):
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    continue
                if isinstance(doc, dict):
                    records.append(doc)
        return records


def render_fleet(
    rows: Mapping[str, Dict[str, object]], now: Optional[float] = None
) -> str:
    """A fixed-width fleet table of latest heartbeat records.

    Deterministic for a given ``rows`` mapping when ``now`` is None
    (the ``repro watch --once`` contract); passing the current wall
    time adds an age column for live tailing.
    """
    name_width = max([len(n) for n in rows] + [4])
    header = (
        f"{'run':<{name_width}} {'status':<8} {'health':<10} "
        f"{'sim-t':>10} {'events':>10} {'ev/s':>10}"
    )
    if now is not None:
        header += f" {'age':>6}"
    lines = [header, "-" * len(header)]
    counts: Dict[str, int] = {}
    for name in sorted(rows):
        record = rows[name]
        status = str(record.get("status", "?"))
        counts[status] = counts.get(status, 0) + 1
        health = str(record.get("health", "-"))
        sim_time = record.get("sim_time")
        events = record.get("events")
        rate = record.get("events_per_sec")
        sim_text = f"{sim_time:g}" if isinstance(sim_time, (int, float)) else "-"
        ev_text = f"{int(events)}" if isinstance(events, (int, float)) else "-"
        rate_text = f"{rate:.0f}" if isinstance(rate, (int, float)) else "-"
        line = (
            f"{name:<{name_width}} {status:<8} {health:<10} "
            f"{sim_text:>10} {ev_text:>10} {rate_text:>10}"
        )
        if now is not None:
            wall = record.get("wall")
            if isinstance(wall, (int, float)):
                line += f" {max(now - wall, 0.0):>5.0f}s"
            else:
                line += f" {'-':>6}"
        lines.append(line)
    summary = ", ".join(f"{counts[s]} {s}" for s in sorted(counts))
    lines.append(f"{len(rows)} run(s): {summary or 'none'}")
    return "\n".join(lines)
