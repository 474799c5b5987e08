"""Chrome trace-event timeline export.

Records the simulation as trace events loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``: each mesh node is a
*process* whose message transfers are complete-event spans, the network
channels are one process with a thread per directed channel showing
occupancy spans, and sampled quantities (in-flight messages, queue
depths) appear as counter tracks.

Simulated time maps directly onto the trace ``ts`` field (the format's
unit is microseconds, which matches the repo's convention of simulated
microseconds/cycles).  The format reference is the "Trace Event Format"
document; only the ``X`` (complete), ``C`` (counter), ``i`` (instant)
and ``M`` (metadata) phases are emitted, which every viewer supports.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.obs.fsio import atomic_write_text


class TimelineRecorder:
    """Accumulates Chrome trace events during a simulation run."""

    enabled = True

    def __init__(self, max_events: int = 200_000) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self._events: List[Dict[str, object]] = []
        self._metadata: List[Dict[str, object]] = []
        self._named: set = set()
        self.max_events = max_events
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    # event phases
    # ------------------------------------------------------------------
    def complete(
        self,
        name: str,
        category: str,
        start: float,
        duration: float,
        pid: int,
        tid: int,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """A span (``ph: "X"``) from ``start`` lasting ``duration``."""
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        event: Dict[str, object] = {
            "name": name,
            "cat": category,
            "ph": "X",
            "ts": start,
            "dur": duration,
            "pid": pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        self._events.append(event)

    def counter(self, name: str, time: float, values: Dict[str, float], pid: int) -> None:
        """A counter-track sample (``ph: "C"``)."""
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        self._events.append(
            {"name": name, "ph": "C", "ts": time, "pid": pid, "args": dict(values)}
        )

    def instant(self, name: str, category: str, time: float, pid: int, tid: int) -> None:
        """A zero-duration marker (``ph: "i"``, thread scope)."""
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        self._events.append(
            {"name": name, "cat": category, "ph": "i", "ts": time,
             "pid": pid, "tid": tid, "s": "t"}
        )

    # ------------------------------------------------------------------
    # track naming (metadata events)
    # ------------------------------------------------------------------
    def name_process(self, pid: int, name: str) -> None:
        """Label process track ``pid`` (idempotent)."""
        key = ("p", pid)
        if key in self._named:
            return
        self._named.add(key)
        self._metadata.append(
            {"name": "process_name", "ph": "M", "pid": pid,
             "args": {"name": name}}
        )

    def name_thread(self, pid: int, tid: int, name: str) -> None:
        """Label thread track ``tid`` of process ``pid`` (idempotent)."""
        key = ("t", pid, tid)
        if key in self._named:
            return
        self._named.add(key)
        self._metadata.append(
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
             "args": {"name": name}}
        )

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The full trace as a JSON-object trace (``traceEvents`` form)."""
        return {
            "traceEvents": self._metadata + self._events,
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.obs",
                "dropped_events": self.dropped,
            },
        }

    def write(self, path: str) -> None:
        """Atomically write the trace JSON to ``path`` (same-directory
        temp file + ``os.replace``, so viewers never see a truncated
        trace from a run killed mid-dump)."""
        atomic_write_text(path, json.dumps(self.to_dict()))


class NullTimeline(TimelineRecorder):
    """Disabled recorder: every phase is a no-op, export is empty."""

    enabled = False

    def complete(self, name, category, start, duration, pid, tid, args=None) -> None:
        pass

    def counter(self, name, time, values, pid) -> None:
        pass

    def instant(self, name, category, time, pid, tid) -> None:
        pass

    def name_process(self, pid, name) -> None:
        pass

    def name_thread(self, pid, tid, name) -> None:
        pass


#: Shared disabled recorder used as the default everywhere.
NULL_TIMELINE = NullTimeline()

#: pid offset for the synthetic "network channels" process track --
#: keeps node pids (0..N-1) and the channel process visually apart.
CHANNELS_PID = 10_000
