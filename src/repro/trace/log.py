"""Ordered trace container with per-source views and persistence."""

from __future__ import annotations

import csv
from typing import Dict, Iterator, List, Sequence

from repro.trace.events import CommEvent


class TraceLog:
    """All communication events of one traced run, in post order."""

    def __init__(self) -> None:
        self._events: List[CommEvent] = []
        self._last_post: Dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[CommEvent]:
        return iter(self._events)

    @property
    def events(self) -> Sequence[CommEvent]:
        """All events in post order."""
        return tuple(self._events)

    def record(
        self,
        src: int,
        dst: int,
        length_bytes: int,
        kind: str,
        tag: int,
        post_time: float,
    ) -> CommEvent:
        """Append an event, deriving its per-source gap automatically."""
        last = self._last_post.get(src)
        gap = post_time if last is None else max(post_time - last, 0.0)
        self._last_post[src] = post_time
        event = CommEvent(
            src=src,
            dst=dst,
            length_bytes=length_bytes,
            kind=kind,
            tag=tag,
            post_time=post_time,
            gap=gap,
        )
        self._events.append(event)
        return event

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def sources(self) -> List[int]:
        """Sorted distinct sources."""
        return sorted({e.src for e in self._events})

    def by_source(self, src: int) -> List[CommEvent]:
        """Events posted by ``src``, in post order."""
        return [e for e in self._events if e.src == src]

    def total_bytes(self) -> int:
        """Sum of payload bytes across all events."""
        return sum(e.length_bytes for e in self._events)

    def span(self) -> float:
        """Time from first to last post."""
        if not self._events:
            return 0.0
        times = [e.post_time for e in self._events]
        return max(times) - min(times)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def write_csv(self, path: str) -> None:
        """Persist the trace as CSV."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["event_id", "src", "dst", "length_bytes", "kind", "tag", "post_time", "gap"]
            )
            for e in self._events:
                writer.writerow(
                    [e.event_id, e.src, e.dst, e.length_bytes, e.kind, e.tag, e.post_time, e.gap]
                )

    @classmethod
    def read_csv(cls, path: str) -> "TraceLog":
        """Load a trace written by :meth:`write_csv`."""
        log = cls()
        with open(path, newline="") as handle:
            for row in csv.DictReader(handle):
                log._events.append(
                    CommEvent(
                        src=int(row["src"]),
                        dst=int(row["dst"]),
                        length_bytes=int(row["length_bytes"]),
                        kind=row["kind"],
                        tag=int(row["tag"]),
                        post_time=float(row["post_time"]),
                        gap=float(row["gap"]),
                        event_id=int(row["event_id"]),
                    )
                )
        return log
