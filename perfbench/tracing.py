"""Boundary tracing for the benchmark, installed from outside ``src/``.

The program has no in-process stage timers yet, so the traced run
wraps each layer's public entry points (functions and methods) while a
pass runs and restores the originals afterwards.  Two kinds of wrapper:

* *spans* -- coarse calls (an application run, one ``Simulator.run``,
  a fit).  Each keeps ``(id, name, start, end, parent id)`` in memory;
  :meth:`Tracer.write_chrome_trace` writes them once, at exit, as
  Chrome trace-event JSON.
* *counted* calls -- per-message calls (``route``, ``NetworkLog.add``).
  A span for each of the ~10^5 calls in a pass would distort the run
  and bloat the trace file, so they only add to a per-name call count
  and time.

Self time is a call's duration minus the time covered by the calls
nested inside it, spans and counted calls alike.  Every wrapped call
runs synchronously on one thread, so nested calls never overlap and
their coverage is the sum of their durations.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

Totals = Dict[str, Tuple[int, float]]


class Tracer:
    """In-memory span and call-time recorder with reversible patching."""

    def __init__(self) -> None:
        #: Closed spans: ``(span_id, name, start, end, parent_id or -1)``.
        self.spans: List[Tuple[int, str, float, float, int]] = []
        #: Per name: ``[calls, self_seconds]``.
        self._totals: Dict[str, List[float]] = {}
        self._children: List[List[float]] = []  # per open call: [child seconds]
        self._open_spans: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(self, fn: Callable, name: str, span: bool = True,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` timed under ``name``; ``on_result(args, result)`` runs
        after each call, outside the timed interval."""
        children = self._children
        open_spans = self._open_spans
        totals = self._totals.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                span_id = len(self.spans) + len(open_spans)
                parent = open_spans[-1] if open_spans else -1
                open_spans.append(span_id)
            covered = [0.0]
            children.append(covered)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                children.pop()
                duration = end - start
                if children:
                    children[-1][0] += duration
                totals[0] += 1
                totals[1] += duration - covered[0]
                if span:
                    open_spans.pop()
                    self.spans.append((span_id, name, start, end, parent))
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def patch_method(self, cls: type, attr: str, name: str, span: bool = True,
                     on_result: Optional[Callable] = None) -> None:
        """Wrap ``cls.attr``, which ``cls`` itself must define."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, span, on_result))

    def patch_function(self, fn: Callable, name: str, span: bool = True,
                       on_result: Optional[Callable] = None) -> None:
        """Wrap ``fn`` in every loaded module that binds it, so modules
        that did ``from x import fn`` call the wrapper too."""
        wrapper = self.wrap(fn, name, span, on_result)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None) or {}
            for attr, value in list(namespace.items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> Totals:
        """Copy of the per-name ``(calls, self_seconds)`` totals."""
        return {name: (int(calls), secs) for name, (calls, secs) in self._totals.items()}

    def write_chrome_trace(self, path: str) -> None:
        """Write the spans as Chrome trace-event JSON (complete events)."""
        origin = min((start for _, _, start, _, _ in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"span": span_id, "parent": parent},
            }
            for span_id, name, start, end, parent in sorted(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def totals_delta(after: Totals, before: Totals) -> Totals:
    """Per-name ``(calls, self_seconds)`` accumulated between two snapshots."""
    return {
        name: (calls - before.get(name, (0, 0.0))[0], secs - before.get(name, (0, 0.0))[1])
        for name, (calls, secs) in after.items()
    }
