"""Communication trace toolkit (static strategy plumbing).

* :class:`~repro.trace.events.CommEvent` -- one application-level
  communication event (source, destination, length, time since last
  network activity at the source -- the paper's trace record).
* :class:`~repro.trace.log.TraceLog` -- an ordered collection of events
  with per-source views and CSV persistence.
* :mod:`~repro.trace.profiler` -- the "trace profiler and analyzer"
  summarizing a trace before replay.
* :mod:`~repro.trace.replay` -- feeds a trace into the mesh simulator
  either *dependency-preserving* (per-source gaps maintained, timeline
  stretches under contention -- the paper's "intelligent" replay, one
  source walk per rank) or *open-loop* (each message injected at its
  absolute timestamp, the classic trace-driven pitfall, kept for the
  ablation).
"""

from repro.trace.events import CommEvent
from repro.trace.log import TraceLog
from repro.trace.profiler import TraceProfile, profile_trace
from repro.trace.replay import replay_trace

__all__ = ["CommEvent", "TraceLog", "TraceProfile", "profile_trace", "replay_trace"]
