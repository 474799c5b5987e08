"""Unified run configuration for every pipeline entry point.

The characterization pipelines, the synthetic generators, the load
sweep and the grid runner each used to grow their own ad-hoc keyword
arguments for instrumentation and kernel knobs.  :class:`RunOptions`
bundles them into one frozen, JSON-serializable value that travels the
whole stack: ``run_dynamic``/``run_static``/``run_pattern``
(:mod:`repro.core.run`), the synthetic generators,
:func:`~repro.core.loadsweep.measure_load_point`, and sweep cell specs
(where it becomes part of the cell's content address).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Mapping, Optional

from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import TimelineRecorder


@dataclass(frozen=True)
class RunOptions:
    """Immutable knob bundle for one simulated run.

    Attributes
    ----------
    metrics:
        Enable the observability layer (a fresh
        :class:`~repro.obs.registry.MetricsRegistry` per run); the
        pipeline result then carries the registry and its snapshot.
    timeline:
        Record a Chrome trace-event timeline of the run.
    check_leaks:
        Audit facility servers after a clean run (default on, as every
        pipeline did before).
    check_stall:
        Treat a drained event list with waiting processes as a
        :class:`~repro.simkernel.DeadlockError`.  One policy for every
        run, truncated or not: a run stopped at ``until`` with events
        still pending is not checked.
    max_no_progress_events:
        Arm the kernel watchdog: at most this many events fire at one
        simulated instant, and the next one aborts the run with a
        stall diagnosis (None = off; the one clock loop runs either
        way).
    sample_interval:
        Live-telemetry sampling interval in simulated time units: the
        run carries a :class:`~repro.obs.live.LiveSampler` producing
        windowed series every interval (None = no sampler, the
        default; unset fields are omitted from :meth:`as_dict`, so
        pre-existing sweep cache keys stay stable).
    heartbeat:
        Path of an append-only JSONL heartbeat stream for the run
        (None = none).  Implies sampling at
        :data:`~repro.obs.live.DEFAULT_SAMPLE_INTERVAL` when
        ``sample_interval`` is unset.
    log_spill:
        Directory for out-of-core activity logging (None = in-memory,
        the default).  When set, pipelines collect into a
        :class:`~repro.mesh.netlog_stream.StreamingNetworkLog` that
        spills full windows to compressed npz segments there, keeping
        characterization memory O(window); like the other late-added
        fields it is omitted from :meth:`as_dict` when unset so sweep
        cache keys stay stable.
    log_spill_window:
        In-memory window size (records) before a spill; None defers to
        :data:`~repro.mesh.netlog_stream.DEFAULT_WINDOW`.  Requires
        ``log_spill``.

    Booleans rather than live registry/recorder objects keep the value
    hashable and JSON-round-trippable, which sweep cell specs need for
    content addressing; use :meth:`make_registry`/:meth:`make_timeline`
    to materialize the instruments for one run.
    """

    metrics: bool = False
    timeline: bool = False
    check_leaks: bool = True
    check_stall: bool = True
    max_no_progress_events: Optional[int] = None
    sample_interval: Optional[float] = None
    heartbeat: Optional[str] = None
    log_spill: Optional[str] = None
    log_spill_window: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_no_progress_events is not None and self.max_no_progress_events < 1:
            raise ValueError(
                f"max_no_progress_events must be >= 1 or None, "
                f"got {self.max_no_progress_events}"
            )
        if self.sample_interval is not None and not self.sample_interval > 0:
            raise ValueError(
                f"sample_interval must be > 0 or None, got {self.sample_interval}"
            )
        if self.log_spill_window is not None and self.log_spill_window < 1:
            raise ValueError(
                f"log_spill_window must be >= 1 or None, got {self.log_spill_window}"
            )
        if self.log_spill_window is not None and self.log_spill is None:
            raise ValueError("log_spill_window needs log_spill (a spill directory)")

    # ------------------------------------------------------------------
    # instrument / log factories
    # ------------------------------------------------------------------
    def make_registry(self) -> Optional[MetricsRegistry]:
        """A fresh metrics registry when ``metrics`` is on, else None."""
        return MetricsRegistry() if self.metrics else None

    def make_timeline(self) -> Optional[TimelineRecorder]:
        """A fresh timeline recorder when ``timeline`` is on, else None."""
        return TimelineRecorder() if self.timeline else None

    def make_netlog(self, stem: str = "netlog"):
        """The activity-log collector for one run under this bundle.

        A :class:`~repro.mesh.netlog_stream.StreamingNetworkLog`
        spilling into ``log_spill`` when out-of-core logging is
        requested, else a plain in-memory
        :class:`~repro.mesh.netlog.NetworkLog`.  Imported lazily so
        this module stays free of a hard :mod:`repro.mesh` dependency.
        """
        if self.log_spill is None:
            from repro.mesh.netlog import NetworkLog

            return NetworkLog()
        from repro.mesh.netlog_stream import DEFAULT_WINDOW, StreamingNetworkLog

        return StreamingNetworkLog(
            self.log_spill,
            stem=stem,
            window=(
                self.log_spill_window
                if self.log_spill_window is not None
                else DEFAULT_WINDOW
            ),
        )

    def with_(self, **changes: object) -> "RunOptions":
        """A copy with ``changes`` applied (validated like __init__)."""
        return replace(self, **changes)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # serialization (sweep cell specs content-address on this)
    # ------------------------------------------------------------------
    #: Fields omitted from :meth:`as_dict` when unset: they were added
    #: after sweep caches existed, and serializing their None defaults
    #: would silently re-key (invalidate) every cached cell.
    _OPTIONAL_FIELDS = (
        "sample_interval",
        "heartbeat",
        "log_spill",
        "log_spill_window",
    )

    def as_dict(self) -> Dict[str, object]:
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if not (f.name in self._OPTIONAL_FIELDS and getattr(self, f.name) is None)
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "RunOptions":
        doc = dict(doc)
        # Bundles stored while the kernel had a choice of event list
        # carry a ``scheduler`` field.  None and "calendar" name the one
        # kernel left; a bundle naming another must not run on it.
        scheduler = doc.pop("scheduler", None)
        if scheduler not in (None, "calendar"):
            raise ValueError(
                f"stored RunOptions scheduler {scheduler!r} no longer exists; "
                f"the calendar kernel is the only one"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"unknown RunOptions field(s) {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**doc)  # type: ignore[arg-type]
