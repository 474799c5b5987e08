"""Live telemetry: windowed time-series sampling inside a running kernel.

The registry (:mod:`repro.obs.registry`) answers "what happened over
the whole run"; this module answers "what is happening *right now*".
A :class:`LiveSampler` is a self-rescheduling kernel callback: attached
to a :class:`~repro.simkernel.engine.Simulator`, it fires every
``interval`` units of *simulated* time (through ``Simulator.schedule``,
with the watchdog armed or not), reads a set of registered probes, and
appends one **windowed** sample -- deltas and rates over
the window just closed, not cumulative totals -- to a struct-of-arrays
:class:`LiveSeries` (the PR-4 columnar style: parallel column lists,
one row per window).

Design constraints, in order:

* **zero cost when off** -- nothing is scheduled and no per-event code
  changes; a run without a sampler is bit-identical in both work and
  results;
* **bounded cost when on** -- one callback event per window reading
  O(probes + channels) state; no per-model-event work at all, so the
  ≤5% overhead gate in ``benchmarks/bench_obs_overhead.py`` holds with
  margin;
* **no model perturbation** -- sampler callbacks read counters and
  facility integrals but never touch model state, so network logs stay
  bit-identical with sampling on vs. off (gated by the same bench);
* **self-draining** -- a tick only reschedules itself while other
  events are pending.  The sampler therefore never keeps the event
  list alive: a deadlocked model still drains to the stall check, and
  a completed run ends at most one interval after its last model
  event.

One sampler serves one simulator/registry pair; a run over several
simulators would create one sampler each and merge the resulting
series/heartbeat streams downstream -- every window row is
self-describing (``t_start``/``t_end``/``wall``), so merging is a sort.
"""

from __future__ import annotations

import re
import time
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.obs.fsio import atomic_write_text
from repro.obs.heartbeat import HeartbeatWriter

try:  # pragma: no cover - stdlib json is always present
    import json
except ImportError:  # pragma: no cover
    json = None  # type: ignore[assignment]

#: Bumped when the live-series window layout changes incompatibly.
LIVE_SCHEMA_VERSION = 1

#: Default sampling interval in simulated time units, used when a
#: heartbeat is requested without an explicit ``sample_interval``.
#: Mesh timings default to 1.0 per hop/flit, so 50 time units spans
#: tens of deliveries per window on the default meshes.
DEFAULT_SAMPLE_INTERVAL = 50.0


class LiveSeries:
    """Windowed telemetry in struct-of-arrays layout.

    Parallel lists: ``t_start[i]``/``t_end[i]``/``wall[i]`` bound
    window ``i`` in simulated and wall-clock time, and every column in
    :attr:`columns` holds that window's value at index ``i``.  The
    column set is fixed by the first window (the sampler's probe set
    does not change mid-run).
    """

    __slots__ = ("t_start", "t_end", "wall", "columns")

    def __init__(self) -> None:
        self.t_start: List[float] = []
        self.t_end: List[float] = []
        self.wall: List[float] = []
        self.columns: Dict[str, List[float]] = {}

    def __len__(self) -> int:
        return len(self.t_end)

    def append(
        self, t_start: float, t_end: float, wall: float, values: Mapping[str, float]
    ) -> None:
        """Append one closed window (columns must match the first's)."""
        if not self.columns:
            for name in values:
                self.columns[name] = []
        elif set(values) != set(self.columns):
            raise ValueError(
                "window columns changed mid-series: "
                f"{sorted(set(values) ^ set(self.columns))}"
            )
        self.t_start.append(t_start)
        self.t_end.append(t_end)
        self.wall.append(wall)
        for name, column in self.columns.items():
            column.append(float(values[name]))

    def window(self, index: int) -> Dict[str, object]:
        """Window ``index`` as one self-describing row dict."""
        row: Dict[str, object] = {
            "schema": LIVE_SCHEMA_VERSION,
            "window": index if index >= 0 else len(self) + index,
            "t_start": self.t_start[index],
            "t_end": self.t_end[index],
            "wall": self.wall[index],
        }
        for name, column in self.columns.items():
            row[name] = column[index]
        return row

    def latest(self) -> Optional[Dict[str, object]]:
        """The most recent window row, or None before the first tick."""
        return self.window(-1) if self.t_end else None

    def as_dict(self) -> Dict[str, object]:
        """Struct-of-arrays export (JSON-serializable)."""
        return {
            "schema": LIVE_SCHEMA_VERSION,
            "windows": len(self),
            "t_start": list(self.t_start),
            "t_end": list(self.t_end),
            "wall": list(self.wall),
            "columns": {name: list(col) for name, col in self.columns.items()},
        }

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """One JSON object per window, keys sorted (tail-friendly)."""
        return "".join(
            json.dumps(self.window(i), sort_keys=True) + "\n" for i in range(len(self))
        )

    def write_jsonl(self, path: str) -> None:
        """Atomically write the JSONL export to ``path``."""
        atomic_write_text(path, self.to_jsonl())

    def to_openmetrics(self, prefix: str = "repro") -> str:
        """Prometheus/OpenMetrics text exposition of the latest window.

        Every column becomes a gauge holding its most recent windowed
        value, plus a ``<prefix>_telemetry_windows`` counter of windows
        sampled so far; ends with the mandatory ``# EOF``.
        """
        lines = [
            f"# TYPE {prefix}_telemetry_windows counter",
            f"{prefix}_telemetry_windows_total {len(self)}",
        ]
        if self.t_end:
            name = f"{prefix}_telemetry_sim_time"
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {self.t_end[-1]:g}")
            for column in sorted(self.columns):
                metric = _openmetrics_name(prefix, column)
                lines.append(f"# TYPE {metric} gauge")
                lines.append(f"{metric} {self.columns[column][-1]:g}")
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    def write_openmetrics(self, path: str, prefix: str = "repro") -> None:
        """Atomically write the OpenMetrics exposition to ``path``."""
        atomic_write_text(path, self.to_openmetrics(prefix=prefix))


def _openmetrics_name(prefix: str, column: str) -> str:
    return f"{prefix}_" + re.sub(r"[^a-zA-Z0-9_]", "_", column)


class _Probe:
    __slots__ = ("name", "fn", "last")

    def __init__(self, name: str, fn: Callable[[], float], last: Optional[float]):
        self.name = name
        self.fn = fn
        self.last = last


class LiveSampler:
    """Periodic sampler turning cumulative probes into windowed series.

    Probes come in three shapes:

    * :meth:`watch_counter` -- a cumulative total (events fired,
      messages injected); each window records its delta
      (``<name>.delta``) and per-sim-time rate (``<name>.rate``);
    * :meth:`watch_gauge` -- a point-in-time level sampled at the
      window boundary (``<name>``);
    * :meth:`watch_window` -- a callable computing a whole dict of
      windowed columns from ``(t_start, t_end)`` (the mesh's
      busy-integral utilization probe).

    :meth:`attach` registers the kernel's own probes (events fired,
    event-queue depth), snapshots counter baselines, and schedules the
    first tick ``interval`` simulated-time units out.  When the owning
    registry is enabled, every window is also mirrored into
    ``live.<column>`` time series so the end-of-run metrics JSON
    carries the windowed history.
    """

    def __init__(
        self,
        interval: float,
        series: Optional[LiveSeries] = None,
        registry=None,
        wall_clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if not interval > 0:
            raise ValueError(f"sample interval must be > 0, got {interval}")
        self.interval = float(interval)
        self.series = series if series is not None else LiveSeries()
        self.registry = registry
        self.ticks = 0
        self._wall = wall_clock if wall_clock is not None else time.time
        self._counters: List[_Probe] = []
        self._gauges: List[_Probe] = []
        self._windows: List[Callable[[float, float], Mapping[str, float]]] = []
        self._listeners: List[
            Callable[["LiveSampler", float, Dict[str, float]], None]
        ] = []
        self._sim = None
        self._last_t = 0.0
        self._stopped = False

    # ------------------------------------------------------------------
    # probe registration
    # ------------------------------------------------------------------
    def watch_counter(self, name: str, fn: Callable[[], float]) -> None:
        """Watch a cumulative total; windows get its delta and rate."""
        baseline = float(fn()) if self._sim is not None else None
        self._counters.append(_Probe(name, fn, baseline))

    def watch_gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Watch a point-in-time level sampled at window boundaries."""
        self._gauges.append(_Probe(name, fn, None))

    def watch_window(
        self, fn: Callable[[float, float], Mapping[str, float]]
    ) -> None:
        """Watch a multi-column window probe ``fn(t_start, t_end)``."""
        self._windows.append(fn)

    def on_window(
        self, listener: Callable[["LiveSampler", float, Dict[str, float]], None]
    ) -> None:
        """Call ``listener(sampler, t_end, values)`` after every window
        (the heartbeat writer's hook)."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def attach(self, simulator) -> None:
        """Bind to ``simulator``, add kernel probes, schedule the first
        tick.  One sampler serves exactly one simulator."""
        if self._sim is not None:
            raise ValueError("sampler is already attached to a simulator")
        self._sim = simulator
        self.watch_counter("sim.events", lambda: float(simulator.events_fired))
        self.watch_gauge("sim.queue_depth", lambda: float(simulator.queue_depth))
        self._last_t = simulator.now
        for probe in self._counters:
            if probe.last is None:
                probe.last = float(probe.fn())
        simulator.schedule(self.interval, self._tick)

    def stop(self) -> None:
        """Stop sampling: pending ticks become no-ops, none reschedule."""
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        simulator = self._sim
        t_end = simulator.now
        t_start = self._last_t
        span = t_end - t_start
        values: Dict[str, float] = {}
        for probe in self._counters:
            current = float(probe.fn())
            delta = current - (probe.last or 0.0)
            probe.last = current
            values[probe.name + ".delta"] = delta
            values[probe.name + ".rate"] = delta / span if span > 0 else 0.0
        for probe in self._gauges:
            values[probe.name] = float(probe.fn())
        for fn in self._windows:
            values.update(fn(t_start, t_end))
        self.series.append(t_start, t_end, self._wall(), values)
        self._last_t = t_end
        self.ticks += 1
        registry = self.registry
        if registry is not None and registry.enabled:
            for name, value in values.items():
                registry.time_series("live." + name).sample(t_end, value)
        for listener in self._listeners:
            listener(self, t_end, values)
        # Reschedule only while model events are pending: an empty
        # queue here means the tick is (was) the last event, and
        # rescheduling would keep a drained -- possibly deadlocked --
        # simulation spinning forever.
        if simulator.queue_depth > 0:
            simulator.schedule(self.interval, self._tick)


# ----------------------------------------------------------------------
# online health (live analogue of the PR-3 doctor checks)
# ----------------------------------------------------------------------

#: Windowed mean channel utilization above which the network is
#: considered saturating (the doctor's drain-dominance check fires on
#: the same congestion signature, but only after the run ends).
SATURATION_UTILIZATION = 0.85

#: A window delivering fewer than this fraction of its injections (with
#: a backlog in flight) marks saturation onset: the backlog is growing.
COLLAPSE_RATIO = 0.5


def window_health(values: Mapping[str, float]) -> Tuple[str, List[str]]:
    """Classify one window's values as ``(verdict, notes)``.

    This is the live analogue of :func:`repro.obs.report.netlog_health`:
    where the doctor flags a drain-dominated span after the fact, this
    flags the onset -- deliveries collapsing against injections, or
    channel utilization pinned -- while the run is still going, before
    a ``StallError``/``DeadlockError`` would fire.  Verdicts:

    ``idle``
        nothing moved in the window;
    ``ok``
        progress with no congestion signature;
    ``saturating``
        utilization at/above :data:`SATURATION_UTILIZATION`, or
        deliveries below :data:`COLLAPSE_RATIO` of injections while a
        backlog is in flight (saturation onset);
    ``stalled``
        a backlog in flight and zero deliveries for the whole window
        (throughput collapse).
    """
    notes: List[str] = []
    events = values.get("sim.events.delta")
    injected = values.get("net.injected.delta")
    delivered = values.get("net.delivered.delta")
    if delivered is None:
        # Kernel-only sampler (no network attached): progress is events.
        if events is not None and events <= 0:
            return "idle", ["no events fired in window"]
        return "ok", notes
    in_flight = values.get("net.in_flight", 0.0)
    utilization = values.get("net.channel_utilization", 0.0)
    injected = injected or 0.0
    if delivered <= 0 and in_flight > 0:
        notes.append(
            f"no deliveries for a whole window with {in_flight:g} in flight"
        )
        return "stalled", notes
    if delivered <= 0 and injected <= 0 and in_flight <= 0:
        return "idle", notes
    if utilization >= SATURATION_UTILIZATION:
        notes.append(f"mean channel utilization {utilization:.2f}")
        return "saturating", notes
    if injected > 0 and delivered < COLLAPSE_RATIO * injected and in_flight > 0:
        notes.append(
            f"delivered {delivered:g} of {injected:g} injected; backlog growing"
        )
        return "saturating", notes
    return "ok", notes


def series_health(series: LiveSeries) -> Tuple[str, List[str]]:
    """Overall verdict for a series: the latest window's verdict, plus
    a throughput-collapse note when the latest delivered rate has
    fallen below half the series' peak."""
    latest = series.latest()
    if latest is None:
        return "idle", ["no windows sampled"]
    values = {k: v for k, v in latest.items() if isinstance(v, (int, float))}
    verdict, notes = window_health(values)
    rates = series.columns.get("net.delivered.rate")
    if rates and len(rates) >= 2:
        peak = max(rates[:-1])
        if peak > 0 and rates[-1] < COLLAPSE_RATIO * peak:
            notes.append(
                f"delivered rate {rates[-1]:g} is below half the peak {peak:g}"
            )
            if verdict == "ok":
                verdict = "saturating"
    return verdict, notes


# ----------------------------------------------------------------------
# run-harness wiring
# ----------------------------------------------------------------------


class LiveTelemetry:
    """One run's live-telemetry bundle: sampler, series, heartbeat.

    Built by :func:`start_live_telemetry`; the owning harness calls
    :meth:`finish` exactly once on the way out (both paths -- "done" on
    success, "failed" with the error otherwise).  ``finish`` is
    idempotent so belt-and-braces double calls are safe.
    """

    def __init__(
        self,
        sampler: LiveSampler,
        simulator,
        heartbeat: Optional[HeartbeatWriter] = None,
    ) -> None:
        self.sampler = sampler
        self.simulator = simulator
        self.heartbeat = heartbeat

    @property
    def series(self) -> LiveSeries:
        return self.sampler.series

    def finish(self, status: str = "done", error: Optional[BaseException] = None) -> None:
        """Stop sampling and append the terminal heartbeat record."""
        self.sampler.stop()
        if self.heartbeat is not None:
            self.heartbeat.finish(
                status,
                sim_time=self.simulator.now,
                events=self.simulator.events_fired,
                error=error,
            )


def start_live_telemetry(
    options,
    simulator,
    network=None,
    registry=None,
    label: str = "run",
    wall_clock: Optional[Callable[[], float]] = None,
) -> Optional[LiveTelemetry]:
    """Wire a sampler (and heartbeat) onto one run, per ``options``.

    Returns None -- and schedules nothing -- unless the options bundle
    requests live telemetry (``sample_interval`` and/or ``heartbeat``
    set).  ``options`` is duck-typed so legacy callers passing plain
    objects keep working.  The kernel probes come from ``simulator``,
    the windowed network counters from ``network`` (when given), and
    enabled-``registry`` runs get the windows mirrored into
    ``live.<column>`` time series.  Mesh drivers reach this through
    :meth:`repro.mesh.network.MeshNetwork.run`.
    """
    sample_interval = getattr(options, "sample_interval", None)
    heartbeat_path = getattr(options, "heartbeat", None)
    if sample_interval is None and heartbeat_path is None:
        return None
    interval = sample_interval if sample_interval is not None else DEFAULT_SAMPLE_INTERVAL
    sampler = LiveSampler(interval, registry=registry, wall_clock=wall_clock)
    writer: Optional[HeartbeatWriter] = None
    if heartbeat_path:
        writer = HeartbeatWriter(heartbeat_path, label=label, wall_clock=wall_clock)

        def emit(sampler: LiveSampler, t_end: float, values: Dict[str, float]) -> None:
            verdict, notes = window_health(values)
            writer.write_window(
                sim_time=t_end,
                events=simulator.events_fired,
                window=values,
                health=verdict,
                notes=notes,
            )

        sampler.on_window(emit)
    if network is not None:
        network.attach_live(sampler)
    sampler.attach(simulator)
    return LiveTelemetry(sampler=sampler, simulator=simulator, heartbeat=writer)
