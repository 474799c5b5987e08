"""Core event loop and process model for the simulation kernel.

The engine follows the classic process-oriented style of CSIM: model
code is written as plain Python generator functions.  Each time the
process wants simulated time to pass, or wants to synchronize on a
resource, it ``yield``\\ s a *command object* and the engine resumes it
when the command completes.  Because commands compose with ``yield
from``, model code can be factored into ordinary sub-generators.

Only the commands defined in this package are understood by the engine;
yielding anything else raises :class:`SimulationError` immediately,
which keeps model bugs loud instead of silently stalling.

The event list is a calendar queue (bucketed timing-wheel) of
slab-pooled event records (:mod:`repro.simkernel.engine_calendar`).
Events fire in the total order ``(time, seq)``: simultaneous events in
the order they were scheduled.  One clock loop, :func:`steady_clock`,
drains it.  It inlines process stepping, the hot commands' dispatch,
facility integrals and the queue's push/pop (wave promotion
included), batches wakeup waves into single queue touches, and keeps
the no-progress watchdog as one test on its same-instant branch.
Subclassed commands and unknown yields take the generic
``_dispatch``/``_execute`` handlers.
"""

from __future__ import annotations

import collections.abc
import enum
from dataclasses import dataclass
from heapq import heappop, heappush
from types import GeneratorType
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.simkernel.engine_calendar import (
    POOL_LIMIT,
    CalendarScheduler,
    EventRecord,
)


class SimulationError(RuntimeError):
    """Raised for malformed model behaviour (bad yields, double release,
    running a finished simulator, and similar programming errors)."""


class InvalidDelayError(SimulationError, ValueError):
    """A negative or NaN scheduling delay: the event would fire in the
    past, or at no time at all.

    Subclasses both :class:`SimulationError` (so existing kernel error
    handling keeps working) and :class:`ValueError` (it is an invalid
    argument value); the message names the offending delay.
    """


class ProcessState(enum.Enum):
    """Lifecycle states of a :class:`Process`."""

    CREATED = "created"
    RUNNABLE = "runnable"
    WAITING = "waiting"
    FINISHED = "finished"
    FAILED = "failed"


@dataclass(frozen=True)
class Hold:
    """Command: suspend the issuing process for ``duration`` time units."""

    duration: float

    def __post_init__(self) -> None:
        if not self.duration >= 0:  # written so that NaN fails too
            raise SimulationError(f"hold() duration must be >= 0, got {self.duration}")


@dataclass(frozen=True)
class Wait:
    """Command: block until ``event`` is set (no-op if already set)."""

    event: Any  # SimEvent; typed loosely to avoid an import cycle


@dataclass(frozen=True)
class Passivate:
    """Command: suspend indefinitely until another process calls
    :meth:`Process.activate`."""


_new_object = object.__new__


def hold(duration: float) -> Hold:
    """Advance the issuing process's clock by ``duration`` (CSIM ``hold``).

    Returns ``Hold(float(duration))`` without running the frozen
    dataclass's ``__init__``, as :func:`repro.mesh.netlog.make_record`
    builds a record: the same ``>= 0`` test and message, then the one
    field filled into the instance ``__dict__``.  ``==``, ``hash``,
    ``repr``, pickled bytes, ``vars()`` and
    :class:`dataclasses.FrozenInstanceError` are those of a constructed
    command.
    """
    duration = float(duration)
    if not duration >= 0:  # written so that NaN fails too
        raise SimulationError(f"hold() duration must be >= 0, got {duration}")
    command = _new_object(Hold)
    command.__dict__["duration"] = duration
    return command


def wait(event: Any) -> Wait:
    """Block on a :class:`~repro.simkernel.events.SimEvent` (CSIM ``wait``)."""
    return Wait(event)


def passivate() -> Passivate:
    """Suspend until explicitly re-activated (CSIM ``suspend``)."""
    return Passivate()


ProcessBody = Generator[Any, Any, Any]

#: What :meth:`Process.join` yields: commands are immutable, so one
#: instance serves every join.
_PASSIVATE = Passivate()


class Process:
    """A simulated process wrapping a generator.

    Processes are created through :meth:`Simulator.process`; they should
    not be instantiated directly.  The wrapped generator is resumed by
    the engine whenever the command it yielded completes; the value of a
    completed command (e.g. the message for a mailbox receive) is
    delivered as the value of the ``yield`` expression.
    """

    __slots__ = (
        "simulator",
        "name",
        "state",
        "result",
        "error",
        "_body",
        "_send",
        "_waiters",
        "_held",
        "waiting_on",
        "holds",
        "waits",
    )

    def __init__(self, simulator: "Simulator", body: ProcessBody, name: str) -> None:
        self.simulator = simulator
        self.name = name
        self.state = ProcessState.CREATED
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._body = body
        # Pre-bound ``body.send``: the clock resumes the generator once
        # per event, so binding the method there would be pure churn.
        self._send = body.send
        self._waiters: List[Process] = []
        # Resource-lifecycle bookkeeping.  ``_held`` maps each facility
        # this process currently holds to its server count (a process
        # may hold several servers of one multi-server facility), and
        # ``waiting_on`` names what a WAITING process is parked on (a
        # Facility, Mailbox, SimEvent, the joined Process, or the Hold
        # command for timer waits).  Together they let the stall
        # detector build the wait-for graph and the end-of-run audit
        # find leaked facilities.
        self._held: Dict[Any, int] = {}
        self.waiting_on: Any = None
        # Per-process command tallies; only maintained when the owning
        # simulator's metrics registry is enabled.
        self.holds = 0
        self.waits = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process({self.name!r}, {self.state.value})"

    @property
    def finished(self) -> bool:
        """True once the generator has run to completion (or failed)."""
        return self.state in (ProcessState.FINISHED, ProcessState.FAILED)

    @property
    def held(self) -> Dict[Any, int]:
        """Facilities this process currently holds, mapped to server counts."""
        return dict(self._held)

    def activate(self, value: Any = None) -> None:
        """Re-activate a passivated process, delivering ``value`` to it."""
        if self.finished:
            raise SimulationError(f"cannot activate finished process {self.name!r}")
        if self.state is not ProcessState.WAITING:
            raise SimulationError(
                f"cannot activate process {self.name!r} in state {self.state.value}"
            )
        self.simulator._schedule_step(self, value)

    def join(self) -> Generator[Any, Any, Any]:
        """Command sub-generator: block until this process finishes.

        Use as ``result = yield from other.join()``.
        """
        if not self.finished:
            waiter = self.simulator.current_process
            if waiter is None:
                raise SimulationError("join() may only be used from inside a process")
            self._waiters.append(waiter)
            waiter.waiting_on = self
            yield _PASSIVATE
        if self.state is ProcessState.FAILED and self.error is not None:
            raise self.error
        return self.result


def steady_clock(
    simulator: "Simulator", until: Optional[float] = None, limit: Optional[int] = None
) -> float:
    """Drain the event list: the kernel's one clock loop.

    It pops slab records straight off the now-FIFO and promotes the
    next wave itself when the FIFO drains, resumes the process
    generator inline (no ``_dispatch`` frames for the hot commands,
    nor ``Facility._integrate`` ones), and reschedules holds with a
    single calendar push.

    ``limit`` is :meth:`Simulator.run`'s ``max_no_progress_events``.
    Wave promotion empties the now-FIFO, so its head index counts the
    events fired at the current instant: an armed loop raises
    :class:`~repro.simkernel.diagnosis.StallError` instead of firing
    event ``limit + 1`` there, and leaves that event queued.

    Returns the final clock value.
    """
    # Deferred imports: facility/mailbox import this module at load
    # time, and the hot loop below special-cases their command types.
    from repro.simkernel.facility import Release, Request
    from repro.simkernel.mailbox import Receive, Send

    sched = simulator._sched
    fifo = sched._fifo
    pool = sched._pool
    # Cleared in place, never rebound, so caching them here stays
    # valid for the life of the scheduler.
    waves = sched._waves
    times = sched._times
    pool_limit = POOL_LIMIT
    observed = simulator._observed
    interval = simulator.QUEUE_SAMPLE_INTERVAL
    RUNNABLE = ProcessState.RUNNABLE
    WAITING = ProcessState.WAITING
    FINISHED = ProcessState.FINISHED
    FAILED = ProcessState.FAILED
    fired = 0
    try:
        # ``while True`` with the stop test inside, not ``while not
        # simulator._stopped``: CPython 3.11 warms a code object up only
        # on calls and unconditional backward jumps, so only this shape
        # specializes within the one call a run makes.
        while True:
            if simulator._stopped:
                break
            if until is not None:
                when = sched.peek_time()
                if when is None:
                    break
                if when > until:
                    simulator._now = max(simulator._now, until)
                    break
            head = sched._head
            if head < len(fifo):
                if limit is not None and head >= limit:
                    from repro.simkernel.diagnosis import StallError, diagnose_stall

                    raise StallError(
                        f"no simulated-time progress after {head} events "
                        f"at t={simulator._now:g}\n"
                        f"{diagnose_stall(simulator).describe()}"
                    )
                rec = fifo[head]
                fifo[head] = None
                sched._head = head + 1
            else:
                # The now-FIFO is drained: promote the next wave.
                if head:
                    del fifo[:]
                if not times:
                    sched._head = 0
                    break
                when = heappop(times)
                sched._floor = when
                rec = waves.pop(when)
                if type(rec) is list:
                    fifo.extend(rec)
                    rec = fifo[0]
                    fifo[0] = None
                else:
                    # A bare one-event wave fires straight away; its
                    # placeholder slot keeps the head count.
                    fifo.append(None)
                sched._head = 1
            simulator._now = now = rec.time
            proc = rec.proc
            if proc is None:
                callback = rec.callback
                rec.callback = None
                if len(pool) < pool_limit:
                    pool.append(rec)
                # Flush the local event tally before entering foreign
                # code: callbacks (the live sampler's tick) read
                # ``events_fired`` and must see an accurate count.
                # Callbacks are rare (one per sampling window), so the
                # hot process path keeps its local counter.
                simulator.events_fired += fired
                fired = 0
                callback()
            else:
                value = rec.value
                rec.value = None
                state = proc.state
                if state is FINISHED or state is FAILED:
                    rec.proc = None
                    if len(pool) < pool_limit:
                        pool.append(rec)
                else:
                    simulator.current_process = proc
                    try:
                        command = proc._send(value)
                    except StopIteration as stop_marker:
                        rec.proc = None
                        if len(pool) < pool_limit:
                            pool.append(rec)
                        proc.state = FINISHED
                        proc.result = stop_marker.value
                        if observed:
                            simulator._m_holds_per_proc.observe(proc.holds)
                            simulator._m_waits_per_proc.observe(proc.waits)
                        simulator._wake_joiners(proc)
                        simulator.current_process = None
                    except BaseException as exc:  # noqa: BLE001 - model errors must surface
                        rec.proc = None
                        if len(pool) < pool_limit:
                            pool.append(rec)
                        proc.state = FAILED
                        proc.error = exc
                        simulator._wake_joiners(proc)
                        simulator.current_process = None
                        raise
                    else:
                        simulator.current_process = None
                        command_type = type(command)
                        if command_type is Hold:
                            duration = command.duration
                            if observed:
                                proc.holds += 1
                                simulator._m_holds.inc()
                                simulator._m_hold_time.observe(duration)
                            proc.state = RUNNABLE
                            proc.waiting_on = None
                            # Reuse the record just fired: ``proc`` is
                            # already set and ``value`` already cleared,
                            # so the reschedule touches no pool at all.
                            # (Inline CalendarScheduler.push_step.)
                            when = now + duration
                            rec.time = when
                            if when == sched._floor:
                                fifo.append(rec)
                            else:
                                wave = waves.get(when)
                                if wave is None:
                                    waves[when] = rec
                                    heappush(times, when)
                                elif type(wave) is list:
                                    wave.append(rec)
                                else:
                                    waves[when] = [wave, rec]
                        elif command_type is Send:
                            # Inline Send._execute + Mailbox.put: both
                            # wakeups are zero-delay, and inside this
                            # loop ``now == floor`` always, so they go
                            # straight onto the now-FIFO -- receiver
                            # first, then the sender's own resume
                            # (which reuses the fired record).
                            box = command.mailbox
                            waiters = box._waiters
                            if waiters:
                                receiver = waiters.popleft()
                                receiver.state = RUNNABLE
                                receiver.waiting_on = None
                                rec2 = pool.pop() if pool else EventRecord()
                                rec2.time = now
                                rec2.proc = receiver
                                rec2.value = command.message
                                fifo.append(rec2)
                            else:
                                box._messages.append(command.message)
                            proc.state = RUNNABLE
                            proc.waiting_on = None
                            fifo.append(rec)
                        elif command_type is Receive:
                            # Inline Receive._execute: a ready message
                            # resumes this process at ``now`` (reusing
                            # the fired record); otherwise park it.
                            box = command.mailbox
                            msgs = box._messages
                            if msgs:
                                proc.state = RUNNABLE
                                proc.waiting_on = None
                                rec.value = msgs.popleft()
                                fifo.append(rec)
                            else:
                                rec.proc = None
                                if len(pool) < pool_limit:
                                    pool.append(rec)
                                proc.state = WAITING
                                box._waiters.append(proc)
                                proc.waiting_on = box
                        elif command_type is Request:
                            # Inline Request._execute/Facility._request
                            # (and its _integrate): an immediate grant
                            # resumes the requester at ``now`` (reusing
                            # the fired record).
                            fac = command.facility
                            span = now - fac._last_change
                            if span > 0:
                                fac._busy_integral += span * fac._busy
                                fac._queue_integral += span * len(fac._queue)
                                fac._last_change = now
                            if fac._busy < fac.servers:
                                fac._busy += 1
                                held_map = proc._held
                                held_map[fac] = held_map.get(fac, 0) + 1
                                proc.state = RUNNABLE
                                proc.waiting_on = None
                                fifo.append(rec)
                            else:
                                rec.proc = None
                                if len(pool) < pool_limit:
                                    pool.append(rec)
                                fac._queue.append(proc)
                                proc.state = WAITING
                                proc.waiting_on = fac
                        elif command_type is Release:
                            # Inline Release._execute/Facility._release
                            # (and its _integrate): grantee first, then
                            # the releaser's own zero-delay resume
                            # (reusing the record).
                            fac = command.facility
                            queue = fac._queue
                            span = now - fac._last_change
                            if span > 0:
                                fac._busy_integral += span * fac._busy
                                fac._queue_integral += span * len(queue)
                                fac._last_change = now
                            held = proc._held.get(fac, 0)
                            if held <= 0:
                                raise SimulationError(
                                    f"process {proc.name!r} released facility "
                                    f"{fac.name!r} it does not hold"
                                )
                            if held == 1:
                                del proc._held[fac]
                            else:
                                proc._held[fac] = held - 1
                            if queue:
                                nxt = queue.popleft()
                                held_map = nxt._held
                                held_map[fac] = held_map.get(fac, 0) + 1
                                nxt.state = RUNNABLE
                                nxt.waiting_on = None
                                rec2 = pool.pop() if pool else EventRecord()
                                rec2.time = now
                                rec2.proc = nxt
                                rec2.value = None
                                fifo.append(rec2)
                            else:
                                fac._busy -= 1
                            proc.state = RUNNABLE
                            proc.waiting_on = None
                            fifo.append(rec)
                        else:
                            rec.proc = None
                            if len(pool) < pool_limit:
                                pool.append(rec)
                            if command_type is Wait:
                                proc.state = WAITING
                                if observed:
                                    proc.waits += 1
                                    simulator._m_waits.inc()
                                command.event._add_waiter(proc)
                            elif command_type is Passivate:
                                proc.state = WAITING
                            else:
                                handler = getattr(command, "_execute", None)
                                if handler is None:
                                    # Subclassed commands and unknown yields
                                    # take the generic dispatcher.
                                    simulator._dispatch(proc, command)
                                else:
                                    proc.state = WAITING
                                    handler(proc)
            fired += 1
            if observed:
                simulator._m_events.inc()
                simulator._events_since_sample += 1
                if simulator._events_since_sample >= interval:
                    simulator._events_since_sample = 0
                    simulator._m_queue_depth.sample(simulator._now, len(sched))
                    simulator._m_active.sample(
                        simulator._now, simulator.active_process_count
                    )
    finally:
        simulator.events_fired += fired
    return simulator._now


class Simulator:
    """The simulation executive: clock, event list, and process table.

    The event list keeps the total order ``(time, sequence)`` so that
    simultaneous events fire in deterministic FIFO order -- a property
    the network simulator's contention accounting relies on (see the
    module docstring).

    Pass a :class:`~repro.obs.registry.MetricsRegistry` as ``obs`` to
    record kernel metrics (events fired, processes created, hold/wait
    counts, event-queue depth over simulated time).  The default is the
    shared null registry, which costs one ``if`` per event.
    """

    #: Sample the event-queue depth every this many fired events.
    QUEUE_SAMPLE_INTERVAL = 64

    def __init__(self, obs: Optional[MetricsRegistry] = None) -> None:
        self._sched = CalendarScheduler()
        self._now = 0.0
        self._processes: List[Process] = []
        self.current_process: Optional[Process] = None
        self._running = False
        self._stopped = False
        #: Total events fired across all ``run()`` calls.
        self.events_fired = 0
        self.obs = obs if obs is not None else NULL_REGISTRY
        self._observed = self.obs.enabled
        if self._observed:
            self._m_events = self.obs.counter("sim.events")
            self._m_processes = self.obs.counter("sim.processes")
            self._m_holds = self.obs.counter("sim.holds")
            self._m_waits = self.obs.counter("sim.waits")
            self._m_queue_depth = self.obs.time_series("sim.event_queue_depth")
            self._m_active = self.obs.time_series("sim.active_processes")
            self._m_holds_per_proc = self.obs.histogram("sim.holds_per_process")
            self._m_waits_per_proc = self.obs.histogram("sim.waits_per_process")
            self._m_hold_time = self.obs.histogram("sim.hold_duration")
            self._events_since_sample = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def processes(self) -> Tuple[Process, ...]:
        """All processes ever created on this simulator."""
        return tuple(self._processes)

    @property
    def active_process_count(self) -> int:
        """Number of processes that have not yet finished."""
        return sum(1 for p in self._processes if not p.finished)

    @property
    def queue_depth(self) -> int:
        """Number of pending events on the event list."""
        return len(self._sched)

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` time units from now.

        A negative or NaN ``delay`` raises :class:`InvalidDelayError` (a
        :class:`ValueError`): the event would fire in the simulated
        past and rewind the clock inside :meth:`run`, or set the clock
        to NaN.
        """
        if not delay >= 0:
            raise InvalidDelayError(f"delay must be >= 0, got delay={delay}")
        self._sched.push_callback(self._now + delay, callback)

    def process(self, body: ProcessBody, name: str = "process") -> Process:
        """Create a process from generator ``body`` and schedule its start.

        ``body`` must speak the generator protocol (the clock resumes it
        with ``send``): a generator, or any other
        :class:`collections.abc.Generator`.
        """
        if type(body) is not GeneratorType and not isinstance(
            body, collections.abc.Generator
        ):
            raise SimulationError(
                f"process body must be a generator, got {type(body).__name__}; "
                "did you forget to call the generator function?"
            )
        proc = Process(self, body, name)
        self._processes.append(proc)
        self._schedule_step(proc, None)
        if self._observed:
            self._m_processes.inc()
        return proc

    def stop(self) -> None:
        """Halt the event loop after the current event completes."""
        self._stopped = True

    def run(
        self,
        until: Optional[float] = None,
        check_stall: bool = False,
        max_no_progress_events: Optional[int] = None,
    ) -> float:
        """Run events until the event list drains, ``until`` is reached,
        or :meth:`stop` is called.  Returns the final clock value.

        The clock never moves backwards: a second ``run`` with an
        ``until`` horizon earlier than ``now`` is a no-op that returns
        the current time.

        With ``check_stall=True``, draining the event queue while
        processes are still ``WAITING`` raises
        :class:`~repro.simkernel.diagnosis.DeadlockError` carrying the
        wait-for cycle (process -> held facility -> blocked requester)
        instead of returning as if the simulation completed.

        ``max_no_progress_events=N`` arms a livelock watchdog: at most
        ``N`` events fire at one simulated instant, and the next one
        raises :class:`~repro.simkernel.diagnosis.StallError` (a
        zero-delay event storm) with the same wait-for diagnosis
        attached.  The event that did not fire stays queued, so
        :meth:`shutdown` unwinds its process.  The count belongs to the
        instant, not to the call: a run resumed at an instant where
        events already fired continues that count, whatever ended the
        previous run and whatever was scheduled since.  It starts again
        when the clock advances or after a run without ``until`` has
        drained the event list.  Unarmed, no run ever trips.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        if max_no_progress_events is not None and max_no_progress_events < 1:
            raise SimulationError(
                f"max_no_progress_events must be >= 1, got {max_no_progress_events}"
            )
        self._running = True
        self._stopped = False
        try:
            steady_clock(self, until, max_no_progress_events)
        finally:
            self._running = False
        if until is not None and not self._sched and self._now < until:
            self._now = until
        if check_stall and not self._stopped and not self._sched:
            blocked = [p for p in self._processes if p.state is ProcessState.WAITING]
            if blocked:
                from repro.simkernel.diagnosis import DeadlockError, diagnose_stall

                diagnosis = diagnose_stall(self)
                raise DeadlockError(
                    diagnosis.describe(), cycle=diagnosis.cycle_names()
                )
        return self._now

    # ------------------------------------------------------------------
    # lifecycle audits and teardown
    # ------------------------------------------------------------------
    def leaked_facilities(
        self, include_live: bool = False
    ) -> List[Tuple[Process, Any, int]]:
        """Audit held facility servers as ``(process, facility, count)``.

        By default only *leaks* are reported: servers held by a
        FINISHED/FAILED process, which nothing can ever release.  Pass
        ``include_live=True`` after a truncated ``run(until=...)`` to
        also see servers still held by live (suspended) processes.
        """
        leaks: List[Tuple[Process, Any, int]] = []
        for proc in self._processes:
            if proc._held and (proc.finished or include_live):
                for resource, count in proc._held.items():
                    leaks.append((proc, resource, count))
        return leaks

    def shutdown(self) -> List[Process]:
        """Unwind every unfinished process and drop pending events.

        Each live generator is closed (``GeneratorExit``), which runs
        the ``try/finally`` cleanup in :meth:`Facility.use` and
        :meth:`MeshNetwork.transfer` so held facilities are released
        and in-flight gauges restored.  Returns the processes that
        were terminated (state FAILED, error set to a truncation
        :class:`SimulationError`).

        Teardown is two-phase.  First every blocked process is pulled
        off whatever queue it is parked on (facility queue, mailbox,
        event) *before* any generator is closed: closing a holder runs
        its cleanup release, and a release hands the server straight to
        the next queued requester -- a requester still suspended at its
        request yield would then hold a server its own unwind path
        cannot see.  Second, after each close, any servers still
        recorded in the process's held map are abandoned; this covers
        the window where a server was granted but the grantee's resume
        event never fired (a run truncated by ``stop()``/watchdog, or a
        generator that swallowed ``GeneratorExit``).

        A generator whose cleanup raises does not abort the teardown:
        every process is still closed and the event queue cleared, then
        a :class:`SimulationError` is raised carrying the collected
        exceptions in its ``errors`` attribute.
        """
        if self._running:
            raise SimulationError("cannot shutdown() while the simulator is running")
        live = [p for p in self._processes if not p.finished]
        for proc in live:
            cancel = getattr(proc.waiting_on, "_cancel", None)
            if cancel is not None:
                cancel(proc)
            proc.waiting_on = None
        terminated: List[Process] = []
        errors: List[Tuple[Process, BaseException]] = []
        for proc in live:
            try:
                proc._body.close()
            except BaseException as exc:  # noqa: BLE001 - teardown must finish
                errors.append((proc, exc))
            finally:
                proc.state = ProcessState.FAILED
                proc.error = SimulationError(
                    f"process {proc.name!r} truncated by shutdown()"
                )
                for resource in list(proc._held):
                    abandon = getattr(resource, "_abandon", None)
                    if abandon is None:
                        del proc._held[resource]
                        continue
                    while proc._held.get(resource, 0) > 0:
                        abandon(proc)
            terminated.append(proc)
        self._sched.clear()
        if errors:
            summary = "; ".join(
                f"{proc.name!r}: {type(exc).__name__}: {exc}" for proc, exc in errors
            )
            error = SimulationError(
                f"{len(errors)} process(es) raised during shutdown(): {summary}"
            )
            error.errors = errors  # type: ignore[attr-defined]
            raise error from errors[0][1]
        return terminated

    # ------------------------------------------------------------------
    # process stepping
    # ------------------------------------------------------------------
    def _schedule_step(
        self, proc: Process, value: Any = None, delay: float = 0.0
    ) -> None:
        if not delay >= 0:  # written so that NaN fails too
            raise InvalidDelayError(f"delay must be >= 0, got delay={delay}")
        proc.state = ProcessState.RUNNABLE
        proc.waiting_on = None
        self._sched.push_step(self._now + delay, proc, value)

    def _schedule_step_batch(self, procs: Sequence[Process], value: Any) -> None:
        """Wake a wave of processes at ``now`` with one queue touch.

        Used for broadcast waves (event ``set``/``pulse``, join
        wakeups): the whole wave lands on the now-FIFO in a single
        extend instead of one push per waiter.
        Relative wake order is the iteration order of ``procs``.
        """
        RUNNABLE = ProcessState.RUNNABLE
        for proc in procs:
            proc.state = RUNNABLE
            proc.waiting_on = None
        self._sched.push_step_wave(self._now, procs, value)

    def _wake_joiners(self, proc: Process) -> None:
        waiters, proc._waiters = proc._waiters, []
        if waiters:
            alive = [w for w in waiters if not w.finished]
            if alive:
                self._schedule_step_batch(alive, proc.result)

    def _dispatch(self, proc: Process, command: Any) -> None:
        """Run a command that :func:`steady_clock` neither matches by
        exact type nor finds an ``_execute`` handler on: a subclassed
        Hold, Wait or Passivate, or an unknown yield."""
        if isinstance(command, Hold):
            proc.state = ProcessState.WAITING
            if self._observed:
                proc.holds += 1
                self._m_holds.inc()
                self._m_hold_time.observe(command.duration)
            self._schedule_step(proc, None, delay=command.duration)
        elif isinstance(command, Wait):
            proc.state = ProcessState.WAITING
            if self._observed:
                proc.waits += 1
                self._m_waits.inc()
            command.event._add_waiter(proc)
        elif isinstance(command, Passivate):
            proc.state = ProcessState.WAITING
        else:
            proc.state = ProcessState.FAILED
            proc.error = SimulationError(
                f"process {proc.name!r} yielded unknown command {command!r}"
            )
            raise proc.error
