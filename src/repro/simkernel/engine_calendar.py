"""Bucketed event list (exact-timestamp calendar) for the kernel.

This is the event list behind :class:`repro.simkernel.engine.
Simulator`.  Instead of one global binary heap of ``(time, seq,
closure)`` tuples it keeps three cooperating structures:

* a **now-FIFO** -- a plain list (drained by index, not ``pop(0)``) of
  events scheduled at exactly the scheduler *floor*, the time of the
  most recently dequeued event.  Zero-delay wakeups -- the bulk of
  facility grants and mailbox handoffs -- land here and are popped in
  O(1) with no comparisons at all;
* **waves** -- a dict mapping each exact future timestamp to the
  events scheduled for it: the bare record while there is one, a list
  appended in schedule order from the second push on (in the pipeline
  benchmark's workloads, 12-35% of all events open a wave that no
  second event joins, and a bare record saves each of them a list);
* a **lazy time heap** -- a min-heap of the wave timestamps, pushed
  once when a wave is first created.

This is a calendar queue taken to its sparse limit: instead of slicing
time into fixed-width buckets (whose min-scans and splits run at
Python speed and dominate once a bucket holds mixed timestamps), every
distinct timestamp *is* its own bucket, and the cross-bucket order is
kept by ``heapq`` over bare floats -- C-speed compares, no tuple
allocation, and never a stale entry, because a wave's timestamp enters
the heap exactly once and leaves when the wave is promoted.  Discrete-
event models make this degenerate layout the fast one: quantized link
and service times pile many events onto few distinct timestamps, so
the per-wave heap cost amortizes toward zero.

Event records are slab-pooled :class:`EventRecord` instances with
``__slots__``: the engine recycles each record after firing it, so a
steady-state run allocates no per-event objects at all.

Ordering contract
-----------------
The engine's observable event order is the total order ``(time, seq)``
with ``seq`` a monotone schedule counter -- simultaneous events fire in
the order they were scheduled.  Here that order is structural; no
counter is stored:

* events at the same timestamp share one wave and are appended in
  schedule order (the second push turns a bare record into the list
  ``[first, second]``);
* when the floor advances to the heap-minimum timestamp, the whole
  wave is promoted into the (empty) now-FIFO in one ``extend`` (a bare
  record fires straight away, behind a placeholder slot), and
  any event scheduled at the floor *afterwards* is appended behind it
  -- so FIFO order within a timestamp is global, not per-structure;
* events can only be scheduled at ``t == floor`` while the clock sits
  at the floor (delays are non-negative and the engine clock never
  trails the floor), so routing exact-floor pushes to the now-FIFO
  never bypasses an earlier event still parked in a wave.

The engine's ``steady_clock`` is the only pop: it drains the now-FIFO
by head index and promotes the next wave itself, and it inlines the
hot pushes.  So the layout of ``_fifo``/``_waves``/``_times`` is
load-bearing: they are cleared in place, never rebound.  Promotion
empties the now-FIFO, so ``_head`` also counts the events fired at the
floor; the engine's no-progress watchdog reads it.  The property
tests push here, fire through that loop, and hold every push, fired
event and peek to a plain ``heapq`` of ``(time, seq)`` entries, the
model of this contract.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, List, Optional, Sequence


#: Cap on pooled records, to bound slab memory after a burst.
POOL_LIMIT = 8192


class EventRecord:
    """One pending event: a process step or a raw callback.

    Records are owned by the scheduler's slab pool; model code never
    sees them.  ``proc is None`` marks a callback record.
    """

    __slots__ = ("time", "proc", "value", "callback")

    def __init__(self) -> None:
        self.time = 0.0
        self.proc: Any = None
        self.value: Any = None
        self.callback: Optional[Callable[[], None]] = None


class CalendarScheduler:
    """Exact-timestamp bucketed event list with a zero-delay fast lane."""

    __slots__ = ("_waves", "_times", "_fifo", "_head", "_floor", "_pool")

    def __init__(self) -> None:
        self._waves: dict = {}
        self._times: List[float] = []
        self._fifo: List[Optional[EventRecord]] = []
        self._head = 0
        self._floor = 0.0
        self._pool: List[EventRecord] = []

    def __len__(self) -> int:
        pending = len(self._fifo) - self._head
        for wave in self._waves.values():
            pending += len(wave) if type(wave) is list else 1
        return pending

    def __bool__(self) -> bool:
        return self._head < len(self._fifo) or bool(self._times)

    # ------------------------------------------------------------------
    # push
    # ------------------------------------------------------------------
    def push_step(self, time: float, proc: Any, value: Any) -> None:
        """Schedule a process resume at ``time`` (absolute)."""
        pool = self._pool
        rec = pool.pop() if pool else EventRecord()
        rec.time = time
        rec.proc = proc
        rec.value = value
        if time == self._floor:
            self._fifo.append(rec)
        else:
            waves = self._waves
            wave = waves.get(time)
            if wave is None:
                waves[time] = rec
                heappush(self._times, time)
            elif type(wave) is list:
                wave.append(rec)
            else:
                waves[time] = [wave, rec]

    def push_callback(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule a raw callback at ``time`` (absolute)."""
        pool = self._pool
        rec = pool.pop() if pool else EventRecord()
        rec.time = time
        rec.callback = callback
        if time == self._floor:
            self._fifo.append(rec)
        else:
            waves = self._waves
            wave = waves.get(time)
            if wave is None:
                waves[time] = rec
                heappush(self._times, time)
            elif type(wave) is list:
                wave.append(rec)
            else:
                waves[time] = [wave, rec]

    def push_step_wave(self, time: float, procs: Sequence[Any], value: Any) -> None:
        """Schedule one resume per process in ``procs``, in order, with a
        single queue touch when the wave lands on the now-FIFO (the
        common case: grant/broadcast waves are zero-delay)."""
        if not procs:
            return
        if time == self._floor:
            target = self._fifo
        else:
            waves = self._waves
            target = waves.get(time)
            if target is None:
                waves[time] = target = []
                heappush(self._times, time)
            elif type(target) is not list:
                waves[time] = target = [target]
        pool = self._pool
        for proc in procs:
            rec = pool.pop() if pool else EventRecord()
            rec.time = time
            rec.proc = proc
            rec.value = value
            target.append(rec)

    # ------------------------------------------------------------------
    # peek / clear
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[float]:
        """Time of the next event, or ``None`` when empty."""
        fifo = self._fifo
        if self._head < len(fifo):
            return fifo[self._head].time
        if self._times:
            return self._times[0]
        return None

    def clear(self) -> None:
        """Drop every pending event (shutdown/truncation path).

        Clears in place: the engine's inlined clock caches these
        containers by identity.
        """
        self._waves.clear()
        del self._times[:]
        del self._fifo[:]
        self._head = 0
