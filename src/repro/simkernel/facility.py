"""Served resources with queueing and utilization statistics.

:class:`Facility` reproduces CSIM's ``facility``: a resource with one or
more servers and a FIFO queue of requesting processes.  The mesh network
simulator models every physical channel as a single-server facility;
the time a head flit spends queued for the channel is exactly the
*contention* component of message latency that the paper logs, and the
busy-time integral gives the channel *utilization* the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Deque, List
from collections import deque

from repro.simkernel.engine import Hold, Process, SimulationError, Simulator


@dataclass(frozen=True)
class Request:
    """Command: acquire one server of ``facility`` (FIFO, blocking)."""

    facility: "Facility"

    def _execute(self, proc: Process) -> None:
        self.facility._request(proc)


@dataclass(frozen=True)
class Release:
    """Command: release one previously acquired server of ``facility``."""

    facility: "Facility"

    def _execute(self, proc: Process) -> None:
        self.facility._release(proc)
        # Releasing never blocks: resume the caller immediately (an
        # explicit zero-delay wakeup, clamped to the current clock).
        proc.simulator._schedule_step(proc, None, delay=0.0)


def request(facility: "Facility") -> Request:
    """Yieldable command acquiring ``facility`` (CSIM ``reserve``)."""
    return Request(facility)


def release(facility: "Facility") -> Release:
    """Yieldable command releasing ``facility`` (CSIM ``release``)."""
    return Release(facility)


class Facility:
    """A multi-server resource with FIFO queueing and usage accounting.

    Parameters
    ----------
    simulator:
        Owning simulator (statistics are integrated against its clock).
    name:
        Diagnostic label.
    servers:
        Number of identical servers (default 1, as for a mesh channel).
    """

    def __init__(self, simulator: Simulator, name: str = "facility", servers: int = 1) -> None:
        if servers < 1:
            raise SimulationError(f"facility needs >= 1 server, got {servers}")
        self.simulator = simulator
        self.name = name
        self.servers = servers
        self._queue: Deque[Process] = deque()
        self._busy = 0
        self._busy_integral = 0.0
        self._queue_integral = 0.0
        self._last_change = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Facility({self.name!r}, busy={self._busy}/{self.servers}, q={len(self._queue)})"

    # ------------------------------------------------------------------
    # state queries
    # ------------------------------------------------------------------
    @property
    def busy(self) -> int:
        """Number of servers currently held."""
        return self._busy

    @property
    def queue_length(self) -> int:
        """Number of processes waiting for a server."""
        return len(self._queue)

    @property
    def is_free(self) -> bool:
        """Whether at least one server is available right now."""
        return self._busy < self.servers

    def holders(self) -> List[Process]:
        """Processes currently holding at least one server.

        Holder bookkeeping lives on each :class:`Process` (its held
        map), so this scans the simulator's process table -- it is a
        diagnosis/audit path, not part of the simulation hot path.
        """
        return [p for p in self.simulator._processes if self in p._held]

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def _integrate(self) -> None:
        # The clock attribute, not the ``now`` property, here and in
        # the request/release hooks: they run on every grant.
        # ``steady_clock`` inlines this body in its Request and Release
        # branches; the two must stay in step, and the equivalence tests
        # compare them by yielding subclassed commands, which come here.
        now = self.simulator._now
        span = now - self._last_change
        if span > 0:
            self._busy_integral += span * self._busy
            self._queue_integral += span * len(self._queue)
            self._last_change = now

    def utilization(self) -> float:
        """Time-averaged fraction of server capacity in use so far."""
        self._integrate()
        elapsed = self.simulator.now
        if elapsed <= 0:
            return 0.0
        return self._busy_integral / (elapsed * self.servers)

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def _grant(self, proc: Process) -> None:
        """Record one server of this facility as held by ``proc``.

        The count (not a set) is what fixes double-acquire accounting:
        a process taking two servers of a multi-server facility must
        survive two releases without ``_busy`` drifting.
        """
        proc._held[self] = proc._held.get(self, 0) + 1

    def _request(self, proc: Process) -> None:
        self._integrate()
        if self._busy < self.servers:
            self._busy += 1
            self._grant(proc)
            self.simulator._schedule_step(proc, None, delay=0.0)
        else:
            self._queue.append(proc)
            proc.waiting_on = self

    def _release(self, proc: Process) -> None:
        self._integrate()
        held = proc._held.get(self, 0)
        if held <= 0:
            raise SimulationError(
                f"process {proc.name!r} released facility {self.name!r} it does not hold"
            )
        if held == 1:
            del proc._held[self]
        else:
            proc._held[self] = held - 1
        if self._queue:
            nxt = self._queue.popleft()
            self._grant(nxt)
            self.simulator._schedule_step(nxt, None, delay=0.0)
        else:
            self._busy -= 1

    def _cancel(self, proc: Process) -> None:
        """Remove ``proc`` from the request queue (cleanup path).

        Without this, a truncated process left in the queue would later
        be granted a server it can never release.
        """
        if proc in self._queue:
            self._integrate()
            self._queue.remove(proc)
            if proc.waiting_on is self:
                proc.waiting_on = None

    def _abandon(self, proc: Process) -> None:
        """Cleanup-path release: drop ``proc``'s claim without resuming it.

        Releases a held server (waking the next requester) or cancels a
        queued request; a no-op when ``proc`` has no claim, so unwind
        handlers may call it unconditionally.
        """
        if proc._held.get(self, 0) > 0:
            self._release(proc)
        else:
            self._cancel(proc)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def use(self, duration: float):
        """Sub-generator: acquire, hold ``duration``, release.

        Use as ``yield from channel.use(t)``.  Exception-safe: if the
        holding process fails or is truncated mid-hold (the exception
        or ``GeneratorExit`` unwinds through this frame), the server is
        released synchronously so the facility cannot leak.
        """
        owner = self.simulator.current_process
        yield Request(self)
        try:
            yield Hold(float(duration))
            yield Release(self)
        except BaseException:
            holder = owner if owner is not None else self.simulator.current_process
            if holder is not None:
                self._abandon(holder)
            raise
