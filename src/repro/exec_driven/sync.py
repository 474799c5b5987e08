"""Synchronization primitives that generate real protocol traffic.

Locks and barriers on a CC-NUMA machine are not free: acquiring a
remote lock or joining a barrier exchanges control messages with the
primitive's home node.  These primitives route their traffic through
the coherence machine's transfer path, so synchronization shows up in
the network activity log exactly as it would on the paper's simulated
machine.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.coherence.machine import CCNUMAMachine
from repro.coherence.protocol import MessageKind
from repro.simkernel import Facility, Release, Request, SimEvent, wait


def _next_sync_id(machine: CCNUMAMachine) -> int:
    """Machine-scoped id counter so primitive homes are deterministic
    per run (not dependent on what other simulations allocated)."""
    current = getattr(machine, "_sync_id_counter", 0)
    machine._sync_id_counter = current + 1
    return current


class SyncLock:
    """A queue-based lock homed on one node.

    Acquire: LOCK_REQ to the home, queue there, LOCK_GRANT back.
    Release: LOCK_RELEASE to the home.  The home node defaults to
    ``lock_id % P`` so independent locks spread across the machine.
    """

    def __init__(self, machine: CCNUMAMachine, home: Optional[int] = None) -> None:
        self.machine = machine
        self.lock_id = _next_sync_id(machine)
        self.home = self.lock_id % machine.num_processors if home is None else home
        if not (0 <= self.home < machine.num_processors):
            raise ValueError(f"lock home {self.home} outside machine")
        self._facility = Facility(
            machine.simulator, name=f"lock[{self.lock_id}]@{self.home}"
        )
        # Built once and re-yielded, as the coherence machine's block
        # locks are.
        self._request = Request(self._facility)
        self._release = Release(self._facility)
        self._holder: Optional[int] = None
        self.acquisitions = 0
        self.contended_acquisitions = 0

    @property
    def holder(self) -> Optional[int]:
        """Pid currently holding the lock (None if free)."""
        return self._holder

    def acquire(self, pid: int):
        """Sub-generator acquiring the lock for ``pid``."""
        yield from self.machine.flush_cycles(pid)
        yield from self.machine.fence(pid)
        yield from self.machine.transfer(pid, self.home, MessageKind.LOCK_REQ)
        if not self._facility.is_free:
            self.contended_acquisitions += 1
        yield self._request
        self._holder = pid
        self.acquisitions += 1
        yield from self.machine.transfer(self.home, pid, MessageKind.LOCK_GRANT)

    def release_lock(self, pid: int):
        """Sub-generator releasing the lock held by ``pid``."""
        if self._holder != pid:
            raise RuntimeError(
                f"pid {pid} released lock {self.lock_id} held by {self._holder}"
            )
        self._holder = None
        yield from self.machine.flush_cycles(pid)
        yield from self.machine.fence(pid)
        yield from self.machine.transfer(pid, self.home, MessageKind.LOCK_RELEASE)
        yield self._release


class SyncBarrier:
    """An all-to-one / one-to-all barrier homed on one node.

    Every arriving processor sends BARRIER_ARRIVE to the home; the last
    arrival triggers BARRIER_RELEASE messages fanned back out.  Homes
    default to ``barrier_id % P`` so distinct barriers spread load.
    With ``rotating=True`` the home additionally advances by one node
    per episode, modelling the rotating software combining barriers of
    the era -- use it for barriers re-entered every phase/timestep so
    synchronization traffic spreads instead of minting an artificial
    favorite node.
    """

    def __init__(
        self,
        machine: CCNUMAMachine,
        parties: Optional[int] = None,
        home: Optional[int] = None,
        rotating: bool = False,
    ) -> None:
        self.machine = machine
        self.barrier_id = _next_sync_id(machine)
        self.parties = machine.num_processors if parties is None else parties
        if self.parties < 1:
            raise ValueError(f"barrier parties must be >= 1, got {self.parties}")
        self.home = self.barrier_id % machine.num_processors if home is None else home
        if not (0 <= self.home < machine.num_processors):
            raise ValueError(f"barrier home {self.home} outside machine")
        self.rotating = rotating
        self._arrived = 0
        self._generation = 0
        self._events: Dict[int, SimEvent] = {}
        self.episodes = 0

    @property
    def current_home(self) -> int:
        """Home node for the current episode."""
        if not self.rotating:
            return self.home
        return (self.home + self._generation) % self.machine.num_processors

    def arrive(self, pid: int):
        """Sub-generator joining the barrier as ``pid``."""
        home = self.current_home
        yield from self.machine.flush_cycles(pid)
        yield from self.machine.fence(pid)
        yield from self.machine.transfer(pid, home, MessageKind.BARRIER_ARRIVE)
        self._arrived += 1
        generation = self._generation
        if self._arrived == self.parties:
            # Last arrival: release everyone (messages fan out in
            # parallel as detached processes).
            self._arrived = 0
            self._generation += 1
            self.episodes += 1
            waiters, self._events = self._events, {}
            for waiter_pid, event in waiters.items():

                def notify(waiter_pid=waiter_pid, event=event):
                    yield from self.machine.transfer(
                        home, waiter_pid, MessageKind.BARRIER_RELEASE
                    )
                    event.set()

                self.machine.simulator.process(
                    notify(), name=f"bar[{self.barrier_id}]->{waiter_pid}"
                )
            # The releasing processor itself gets its release locally.
            yield from self.machine.transfer(
                home, pid, MessageKind.BARRIER_RELEASE
            )
        else:
            event = SimEvent(
                self.machine.simulator, name=f"bar[{self.barrier_id}:{generation}:{pid}]"
            )
            self._events[pid] = event
            yield wait(event)
