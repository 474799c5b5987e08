"""Waitable events (condition flags) for the simulation kernel.

A :class:`SimEvent` mirrors CSIM's ``event``: processes ``yield
wait(evt)`` to block until another process calls :meth:`SimEvent.set`.
Events may be *sticky* (remain set until cleared, releasing all future
waiters immediately) or *pulse*-style via :meth:`SimEvent.pulse` which
wakes current waiters without leaving the flag set.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.simkernel.engine import Process, SimulationError, Simulator


class SimEvent:
    """A settable flag that simulated processes can wait on."""

    def __init__(self, simulator: Simulator, name: str = "event") -> None:
        self.simulator = simulator
        self.name = name
        self._set = False
        self._value: Any = None
        self._waiters: List[Process] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimEvent({self.name!r}, set={self._set})"

    @property
    def is_set(self) -> bool:
        """Whether the event flag is currently raised."""
        return self._set

    @property
    def value(self) -> Any:
        """The value delivered with the most recent :meth:`set`."""
        return self._value

    @property
    def waiter_count(self) -> int:
        """Number of processes currently blocked on this event."""
        return len(self._waiters)

    def set(self, value: Any = None) -> None:
        """Raise the flag and wake every waiting process.

        The flag stays raised (releasing future waiters instantly) until
        :meth:`clear` is called.
        """
        self._set = True
        self._value = value
        self._release_all(value)

    def pulse(self, value: Any = None) -> None:
        """Wake current waiters without leaving the flag raised."""
        self._value = value
        self._release_all(value)

    def clear(self) -> None:
        """Lower the flag so subsequent waiters block again."""
        self._set = False

    def _release_all(self, value: Any) -> None:
        # One grant wave: a single queue touch wakes every waiter (in
        # FIFO order) instead of one scheduler push per process.
        waiters, self._waiters = self._waiters, []
        if waiters:
            self.simulator._schedule_step_batch(waiters, value)

    def _add_waiter(self, proc: Optional[Process]) -> None:
        if proc is None:
            raise SimulationError("wait() may only be used from inside a process")
        if self._set:
            self.simulator._schedule_step(proc, self._value)
        else:
            self._waiters.append(proc)
            proc.waiting_on = self

    def _cancel(self, proc: Process) -> None:
        """Remove ``proc`` from the waiter list (cleanup path)."""
        if proc in self._waiters:
            self._waiters.remove(proc)
            if proc.waiting_on is self:
                proc.waiting_on = None
