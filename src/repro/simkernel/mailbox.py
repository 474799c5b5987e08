"""Blocking message queues between simulated processes.

:class:`Mailbox` mirrors CSIM's ``mailbox``: an unbounded FIFO of
messages with blocking receive.  The execution-driven runtime uses one
mailbox per processor's network interface, and the message-passing
substrate builds its MPI-like matching on top of tagged mailboxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Deque
from collections import deque

from repro.simkernel.engine import Process, Simulator


@dataclass(frozen=True)
class Receive:
    """Command: take the oldest message from ``mailbox`` (blocking)."""

    mailbox: "Mailbox"

    def _execute(self, proc: Process) -> None:
        self.mailbox._receive(proc)


@dataclass(frozen=True)
class Send:
    """Command: deposit ``message`` into ``mailbox`` (never blocks)."""

    mailbox: "Mailbox"
    message: Any

    def _execute(self, proc: Process) -> None:
        self.mailbox.put(self.message)
        # Sending never blocks: explicit zero-delay wakeup at the
        # current clock.
        proc.simulator._schedule_step(proc, None, delay=0.0)


def receive(mailbox: "Mailbox") -> Receive:
    """Yieldable command receiving from ``mailbox`` (CSIM ``receive``)."""
    return Receive(mailbox)


def send(mailbox: "Mailbox", message: Any) -> Send:
    """Yieldable command sending ``message`` to ``mailbox`` (CSIM ``send``)."""
    return Send(mailbox, message)


class Mailbox:
    """Unbounded FIFO message queue with blocking receive."""

    def __init__(self, simulator: Simulator, name: str = "mailbox") -> None:
        self.simulator = simulator
        self.name = name
        self._messages: Deque[Any] = deque()
        self._waiters: Deque[Process] = deque()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Mailbox({self.name!r}, pending={len(self._messages)})"

    def __len__(self) -> int:
        return len(self._messages)

    @property
    def pending(self) -> int:
        """Number of queued, not yet received, messages."""
        return len(self._messages)

    @property
    def waiting(self) -> int:
        """Number of processes blocked in receive."""
        return len(self._waiters)

    def put(self, message: Any) -> None:
        """Deposit a message; callable from process or non-process code."""
        if self._waiters:
            proc = self._waiters.popleft()
            self.simulator._schedule_step(proc, message, delay=0.0)
        else:
            self._messages.append(message)

    def _receive(self, proc: Process) -> None:
        if self._messages:
            self.simulator._schedule_step(proc, self._messages.popleft(), delay=0.0)
        else:
            self._waiters.append(proc)
            proc.waiting_on = self

    def _cancel(self, proc: Process) -> None:
        """Remove ``proc`` from the receive queue (cleanup path), so a
        later ``put`` does not hand a message to a dead process."""
        if proc in self._waiters:
            self._waiters.remove(proc)
            if proc.waiting_on is self:
                proc.waiting_on = None
