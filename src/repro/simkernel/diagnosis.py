"""Stall diagnosis: wait-for graphs, deadlock cycles, and leak audits.

The paper's three characterization attributes are all derived from the
network activity log and the channel busy-time integrals, so a silently
stalled run or a leaked facility corrupts contention, utilization, and
offered-rate numbers without failing anything.  This module turns those
silent states into *diagnosed* structured failures:

* :func:`diagnose_stall` builds the wait-for graph over facilities,
  mailboxes, events, and joined processes, and finds a deadlock cycle
  if one exists.
* :class:`DeadlockError` is raised by
  :meth:`~repro.simkernel.engine.Simulator.run` (``check_stall=True``)
  when the event queue drains with processes still blocked; its message
  names the cycle (process -> held facility -> blocked requester).
* :class:`StallError` is raised by the no-progress watchdog
  (``max_no_progress_events=N``, one test inside the kernel's clock
  loop) when a zero-delay event storm would fire event ``N + 1`` at
  one simulated instant.
* :class:`FacilityLeakError` wraps the
  :meth:`~repro.simkernel.engine.Simulator.leaked_facilities` audit for
  run harnesses that must fail loudly on a leak.

Everything here is off the hot path: diagnosis only runs once a stall
or leak has already been detected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.simkernel.engine import Process, ProcessState, SimulationError, Simulator


class DeadlockError(SimulationError):
    """The event queue drained (or the watchdog fired) with processes
    still blocked; the message carries the wait-for diagnosis and
    ``cycle`` the process names along the deadlock cycle (empty when
    the blockage is starvation rather than a cycle)."""

    def __init__(self, message: str, cycle: Sequence[str] = ()) -> None:
        super().__init__(message)
        self.cycle: Tuple[str, ...] = tuple(cycle)

    def __reduce__(self):
        # Keep the cycle attribute across pickling (sweep worker pools).
        return (type(self), (self.args[0], self.cycle))


class StallError(SimulationError):
    """The no-progress watchdog fired: events keep firing but simulated
    time is stuck (zero-delay event storm / livelock)."""


class FacilityLeakError(SimulationError):
    """A finished or failed process still holds facility servers that
    nothing can ever release."""


def _resource_name(resource: Any) -> str:
    name = getattr(resource, "name", None)
    if isinstance(resource, Process):
        return f"process {name!r}"
    if name is not None:
        return f"{type(resource).__name__}({name!r})"
    return repr(resource)


@dataclass(frozen=True)
class WaitEdge:
    """One edge of the wait-for graph: ``waiter`` is parked on
    ``resource``, which is held by ``holder`` (None when the resource
    has no identifiable owner, e.g. an empty mailbox or unset event)."""

    waiter: Process
    resource: Any
    holder: Optional[Process]

    def describe(self) -> str:
        if self.resource is None:
            return f"{self.waiter.name}: passivated (no pending waker)"
        text = f"{self.waiter.name}: waiting on {_resource_name(self.resource)}"
        if self.holder is not None:
            return f"{text} held by {self.holder.name!r}"
        return f"{text} (no holder to wake it)"


@dataclass(frozen=True)
class StallDiagnosis:
    """The wait-for graph of a stalled simulation plus its cycle."""

    time: float
    blocked: Tuple[Process, ...]
    edges: Tuple[WaitEdge, ...]
    cycle: Tuple[WaitEdge, ...]

    def cycle_names(self) -> List[str]:
        """Process names along the deadlock cycle (empty when none)."""
        return [edge.waiter.name for edge in self.cycle]

    def describe(self) -> str:
        """Multi-line report naming the cycle and every blocked process."""
        lines = [
            f"stall at t={self.time:g}: {len(self.blocked)} process(es) "
            "blocked with no pending event to wake them"
        ]
        if self.cycle:
            hops = " -> ".join(
                f"{edge.waiter.name} -> {_resource_name(edge.resource)} "
                f"(held by {edge.holder.name})"
                for edge in self.cycle
            )
            lines.append(f"wait-for cycle: {hops}")
        else:
            lines.append("no wait-for cycle: blocked on resources nothing will signal")
        in_cycle = {edge.waiter for edge in self.cycle}
        others = [edge for edge in self.edges if edge.waiter not in in_cycle]
        if others:
            lines.append("blocked processes:")
            lines.extend(f"  {edge.describe()}" for edge in others)
        return "\n".join(lines)


def _edges_for(proc: Process, simulator: Simulator) -> List[WaitEdge]:
    resource = proc.waiting_on
    if resource is None:
        return [WaitEdge(proc, None, None)]
    if isinstance(resource, Process):
        return [WaitEdge(proc, resource, resource)]
    holders = getattr(resource, "holders", None)
    if callable(holders):
        # Self-edges are kept: a process re-requesting a single-server
        # facility it already holds is a genuine self-deadlock.
        holding = holders()
        if holding:
            return [WaitEdge(proc, resource, q) for q in holding]
    return [WaitEdge(proc, resource, None)]


def _find_cycle(
    adjacency: Dict[Process, List[WaitEdge]]
) -> Tuple[WaitEdge, ...]:
    """First wait-for cycle found by DFS, as the edges along it.

    Iterative (explicit stack): a blocked chain can be thousands of
    processes deep, far past Python's default recursion limit.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[Process, int] = {}
    path: List[WaitEdge] = []

    for root in adjacency:
        if color.get(root, WHITE) is not WHITE:
            continue
        color[root] = GREY
        stack: List[Tuple[Process, Iterator[WaitEdge]]] = [
            (root, iter(adjacency.get(root, ())))
        ]
        while stack:
            node, edge_iter = stack[-1]
            descended = False
            for edge in edge_iter:
                holder = edge.holder
                if holder is None:
                    continue
                state = color.get(holder, WHITE)
                if state is GREY:
                    # Back edge: the cycle is this edge plus the path
                    # tail from the holder onwards.
                    start = next(
                        (i for i, e in enumerate(path) if e.waiter is holder),
                        len(path),
                    )
                    return tuple(path[start:] + [edge])
                if state is WHITE and holder in adjacency:
                    color[holder] = GREY
                    path.append(edge)
                    stack.append((holder, iter(adjacency.get(holder, ()))))
                    descended = True
                    break
            if not descended:
                color[node] = BLACK
                stack.pop()
                if stack:
                    path.pop()
    return ()


def diagnose_stall(simulator: Simulator) -> StallDiagnosis:
    """Build the wait-for graph over every blocked process.

    Safe to call on any simulator (running or stopped); WAITING
    processes are those parked on a facility queue, mailbox, event,
    join, or passivate -- timer holds are scheduled, hence RUNNABLE.
    """
    blocked = [
        p for p in simulator.processes if p.state is ProcessState.WAITING
    ]
    edges: List[WaitEdge] = []
    adjacency: Dict[Process, List[WaitEdge]] = {}
    for proc in blocked:
        proc_edges = _edges_for(proc, simulator)
        edges.extend(proc_edges)
        adjacency[proc] = [e for e in proc_edges if e.holder is not None]
    # A cycle edge may point at a holder that is itself blocked; only
    # blocked holders can participate in a cycle, and they are all in
    # ``adjacency`` already.
    cycle = _find_cycle(adjacency)
    return StallDiagnosis(
        time=simulator.now,
        blocked=tuple(blocked),
        edges=tuple(edges),
        cycle=cycle,
    )


def describe_leaks(leaks: Sequence[Tuple[Process, Any, int]]) -> str:
    """Text rendering of a :meth:`Simulator.leaked_facilities` audit."""
    if not leaks:
        return "no leaked facilities"
    lines = [f"{len(leaks)} leaked facility holding(s):"]
    for proc, resource, count in leaks:
        lines.append(
            f"  {proc.name} ({proc.state.value}) still holds {count} "
            f"server(s) of {_resource_name(resource)}"
        )
    return "\n".join(lines)


def check_leaks(simulator: Simulator) -> None:
    """Raise :class:`FacilityLeakError` if the end-of-run audit finds
    servers held by processes that can never release them."""
    leaks = simulator.leaked_facilities()
    if leaks:
        raise FacilityLeakError(describe_leaks(leaks))
