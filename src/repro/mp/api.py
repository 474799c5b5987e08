"""MPI-like per-rank communication interface.

Each rank's program is a generator over an :class:`MPIContext`.
Point-to-point matching is by ``(source, tag)``; collectives are
implemented on top of point-to-point in :mod:`repro.mp.collectives`
with the root-centric (flat) decomposition the paper's MG traffic
exhibits ("the application uses processor p0 as the root of all the
broadcast calls resulting in processor p0 being the favorite").
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Tuple

from repro.simkernel import SimEvent, hold, wait

#: Tag used by collective operations' internal messages.
COLLECTIVE_TAG = -1


class MPIContext:
    """Handle a rank's program uses for all communication.

    Built by :class:`repro.mp.runtime.MessagePassingRuntime`; not
    instantiated directly by applications.
    """

    def __init__(self, runtime, rank: int) -> None:
        self.runtime = runtime
        self.rank = rank
        self._inbox: Dict[Tuple[int, int], Deque[Tuple[Any, int]]] = {}
        self._waiting: Dict[Tuple[int, int], Deque[SimEvent]] = {}

    @property
    def size(self) -> int:
        """Number of ranks."""
        return self.runtime.num_ranks

    @property
    def now(self) -> float:
        """Current simulated time (microseconds)."""
        return self.runtime.simulator.now

    # ------------------------------------------------------------------
    # point to point
    # ------------------------------------------------------------------
    def send(self, dst: int, payload: Any, nbytes: int, tag: int = 0, kind: str = "p2p"):
        """Sub-generator: eager send of ``payload`` (``nbytes`` on the wire).

        Blocks for the sender-side software overhead only; delivery
        happens asynchronously after the switch transit time.
        """
        if not (0 <= dst < self.size):
            raise ValueError(f"destination rank {dst} outside 0..{self.size - 1}")
        if dst == self.rank:
            raise ValueError("send to self is not allowed; keep local data local")
        runtime = self.runtime
        runtime.trace.record(
            src=self.rank,
            dst=dst,
            length_bytes=nbytes,
            kind=kind,
            tag=tag,
            post_time=self.now,
        )
        yield hold(runtime.sp2.send_overhead(nbytes))
        runtime._launch_wire(self.rank, dst, payload, nbytes, tag)

    def recv(self, src: int, tag: int = 0):
        """Sub-generator: blocking receive matching ``(src, tag)``.

        Returns the payload: ``data = yield from comm.recv(src)``.
        """
        if not (0 <= src < self.size):
            raise ValueError(f"source rank {src} outside 0..{self.size - 1}")
        key = (src, tag)
        queue = self._inbox.get(key)
        if queue:
            payload, nbytes = queue.popleft()
            if self.runtime._observed:
                self.runtime._pending_changed(-1)
        else:
            event = SimEvent(self.runtime.simulator, name=f"recv[{self.rank}<{src}:{tag}]")
            self._waiting.setdefault(key, deque()).append(event)
            payload, nbytes = yield wait(event)
        yield hold(self.runtime.sp2.receive_overhead(nbytes))
        return payload

    def compute(self, microseconds: float):
        """Sub-generator charging local computation time."""
        if microseconds < 0:
            raise ValueError(f"compute time must be >= 0, got {microseconds}")
        yield hold(microseconds)

    # ------------------------------------------------------------------
    # collectives (implemented in collectives.py; bound here for sugar)
    # ------------------------------------------------------------------
    def barrier(self):
        """Sub-generator: flat barrier rooted at rank 0."""
        from repro.mp import collectives

        yield from collectives.barrier(self)

    def bcast(self, root: int, payload: Any, nbytes: int):
        """Sub-generator: broadcast from ``root``; returns the payload."""
        from repro.mp import collectives

        return (yield from collectives.bcast(self, root, payload, nbytes))

    def reduce(self, root: int, value: Any, nbytes: int, op: Callable[[Any, Any], Any]):
        """Sub-generator: reduce to ``root`` (returns result there, None elsewhere)."""
        from repro.mp import collectives

        return (yield from collectives.reduce(self, root, value, nbytes, op))

    def allreduce(self, value: Any, nbytes: int, op: Callable[[Any, Any], Any]):
        """Sub-generator: reduce to rank 0 then broadcast (root-centric)."""
        from repro.mp import collectives

        return (yield from collectives.allreduce(self, value, nbytes, op))

    def alltoall(self, chunks: List[Any], nbytes_each: int):
        """Sub-generator: personalized all-to-all exchange.

        ``chunks[q]`` goes to rank q; returns the list received (own
        chunk kept in place).
        """
        from repro.mp import collectives

        return (yield from collectives.alltoall(self, chunks, nbytes_each))

    def gather(self, root: int, value: Any, nbytes: int):
        """Sub-generator: gather values at ``root`` (list there, None elsewhere)."""
        from repro.mp import collectives

        return (yield from collectives.gather(self, root, value, nbytes))

    # ------------------------------------------------------------------
    # runtime hook
    # ------------------------------------------------------------------
    def _deliver(self, src: int, tag: int, payload: Any, nbytes: int) -> None:
        key = (src, tag)
        waiting = self._waiting.get(key)
        if waiting:
            waiting.popleft().set((payload, nbytes))
        else:
            self._inbox.setdefault(key, deque()).append((payload, nbytes))
            if self.runtime._observed:
                self.runtime._pending_changed(+1)
