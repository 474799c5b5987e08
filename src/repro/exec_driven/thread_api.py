"""The programming interface of simulated application threads.

Application code is an ordinary Python generator per thread.  All
shared-memory traffic goes through :class:`ThreadContext`, whose
operations return sub-generators: ``value = yield from ctx.load(a, i)``.
Local computation is charged with :meth:`ThreadContext.compute`, which
never enters the event loop -- cycles accumulate and are realized just
before the next network-visible event, exactly SPASM's "execute
natively, trap interesting instructions" strategy.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.coherence.machine import CCNUMAMachine
from repro.exec_driven.sync import SyncBarrier, SyncLock


class SharedArray:
    """A named, fixed-length array in the simulated shared address space.

    Elements are whole words holding arbitrary Python values (the
    functional and timing layers are separate, as in execution-driven
    simulators).  Use :meth:`ThreadContext.load` / ``store`` for
    simulated accesses; ``peek``/``poke`` bypass the simulation (for
    initialization and verification only).
    """

    def __init__(
        self,
        machine: CCNUMAMachine,
        name: str,
        length: int,
        placement="interleaved",
    ) -> None:
        if length < 1:
            raise ValueError(f"array length must be >= 1, got {length}")
        self.machine = machine
        self.name = name
        self.length = length
        self.placement = placement
        self.base = machine.allocate(length)
        self._apply_placement(placement)

    def _apply_placement(self, placement) -> None:
        """Pin block homes per the placement policy.

        ``"interleaved"`` keeps the machine default (block id modulo
        node count).  ``"chunked"`` homes the array's pth contiguous
        chunk at node p (first-touch-style placement, matching the
        equal block partitions the paper's applications use).  An
        integer homes the entire array at that node (e.g. a globally
        shared structure living on one processor's memory).
        """
        block_map = self.machine.block_map
        first_block = block_map.block_of(self.base)
        last_block = block_map.block_of(self.base + self.length - 1)
        n_blocks = last_block - first_block + 1
        num_nodes = self.machine.num_processors
        if placement == "interleaved":
            return
        if placement == "chunked":
            for i in range(n_blocks):
                block_map.set_home(first_block + i, (i * num_nodes) // n_blocks)
            return
        if isinstance(placement, int):
            if not (0 <= placement < num_nodes):
                raise ValueError(
                    f"placement node {placement} outside machine with {num_nodes} nodes"
                )
            for i in range(n_blocks):
                block_map.set_home(first_block + i, placement)
            return
        raise ValueError(f"unknown placement policy {placement!r}")

    def chunk(self, pid: int) -> range:
        """Index range of processor ``pid``'s equal contiguous chunk.

        The same arithmetic as ``"chunked"`` placement uses for homes,
        so a processor iterating its chunk touches locally-homed blocks.
        """
        num = self.machine.num_processors
        if not (0 <= pid < num):
            raise ValueError(f"pid {pid} outside machine with {num} processors")
        start = (pid * self.length) // num
        end = ((pid + 1) * self.length) // num
        return range(start, end)

    def address(self, index: int) -> int:
        """Word address of element ``index`` (bounds-checked)."""
        if not (0 <= index < self.length):
            raise IndexError(f"{self.name}[{index}] out of range (length {self.length})")
        return self.base + index

    def peek(self, index: int) -> Any:
        """Functional read without simulation (init/verification only)."""
        return self.machine.read_word(self.address(index))

    def poke(self, index: int, value: Any) -> None:
        """Functional write without simulation (init/verification only)."""
        self.machine.write_word(self.address(index), value)

    def fill(self, values: Sequence[Any]) -> None:
        """Functionally initialize the array from ``values``."""
        if len(values) != self.length:
            raise ValueError(
                f"fill expects {self.length} values for {self.name}, got {len(values)}"
            )
        for i, v in enumerate(values):
            self.poke(i, v)

    def snapshot(self) -> List[Any]:
        """Functional copy of the whole array (verification)."""
        return [self.peek(i) for i in range(self.length)]


class ThreadContext:
    """Per-thread handle onto the simulated machine.

    One context exists per processor; the application's thread body is
    a generator function receiving it.  Its memory and synchronization
    operations return the machine's (or the sync primitive's) own
    sub-generator rather than wrapping it in a second one, so every
    event they fire resumes one frame fewer on its way down to the
    network.
    """

    def __init__(self, machine: CCNUMAMachine, pid: int) -> None:
        if not (0 <= pid < machine.num_processors):
            raise ValueError(
                f"pid {pid} outside machine with {machine.num_processors} processors"
            )
        self.machine = machine
        self.pid = pid

    @property
    def num_processors(self) -> int:
        """Processor count of the machine."""
        return self.machine.num_processors

    @property
    def now(self) -> float:
        """Current simulated time (excluding unflushed compute cycles)."""
        return self.machine.simulator.now

    # ------------------------------------------------------------------
    # memory operations (sub-generators)
    # ------------------------------------------------------------------
    def load(self, array: SharedArray, index: int):
        """Simulated LOAD: ``value = yield from ctx.load(a, i)``."""
        return self.machine.load(self.pid, array.address(index))

    def store(self, array: SharedArray, index: int, value: Any):
        """Simulated STORE: ``yield from ctx.store(a, i, v)``."""
        return self.machine.store(self.pid, array.address(index), value)

    # ------------------------------------------------------------------
    # computation and synchronization
    # ------------------------------------------------------------------
    def compute(self, cycles: float) -> None:
        """Charge local computation (not a generator; returns instantly)."""
        if cycles < 0:
            raise ValueError(f"compute cycles must be >= 0, got {cycles}")
        self.machine.add_cycles(self.pid, cycles)

    def barrier(self, barrier: SyncBarrier):
        """Join a barrier: ``yield from ctx.barrier(b)``."""
        return barrier.arrive(self.pid)

    def lock(self, lock: SyncLock):
        """Acquire a lock: ``yield from ctx.lock(l)``."""
        return lock.acquire(self.pid)

    def unlock(self, lock: SyncLock):
        """Release a lock: ``yield from ctx.unlock(l)``."""
        return lock.release_lock(self.pid)
