"""The CC-NUMA protocol engine.

Every processor's LOAD/STORE traps into this machine.  Cache hits cost
nothing but accumulated cycles; misses run a full directory transaction
over the mesh network *inside the issuing thread's process*, so the
thread blocks until the access is globally performed -- sequential
consistency, with the network's simulated time fed straight back into
the application's execution (the execution-driven feedback loop the
paper describes).

Concurrency discipline: every directory read/write for a block happens
while holding that block's home-side serialization lock (a
single-server facility).  A transaction holds exactly one block lock at
a time; dirty evictions are written back by a detached process that
acquires only the victim's lock, so the lock graph stays acyclic and
the protocol is deadlock-free.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.coherence.blocks import BlockMap
from repro.coherence.cache import Cache, CacheState
from repro.coherence.config import CoherenceConfig
from repro.coherence.directory import Directory, DirectoryState
from repro.coherence.protocol import MessageKind, payload_bytes
from repro.mesh.network import MeshNetwork
from repro.mesh.packet import NetworkMessage
from repro.obs.registry import MetricsRegistry
from repro.simkernel import Facility, Hold, Release, Request, Simulator, hold


class CCNUMAMachine:
    """An invalidation-based, full-map-directory CC-NUMA multiprocessor.

    Parameters
    ----------
    simulator:
        The simulation kernel (shared with the mesh network).
    network:
        The mesh carrying all protocol messages; one processor+memory
        node per mesh node.
    config:
        Cache/protocol geometry and timings.
    """

    def __init__(
        self,
        simulator: Simulator,
        network: MeshNetwork,
        config: Optional[CoherenceConfig] = None,
        obs: Optional[MetricsRegistry] = None,
    ) -> None:
        self.simulator = simulator
        self.network = network
        self.config = config or CoherenceConfig()
        self.obs = obs if obs is not None else simulator.obs
        self._observed = self.obs.enabled
        if self._observed:
            self._m_dir_blocks = self.obs.time_series("coherence.directory_blocks")
            self._msgs_since_sample = 0
        self.num_processors = network.config.num_nodes
        self.block_map = BlockMap(self.config.block_words, self.num_processors)
        self.caches = [
            Cache(
                self.config.cache_lines,
                self.config.associativity,
                name=f"cache[{p}]",
            )
            for p in range(self.num_processors)
        ]
        self.directories = [Directory(n) for n in range(self.num_processors)]
        self._memory: Dict[int, object] = {}
        # Built once, not per protocol step, as MeshNetwork does:
        # commands are immutable, so re-yielding one is the same as
        # yielding a fresh equal one.  Each block lock's request and
        # release come with the lock (``_block_lock``), the fixed holds
        # use hold()'s float(...), and ``_wire`` maps each message
        # kind to its (payload bytes, log tag).
        self._block_locks: Dict[int, Tuple[Request, Release]] = {}
        self._directory_hold = Hold(float(self.config.directory_time))
        self._memory_hold = Hold(float(self.config.memory_time))
        self._local_hold = Hold(float(self.config.local_time))
        block_bytes = self.config.block_bytes
        self._wire = {
            kind: (payload_bytes(kind, self.config.control_bytes, block_bytes), kind.value)
            for kind in MessageKind
        }
        self._pending_cycles = [0.0] * self.num_processors
        self._write_buffer = [[] for _ in range(self.num_processors)]
        self._pending_store_tx = [dict() for _ in range(self.num_processors)]
        self._alloc_next_block = 0
        # statistics
        self.loads = 0
        self.stores = 0
        self.read_misses = 0
        self.write_misses = 0
        self.upgrades = 0
        self.invalidations_sent = 0
        self.updates_sent = 0
        self.buffered_stores = 0
        self.writebacks = 0
        self.local_messages = 0

    # ------------------------------------------------------------------
    # functional shared memory
    # ------------------------------------------------------------------
    def allocate(self, words: int) -> int:
        """Reserve ``words`` of shared space; returns the block-aligned
        base word address."""
        if words < 1:
            raise ValueError(f"allocation must be >= 1 word, got {words}")
        base_block = self._alloc_next_block
        blocks_needed = -(-words // self.config.block_words)
        self._alloc_next_block += blocks_needed
        return base_block * self.config.block_words

    def read_word(self, address: int):
        """Functional value at ``address`` (None if never written)."""
        return self._memory.get(address)

    def write_word(self, address: int, value) -> None:
        """Functional store to ``address``."""
        self._memory[address] = value

    # ------------------------------------------------------------------
    # per-processor cycle accounting (SPASM-style native execution)
    # ------------------------------------------------------------------
    def add_cycles(self, pid: int, cycles: float) -> None:
        """Charge local computation without entering the event loop."""
        self._pending_cycles[pid] += cycles

    def pending_cycles(self, pid: int) -> float:
        """Cycles charged but not yet realized as simulated time."""
        return self._pending_cycles[pid]

    def flush_cycles(self, pid: int):
        """Sub-generator realizing accumulated cycles as simulated time.

        Called automatically before any network-visible operation so
        message injection timestamps reflect the compute that preceded
        them.
        """
        pending = self._pending_cycles[pid]
        if pending > 0:
            self._pending_cycles[pid] = 0.0
            yield hold(pending)

    # ------------------------------------------------------------------
    # the LOAD / STORE interface used by application threads
    # ------------------------------------------------------------------
    def load(self, pid: int, address: int):
        """Sub-generator performing a sequentially-consistent LOAD.

        Returns the functional value.  Use as
        ``value = yield from machine.load(pid, addr)``.
        """
        self.loads += 1
        block = self.block_map.block_of(address)
        if self.config.consistency == "release":
            # Store-to-load forwarding: a load touching a block with an
            # in-flight buffered store waits for that transaction
            # instead of issuing a redundant read miss.
            pending = self._pending_store_tx[pid].get(block)
            if pending is not None:
                if not pending.finished:
                    yield from self.flush_cycles(pid)
                    yield from pending.join()
                self._pending_store_tx[pid].pop(block, None)
        state = self.caches[pid].lookup(block)
        if state is None:
            self.read_misses += 1
            yield from self.flush_cycles(pid)
            yield from self._read_miss(pid, block)
        self.add_cycles(pid, self.config.cache_hit_time)
        return self._memory.get(address)

    def store(self, pid: int, address: int, value):
        """Sub-generator performing a STORE.

        Under sequential consistency the issuing thread blocks until
        the store is globally performed; under release consistency the
        store retires into an (unbounded) write buffer and the
        coherence transaction completes in the background -- the thread
        only waits at synchronization fences (:meth:`fence`).
        """
        self.stores += 1
        block = self.block_map.block_of(address)
        if self.config.consistency == "release":
            yield from self._store_buffered(pid, block)
        elif self.config.protocol == "update":
            yield from self._store_update(pid, block)
        else:
            state = self.caches[pid].lookup(block)
            if state is CacheState.MODIFIED:
                pass  # write hit
            elif state is CacheState.SHARED:
                self.upgrades += 1
                yield from self.flush_cycles(pid)
                yield from self._upgrade(pid, block)
            else:
                self.write_misses += 1
                yield from self.flush_cycles(pid)
                yield from self._write_miss(pid, block)
        self.add_cycles(pid, self.config.cache_hit_time)
        self._memory[address] = value

    def _store_buffered(self, pid: int, block: int):
        """Release-consistency store: retire into the write buffer.

        The functional value is written by the caller immediately (the
        owner thread is the only writer of race-free data), while the
        coherence transaction runs as a detached process tracked until
        the next fence.
        """
        state = self.caches[pid].lookup(block)
        if state is CacheState.MODIFIED:
            return  # write hit: nothing to buffer
        yield from self.flush_cycles(pid)
        self.buffered_stores += 1
        predecessor = self._pending_store_tx[pid].get(block)

        def transaction():
            # Serialize behind an earlier buffered store to the same
            # block, then re-probe: the predecessor usually acquired
            # ownership already, collapsing back-to-back stores into
            # one coherence transaction.
            if predecessor is not None and not predecessor.finished:
                yield from predecessor.join()
            current = self.caches[pid].peek(block)
            if current is CacheState.MODIFIED:
                return
            if self.config.protocol == "update":
                yield from self._store_update(pid, block)
            elif current is CacheState.SHARED:
                self.upgrades += 1
                yield from self._upgrade(pid, block)
            else:
                self.write_misses += 1
                yield from self._write_miss(pid, block)

        proc = self.simulator.process(transaction(), name=f"wbuf[{pid}:{block}]")
        self._write_buffer[pid].append(proc)
        self._pending_store_tx[pid][block] = proc

    def fence(self, pid: int):
        """Sub-generator draining ``pid``'s write buffer (release point).

        Synchronization primitives call this before their own traffic
        so all prior stores are globally performed -- the release
        semantics that keep data-race-free programs correct.
        """
        pending, self._write_buffer[pid] = self._write_buffer[pid], []
        self._pending_store_tx[pid].clear()
        for proc in pending:
            yield from proc.join()

    def outstanding_stores(self, pid: int) -> int:
        """Buffered stores not yet known complete (diagnostics)."""
        return sum(1 for p in self._write_buffer[pid] if not p.finished)

    def _store_update(self, pid: int, block: int):
        """Write-update store: acquire a SHARED copy if needed, then
        multicast the written word to the other sharers via the home.

        No MODIFIED state exists under this protocol; memory at the
        home is kept current by the update itself (write-through)."""
        state = self.caches[pid].lookup(block)
        if state is None:
            self.write_misses += 1
            yield from self.flush_cycles(pid)
            yield from self._read_miss(pid, block)
        home = self.block_map.home_of(block)
        acquire, release = self._block_lock(block)
        yield from self.flush_cycles(pid)
        yield acquire
        yield from self.transfer(pid, home, MessageKind.UPDATE_REQ)
        yield self._directory_hold
        directory = self.directories[home]
        entry = directory.entry(block)
        sharers = set(entry.sharers)
        sharers.discard(pid)
        yield from self._update_all(home, block, sharers)
        yield self._memory_hold  # write-through to home memory
        yield from self.transfer(home, pid, MessageKind.UPDATE_DONE)
        yield release

    def _update_all(self, home: int, block: int, sharers):
        """Fan word updates out in parallel; resume when all are acked."""
        procs = []
        for sharer in sharers:
            self.updates_sent += 1

            def one(sharer=sharer):
                yield from self.transfer(home, sharer, MessageKind.UPDATE)
                yield from self.transfer(sharer, home, MessageKind.UPDATE_ACK)

            procs.append(
                self.simulator.process(one(), name=f"upd[{block}->{sharer}]")
            )
        for proc in procs:
            yield from proc.join()

    # ------------------------------------------------------------------
    # messaging helper
    # ------------------------------------------------------------------
    def transfer(self, src: int, dst: int, kind: MessageKind):
        """Sub-generator moving one protocol message.

        Local (src == dst) exchanges never touch the network; they cost
        ``local_time`` cycles, mirroring a CC-NUMA node servicing its
        own home memory.
        """
        if self._observed:
            self.obs.counter(f"coherence.msg.{kind.value}").inc()
            self._msgs_since_sample += 1
            if self._msgs_since_sample >= 64:
                self._msgs_since_sample = 0
                self._m_dir_blocks.sample(
                    self.simulator.now,
                    sum(d.tracked_blocks() for d in self.directories),
                )
        if src == dst:
            self.local_messages += 1
            yield self._local_hold
            return
        nbytes, tag = self._wire[kind]
        message = NetworkMessage(src, dst, nbytes, tag)
        yield from self.network.transfer(message)

    def _block_lock(self, block: int) -> Tuple[Request, Release]:
        """The request and release commands of ``block``'s home-side
        serialization lock, built with the lock at first use."""
        commands = self._block_locks.get(block)
        if commands is None:
            lock = Facility(self.simulator, name=f"dirlock[{block}]")
            commands = self._block_locks[block] = (Request(lock), Release(lock))
        return commands

    # ------------------------------------------------------------------
    # protocol transactions
    # ------------------------------------------------------------------
    def _read_miss(self, pid: int, block: int):
        home = self.block_map.home_of(block)
        acquire, release = self._block_lock(block)
        yield acquire
        yield from self.transfer(pid, home, MessageKind.READ_REQ)
        yield self._directory_hold
        directory = self.directories[home]
        entry = directory.entry(block)

        if entry.state is DirectoryState.EXCLUSIVE and entry.owner != pid:
            owner = entry.owner
            yield from self.transfer(home, owner, MessageKind.FETCH)
            # Owner may have already evicted the line (writeback raced);
            # the functional value is current either way.
            self.caches[owner].downgrade(block)
            yield from self.transfer(owner, home, MessageKind.FETCH_REPLY)
            yield self._memory_hold
            directory.clear_owner(block)
            # Record the owner as a sharer only if its (downgraded)
            # copy still exists *now* -- it may have been evicted while
            # the fetch reply was in flight.
            if self.caches[owner].peek(block) is CacheState.SHARED:
                directory.record_reader(block, owner)
        elif entry.state is DirectoryState.EXCLUSIVE and entry.owner == pid:
            # Our own dirty line was evicted and its writeback has not
            # reached the directory yet; reclaim ownership state.
            directory.clear_owner(block)

        yield self._memory_hold
        directory.record_reader(block, pid)
        yield from self.transfer(home, pid, MessageKind.DATA_REPLY)
        self._install(pid, block, CacheState.SHARED)
        yield release

    def _write_miss(self, pid: int, block: int):
        home = self.block_map.home_of(block)
        acquire, release = self._block_lock(block)
        yield acquire
        yield from self.transfer(pid, home, MessageKind.WRITE_REQ)
        yield self._directory_hold
        directory = self.directories[home]
        entry = directory.entry(block)

        if entry.state is DirectoryState.EXCLUSIVE and entry.owner != pid:
            owner = entry.owner
            yield from self.transfer(home, owner, MessageKind.FETCH)
            self.caches[owner].invalidate(block)
            yield from self.transfer(owner, home, MessageKind.FETCH_REPLY)
            yield self._memory_hold
            directory.clear_owner(block)
        elif entry.state is DirectoryState.EXCLUSIVE and entry.owner == pid:
            directory.clear_owner(block)
        elif entry.sharers:
            sharers = directory.clear_sharers(block)
            sharers.discard(pid)
            yield from self._invalidate_all(home, block, sharers)

        yield self._memory_hold
        directory.record_owner(block, pid)
        yield from self.transfer(home, pid, MessageKind.DATA_REPLY)
        self._install(pid, block, CacheState.MODIFIED)
        yield release

    def _upgrade(self, pid: int, block: int):
        home = self.block_map.home_of(block)
        acquire, release = self._block_lock(block)
        yield acquire
        directory = self.directories[home]
        entry = directory.entry(block)
        if self.caches[pid].peek(block) is None or pid not in entry.sharers:
            # Lost the line (invalidation or eviction raced with us
            # while queueing on the block lock): release the lock and
            # fall back to a write miss, which queues for it again, so
            # another transaction on this block may run in between.
            yield release
            yield from self._write_miss(pid, block)
            return
        yield from self.transfer(pid, home, MessageKind.UPGRADE_REQ)
        yield self._directory_hold
        sharers = directory.clear_sharers(block)
        sharers.discard(pid)
        yield from self._invalidate_all(home, block, sharers)
        directory.record_owner(block, pid)
        yield from self.transfer(home, pid, MessageKind.UPGRADE_ACK)
        self.caches[pid].set_state(block, CacheState.MODIFIED)
        yield release

    def _invalidate_all(self, home: int, block: int, sharers: Iterable[int]):
        """Fan invalidations out in parallel; resume when all are acked."""
        procs = []
        for sharer in sharers:
            self.invalidations_sent += 1

            def one(sharer=sharer):
                yield from self.transfer(home, sharer, MessageKind.INVALIDATE)
                self.caches[sharer].invalidate(block)
                yield from self.transfer(sharer, home, MessageKind.INV_ACK)

            procs.append(
                self.simulator.process(one(), name=f"inv[{block}->{sharer}]")
            )
        for proc in procs:
            yield from proc.join()

    def _install(self, pid: int, block: int, state: CacheState) -> None:
        """Place a block into a cache, handling the victim if any.

        Never blocks: a dirty victim's writeback runs as a detached
        process so the installing transaction keeps holding only its
        own block lock.
        """
        victim = self.caches[pid].insert(block, state)
        if victim is None:
            return
        if victim.state is CacheState.MODIFIED:
            self.simulator.process(
                self._writeback(pid, victim.block),
                name=f"wb[{pid}:{victim.block}]",
            )
        else:
            # Replacement hint: directory learns of the dropped SHARED
            # copy without a message (hints modeled as free).
            vhome = self.block_map.home_of(victim.block)
            self.directories[vhome].drop_sharer(victim.block, pid)

    def _writeback(self, pid: int, block: int):
        """Detached dirty-eviction writeback (owns only this block's lock)."""
        home = self.block_map.home_of(block)
        acquire, release = self._block_lock(block)
        yield acquire
        directory = self.directories[home]
        entry = directory.entry(block)
        if entry.state is DirectoryState.EXCLUSIVE and entry.owner == pid:
            self.writebacks += 1
            yield from self.transfer(pid, home, MessageKind.WRITEBACK)
            yield self._memory_hold
            directory.clear_owner(block)
        # Otherwise a competing transaction already recalled the line.
        yield release

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def finalize_metrics(self) -> None:
        """Mirror the protocol transition counters into the metrics
        registry and take a final directory-occupancy sample.

        Called by the run harness at end of simulation; idempotent
        (counters are brought up to the current tallies, not re-added).
        """
        if not self._observed:
            return
        for name, value in self.stats().items():
            if name == "miss_rate":
                continue
            counter = self.obs.counter(f"coherence.{name}")
            counter.inc(float(value) - counter.value)
        self._m_dir_blocks.sample(
            self.simulator.now, sum(d.tracked_blocks() for d in self.directories)
        )

    def miss_rate(self) -> float:
        """Combined read+write miss rate over all accesses."""
        total = self.loads + self.stores
        if total == 0:
            return 0.0
        return (self.read_misses + self.write_misses) / total

    def stats(self) -> Dict[str, float]:
        """Snapshot of the machine's counters."""
        return {
            "loads": self.loads,
            "stores": self.stores,
            "read_misses": self.read_misses,
            "write_misses": self.write_misses,
            "upgrades": self.upgrades,
            "invalidations_sent": self.invalidations_sent,
            "updates_sent": self.updates_sent,
            "buffered_stores": self.buffered_stores,
            "writebacks": self.writebacks,
            "local_messages": self.local_messages,
            "miss_rate": self.miss_rate(),
        }
