"""Integration tests for the CC-NUMA protocol engine and thread API."""

import pytest

from repro.coherence import CacheState, CoherenceConfig, DirectoryState, MessageKind
from repro.exec_driven import ExecutionDrivenSimulation
from repro.mesh import MeshConfig


def make_sim(**coh_kwargs):
    return ExecutionDrivenSimulation(
        mesh_config=MeshConfig("4x2"),
        coherence_config=CoherenceConfig(**coh_kwargs),
    )


def kinds_in_log(sim):
    return sim.log.kinds()


class TestReadPath:
    def test_remote_read_miss_generates_request_and_reply(self):
        sim = make_sim()
        data = sim.array("data", 8)
        data.poke(0, 42)
        results = []

        def worker(ctx):
            if ctx.pid == 1:
                value = yield from ctx.load(data, 0)
                results.append(value)
            return
            yield  # pragma: no cover

        sim.run(worker)
        assert results == [42]
        kinds = kinds_in_log(sim)
        # Block 0 is homed at node 0; requester is node 1 -> remote.
        assert kinds.get(MessageKind.READ_REQ.value) == 1
        assert kinds.get(MessageKind.DATA_REPLY.value) == 1

    def test_local_read_miss_stays_off_network(self):
        sim = make_sim()
        data = sim.array("data", 8)
        data.poke(0, 7)
        results = []

        def worker(ctx):
            if ctx.pid == 0:  # block 0 homed at node 0
                value = yield from ctx.load(data, 0)
                results.append(value)
            return
            yield  # pragma: no cover

        sim.run(worker)
        assert results == [7]
        assert len(sim.log) == 0
        assert sim.machine.local_messages == 2  # local req + local reply

    def test_second_read_hits_in_cache(self):
        sim = make_sim()
        data = sim.array("data", 8)
        data.poke(0, 1)

        def worker(ctx):
            if ctx.pid == 1:
                yield from ctx.load(data, 0)
                yield from ctx.load(data, 0)

        sim.run(worker)
        assert sim.machine.read_misses == 1
        assert kinds_in_log(sim).get(MessageKind.READ_REQ.value) == 1

    def test_read_of_modified_block_fetches_from_owner(self):
        sim = make_sim()
        data = sim.array("data", 8)
        seen = []

        def worker(ctx):
            if ctx.pid == 1:
                yield from ctx.store(data, 0, 99)
            yield from ctx.barrier(barrier)
            if ctx.pid == 2:
                value = yield from ctx.load(data, 0)
                seen.append(value)

        barrier = sim.barrier()
        sim.run(worker)
        assert seen == [99]
        kinds = kinds_in_log(sim)
        assert kinds.get(MessageKind.FETCH.value, 0) >= 1
        assert kinds.get(MessageKind.FETCH_REPLY.value, 0) >= 1
        # Previous owner keeps a SHARED copy after the recall.
        block = sim.machine.block_map.block_of(data.address(0))
        assert sim.machine.caches[1].peek(block) is CacheState.SHARED


class TestWritePath:
    def test_write_invalidates_sharers(self):
        sim = make_sim()
        data = sim.array("data", 8)
        data.poke(0, 0)
        b1 = sim.barrier()
        b2 = sim.barrier()

        def worker(ctx):
            # Everyone reads the block -> all become sharers.
            yield from ctx.load(data, 0)
            yield from ctx.barrier(b1)
            # One processor writes -> all other copies invalidated.
            if ctx.pid == 3:
                yield from ctx.store(data, 0, 5)
            yield from ctx.barrier(b2)

        sim.run(worker)
        kinds = kinds_in_log(sim)
        assert kinds.get(MessageKind.INVALIDATE.value, 0) >= 6
        assert kinds.get(MessageKind.INV_ACK.value, 0) >= 6
        block = sim.machine.block_map.block_of(data.address(0))
        for pid in range(8):
            state = sim.machine.caches[pid].peek(block)
            if pid == 3:
                assert state is CacheState.MODIFIED
            else:
                assert state is None

    def test_upgrade_from_shared(self):
        sim = make_sim()
        data = sim.array("data", 8)
        data.poke(0, 0)

        def worker(ctx):
            if ctx.pid == 1:
                yield from ctx.load(data, 0)   # acquire S
                yield from ctx.store(data, 0, 1)  # upgrade S -> M

        sim.run(worker)
        assert sim.machine.upgrades == 1
        kinds = kinds_in_log(sim)
        assert kinds.get(MessageKind.UPGRADE_REQ.value) == 1
        assert kinds.get(MessageKind.UPGRADE_ACK.value) == 1

    def test_write_write_migration(self):
        sim = make_sim()
        data = sim.array("data", 8)
        barrier = sim.barrier()

        def worker(ctx):
            if ctx.pid == 1:
                yield from ctx.store(data, 0, 10)
            yield from ctx.barrier(barrier)
            if ctx.pid == 2:
                yield from ctx.store(data, 0, 20)

        sim.run(worker)
        block = sim.machine.block_map.block_of(data.address(0))
        home = sim.machine.block_map.home_of(block)
        entry = sim.machine.directories[home].entry(block)
        assert entry.state is DirectoryState.EXCLUSIVE
        assert entry.owner == 2
        assert data.peek(0) == 20

    def test_store_value_visible_to_later_reader(self):
        sim = make_sim()
        data = sim.array("data", 8)
        barrier = sim.barrier()
        seen = []

        def worker(ctx):
            if ctx.pid == 4:
                yield from ctx.store(data, 3, "hello")
            yield from ctx.barrier(barrier)
            if ctx.pid == 6:
                value = yield from ctx.load(data, 3)
                seen.append(value)

        sim.run(worker)
        assert seen == ["hello"]


class TestEvictions:
    def test_dirty_eviction_writes_back(self):
        # Tiny cache: 2 lines, direct-ish; writes to many blocks evict.
        sim = make_sim(cache_lines=2, associativity=1)
        data = sim.array("data", 8 * 16)  # 16 blocks

        def worker(ctx):
            if ctx.pid == 1:
                for i in range(0, 8 * 16, 8):
                    yield from ctx.store(data, i, i)

        sim.run(worker)
        assert sim.machine.writebacks > 0
        assert kinds_in_log(sim).get(MessageKind.WRITEBACK.value, 0) > 0

    def test_functional_values_survive_eviction(self):
        sim = make_sim(cache_lines=2, associativity=1)
        data = sim.array("data", 8 * 16)

        def worker(ctx):
            if ctx.pid == 1:
                for i in range(0, 8 * 16, 8):
                    yield from ctx.store(data, i, i * 2)
                total = 0
                for i in range(0, 8 * 16, 8):
                    value = yield from ctx.load(data, i)
                    total += value
                results.append(total)

        results = []
        sim.run(worker)
        assert results == [sum(i * 2 for i in range(0, 8 * 16, 8))]


class TestCycleAccounting:
    def test_compute_delays_injection(self):
        sim = make_sim()
        data = sim.array("data", 8)

        def worker(ctx):
            if ctx.pid == 1:
                ctx.compute(1000)
                yield from ctx.load(data, 0)

        sim.run(worker)
        assert len(sim.log) == 2
        first = min(sim.log.records, key=lambda r: r.inject_time)
        assert first.inject_time >= 1000.0

    def test_hits_accumulate_without_events(self):
        sim = make_sim()
        data = sim.array("data", 8)

        def worker(ctx):
            if ctx.pid == 1:
                yield from ctx.load(data, 0)
                for _ in range(100):
                    yield from ctx.load(data, 0)

        sim.run(worker)
        # Only the initial miss reached the network.
        assert kinds_in_log(sim).get(MessageKind.READ_REQ.value) == 1
        assert sim.machine.caches[1].hits == 100


class TestStats:
    def test_counters_add_up(self):
        sim = make_sim()
        data = sim.array("data", 64)

        def worker(ctx):
            yield from ctx.store(data, ctx.pid * 8, ctx.pid)
            yield from ctx.load(data, ctx.pid * 8)

        sim.run(worker)
        stats = sim.machine_stats()
        assert stats["loads"] == 8
        assert stats["stores"] == 8
        assert stats["write_misses"] == 8
        assert stats["read_misses"] == 0  # loads hit own M line
        assert 0 <= stats["miss_rate"] <= 1

    def test_run_twice_rejected(self):
        sim = make_sim()

        def worker(ctx):
            return
            yield  # pragma: no cover

        sim.run(worker)
        with pytest.raises(RuntimeError):
            sim.run(worker)
