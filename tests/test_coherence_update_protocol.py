"""Tests for the write-update protocol variant."""

import pytest

from repro.coherence import CacheState, CoherenceConfig, MessageKind
from repro.exec_driven import ExecutionDrivenSimulation
from repro.mesh import MeshConfig


def make_sim(**coh):
    return ExecutionDrivenSimulation(
        mesh_config=MeshConfig("4x2"),
        coherence_config=CoherenceConfig(protocol="update", **coh),
    )


class TestUpdateProtocol:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            CoherenceConfig(protocol="mesi")

    def test_store_updates_instead_of_invalidating(self):
        sim = make_sim()
        data = sim.array("data", 8)
        data.poke(0, 0)
        b1 = sim.barrier()
        b2 = sim.barrier()

        def worker(ctx):
            yield from ctx.load(data, 0)          # everyone shares
            yield from ctx.barrier(b1)
            if ctx.pid == 3:
                yield from ctx.store(data, 0, 5)  # update, not invalidate
            yield from ctx.barrier(b2)

        sim.run(worker)
        kinds = sim.log.kinds()
        assert kinds.get(MessageKind.UPDATE.value, 0) >= 6
        assert MessageKind.INVALIDATE.value not in kinds
        # Sharers keep their copies.
        block = sim.machine.block_map.block_of(data.address(0))
        for pid in range(8):
            assert sim.machine.caches[pid].peek(block) is CacheState.SHARED

    def test_values_propagate_through_updates(self):
        sim = make_sim()
        data = sim.array("data", 8)
        data.poke(0, 0)
        barrier = sim.barrier()
        seen = []

        def worker(ctx):
            yield from ctx.load(data, 0)
            yield from ctx.barrier(barrier)
            if ctx.pid == 2:
                yield from ctx.store(data, 0, 99)
            yield from ctx.barrier(barrier)
            if ctx.pid == 6:
                value = yield from ctx.load(data, 0)
                seen.append(value)

        sim.run(worker)
        assert seen == [99]
        # Reader's copy was updated in place: its second load hit.
        assert sim.machine.read_misses == 8  # only the initial loads missed

    def test_repeated_stores_keep_updating(self):
        sim = make_sim()
        data = sim.array("data", 8)
        barrier = sim.barrier()

        def worker(ctx):
            yield from ctx.load(data, 0)
            yield from ctx.barrier(barrier)
            if ctx.pid == 1:
                for i in range(5):
                    yield from ctx.store(data, 0, i)

        sim.run(worker)
        # 5 stores x 7 sharers = 35 updates.
        assert sim.machine.updates_sent == 35

    def test_no_writebacks_under_update(self):
        sim = make_sim(cache_lines=2, associativity=1)
        data = sim.array("data", 8 * 16)

        def worker(ctx):
            if ctx.pid == 1:
                for i in range(0, 8 * 16, 8):
                    yield from ctx.store(data, i, i)

        sim.run(worker)
        assert sim.machine.writebacks == 0
        assert sim.log.kinds().get(MessageKind.WRITEBACK.value, 0) == 0

    def test_apps_verify_under_update_protocol(self):
        from repro.apps.shared.fft1d import FFT1DApp

        app = FFT1DApp(n=64)
        sim = app.run(coherence_config=CoherenceConfig(protocol="update"))
        assert sim.machine.updates_sent > 0

    def test_update_generates_more_smaller_messages_than_invalidate(self):
        from repro.apps.shared.is_sort import IntegerSortApp

        inv_sim = IntegerSortApp(n=256, buckets=16).run(
            coherence_config=CoherenceConfig(protocol="invalidate")
        )
        upd_sim = IntegerSortApp(n=256, buckets=16).run(
            coherence_config=CoherenceConfig(protocol="update")
        )
        assert len(upd_sim.log) > len(inv_sim.log)
        # Update traffic is control-dominated: mean length drops.
        inv_mean = inv_sim.log.message_lengths().mean()
        upd_mean = upd_sim.log.message_lengths().mean()
        assert upd_mean < inv_mean
