"""Tests for the release-consistency (write-buffer) variant."""

import pytest

from repro.coherence import CoherenceConfig
from repro.exec_driven import ExecutionDrivenSimulation
from repro.mesh import MeshConfig


def make_sim(**coh):
    return ExecutionDrivenSimulation(
        mesh_config=MeshConfig("4x2"),
        coherence_config=CoherenceConfig(consistency="release", **coh),
    )


class TestReleaseConsistency:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            CoherenceConfig(consistency="weak")

    def test_store_does_not_block_thread(self):
        sim = make_sim()
        data = sim.array("data", 8)
        progress = []

        def worker(ctx):
            if ctx.pid == 1:
                yield from ctx.store(data, 0, 42)  # remote block, buffered
                progress.append(ctx.now)

        sim.run(worker)
        # The thread retired the store long before the transaction's
        # round trip could have completed.
        zero_load = sim.mesh_config.zero_load_latency(1, 8)
        assert progress[0] < zero_load
        assert sim.machine.buffered_stores == 1

    def test_fence_drains_before_sync(self):
        sim = make_sim()
        data = sim.array("data", 8)
        barrier = sim.barrier()
        seen = []

        def worker(ctx):
            if ctx.pid == 1:
                yield from ctx.store(data, 0, "flag")
            yield from ctx.barrier(barrier)
            if ctx.pid == 2:
                value = yield from ctx.load(data, 0)
                seen.append(value)
                seen.append(ctx.machine.outstanding_stores(1))

        sim.run(worker)
        assert seen == ["flag", 0]

    def test_store_to_load_forwarding(self):
        sim = make_sim()
        data = sim.array("data", 8)
        seen = []

        def worker(ctx):
            if ctx.pid == 1:
                yield from ctx.store(data, 0, 7)
                value = yield from ctx.load(data, 0)  # waits for own store
                seen.append(value)

        sim.run(worker)
        assert seen == [7]
        # The load joined the buffered transaction instead of issuing
        # its own read miss.
        assert sim.machine.read_misses == 0

    def test_consecutive_stores_same_block_single_transaction(self):
        sim = make_sim()
        data = sim.array("data", 8)

        def worker(ctx):
            if ctx.pid == 1:
                for i in range(5):
                    yield from ctx.store(data, i, i)  # same block

        sim.run(worker)
        # First store buffers a transaction; once MODIFIED, the rest hit.
        assert sim.machine.write_misses == 1

    def test_sequential_mode_has_empty_buffer(self):
        sim = ExecutionDrivenSimulation(
            coherence_config=CoherenceConfig(consistency="sequential")
        )
        data = sim.array("data", 8)

        def worker(ctx):
            if ctx.pid == 1:
                yield from ctx.store(data, 0, 1)
                assert ctx.machine.outstanding_stores(1) == 0

        sim.run(worker)
        assert sim.machine.buffered_stores == 0

    def test_release_with_update_protocol(self):
        sim = make_sim(protocol="update")
        data = sim.array("data", 8)
        barrier = sim.barrier()
        seen = []

        def worker(ctx):
            yield from ctx.load(data, 0)
            yield from ctx.barrier(barrier)
            if ctx.pid == 3:
                yield from ctx.store(data, 0, 11)
            yield from ctx.barrier(barrier)
            if ctx.pid == 5:
                seen.append((yield from ctx.load(data, 0)))

        sim.run(worker)
        assert seen == [11]
        assert sim.machine.updates_sent > 0

    @pytest.mark.parametrize("app_name,params", [
        ("1d-fft", {"n": 64}),
        ("is", {"n": 256, "buckets": 16}),
        ("nbody", {"n": 16, "steps": 2}),
    ])
    def test_apps_verify_under_release(self, app_name, params):
        from repro.apps import create_app

        app = create_app(app_name, **params)
        sim = app.run(coherence_config=CoherenceConfig(consistency="release"))
        assert sim.machine.buffered_stores > 0

    def test_release_speeds_up_write_heavy_work(self):
        def run(consistency):
            sim = ExecutionDrivenSimulation(
                coherence_config=CoherenceConfig(consistency=consistency)
            )
            data = sim.array("data", 8 * 32)
            barrier = sim.barrier()

            def worker(ctx):
                # Scattered remote writes with compute between them.
                for i in ctx.pid * 4, ctx.pid * 4 + 1, ctx.pid * 4 + 2:
                    yield from ctx.store(data, (i * 8 + 8 * ctx.pid) % (8 * 32), i)
                    ctx.compute(50)
                yield from ctx.barrier(barrier)

            sim.run(worker)
            return sim.simulator.now

        assert run("release") < run("sequential")
