"""Tests for locks, barriers and the thread/array API."""

import pytest

from repro.coherence import MessageKind
from repro.exec_driven import ExecutionDrivenSimulation
from repro.mesh import MeshConfig


def make_sim():
    return ExecutionDrivenSimulation(mesh_config=MeshConfig("4x2"))


class TestSharedArray:
    def test_allocation_and_addressing(self):
        sim = make_sim()
        a = sim.array("a", 10)
        b = sim.array("b", 10)
        # Arrays never share a block.
        block_words = sim.coherence_config.block_words
        assert a.base % block_words == 0
        assert b.base >= a.base + 10

    def test_bounds_checking(self):
        sim = make_sim()
        a = sim.array("a", 4)
        with pytest.raises(IndexError):
            a.address(4)
        with pytest.raises(IndexError):
            a.address(-1)

    def test_fill_and_snapshot(self):
        sim = make_sim()
        a = sim.array("a", 3)
        a.fill([1, 2, 3])
        assert a.snapshot() == [1, 2, 3]
        with pytest.raises(ValueError):
            a.fill([1, 2])

    def test_duplicate_name_rejected(self):
        sim = make_sim()
        sim.array("a", 4)
        with pytest.raises(ValueError):
            sim.array("a", 4)
        assert sim.get_array("a").length == 4

    def test_zero_length_rejected(self):
        sim = make_sim()
        with pytest.raises(ValueError):
            sim.array("z", 0)


class TestLock:
    def test_mutual_exclusion(self):
        sim = make_sim()
        lock = sim.lock()
        counter = sim.array("counter", 1)
        counter.poke(0, 0)

        def worker(ctx):
            for _ in range(5):
                yield from ctx.lock(lock)
                value = yield from ctx.load(counter, 0)
                ctx.compute(10)
                yield from ctx.store(counter, 0, value + 1)
                yield from ctx.unlock(lock)

        sim.run(worker)
        assert counter.peek(0) == 40  # 8 procs * 5 increments
        assert lock.acquisitions == 40

    def test_lock_messages_logged(self):
        sim = make_sim()
        lock = sim.lock(home=5)

        def worker(ctx):
            if ctx.pid == 1:
                yield from ctx.lock(lock)
                yield from ctx.unlock(lock)

        sim.run(worker)
        kinds = sim.log.kinds()
        assert kinds.get(MessageKind.LOCK_REQ.value) == 1
        assert kinds.get(MessageKind.LOCK_GRANT.value) == 1
        assert kinds.get(MessageKind.LOCK_RELEASE.value) == 1

    def test_release_by_non_holder_rejected(self):
        sim = make_sim()
        lock = sim.lock()
        failures = []

        def worker(ctx):
            if ctx.pid == 0:
                yield from ctx.lock(lock)
            if ctx.pid == 1:
                ctx.compute(10_000)
                yield from ctx.machine.flush_cycles(ctx.pid)
                try:
                    yield from ctx.unlock(lock)
                except RuntimeError:
                    failures.append(ctx.pid)
            if ctx.pid == 0:
                ctx.compute(50_000)
                yield from ctx.machine.flush_cycles(ctx.pid)
                yield from ctx.unlock(lock)

        sim.run(worker)
        assert failures == [1]

    def test_contention_counter(self):
        sim = make_sim()
        lock = sim.lock()

        def worker(ctx):
            yield from ctx.lock(lock)
            ctx.compute(100)
            yield from ctx.unlock(lock)

        sim.run(worker)
        assert lock.contended_acquisitions >= 1


class TestBarrier:
    def test_all_threads_released_together(self):
        sim = make_sim()
        barrier = sim.barrier()
        after = []

        def worker(ctx):
            ctx.compute(ctx.pid * 100)  # staggered arrivals
            yield from ctx.barrier(barrier)
            after.append(ctx.now)

        sim.run(worker)
        assert len(after) == 8
        # Nobody proceeds before the last arrival's compute is done.
        assert min(after) >= 700

    def test_barrier_reusable_across_phases(self):
        sim = make_sim()
        barrier = sim.barrier()
        order = []

        def worker(ctx):
            for phase in range(3):
                yield from ctx.barrier(barrier)
                order.append((phase, ctx.pid))

        sim.run(worker)
        assert barrier.episodes == 3
        phases = [p for p, _ in order]
        assert phases == sorted(phases)

    def test_barrier_messages_logged(self):
        sim = make_sim()
        barrier = sim.barrier(home=0)

        def worker(ctx):
            yield from ctx.barrier(barrier)

        sim.run(worker)
        kinds = sim.log.kinds()
        # 7 remote arrivals + 7 remote releases (home's own are local).
        assert kinds.get(MessageKind.BARRIER_ARRIVE.value) == 7
        assert kinds.get(MessageKind.BARRIER_RELEASE.value) == 7

    def test_subset_barrier(self):
        sim = make_sim()
        barrier = sim.barrier(parties=2)
        reached = []

        def worker(ctx):
            if ctx.pid in (0, 1):
                yield from ctx.barrier(barrier)
                reached.append(ctx.pid)

        sim.run(worker)
        assert sorted(reached) == [0, 1]


class TestContextValidation:
    def test_bad_pid_rejected(self):
        sim = make_sim()
        from repro.exec_driven import ThreadContext

        with pytest.raises(ValueError):
            ThreadContext(sim.machine, 99)

    def test_negative_compute_rejected(self):
        sim = make_sim()
        with pytest.raises(ValueError):
            sim.contexts[0].compute(-1)

    def test_deadlock_detection(self):
        sim = make_sim()
        lock = sim.lock()

        def worker(ctx):
            if ctx.pid == 0:
                yield from ctx.lock(lock)
                # never released; everyone else hangs
            else:
                yield from ctx.lock(lock)

        with pytest.raises(RuntimeError, match="never finished"):
            sim.run(worker)
        # A truncated run whose event list drains before ``until`` is
        # the same deadlock: the stall check is not waived for it.
        truncated = make_sim()
        lock = truncated.lock()
        with pytest.raises(RuntimeError, match="never finished"):
            truncated.run(worker, until=1e6)
