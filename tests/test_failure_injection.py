"""Failure-injection and boundary-condition tests across the stack.

Errors should be loud, attributed, and leave no wedged state -- this
module drives the unhappy paths: crashing model processes, protocol
misuse, degenerate geometries, malformed traces, starved analyses.
"""

import numpy as np
import pytest

from repro.exec_driven import ExecutionDrivenSimulation
from repro.mesh import MeshConfig, MeshNetwork, NetworkMessage
from repro.mp import MessagePassingRuntime
from repro.simkernel import (
    Facility,
    SimulationError,
    Simulator,
    hold,
    release,
    request,
)
from repro.trace import TraceLog, replay_trace


class TestKernelFailures:
    def test_crashing_process_propagates_with_original_type(self):
        sim = Simulator()

        def bad():
            yield hold(1.0)
            raise KeyError("model bug")

        sim.process(bad(), name="bad")
        with pytest.raises(KeyError, match="model bug"):
            sim.run()

    def test_crash_mid_facility_hold_does_not_wedge_others_waiting_elsewhere(self):
        sim = Simulator()
        fac = Facility(sim, name="f")
        finished = []

        def crasher():
            yield request(fac)
            raise ValueError("died holding the facility")

        def independent():
            yield hold(5.0)
            finished.append(sim.now)

        sim.process(crasher(), name="c")
        sim.process(independent(), name="i")
        with pytest.raises(ValueError):
            sim.run()
        # The run can be resumed; the independent process completes.
        sim.run()
        assert finished == [5.0]

    def test_join_on_failed_process_reraises(self):
        sim = Simulator()

        def worker():
            yield hold(1.0)
            raise RuntimeError("worker exploded")

        def boss():
            target = sim.process(worker(), name="w")
            try:
                yield from target.join()
            except RuntimeError:
                observed.append(True)

        observed = []
        sim.process(boss(), name="b")
        with pytest.raises(RuntimeError):
            # The worker's own failure surfaces from run()...
            sim.run()
        sim.run()
        # ...and the joiner observed it as well.
        assert observed == [True]

    def test_double_release_detected(self):
        sim = Simulator()
        fac = Facility(sim, name="f")

        def bad():
            yield request(fac)
            yield release(fac)
            yield release(fac)

        sim.process(bad(), name="bad")
        with pytest.raises(SimulationError, match="does not hold"):
            sim.run()

    def test_activating_finished_process_rejected(self):
        sim = Simulator()

        def quick():
            return
            yield  # pragma: no cover

        proc = sim.process(quick(), name="q")
        sim.run()
        with pytest.raises(SimulationError):
            proc.activate()


class TestNetworkBoundaries:
    def test_1x1_mesh_only_local_traffic(self):
        sim = Simulator()
        net = MeshNetwork(sim, MeshConfig("1x1"))
        done = net.inject(NetworkMessage(src=0, dst=0, length_bytes=8))
        sim.run()
        assert done.is_set
        assert net.log.records[0].hops == 0
        with pytest.raises(ValueError):
            net.inject(NetworkMessage(src=0, dst=1, length_bytes=8))

    def test_zero_byte_message_still_one_flit(self):
        sim = Simulator()
        net = MeshNetwork(sim, MeshConfig())
        net.inject(NetworkMessage(src=0, dst=1, length_bytes=0))
        sim.run()
        (record,) = net.log.records
        assert record.length_bytes == 0
        assert record.deliver_time > 0

    def test_negative_length_rejected_at_construction(self):
        with pytest.raises(ValueError):
            NetworkMessage(src=0, dst=1, length_bytes=-1)

    def test_huge_message_delivered(self):
        sim = Simulator()
        net = MeshNetwork(sim, MeshConfig())
        net.inject(NetworkMessage(src=0, dst=7, length_bytes=1_000_000))
        sim.run()
        (record,) = net.log.records
        expected = net.config.zero_load_latency(record.hops, 1_000_000)
        assert record.latency == pytest.approx(expected)


class TestCoherenceMisuse:
    def test_thread_body_exception_carries_through_run(self):
        sim = ExecutionDrivenSimulation()
        data = sim.array("data", 8)

        def worker(ctx):
            value = yield from ctx.load(data, 0)
            if ctx.pid == 3:
                raise ArithmeticError("app bug on p3")

        with pytest.raises(ArithmeticError, match="app bug on p3"):
            sim.run(worker)

    def test_out_of_range_address_rejected(self):
        sim = ExecutionDrivenSimulation()
        data = sim.array("data", 8)

        def worker(ctx):
            if ctx.pid == 0:
                yield from ctx.load(data, 99)

        with pytest.raises(IndexError):
            sim.run(worker)

    def test_machine_rejects_zero_allocation(self):
        sim = ExecutionDrivenSimulation()
        with pytest.raises(ValueError):
            sim.machine.allocate(0)


class TestMPFailures:
    def test_rank_exception_propagates(self):
        runtime = MessagePassingRuntime(num_ranks=2)

        def body(comm):
            yield from comm.compute(1.0)
            if comm.rank == 1:
                raise OSError("rank 1 died")

        with pytest.raises(OSError):
            runtime.run(body)

    def test_recv_from_invalid_rank(self):
        runtime = MessagePassingRuntime(num_ranks=2)

        def body(comm):
            if comm.rank == 0:
                yield from comm.recv(5)

        with pytest.raises(ValueError):
            runtime.run(body)

    def test_deadlocked_pair_detected(self):
        runtime = MessagePassingRuntime(num_ranks=2)

        def body(comm):
            # Both wait first: classic recv-recv deadlock.
            other = 1 - comm.rank
            yield from comm.recv(other)
            yield from comm.send(other, None, 8)

        with pytest.raises(RuntimeError, match="never finished"):
            runtime.run(body)
        # Truncating the run at ``until`` does not waive the stall
        # check once the event list drains first.
        with pytest.raises(RuntimeError, match="never finished"):
            MessagePassingRuntime(num_ranks=2).run(body, until=1e6)


class TestTraceAndAnalysisBoundaries:
    def test_replay_empty_trace_is_empty_log(self):
        from repro.simkernel import Simulator as Sim

        log = replay_trace(TraceLog(), MeshNetwork(Sim(), MeshConfig()))
        assert len(log) == 0

    def test_trace_with_out_of_order_posts_keeps_nonnegative_gaps(self):
        trace = TraceLog()
        trace.record(src=0, dst=1, length_bytes=8, kind="p2p", tag=0, post_time=10.0)
        # A clock glitch: earlier post recorded later.
        trace.record(src=0, dst=2, length_bytes=8, kind="p2p", tag=0, post_time=5.0)
        assert trace.events[1].gap == 0.0

    def test_analyses_reject_starved_logs(self):
        from repro.core import analyze_spatial, analyze_temporal, analyze_volume
        from repro.mesh import MeshConfig, NetworkLog

        empty = NetworkLog()
        with pytest.raises(ValueError):
            analyze_temporal(empty)
        with pytest.raises(ValueError):
            analyze_spatial(empty, MeshConfig("4x2").make_topology())
        with pytest.raises(ValueError):
            analyze_volume(empty, 8)

    def test_fit_rejects_non_finite_samples(self):
        from repro.stats import fit_distribution, fit_mle
        from repro.stats.distributions import Exponential

        data = np.array([1.0, 2.0, np.nan, 3.0])
        with pytest.raises(ValueError, match="non-finite"):
            fit_distribution(data)
        with pytest.raises(ValueError, match="non-finite"):
            fit_mle(np.array([1.0, np.inf, 2.0]), Exponential)
