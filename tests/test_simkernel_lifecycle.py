"""Resource lifecycle and stall diagnosis regression tests.

Covers the failure semantics of the kernel: the clock-rewind clamp,
multi-server double-acquire accounting, exception-safe cleanup in
``Facility.use`` and ``MeshNetwork.transfer``, the end-of-run leak
audit, the deadlock detector and no-progress watchdog, sweep failure
classification, and the ``repro doctor`` CLI.
"""

import json

import pytest

from repro.cli import main
from repro.mesh.config import MeshConfig
from repro.mesh.netlog import NetLogRecord, NetworkLog
from repro.mesh.network import MeshNetwork
from repro.mesh.packet import NetworkMessage
from repro.simkernel import (
    DeadlockError,
    Facility,
    FacilityLeakError,
    Simulator,
    StallError,
    check_leaks,
    diagnose_stall,
    hold,
    release,
    request,
)
from repro.simkernel.engine import ProcessState
from repro.sweep import make_grid, run_sweep


# ----------------------------------------------------------------------
# clock semantics
# ----------------------------------------------------------------------
class TestClockRewind:
    def test_second_run_with_earlier_until_does_not_rewind(self):
        sim = Simulator()

        def proc():
            yield hold(100.0)

        sim.process(proc(), name="p")
        assert sim.run() == 100.0
        # A stale horizon must not move the clock backwards.
        assert sim.run(until=10.0) == 100.0
        assert sim.now == 100.0

    def test_break_path_clamps_to_current_time(self):
        sim = Simulator()

        def proc():
            yield hold(100.0)

        sim.process(proc(), name="p")
        assert sim.run(until=10.0) == 10.0
        assert sim.run(until=5.0) == 10.0
        assert sim.now == 10.0

    def test_drain_path_still_advances_to_future_until(self):
        sim = Simulator()
        assert sim.run(until=42.0) == 42.0
        assert sim.run(until=7.0) == 42.0


# ----------------------------------------------------------------------
# multi-server accounting
# ----------------------------------------------------------------------
class TestDoubleAcquire:
    def test_one_process_holding_two_servers_releases_both(self):
        sim = Simulator()
        fac = Facility(sim, name="f", servers=2)
        stages = []

        def proc():
            yield request(fac)
            yield request(fac)
            stages.append(("held", fac.busy, dict(sim.processes[0].held)[fac]))
            yield hold(1.0)
            yield release(fac)
            stages.append(("after-one", fac.busy))
            yield release(fac)
            stages.append(("after-two", fac.busy))

        sim.process(proc(), name="p")
        sim.run()
        assert stages == [("held", 2, 2), ("after-one", 1), ("after-two", 0)]
        assert sim.leaked_facilities() == []

    def test_extra_release_still_rejected(self):
        sim = Simulator()
        fac = Facility(sim, name="f", servers=2)

        def proc():
            yield request(fac)
            yield release(fac)
            yield release(fac)

        sim.process(proc(), name="p")
        with pytest.raises(RuntimeError, match="does not hold"):
            sim.run()


# ----------------------------------------------------------------------
# exception-safe cleanup
# ----------------------------------------------------------------------
class TestUseCleanup:
    def test_shutdown_mid_hold_releases_the_server(self):
        sim = Simulator()
        fac = Facility(sim, name="f")

        def user():
            yield from fac.use(100.0)

        proc = sim.process(user(), name="u")
        sim.run(until=10.0)
        assert fac.busy == 1
        terminated = sim.shutdown()
        assert proc in terminated
        assert proc.state is ProcessState.FAILED
        assert fac.busy == 0
        assert sim.leaked_facilities(include_live=True) == []

    def test_failure_mid_hold_releases_the_server(self):
        sim = Simulator()
        fac = Facility(sim, name="f")

        def user():
            yield from fac.use(5.0)

        def saboteur():
            yield hold(1.0)
            raise RuntimeError("injected fault")

        sim.process(user(), name="u")
        sim.process(saboteur(), name="s")
        with pytest.raises(RuntimeError, match="injected fault"):
            sim.run()
        # The holder is still live (suspended); shutdown unwinds it.
        sim.shutdown()
        assert fac.busy == 0
        assert sim.leaked_facilities(include_live=True) == []


class TestShutdownRegrant:
    """``shutdown()`` must not leak servers re-granted during teardown.

    Closing a holder's generator runs its cleanup release, which hands
    the server to the next queued requester; that requester is still
    suspended at its request yield (the grant is outside ``use()``'s
    try block and not in ``transfer()``'s acquired list), so closing it
    too must not strand the server.
    """

    def test_contended_facility_survives_truncated_run(self):
        sim = Simulator()
        fac = Facility(sim, name="chan")

        def worker():
            yield from fac.use(10.0)

        sim.process(worker(), name="holder")
        sim.process(worker(), name="waiter")
        sim.run(until=5.0)
        assert fac.busy == 1 and fac.queue_length == 1
        sim.shutdown()
        assert fac.busy == 0 and fac.queue_length == 0
        check_leaks(sim)
        assert sim.leaked_facilities(include_live=True) == []

    def test_contended_transfer_survives_truncated_run(self):
        sim = Simulator()
        net = MeshNetwork(sim, MeshConfig("2x2"))

        def sender(name):
            yield from net.transfer(
                NetworkMessage(src=0, dst=3, length_bytes=4096, kind="data")
            )

        sim.process(sender("s1"), name="s1")
        sim.process(sender("s2"), name="s2")
        # Mid-flight: s1 holds the source NI plus channels, s2 is
        # queued on the NI -- the exact re-grant hazard.
        sim.run(until=2.0)
        assert net._injection[0].queue_length == 1
        sim.shutdown()
        check_leaks(sim)
        assert net.in_flight == 0
        assert net.leaked_facilities(include_live=True) == []

    def test_granted_but_unresumed_server_is_swept(self):
        # The watchdog truncates the run after the grant fired but
        # before the grantee's resume event ran: the server is in the
        # process's held map while its generator still sits at the
        # request yield, invisible to the unwind path.
        sim = Simulator()
        fac = Facility(sim, name="chan")

        def worker():
            yield from fac.use(1.0)

        sim.process(worker(), name="w")
        with pytest.raises(StallError):
            sim.run(max_no_progress_events=1)
        assert fac.busy == 1  # granted, resume event still queued
        sim.shutdown()
        assert fac.busy == 0
        check_leaks(sim)

    def test_truncated_synthetic_generation_checks_clean(self):
        # generate(until=...) wires run -> shutdown -> check_leaks; a
        # truncated run with contention must not trip the leak audit.
        from repro.core import SyntheticTrafficGenerator, characterize_log

        # All-pairs traffic so fitted spatial patterns share channels:
        # cross-source channel contention at the truncation instant is
        # what used to trip the re-grant leak.
        source_log = NetworkLog()
        msg_id = 0
        for src in range(4):
            for dst in range(4):
                if dst == src:
                    continue
                for _ in range(4):
                    source_log.add(
                        NetLogRecord(
                            msg_id=msg_id,
                            src=src,
                            dst=dst,
                            length_bytes=1024,
                            kind="data",
                            inject_time=float(msg_id),
                            start_time=float(msg_id),
                            deliver_time=float(msg_id + 2),
                            contention=0.0,
                            hops=1,
                        )
                    )
                    msg_id += 1
        mesh = MeshConfig("2x2")
        characterization = characterize_log(source_log, mesh)
        generator = SyntheticTrafficGenerator(
            characterization,
            mesh_config=mesh,
            seed=1,
            rate_scale=16.0,
        )
        log = generator.generate(messages_per_source=60, until=8.0)
        assert all(r.inject_time <= 8.0 for r in log)

    def test_raising_cleanup_does_not_abort_teardown(self):
        sim = Simulator()

        def bad():
            try:
                yield hold(10.0)
            finally:
                raise ValueError("boom")

        def good():
            yield hold(10.0)

        bad_proc = sim.process(bad(), name="bad")
        good_proc = sim.process(good(), name="good")
        sim.run(until=5.0)
        with pytest.raises(RuntimeError, match="raised during shutdown.*boom") as excinfo:
            sim.shutdown()
        # Every process was still unwound and the queue cleared.
        assert bad_proc.state is ProcessState.FAILED
        assert good_proc.state is ProcessState.FAILED
        assert sim.queue_depth == 0
        (failed, cause), = excinfo.value.errors
        assert failed is bad_proc and isinstance(cause, ValueError)


class TestTransferCleanup:
    def _network(self):
        sim = Simulator()
        net = MeshNetwork(sim, MeshConfig("2x2"))
        return sim, net

    def test_raising_delivery_handler_leaves_no_leaks(self):
        sim, net = self._network()

        def bad_handler(message, record):
            raise RuntimeError("handler blew up")

        net.register_handler(3, bad_handler)

        def sender(src, dst):
            yield from net.transfer(
                NetworkMessage(src=src, dst=dst, length_bytes=64, kind="data")
            )

        # Two overlapping transfers: one hits the raising handler while
        # the other is still holding channels mid-flight.
        sim.process(sender(0, 3), name="doomed")
        sim.process(sender(1, 2), name="bystander")
        with pytest.raises(RuntimeError, match="handler blew up"):
            sim.run()
        sim.shutdown()
        assert sim.leaked_facilities(include_live=True) == []
        assert net.in_flight == 0
        assert net.leaked_facilities(include_live=True) == []

    def test_shutdown_mid_transfer_restores_in_flight(self):
        sim, net = self._network()

        def sender():
            yield from net.transfer(
                NetworkMessage(src=0, dst=3, length_bytes=4096, kind="data")
            )

        sim.process(sender(), name="s")
        sim.run(until=net.config.injection_time / 2.0)
        assert net.in_flight == 1
        sim.shutdown()
        assert net.in_flight == 0
        assert sim.leaked_facilities(include_live=True) == []


# ----------------------------------------------------------------------
# leak audit
# ----------------------------------------------------------------------
class TestLeakAudit:
    def test_finish_while_holding_is_reported_and_raises(self):
        sim = Simulator()
        fac = Facility(sim, name="f")

        def leaker():
            yield request(fac)
            # Finishes without releasing: an unfixable leak.

        proc = sim.process(leaker(), name="leaker")
        sim.run()
        leaks = sim.leaked_facilities()
        assert leaks == [(proc, fac, 1)]
        with pytest.raises(FacilityLeakError, match="leaker.*holds 1 server"):
            check_leaks(sim)

    def test_live_holders_not_reported_by_default(self):
        sim = Simulator()
        fac = Facility(sim, name="f")

        def user():
            yield from fac.use(100.0)

        sim.process(user(), name="u")
        sim.run(until=10.0)
        assert sim.leaked_facilities() == []
        assert sim.leaked_facilities(include_live=True) != []
        sim.shutdown()


# ----------------------------------------------------------------------
# deadlock detection
# ----------------------------------------------------------------------
class TestDeadlockDetection:
    def test_adaptive_mesh_channel_ring_raises_with_cycle(self):
        sim = Simulator()
        net = MeshNetwork(
            sim,
            MeshConfig("2x2", routing="adaptive", virtual_channels=2),
        )
        # Well-formed adaptive transfers are deadlock-free by design, so
        # drive the network's channel facilities directly: a two-process
        # ring acquiring ch[0->1] and ch[1->3] in opposite orders.
        c01 = net.channel(0, 1)
        c13 = net.channel(1, 3)

        def grabber(first, second):
            yield request(first)
            yield hold(1.0)
            yield request(second)

        sim.process(grabber(c01, c13), name="east-first")
        sim.process(grabber(c13, c01), name="north-first")
        with pytest.raises(DeadlockError) as excinfo:
            sim.run(check_stall=True)
        error = excinfo.value
        assert set(error.cycle) == {"east-first", "north-first"}
        assert "wait-for cycle" in str(error)
        assert "east-first" in str(error) and "north-first" in str(error)
        assert "ch[0->1" in str(error) or "ch[1->3" in str(error)

    def test_self_deadlock_on_single_server_facility(self):
        sim = Simulator()
        fac = Facility(sim, name="f")

        def greedy():
            yield request(fac)
            yield request(fac)  # single server: waits on itself forever

        sim.process(greedy(), name="greedy")
        with pytest.raises(DeadlockError) as excinfo:
            sim.run(check_stall=True)
        assert excinfo.value.cycle == ("greedy",)

    def test_deep_ring_diagnosed_without_recursion_error(self):
        # The wait-for cycle search must not recurse: a blocked chain
        # deeper than Python's recursion limit previously raised
        # RecursionError instead of the DeadlockError diagnosis.
        import sys

        sim = Simulator()
        n = sys.getrecursionlimit() + 100
        facs = [Facility(sim, name=f"f{i}") for i in range(n)]

        def link(i):
            yield request(facs[i])
            yield hold(1.0)
            yield request(facs[(i + 1) % n])

        for i in range(n):
            sim.process(link(i), name=f"p{i}")
        with pytest.raises(DeadlockError) as excinfo:
            sim.run(check_stall=True)
        assert len(excinfo.value.cycle) == n

    def test_clean_run_unaffected_by_check_stall(self):
        sim = Simulator()
        fac = Facility(sim, name="f")

        def user():
            yield from fac.use(2.0)

        sim.process(user(), name="u")
        assert sim.run(check_stall=True) == 2.0

    def test_deadlock_error_pickles_with_cycle(self):
        import pickle

        error = DeadlockError("msg", cycle=("a", "b"))
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, DeadlockError)
        assert clone.cycle == ("a", "b")
        assert str(clone) == "msg"

    def test_diagnose_stall_names_blocked_processes(self):
        sim = Simulator()
        fac = Facility(sim, name="f")

        def holder():
            yield request(fac)
            yield hold(1.0)

        def waiter():
            yield request(fac)
            yield release(fac)

        sim.process(holder(), name="holder")
        sim.process(waiter(), name="waiter")
        sim.run(until=0.5)
        diagnosis = diagnose_stall(sim)
        assert [p.name for p in diagnosis.blocked] == ["waiter"]
        assert "waiter: waiting on Facility('f') held by 'holder'" in (
            diagnosis.describe()
        )
        sim.shutdown()


class TestWatchdog:
    def test_zero_delay_storm_raises_stall_error(self):
        sim = Simulator()

        def spinner():
            while True:
                yield hold(0.0)

        sim.process(spinner(), name="spinner")
        with pytest.raises(StallError, match="no simulated-time progress"):
            sim.run(max_no_progress_events=100)

    @pytest.mark.parametrize("start, before", [(0.0, 0), (2.0, 1)])
    def test_trips_after_exactly_the_limit_at_one_instant(self, start, before):
        """``max_no_progress_events=N`` lets exactly ``N`` events fire at
        one simulated instant, whether the storm starts at t=0 or later
        (``before`` events fire ahead of it), and the next one raises.
        That event stays queued, so a second run raises again at once."""
        limit = 25
        sim = Simulator()

        def spinner():
            if start:
                yield hold(start)
            while True:
                yield hold(0.0)

        sim.process(spinner(), name="spinner")
        trip = f"after {limit} events at t={start:g}"
        with pytest.raises(StallError, match=trip):
            sim.run(max_no_progress_events=limit)
        assert sim.now == start
        assert sim.events_fired == before + limit
        with pytest.raises(StallError, match=trip):
            sim.run(max_no_progress_events=limit)
        assert sim.events_fired == before + limit

    def test_watchdog_tolerates_progressing_runs(self):
        sim = Simulator()

        def ticker():
            for _ in range(500):
                yield hold(0.01)

        sim.process(ticker(), name="t")
        sim.run(max_no_progress_events=10)
        assert sim.now == pytest.approx(5.0)

    def test_bad_threshold_rejected(self):
        sim = Simulator()
        with pytest.raises(RuntimeError, match="max_no_progress_events"):
            sim.run(max_no_progress_events=0)


# ----------------------------------------------------------------------
# offered rate vs throughput
# ----------------------------------------------------------------------
class TestOfferedRate:
    def _saturated_log(self):
        log = NetworkLog()
        for i in range(10):
            log.add(
                NetLogRecord(
                    msg_id=i,
                    src=0,
                    dst=1,
                    length_bytes=64,
                    kind="data",
                    inject_time=float(i),
                    start_time=float(i),
                    deliver_time=109.0 if i == 9 else float(i + 1),
                    contention=0.0,
                    hops=1,
                )
            )
        return log

    def test_offered_rate_uses_injection_window(self):
        log = self._saturated_log()
        assert log.injection_span() == 9.0
        assert log.span() == 109.0
        # Offered load over the injection window, not the drain-heavy
        # full span; throughput keeps the full-span denominator.
        assert log.offered_rate() == pytest.approx(10.0 / 9.0)
        assert log.throughput() == pytest.approx(10.0 / 109.0)

    def test_degenerate_logs_report_zero(self):
        empty = NetworkLog()
        assert empty.offered_rate() == 0.0
        assert empty.throughput() == 0.0

    def test_load_point_and_validation_keep_delivered_rate_semantics(self):
        # LoadPoint.achieved_rate and ValidationReport rates stay
        # delivered-per-span (throughput): the saturation knee that
        # sweep_load's efficiency_threshold detects and the validation
        # tolerances were calibrated against that quantity, not the
        # injection-window offered rate.
        from repro.core import compare_logs
        from repro.core.loadsweep import LoadPoint

        log = self._saturated_log()
        report = compare_logs(log, log)
        assert report.original_rate == pytest.approx(log.throughput())
        assert report.original_rate != pytest.approx(log.offered_rate())
        point = LoadPoint(
            rate_scale=1.0,
            requested_rate=1.0,
            achieved_rate=log.throughput(),
            mean_latency=log.mean_latency(),
            mean_contention=log.mean_contention(),
        )
        # Drain-dominated log: the delivered rate is what collapses at
        # saturation, which is the efficiency signal.
        assert point.efficiency == pytest.approx(10.0 / 109.0)

    def test_measure_load_point_reports_delivered_rate(self):
        from repro.core import characterize_log
        from repro.core.loadsweep import measure_load_point

        source_log = NetworkLog()
        for i in range(30):
            src = i % 2
            source_log.add(
                NetLogRecord(
                    msg_id=i,
                    src=src,
                    dst=1 - src,
                    length_bytes=64,
                    kind="data",
                    inject_time=float(2 * i),
                    start_time=float(2 * i),
                    deliver_time=float(2 * i + 1),
                    contention=0.0,
                    hops=1,
                )
            )
        mesh = MeshConfig("2x1")
        measurement = measure_load_point(
            characterize_log(source_log, mesh),
            mesh_config=mesh,
            messages_per_source=10,
            seed=5,
        )
        assert measurement.point.achieved_rate == pytest.approx(
            measurement.log.throughput()
        )


# ----------------------------------------------------------------------
# sweep failure classification
# ----------------------------------------------------------------------
def _deadlocked_cell(doc):
    raise DeadlockError(
        "stall at t=5: 2 process(es) blocked\nwait-for cycle: a -> f (held by b)",
        cycle=("a", "b"),
    )


def _leaky_cell(doc):
    raise FacilityLeakError("1 leaked facility holding(s):\n  p still holds 1 server")


class TestSweepClassification:
    def _grid(self):
        return make_grid(
            apps=("1d-fft",),
            app_params={"1d-fft": {"n": 32}},
            meshes=("2x2",),
            messages_per_source=10,
        )

    def test_deadlock_cell_yields_structured_row(self):
        result = run_sweep(self._grid(), jobs=1, cache=None, cell_fn=_deadlocked_cell)
        (row,) = result.rows
        assert row["status"] == "deadlock"
        assert row["error"].startswith("DeadlockError:")
        assert any("wait-for cycle" in line for line in row["failure_log"])
        assert "wait-for cycle" in result.describe()

    def test_leak_cell_yields_structured_row(self):
        result = run_sweep(self._grid(), jobs=1, cache=None, cell_fn=_leaky_cell)
        (row,) = result.rows
        assert row["status"] == "leak"
        assert row["error"].startswith("FacilityLeakError:")
        assert any("still holds" in line for line in row["failure_log"])


# ----------------------------------------------------------------------
# the doctor CLI
# ----------------------------------------------------------------------
class TestDoctorCLI:
    def test_healthy_csv(self, tmp_path, capsys):
        log = NetworkLog()
        log.add(
            NetLogRecord(
                msg_id=0, src=0, dst=1, length_bytes=64, kind="data",
                inject_time=0.0, start_time=0.0, deliver_time=5.0,
                contention=1.0, hops=1,
            )
        )
        log.add(
            NetLogRecord(
                msg_id=1, src=1, dst=0, length_bytes=64, kind="data",
                inject_time=4.0, start_time=4.0, deliver_time=7.0,
                contention=0.0, hops=1,
            )
        )
        path = str(tmp_path / "log.csv")
        log.write_csv(path)
        assert main(["doctor", path]) == 0
        out = capsys.readouterr().out
        assert "activity log" in out and "healthy" in out

    def test_drain_dominated_csv_flags_problem(self, tmp_path, capsys):
        log = NetworkLog()
        for i in range(5):
            log.add(
                NetLogRecord(
                    msg_id=i, src=0, dst=1, length_bytes=64, kind="data",
                    inject_time=float(i), start_time=float(i),
                    deliver_time=100.0 + i, contention=50.0, hops=1,
                )
            )
        path = str(tmp_path / "saturated.csv")
        log.write_csv(path)
        assert main(["doctor", path]) == 1
        out = capsys.readouterr().out
        assert "drain time dominates" in out
        assert "problem(s) found" in out

    def test_sweep_report_with_deadlock_row(self, tmp_path, capsys):
        result = run_sweep(
            make_grid(
                apps=("1d-fft",),
                app_params={"1d-fft": {"n": 32}},
                meshes=("2x2",),
                messages_per_source=10,
            ),
            jobs=1,
            cache=None,
            cell_fn=_deadlocked_cell,
        )
        path = str(tmp_path / "sweep.json")
        result.write_json(path)
        assert main(["doctor", path]) == 1
        out = capsys.readouterr().out
        assert "sweep report" in out
        assert "1 deadlock" in out
        assert "wait-for cycle" in out

    def test_run_report_with_leak_metric(self, tmp_path, capsys):
        doc = {
            "schema": 1,
            "app": "1d-fft",
            "messages": 10,
            "sim_span": 50.0,
            "wall_seconds": 0.1,
            "metrics": {"net.leaked_facilities": {"value": 2}},
        }
        path = str(tmp_path / "report.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        assert main(["doctor", path]) == 1
        out = capsys.readouterr().out
        assert "run report" in out
        assert "2 facility server(s) leaked" in out

    def test_unrecognized_artifact_errors(self, tmp_path, capsys):
        path = str(tmp_path / "junk.json")
        with open(path, "w") as handle:
            json.dump({"what": "ever"}, handle)
        assert main(["doctor", path]) == 2
        assert "unrecognized artifact" in capsys.readouterr().err
