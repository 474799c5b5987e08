"""Tests for trace records, the profiler, and both replay modes."""

import pytest

from repro.core.run import run_dynamic, run_static
from repro.mesh import MeshConfig, MeshNetwork
from repro.simkernel import Simulator
from repro.trace import CommEvent, TraceLog, profile_trace, replay_trace


def build_trace(entries):
    """entries: list of (src, dst, nbytes, post_time)."""
    trace = TraceLog()
    for src, dst, nbytes, post in entries:
        trace.record(src=src, dst=dst, length_bytes=nbytes, kind="p2p", tag=0, post_time=post)
    return trace


def fresh_network():
    sim = Simulator()
    return MeshNetwork(sim, MeshConfig("4x2"))


class TestTraceLog:
    def test_gap_derivation_per_source(self):
        trace = build_trace([(0, 1, 8, 10.0), (0, 2, 8, 25.0), (1, 0, 8, 30.0)])
        events = trace.events
        assert events[0].gap == 10.0  # first event of source 0
        assert events[1].gap == 15.0
        assert events[2].gap == 30.0  # first event of source 1

    def test_views(self):
        trace = build_trace([(0, 1, 10, 1.0), (1, 0, 20, 2.0), (0, 2, 30, 3.0)])
        assert trace.sources() == [0, 1]
        assert len(trace.by_source(0)) == 2
        assert trace.total_bytes() == 60
        assert trace.span() == 2.0

    def test_csv_roundtrip(self, tmp_path):
        trace = build_trace([(0, 1, 8, 1.0), (2, 3, 64, 5.0)])
        path = str(tmp_path / "trace.csv")
        trace.write_csv(path)
        loaded = TraceLog.read_csv(path)
        assert len(loaded) == 2
        assert loaded.events[0].dst == 1
        assert loaded.events[1].length_bytes == 64

    def test_event_validation(self):
        with pytest.raises(ValueError):
            CommEvent(src=0, dst=1, length_bytes=-1, kind="x", tag=0, post_time=0, gap=0)
        with pytest.raises(ValueError):
            CommEvent(src=0, dst=1, length_bytes=1, kind="x", tag=0, post_time=0, gap=-1)


class TestProfiler:
    def test_profile_numbers(self):
        trace = build_trace(
            [(0, 1, 10, 1.0), (0, 2, 10, 2.0), (0, 1, 10, 3.0), (1, 0, 50, 4.0)]
        )
        profile = profile_trace(trace, num_nodes=4)
        assert profile.total_messages == 4
        assert profile.total_bytes == 80
        assert profile.per_source_messages == {0: 3, 1: 1}
        assert profile.destination_matrix[0, 1] == 2
        assert profile.mean_gap > 0
        assert "messages: 4" in profile.describe()

    def test_profile_rejects_out_of_range(self):
        trace = build_trace([(0, 9, 8, 1.0)])
        with pytest.raises(ValueError):
            profile_trace(trace, num_nodes=4)

    def test_profile_rejects_negative_src(self):
        # Regression: src < 0 used to index the matrix from the end.
        trace = build_trace([(-1, 2, 8, 1.0)])
        with pytest.raises(ValueError, match="negative rank"):
            profile_trace(trace, num_nodes=4)

    def test_profile_rejects_negative_dst(self):
        trace = build_trace([(0, -2, 8, 1.0)])
        with pytest.raises(ValueError, match="negative rank"):
            profile_trace(trace, num_nodes=4)

    def test_profile_empty_trace(self):
        profile = profile_trace(TraceLog(), num_nodes=4)
        assert profile.total_messages == 0
        assert profile.mean_gap == 0.0


class TestReplay:
    def test_dependency_replay_delivers_everything(self):
        trace = build_trace([(0, 7, 64, 5.0), (0, 3, 8, 10.0), (5, 2, 32, 8.0)])
        net = fresh_network()
        log = replay_trace(trace, net, mode="dependency")
        assert len(log) == 3
        assert {(r.src, r.dst) for r in log} == {(0, 7), (0, 3), (5, 2)}

    def test_dependency_replay_preserves_source_order(self):
        trace = build_trace([(0, 7, 64, 5.0), (0, 3, 8, 10.0)])
        net = fresh_network()
        log = replay_trace(trace, net, mode="dependency")
        by_src0 = log.by_source(0)
        assert by_src0[0].dst == 7
        assert by_src0[1].dst == 3
        assert by_src0[1].inject_time >= by_src0[0].deliver_time + 5.0 - 1e-9

    def test_open_loop_uses_absolute_times(self):
        trace = build_trace([(0, 7, 64, 5.0), (0, 3, 8, 10.0)])
        net = fresh_network()
        log = replay_trace(trace, net, mode="open-loop")
        times = sorted(r.inject_time for r in log)
        assert times == [5.0, 10.0]

    def test_open_loop_ignores_contention_feedback(self):
        # Two big back-to-back messages from one source: dependency
        # replay spaces the second after the first completes; open loop
        # injects it at its traced time regardless.
        trace = build_trace([(0, 3, 4096, 0.0), (0, 3, 4096, 1.0)])
        dep_log = replay_trace(trace, fresh_network(), mode="dependency")
        open_log = replay_trace(trace, fresh_network(), mode="open-loop")
        dep_second = dep_log.by_source(0)[1]
        open_second = sorted(open_log.by_source(0), key=lambda r: r.inject_time)[1]
        assert open_second.inject_time == 1.0
        assert dep_second.inject_time > open_second.inject_time

    @pytest.mark.parametrize(
        "run, app, params, messages",
        [
            (run_dynamic, "1d-fft", {"n": 64}, 164),
            (run_static, "3d-fft", {"n": 16}, 56),
            (run_static, "mg", {"n": 16}, 322),
        ],
        ids=["1d-fft", "3d-fft", "mg"],
    )
    def test_open_loop_replay_of_a_log_reproduces_it(self, run, app, params, messages):
        # A log's own rows as a trace, each posted at its injection time
        # in (inject_time, msg_id) order with its kind, replayed open
        # loop on a fresh mesh: the network holds no hidden state, so
        # every latency and contention comes back bit for bit.
        log = run(app, params=params, mesh_config=MeshConfig("4x2")).log
        trace = TraceLog()
        for r in sorted(log, key=lambda r: (r.inject_time, r.msg_id)):
            trace.record(r.src, r.dst, r.length_bytes, r.kind, 0, r.inject_time)
        replayed = replay_trace(trace, fresh_network(), mode="open-loop")
        assert len(replayed) == len(log) == messages

        def bits(log, field):
            return sorted(getattr(r, field) for r in log)

        for field in ("latency", "contention"):
            assert [v.hex() for v in bits(replayed, field)] == [
                v.hex() for v in bits(log, field)
            ]

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            replay_trace(TraceLog(), fresh_network(), mode="magic")

    def test_rank_overflow_rejected(self):
        trace = build_trace([(0, 12, 8, 1.0)])
        with pytest.raises(ValueError):
            replay_trace(trace, fresh_network())
