"""Tests for phase segmentation of activity logs."""

import pytest

from repro import create_app, run_dynamic
from repro.core import phase_table, segment_phases
from repro.mesh import MeshConfig, MeshNetwork, NetworkMessage
from repro.simkernel import Simulator, hold


def clustered_log(cluster_gap=1.0, phase_gap=100.0, phases=3, per_phase=5):
    sim = Simulator()
    net = MeshNetwork(sim, MeshConfig())

    def driver():
        for phase in range(phases):
            for i in range(per_phase):
                yield from net.transfer(
                    NetworkMessage(src=0, dst=1 + (phase % 7), length_bytes=8)
                )
                yield hold(cluster_gap)
            yield hold(phase_gap)

    sim.process(driver(), name="d")
    sim.run()
    return net.log


class TestSegmentPhases:
    def test_splits_at_lulls(self):
        log = clustered_log(phases=3, per_phase=5)
        segments = segment_phases(log)
        assert len(segments) == 3
        assert all(s.message_count == 5 for s in segments)

    def test_indices_and_times_ordered(self):
        segments = segment_phases(clustered_log())
        for a, b in zip(segments, segments[1:]):
            assert a.index + 1 == b.index
            assert a.end_time < b.start_time

    def test_absolute_threshold(self):
        log = clustered_log(cluster_gap=1.0, phase_gap=100.0)
        one = segment_phases(log, threshold=1e9)
        assert len(one) == 1
        many = segment_phases(log, threshold=0.5)
        assert len(many) == len(log)

    def test_empty_log_rejected(self):
        from repro.mesh import NetworkLog

        with pytest.raises(ValueError):
            segment_phases(NetworkLog())

    def test_bad_gap_factor_rejected(self):
        with pytest.raises(ValueError):
            segment_phases(clustered_log(), gap_factor=0)

    def test_single_message_log(self):
        sim = Simulator()
        net = MeshNetwork(sim, MeshConfig())
        net.inject(NetworkMessage(src=0, dst=1, length_bytes=8))
        sim.run()
        segments = segment_phases(net.log)
        assert len(segments) == 1
        assert segments[0].message_count == 1

    def test_segments_partition_the_log(self):
        log = clustered_log(phases=4, per_phase=6)
        segments = segment_phases(log)
        assert sum(s.message_count for s in segments) == len(log)


class TestPhaseAnalysis:
    def test_modal_xor_distance(self):
        log = clustered_log(phases=1, per_phase=5)  # all 0 -> 1
        segment = segment_phases(log)[0]
        assert segment.modal_xor_distance() == 1

    def test_sync_traffic_excluded_from_data(self):
        sim = Simulator()
        net = MeshNetwork(sim, MeshConfig())

        def driver():
            yield from net.transfer(
                NetworkMessage(src=0, dst=1, length_bytes=8, kind="barrier_arrive")
            )
            yield from net.transfer(
                NetworkMessage(src=0, dst=2, length_bytes=32, kind="data_reply")
            )

        sim.process(driver(), name="d")
        sim.run()
        segment = segment_phases(net.log, threshold=1e9)[0]
        assert len(segment.data_records()) == 1
        assert segment.modal_xor_distance() == 2

    def test_phase_table_renders(self):
        table = phase_table(segment_phases(clustered_log()))
        assert "phase" in table and "xor" in table


class TestFFTPhaseStructure:
    """The headline E17 result at test scale."""

    @pytest.fixture(scope="class")
    def fft_segments(self):
        run = run_dynamic(create_app("1d-fft", n=256))
        return segment_phases(run.log)

    def test_local_stages_move_no_data(self, fft_segments):
        # The first stages of the FFT are chunk-internal: barrier-only
        # phases (no coherence data traffic).
        assert fft_segments[0].modal_xor_distance() is None

    def test_remote_stages_have_single_xor_partner(self, fft_segments):
        distances = [
            s.modal_xor_distance()
            for s in fft_segments
            if s.modal_xor_distance() is not None
        ]
        assert set(distances) == {1, 2, 4}
        # Stage order: distance-1 exchanges before distance-2 before 4.
        first_seen = {d: distances.index(d) for d in (1, 2, 4)}
        assert first_seen[1] < first_seen[2] < first_seen[4]
