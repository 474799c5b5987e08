"""Tests for the adaptive (XY/YX) routing extension."""

import pytest

from repro.mesh import MeshConfig, MeshNetwork, MeshTopology, NetworkMessage
from repro.simkernel import Simulator, hold


def adaptive_config(**kwargs):
    return MeshConfig("4x2", routing="adaptive", virtual_channels=2, **kwargs)


class TestRouteYX:
    def test_yx_traverses_y_first(self):
        topo = MeshTopology(4, 2)
        path = topo.route_yx(0, 7)
        assert (path[0].src, path[0].dst) == (0, 4)  # down first
        assert [(h.src, h.dst) for h in path[1:]] == [(4, 5), (5, 6), (6, 7)]

    def test_same_length_as_xy(self):
        topo = MeshTopology(4, 4)
        for src in range(16):
            for dst in range(16):
                assert len(topo.route_yx(src, dst)) == len(topo.route(src, dst))

    def test_same_endpoints(self):
        topo = MeshTopology(4, 4)
        for src, dst in ((0, 15), (3, 12), (5, 10)):
            path = topo.route_yx(src, dst)
            assert path[0].src == src and path[-1].dst == dst


class TestAdaptiveConfig:
    def test_requires_mesh(self):
        with pytest.raises(ValueError):
            MeshConfig("4x2:torus", routing="adaptive", virtual_channels=2)

    def test_requires_two_vcs(self):
        with pytest.raises(ValueError):
            MeshConfig(routing="adaptive", virtual_channels=1)

    def test_unknown_routing_rejected(self):
        with pytest.raises(ValueError):
            MeshConfig(routing="chaos")


class TestAdaptiveBehaviour:
    def run_hotspot(self, config, repeats=6):
        """Row-0 sources all streaming to node 7 (column congestion)."""
        sim = Simulator()
        net = MeshNetwork(sim, config)

        def source(src):
            for _ in range(repeats):
                yield from net.transfer(
                    NetworkMessage(src=src, dst=7, length_bytes=256)
                )

        for src in (0, 1, 2):
            sim.process(source(src), name=f"s{src}")
        sim.run()
        return net

    def test_all_delivered_no_deadlock(self):
        net = self.run_hotspot(adaptive_config())
        assert len(net.log) == 18
        assert net.in_flight == 0

    def test_takes_yx_under_congestion(self):
        net = self.run_hotspot(adaptive_config())
        assert net.adaptive_yx_taken > 0

    def test_adaptive_not_slower_than_deterministic(self):
        deterministic = self.run_hotspot(
            MeshConfig("4x2", virtual_channels=2)
        )
        adaptive = self.run_hotspot(adaptive_config())
        assert adaptive.log.mean_latency() <= deterministic.log.mean_latency() * 1.05

    def test_single_dimension_traffic_unaffected(self):
        # src and dst in the same row: XY == YX, no adaptivity needed.
        sim = Simulator()
        net = MeshNetwork(sim, adaptive_config())
        net.inject(NetworkMessage(src=0, dst=3, length_bytes=8))
        sim.run()
        assert net.adaptive_yx_taken == 0
        assert net.log.records[0].hops == 3

    def test_lanes_pinned_per_order(self):
        # YX worms must never touch lane 0 of their first hop.
        sim = Simulator()
        net = MeshNetwork(sim, adaptive_config())

        def blocker():
            # Saturate XY's first channel (0 -> 1).
            yield from net.transfer(NetworkMessage(src=0, dst=1, length_bytes=4096))

        def prober():
            yield hold(2.0)  # let the blocker seize (0, 1)
            yield from net.transfer(NetworkMessage(src=0, dst=5, length_bytes=8))

        sim.process(blocker(), name="blocker")
        sim.process(prober(), name="prober")
        sim.run()
        assert net.adaptive_yx_taken == 1
