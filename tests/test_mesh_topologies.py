"""Tests for the torus and hypercube topology extensions + virtual channels."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh import (
    HypercubeTopology,
    MeshConfig,
    MeshNetwork,
    MeshTopology,
    NetworkMessage,
    TopologySpec,
)
from repro.simkernel import Simulator


def build_torus(width, height):
    return TopologySpec.parse(f"{width}x{height}:torus").build()


class TestTorusTopology:
    def test_neighbors_wraparound(self):
        torus = build_torus(4, 4)
        assert sorted(torus.neighbors(0)) == [1, 3, 4, 12]

    def test_hops_take_shorter_direction(self):
        torus = build_torus(4, 4)
        # 0 -> 3: one wrap hop west instead of 3 east.
        assert torus.hops(0, 3) == 1
        assert torus.hops(0, 15) == 2  # wrap both dimensions

    def test_route_length_matches_hops(self):
        torus = build_torus(4, 3)
        for src in range(torus.num_nodes):
            for dst in range(torus.num_nodes):
                assert len(torus.route(src, dst)) == torus.hops(src, dst)

    def test_route_is_connected(self):
        torus = build_torus(5, 4)
        for src in (0, 7, 13):
            for dst in range(torus.num_nodes):
                node = src
                for hop in torus.route(src, dst):
                    assert hop.src == node
                    assert hop.dst in torus.neighbors(node) or hop.dst == node
                    node = hop.dst
                assert node == dst

    def test_wrap_hop_switches_vclass(self):
        torus = build_torus(4, 1)
        # 0 -> 3 goes west through the wrap channel (0, 3).
        route = torus.route(1, 3)
        # 1 -> 0 (class 0), 0 -> 3 wrap (class 0), after which nothing.
        assert [h.vclass for h in route] == [0, 0]
        # 1 -> 2 -> 3 has no wrap: all class 0.
        route_east = torus.route(0, 2)
        assert all(h.vclass == 0 for h in route_east)

    def test_dateline_classes_after_wrap(self):
        torus = build_torus(5, 1)
        # 4 -> 1 shortest is east through the wrap: 4->0 (wrap), 0->1.
        route = torus.route(4, 1)
        assert [(h.src, h.dst) for h in route] == [(4, 0), (0, 1)]
        assert route[0].vclass == 0          # the wrap hop itself
        assert route[1].vclass == 1          # after the dateline

    def test_average_distance_below_mesh(self):
        mesh = MeshTopology(4, 4)
        torus = build_torus(4, 4)
        assert torus.average_distance() < mesh.average_distance()

    def test_requires_two_vclasses(self):
        with pytest.raises(ValueError):
            MeshConfig("4x2:torus", virtual_channels=1)
        MeshConfig("4x2:torus", virtual_channels=2)  # ok


class TestHypercubeTopology:
    def test_for_nodes(self):
        cube = HypercubeTopology.for_nodes(8)
        assert cube.dimension == 3
        assert cube.num_nodes == 8

    def test_for_nodes_rejects_non_power(self):
        with pytest.raises(ValueError):
            HypercubeTopology.for_nodes(6)

    def test_neighbors_are_bit_flips(self):
        cube = HypercubeTopology(3)
        assert sorted(cube.neighbors(0)) == [1, 2, 4]
        assert sorted(cube.neighbors(5)) == [1, 4, 7]

    def test_hops_hamming(self):
        cube = HypercubeTopology(4)
        assert cube.hops(0b0000, 0b1111) == 4
        assert cube.hops(0b1010, 0b1010) == 0

    def test_ecube_route_fixes_low_bits_first(self):
        cube = HypercubeTopology(3)
        route = cube.route(0b000, 0b101)
        assert [(h.src, h.dst) for h in route] == [(0b000, 0b001), (0b001, 0b101)]

    def test_channel_count(self):
        cube = HypercubeTopology(3)
        assert len(list(cube.channels())) == 8 * 3

    def test_average_distance(self):
        # d-cube average Hamming distance over ordered pairs:
        # d * 2^(d-1) * 2^d / (2^d * (2^d - 1)).
        cube = HypercubeTopology(3)
        expected = 3 * 4 * 8 / (8 * 7)
        assert cube.average_distance() == pytest.approx(expected)


class TestMakeTopology:
    def test_by_name(self):
        for name in ("mesh", "torus", "hypercube"):
            assert MeshConfig.parse(f"4x2:{name}").make_topology().name == name

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            MeshConfig.parse("4x2:ring")

    def test_hypercube_node_count_enforced(self):
        with pytest.raises(ValueError):
            MeshConfig("3x2:hypercube")


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(["mesh", "torus", "hypercube"]),
    data=st.data(),
)
def test_route_property_connected_and_minimal(name, data):
    topo = MeshConfig.parse(f"4x2:{name}").make_topology()
    src = data.draw(st.integers(0, topo.num_nodes - 1))
    dst = data.draw(st.integers(0, topo.num_nodes - 1))
    route = topo.route(src, dst)
    assert len(route) == topo.hops(src, dst)
    node = src
    for hop in route:
        assert hop.src == node
        node = hop.dst
    assert node == dst


class TestNetworkOnAlternativeTopologies:
    def run_traffic(self, config, pairs):
        sim = Simulator()
        net = MeshNetwork(sim, config)
        events = [
            net.inject(NetworkMessage(src=s, dst=d, length_bytes=64)) for s, d in pairs
        ]
        sim.run()
        return net, [e.value for e in events]

    def test_torus_delivers_under_load(self):
        config = MeshConfig("4x2:torus", virtual_channels=2)
        pairs = [(s, (s + 3) % 8) for s in range(8)] * 5
        net, records = self.run_traffic(config, pairs)
        assert len(net.log) == 40
        assert all(r.deliver_time > 0 for r in records)

    def test_torus_shortens_long_routes(self):
        mesh_cfg = MeshConfig("4x2")
        torus_cfg = MeshConfig("4x2:torus", virtual_channels=2)
        _, mesh_records = self.run_traffic(mesh_cfg, [(0, 3)])
        _, torus_records = self.run_traffic(torus_cfg, [(0, 3)])
        assert torus_records[0].hops < mesh_records[0].hops

    def test_hypercube_delivers(self):
        config = MeshConfig("4x2:hypercube")
        net, records = self.run_traffic(config, [(0, 7), (5, 2)])
        assert records[0].hops == 3  # Hamming(0, 7)
        assert records[1].hops == 3  # Hamming(5, 2)

    def test_virtual_channels_reduce_blocking(self):
        # Cross traffic converging on channel (2, 3): with 2 lanes,
        # worms from different sources can overlap on the shared link.
        pairs = [(0, 3), (1, 3), (2, 3), (0, 3), (1, 3), (2, 3)]
        single, _ = self.run_traffic(MeshConfig("4x1", virtual_channels=1), pairs)
        double, _ = self.run_traffic(MeshConfig("4x1", virtual_channels=2), pairs)
        assert double.log.mean_contention() < single.log.mean_contention()

    def test_vc_lane_lookup(self):
        config = MeshConfig("4x1", virtual_channels=2)
        sim = Simulator()
        net = MeshNetwork(sim, config)
        assert net.channel(0, 1, lane=0) is not net.channel(0, 1, lane=1)
        with pytest.raises(ValueError):
            net.channel(0, 1, lane=5)
