"""Unit tests for mesh topology and XY routing."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.mesh import MeshConfig, MeshTopology


def xy_channels(topo, src, dst):
    """The ordered directed channels of ``topo.route(src, dst)``."""
    return [(hop.src, hop.dst) for hop in topo.route(src, dst)]


class TestTopology:
    def test_coordinates_row_major(self):
        topo = MeshTopology(4, 2)
        assert topo.coordinates(0) == (0, 0)
        assert topo.coordinates(3) == (3, 0)
        assert topo.coordinates(4) == (0, 1)
        assert topo.coordinates(7) == (3, 1)

    def test_node_at_inverts_coordinates(self):
        topo = MeshTopology(5, 3)
        for node in range(topo.num_nodes):
            assert topo.node_at(*topo.coordinates(node)) == node

    def test_corner_neighbors(self):
        topo = MeshTopology(3, 3)
        assert sorted(topo.neighbors(0)) == [1, 3]
        assert sorted(topo.neighbors(8)) == [5, 7]

    def test_center_neighbors(self):
        topo = MeshTopology(3, 3)
        assert sorted(topo.neighbors(4)) == [1, 3, 5, 7]

    def test_hops_manhattan(self):
        topo = MeshTopology(4, 4)
        assert topo.hops(0, 15) == 6
        assert topo.hops(5, 5) == 0

    def test_channel_count(self):
        # 2D mesh has 2*(w-1)*h + 2*w*(h-1) directed channels.
        topo = MeshTopology(4, 2)
        channels = list(topo.channels())
        assert len(channels) == 2 * 3 * 2 + 2 * 4 * 1
        assert len(set(channels)) == len(channels)

    def test_average_distance_single_node(self):
        assert MeshTopology(1, 1).average_distance() == 0.0

    def test_average_distance_known_value(self):
        # 2x1 mesh: the only pair is distance 1.
        assert MeshTopology(2, 1).average_distance() == 1.0

    def test_bad_node_rejected(self):
        topo = MeshTopology(2, 2)
        with pytest.raises(ValueError):
            topo.coordinates(4)
        with pytest.raises(ValueError):
            topo.node_at(2, 0)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            MeshTopology(0, 3)


class TestXYRouting:
    def test_same_node_empty_path(self):
        topo = MeshTopology(4, 4)
        assert topo.route(5, 5) == []

    def test_x_then_y(self):
        topo = MeshTopology(4, 4)
        path = xy_channels(topo, 0, 15)
        # First moves must be along X (east), then along Y (south).
        assert path[:3] == [(0, 1), (1, 2), (2, 3)]
        assert path[3:] == [(3, 7), (7, 11), (11, 15)]

    def test_westward_and_northward(self):
        topo = MeshTopology(4, 4)
        path = xy_channels(topo, 15, 0)
        assert path[:3] == [(15, 14), (14, 13), (13, 12)]
        assert path[3:] == [(12, 8), (8, 4), (4, 0)]

    def test_path_length_is_manhattan(self):
        topo = MeshTopology(5, 5)
        for src in range(topo.num_nodes):
            for dst in range(topo.num_nodes):
                sx, sy = topo.coordinates(src)
                dx, dy = topo.coordinates(dst)
                assert topo.hops(src, dst) == abs(sx - dx) + abs(sy - dy)
                assert len(topo.route(src, dst)) == topo.hops(src, dst)

    @given(
        width=st.integers(1, 6),
        height=st.integers(1, 6),
        data=st.data(),
    )
    def test_path_is_connected_and_valid(self, width, height, data):
        topo = MeshTopology(width, height)
        src = data.draw(st.integers(0, topo.num_nodes - 1))
        dst = data.draw(st.integers(0, topo.num_nodes - 1))
        path = xy_channels(topo, src, dst)
        node = src
        for u, v in path:
            assert u == node
            assert v in topo.neighbors(u)
            node = v
        assert node == dst

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16, np.uint64])
    def test_route_table_takes_numpy_endpoints_as_ints(self, kind):
        # A walk stepping by dst - src in an unsigned dtype once went
        # 1 -> 0 -> -1 -> ..., and the table kept that route under a key
        # equal to (1, 0).
        expected = tuple(MeshTopology(3, 3).route(1, 0))
        routes = MeshConfig("3x3").make_topology().routes
        assert routes.get(kind(1), kind(0)) == expected
        assert routes.get(1, kind(0)) == expected
        assert routes.get(1, 0) == expected


class TestMeshConfig:
    def test_defaults(self):
        cfg = MeshConfig()
        assert cfg.num_nodes == 8

    def test_flits_for(self):
        cfg = MeshConfig(flit_bytes=8, header_flits=1)
        assert cfg.flits_for(0) == 1
        assert cfg.flits_for(1) == 2
        assert cfg.flits_for(8) == 2
        assert cfg.flits_for(9) == 3
        assert cfg.flits_for(64) == 9
        # The analytical model asks for the flits of a mean length.
        assert cfg.flits_for(8.5) == 3.0
        assert isinstance(cfg.flits_for(np.float64(12.0)), float)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16, np.uint8])
    def test_flits_for_numpy_integers(self, kind):
        # Rounding up negates the length, which wraps an unsigned NumPy
        # integer: np.uint16(8) once needed 57346 flits.
        cfg = MeshConfig("3x3")
        for length in (0, 1, 8, 9, 64, 200):
            assert cfg.flits_for(kind(length)) == cfg.flits_for(length)

    def test_zero_load_latency_formula(self):
        cfg = MeshConfig(
            flit_bytes=8,
            header_flits=1,
            channel_time=1.0,
            routing_time=1.0,
            injection_time=1.0,
            ejection_time=1.0,
        )
        # 2 hops, 16 bytes -> 3 flits: 1 + 2*(1+1) + 2*1 + 1 = 8
        assert cfg.zero_load_latency(2, 16) == pytest.approx(8.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MeshConfig("0x2")
        with pytest.raises(ValueError):
            MeshConfig(flit_bytes=0)
        with pytest.raises(ValueError):
            MeshConfig(channel_time=-1.0)
        cfg = MeshConfig()
        with pytest.raises(ValueError):
            cfg.flits_for(-1)
        with pytest.raises(ValueError):
            cfg.zero_load_latency(-1, 8)
