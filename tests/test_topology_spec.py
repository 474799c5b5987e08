"""TopologySpec API: grammar, kinds, N-D routing, the 2-D XY oracle.

The spec is the only way to build a network, and it must not perturb
the paper's 2-D results: a hypothesis suite checks spec-built 2-D
meshes against an independent XY-routing oracle (the golden netlog
digests in ``test_golden_netlogs.py`` pin whole runs), and the N-D
suites check that routes keep the invariants the deadlock argument
relies on (minimal hops, dimension-order monotonicity, dateline
virtual-channel discipline, up*/down* ordering on the hierarchy).
"""

import math
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.mesh.topology as topology_module
from repro.mesh import (
    ChipletTopology,
    MeshConfig,
    MeshNetwork,
    NDMeshTopology,
    NetworkMessage,
    TopologySpec,
    TopologySpecError,
)
from repro.mesh.spec import KINDS
from repro.obs import CHANNELS_PID, TimelineRecorder
from repro.simkernel import Simulator, hold, release, request


class TestSpecParse:
    @pytest.mark.parametrize(
        "text, kind, dims",
        [
            ("4x4", "mesh", (4, 4)),
            ("4x2", "mesh", (4, 2)),
            ("4x4x2:torus", "torus", (4, 4, 2)),
            ("8x8:hypercube", "hypercube", (8, 8)),
            ("2x3x4x5:mesh", "mesh", (2, 3, 4, 5)),
        ],
    )
    def test_grammar(self, text, kind, dims):
        spec = TopologySpec.parse(text)
        assert spec.kind == kind
        assert spec.dims == dims

    def test_link_scales(self):
        spec = TopologySpec.parse("8x8x4:mesh:z=4.0")
        assert spec.link_scale == (1.0, 1.0, 4.0)
        spec2 = TopologySpec.parse("4x4:mesh:x=2,y=0.5")
        assert spec2.link_scale == (2.0, 0.5)

    def test_chiplet_grammar(self):
        spec = TopologySpec.parse("chiplet(4x4,hubs=2)")
        assert spec.kind == "chiplet"
        assert spec.dims == (4, 4)
        assert spec.hubs == 2
        assert spec.is_hierarchical
        assert spec.num_nodes == 32

    def test_whitespace_tolerated(self):
        assert TopologySpec.parse(" 4x4 ") == TopologySpec.parse("4x4")

    @pytest.mark.parametrize(
        "bad, match",
        [
            ("", "topology spec expects"),
            ("4x", "topology spec expects"),
            ("0x4", "positive"),
            ("-1x4", "positive"),
            ("4", "topology spec expects"),
            ("axb", "topology spec expects"),
            ("4x4:klein", "unknown topology"),
            ("4x4:mesh:q=2", "axis"),
            ("4x4:mesh:z=2", "axis"),
            ("4x4:mesh:x=nope", "scale"),
            ("4x4:mesh:x=0", "scale"),
            ("chiplet(4x4,hubs=0)", "hubs"),
            ("chiplet(4x4,hubs=x)", "hubs"),
        ],
    )
    def test_rejects(self, bad, match):
        with pytest.raises(TopologySpecError, match=match):
            TopologySpec.parse(bad)

    def test_spec_error_is_value_error(self):
        # Pre-redesign callers caught ValueError; that must keep working.
        with pytest.raises(ValueError):
            TopologySpec.parse("4x4:klein")

    def test_wrap_defaults_follow_kind(self):
        assert TopologySpec.parse("4x4").wrap == (False, False)
        assert TopologySpec.parse("4x4:torus").wrap == (True, True)

    def test_hypercube_requires_power_of_two(self):
        with pytest.raises(ValueError, match="power"):
            TopologySpec.parse("3x3:hypercube").build()


class TestSpecCanonical:
    @pytest.mark.parametrize(
        "text",
        ["4x4", "4x2", "4x4x2:torus", "8x8:hypercube", "8x8x4:mesh:z=4",
         "chiplet(4x4,hubs=2)", "4x4:mesh:x=2,y=0.5"],
    )
    def test_round_trip(self, text):
        spec = TopologySpec.parse(text)
        assert TopologySpec.parse(spec.canonical()) == spec

    def test_dict_round_trip(self):
        for text in ("4x4", "4x4x2:torus", "chiplet(4x4,hubs=4)",
                     "8x8x4:mesh:z=4"):
            spec = TopologySpec.parse(text)
            assert TopologySpec.from_dict(spec.as_dict()) == spec

    def test_pickle_round_trip(self):
        spec = TopologySpec.parse("4x4x2:torus")
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_frozen(self):
        spec = TopologySpec.parse("4x4")
        with pytest.raises(Exception):
            spec.kind = "torus"

    def test_hashable(self):
        assert len({TopologySpec.parse("4x4"), TopologySpec.parse("4x4")}) == 1


class TestRegistry:
    def test_builtins_registered(self):
        assert KINDS == ("chiplet", "hypercube", "mesh", "torus")

    def test_unknown_kind_lists_registered(self):
        known = "known kinds: chiplet, hypercube, mesh, torus"
        with pytest.raises(TopologySpecError, match=f"unknown topology 'klein'; {known}"):
            TopologySpec(kind="klein", dims=(4, 4))
        with pytest.raises(TopologySpecError, match=f"unknown topology 'klein'; {known}"):
            TopologySpec.from_dict({"kind": "klein", "dims": [4, 4]})
        with pytest.raises(TopologySpecError, match=f"in mesh spec '4x4:klein'; {known}"):
            TopologySpec.parse("4x4:klein")


class TestMeshConfigFacade:
    def test_spec_construction(self):
        cfg = MeshConfig(spec=TopologySpec.parse("4x4x2:torus"), virtual_channels=2)
        assert cfg.num_nodes == 32
        assert cfg.spec.kind == "torus"

    def test_string_spec(self):
        cfg = MeshConfig(spec="4x4x2:torus", virtual_channels=2)
        assert cfg.num_nodes == 32

    def test_parse_auto_vcs(self):
        cfg = MeshConfig.parse("4x4x2:torus")
        assert cfg.virtual_channels >= 2

    def test_torus_needs_vcs(self):
        with pytest.raises(ValueError, match="virtual channels"):
            MeshConfig(spec="4x4:torus", virtual_channels=1)

    def test_adaptive_only_on_plain_mesh(self):
        with pytest.raises(ValueError, match="adaptive"):
            MeshConfig(spec="4x4x2:mesh", routing="adaptive", virtual_channels=2)

    def test_pickles(self):
        cfg = MeshConfig(spec="4x4x2:torus", virtual_channels=2)
        assert pickle.loads(pickle.dumps(cfg)) == cfg


# ---------------------------------------------------------------------------
# 2-D equivalence: spec-built meshes vs the paper's XY routing
# ---------------------------------------------------------------------------

dims_2d = st.tuples(st.integers(2, 6), st.integers(1, 5))


class TestLegacyEquivalence:
    """Spec-built 2-D meshes route exactly as the paper's XY mesh."""

    @given(dims=dims_2d, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mesh_route_matches_xy_oracle(self, dims, data):
        """Independent XY oracle: x to the column, then y to the row."""
        width, height = dims
        topo = TopologySpec.parse(f"{width}x{height}").build()
        n = width * height
        src = data.draw(st.integers(0, n - 1))
        dst = data.draw(st.integers(0, n - 1))
        sx, sy = src % width, src // width
        dx, dy = dst % width, dst // width
        expected = []
        x, y = sx, sy
        while x != dx:
            nxt = x + (1 if dx > x else -1)
            expected.append((y * width + x, y * width + nxt))
            x = nxt
        while y != dy:
            nxt = y + (1 if dy > y else -1)
            expected.append((y * width + x, nxt * width + x))
            y = nxt
        got = [(h.src, h.dst) for h in topo.route(src, dst)]
        assert got == expected
        assert len(got) == abs(sx - dx) + abs(sy - dy)


# ---------------------------------------------------------------------------
# N-D routing invariants
# ---------------------------------------------------------------------------

dims_nd = (
    st.lists(st.integers(1, 4), min_size=2, max_size=4)
    .map(tuple)
    .filter(lambda d: 2 <= math.prod(d) <= 96)
)


def _manhattan(topo, src, dst):
    s, d = topo.coordinates(src), topo.coordinates(dst)
    total = 0
    for axis, (a, b) in enumerate(zip(s, d)):
        span = abs(a - b)
        if topo.wrap[axis] and topo.dims[axis] > 1:
            span = min(span, topo.dims[axis] - span)
        total += span
    return total


class TestNDRouting:
    @given(dims=dims_nd, wrap=st.booleans(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_routes_minimal_and_connected(self, dims, wrap, data):
        topo = NDMeshTopology(dims, wrap=(wrap,) * len(dims))
        n = topo.num_nodes
        src = data.draw(st.integers(0, n - 1))
        dst = data.draw(st.integers(0, n - 1))
        route = topo.route(src, dst)
        # Minimal: exactly the (wrap-aware) Manhattan distance.
        assert len(route) == _manhattan(topo, src, dst) == topo.hops(src, dst)
        node = src
        for hop in route:
            assert hop.src == node
            assert hop.dst in topo.neighbors(node)
            node = hop.dst
        assert node == dst

    @given(dims=dims_nd, wrap=st.booleans(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_dimension_order_monotone(self, dims, wrap, data):
        """Once a route starts correcting axis k, axes < k never change
        again -- the dimension-order property region slicing relies on."""
        topo = NDMeshTopology(dims, wrap=(wrap,) * len(dims))
        n = topo.num_nodes
        src = data.draw(st.integers(0, n - 1))
        dst = data.draw(st.integers(0, n - 1))
        highest_seen = -1
        for hop in topo.route(src, dst):
            a, b = topo.coordinates(hop.src), topo.coordinates(hop.dst)
            changed = [axis for axis in range(len(dims)) if a[axis] != b[axis]]
            assert len(changed) == 1
            assert changed[0] >= highest_seen
            highest_seen = changed[0]

    @given(size=st.integers(3, 9), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_odd_torus_wrap_shorter_ring(self, size, data):
        """On any ring (odd sizes included) the route takes the strictly
        shorter direction, wrapping through the dateline when needed."""
        topo = NDMeshTopology((size, 1), wrap=(True, True))
        src = data.draw(st.integers(0, size - 1))
        dst = data.draw(st.integers(0, size - 1))
        forward = (dst - src) % size
        backward = (src - dst) % size
        route = topo.route(src, dst)
        assert len(route) == min(forward, backward)
        wrapped = [h for h in route if abs(h.dst - h.src) > 1]
        assert len(wrapped) <= 1
        if wrapped:
            # Every hop after the dateline rides the escape class.
            after = route[route.index(wrapped[0]) + 1:]
            assert all(h.vclass == 1 for h in after)

    def test_scaled_links_carry_scale(self):
        spec = TopologySpec.parse("4x4x2:mesh:z=4.0")
        topo = spec.build()
        # 0 -> 16 is one +z hop: scale 4; in-plane hops keep scale 1.
        route_z = topo.route(0, 16)
        assert [h.scale for h in route_z] == [4.0]
        route_x = topo.route(0, 1)
        assert [h.scale for h in route_x] == [1.0]

    def test_scale_one_is_default(self):
        topo = TopologySpec.parse("4x4").build()
        assert all(
            h.scale == 1.0 for h in topo.route(0, topo.num_nodes - 1)
        )


# ---------------------------------------------------------------------------
# Route tables and compiled transfer plans
# ---------------------------------------------------------------------------

scales = st.sampled_from((1.0, 0.5, 2.0, 4.0))

#: One spec strategy per topology kind.
SPEC_STRATEGIES = {
    "mesh": st.builds(
        lambda dims, scale: TopologySpec(
            kind="mesh", dims=dims, link_scale=(1.0,) * (len(dims) - 1) + (scale,)
        ),
        dims_nd, scales,
    ),
    "torus": st.builds(lambda dims: TopologySpec(kind="torus", dims=dims), dims_nd),
    "hypercube": st.builds(
        lambda a, b: TopologySpec(kind="hypercube", dims=(2 ** a, 2 ** b)),
        st.integers(0, 3), st.integers(1, 3),
    ),
    "chiplet": st.builds(
        lambda dims, hubs, scale: TopologySpec(
            kind="chiplet", dims=dims, hubs=hubs, link_scale=(scale,) + (1.0,) * (len(dims) - 1)
        ),
        st.lists(st.integers(1, 3), min_size=2, max_size=3).map(tuple),
        st.integers(1, 3), scales,
    ),
}

any_spec = st.sampled_from(sorted(SPEC_STRATEGIES)).flatmap(lambda kind: SPEC_STRATEGIES[kind])


def _pairs(n):
    return st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1,
                    max_size=30)


def _fields(route):
    return [(h.src, h.dst, h.vclass, h.scale) for h in route]


class TestRouteTable:
    def test_every_registered_kind_is_covered(self):
        assert set(KINDS) <= set(SPEC_STRATEGIES)

    @given(spec=any_spec, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_entries_match_route(self, spec, data):
        topo = spec.build()
        for src, dst in data.draw(_pairs(topo.num_nodes)):
            entry = topo.routes.get(src, dst)
            assert type(entry) is tuple
            assert _fields(entry) == _fields(topo.route(src, dst))
            assert len(entry) == topo.hops(src, dst)
            assert topo.routes.get(src, dst) is entry

    @given(spec=any_spec)
    @settings(max_examples=40, deadline=None)
    def test_entries_share_interned_hops(self, spec):
        topo = spec.build()
        n = topo.num_nodes
        by_value = {}
        for src in range(n):
            for dst in range(n):
                for hop in topo.routes.get(src, dst):
                    assert by_value.setdefault(hop, hop) is hop
        assert len(topo.routes) == n * n

    @given(spec=any_spec, cap=st.integers(0, 12), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_full_table_stops_growing_and_still_answers(self, spec, cap, data):
        topo = spec.build()
        pairs = data.draw(_pairs(topo.num_nodes))
        with mock.patch.object(topology_module, "ROUTE_TABLE_CAP", cap):
            for src, dst in pairs + pairs:
                assert _fields(topo.routes.get(src, dst)) == _fields(topo.route(src, dst))
                assert len(topo.routes) <= cap
        assert len(topo.routes) == min(cap, len(set(pairs)))

    def test_yx_table_matches_route_yx(self):
        topo = TopologySpec.parse("4x3").build()
        for src in range(12):
            for dst in range(12):
                entry = topo.routes_yx.get(src, dst)
                assert _fields(entry) == _fields(topo.route_yx(src, dst))

    def test_table_is_per_instance(self):
        spec = TopologySpec.parse("4x4:torus")
        first, second = spec.build(), spec.build()
        first.routes.get(0, 5)
        assert len(first.routes) == 1 and len(second.routes) == 0


class TestAdaptivePlans:
    """Plans are compiled once per pair, but the XY/YX choice is made
    per message: YX only when XY's first channel (class 0) is busy and
    YX's first channel (class 1) is free."""

    @staticmethod
    def probe(xy_busy, yx_busy, dst=5):
        """Send 0 -> dst with the chosen first channels held, then again
        once they are free; returns how many messages took YX."""
        sim = Simulator()
        timeline = TimelineRecorder()
        net = MeshNetwork(
            sim,
            MeshConfig(spec="4x4", virtual_channels=2, routing="adaptive"),
            timeline=timeline,
        )
        # 0 -> 5: XY starts on channel 0->1 (class 0), YX on 0->4 (class 1).
        xy_first, yx_first = net.channel(0, 1, 0), net.channel(0, 4, 1)
        blocked = [xy_first] * xy_busy + [yx_first] * yx_busy

        def blocker(facility):
            yield request(facility)
            yield hold(50.0)
            yield release(facility)

        def prober():
            yield hold(1.0)
            yield from net.transfer(NetworkMessage(src=0, dst=dst, length_bytes=8))
            yield hold(100.0)  # blockers gone: same pair, same plans
            yield from net.transfer(NetworkMessage(src=0, dst=dst, length_bytes=8))

        for facility in blocked:
            sim.process(blocker(facility), name=f"block-{facility.name}")
        sim.process(prober(), name="prober")
        sim.run()
        assert len(net.log) == 2
        # Every message took exactly one of the two first channels: each
        # channel a message holds leaves one span on that channel's track
        # (the blockers, which are not messages, leave none).
        if dst == 5:
            events = timeline.to_dict()["traceEvents"]
            tracks = {
                event["args"]["name"]: event["tid"]
                for event in events
                if event["name"] == "thread_name" and event["pid"] == CHANNELS_PID
            }
            spans = [event["tid"] for event in events if event.get("cat") == "channel"]
            took_xy = spans.count(tracks["ch 0->1"])
            took_yx = spans.count(tracks["ch 0->4"])
            assert took_xy + took_yx == 2 and took_yx == net.adaptive_yx_taken
        return net.adaptive_yx_taken

    @pytest.mark.parametrize("xy_busy", [False, True])
    @pytest.mark.parametrize("yx_busy", [False, True])
    def test_yx_only_when_xy_busy_and_yx_free(self, xy_busy, yx_busy):
        assert self.probe(xy_busy, yx_busy) == int(xy_busy and not yx_busy)

    def test_same_first_channel_never_takes_yx(self):
        # 0 -> 3 runs along x only: both orders start on channel 0->1.
        assert self.probe(True, False, dst=3) == 0


class TestChipletRouting:
    def test_up_down_hub_route(self):
        topo = ChipletTopology((4, 4), hubs=2)
        # 3 (chiplet 0) -> 20 (chiplet 1, local 4): up to gateway 0,
        # hub hop to gateway 16, down to 20.
        route = topo.route(3, 20)
        assert route[0].src == 3
        assert route[-1].dst == 20
        gateways = {0, 16}
        hub_hops = [h for h in route if h.src in gateways and h.dst in gateways]
        assert len(hub_hops) == 1

    @given(hubs=st.integers(2, 4), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_up_down_deadlock_freedom(self, hubs, data):
        """No vclass-0 (up) hop ever follows a vclass-1 (down) hop, so
        the channel dependence graph is acyclic."""
        topo = ChipletTopology((3, 3), hubs=hubs)
        n = topo.num_nodes
        src = data.draw(st.integers(0, n - 1))
        dst = data.draw(st.integers(0, n - 1))
        route = topo.route(src, dst)
        node = src
        seen_down = False
        for hop in route:
            assert hop.src == node
            assert hop.dst in topo.neighbors(node)
            if hop.vclass == 1:
                seen_down = True
            elif seen_down:
                pytest.fail(f"up hop after down hop in {route}")
            node = hop.dst
        assert node == dst

    def test_required_vclasses(self):
        cfg = MeshConfig.parse("chiplet(4x4,hubs=2)")
        assert cfg.virtual_channels >= 2

    def test_same_chiplet_stays_local(self):
        topo = ChipletTopology((4, 4), hubs=2)
        for hop in topo.route(17, 30):
            assert topo.chiplet_of(hop.src) == topo.chiplet_of(hop.dst) == 1
