"""Property-based tests (hypothesis) over the core data structures.

Invariants exercised here are the load-bearing assumptions of the
simulation stack: event ordering, facility conservation, cache
geometry, block mapping, routing validity, wormhole latency lower
bounds, distribution self-consistency, trace bookkeeping.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.coherence import BlockMap, Cache, CacheState
from repro.mesh import MeshConfig, MeshNetwork, NetworkMessage
from repro.simkernel import Facility, Simulator, hold, release, request
from repro.stats import (
    Exponential,
    Gamma,
    Hyperexponential2,
    Uniform,
    Weibull,
    build_histogram,
    ks_statistic,
)
from repro.trace import TraceLog


class TestSimkernelProperties:
    @settings(max_examples=30, deadline=None)
    @given(durations=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20))
    def test_clock_is_monotone_and_ends_at_total(self, durations):
        sim = Simulator()
        observed = []

        def proc():
            for d in durations:
                yield hold(d)
                observed.append(sim.now)

        sim.process(proc(), name="p")
        sim.run()
        assert observed == sorted(observed)
        assert observed[-1] == pytest.approx(sum(durations))

    @settings(max_examples=30, deadline=None)
    @given(
        n_users=st.integers(1, 12),
        service=st.floats(0.1, 10.0),
    )
    def test_facility_serializes_exactly(self, n_users, service):
        """Single-server facility: total busy time = n * service and no
        two holders overlap."""
        sim = Simulator()
        fac = Facility(sim, name="f")
        spans = []

        def user():
            yield request(fac)
            start = sim.now
            yield hold(service)
            yield release(fac)
            spans.append((start, sim.now))

        for _ in range(n_users):
            sim.process(user(), name="u")
        end = sim.run()
        assert end == pytest.approx(n_users * service)
        spans.sort()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert s2 >= e1 - 1e-9  # no overlap

    @settings(max_examples=20, deadline=None)
    @given(
        servers=st.integers(1, 4),
        n_users=st.integers(1, 16),
    )
    def test_multiserver_facility_capacity_never_exceeded(self, servers, n_users):
        sim = Simulator()
        fac = Facility(sim, name="f", servers=servers)
        concurrency = []

        def user():
            yield request(fac)
            concurrency.append(fac.busy)
            yield hold(1.0)
            yield release(fac)

        for _ in range(n_users):
            sim.process(user(), name="u")
        sim.run()
        assert max(concurrency) <= servers
        assert len(concurrency) == n_users


class TestCacheProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        lines=st.sampled_from([2, 4, 8, 16]),
        assoc=st.sampled_from([1, 2, 4]),
        blocks=st.lists(st.integers(0, 100), min_size=1, max_size=200),
    )
    def test_occupancy_never_exceeds_capacity(self, lines, assoc, blocks):
        assume(assoc <= lines and lines % assoc == 0)
        cache = Cache(lines=lines, associativity=assoc)
        for block in blocks:
            cache.insert(block, CacheState.SHARED)
            assert cache.occupancy <= lines
            # A just-inserted block is always resident.
            assert cache.peek(block) is CacheState.SHARED

    @settings(max_examples=30, deadline=None)
    @given(blocks=st.lists(st.integers(0, 50), min_size=1, max_size=100))
    def test_hits_plus_misses_equals_lookups(self, blocks):
        cache = Cache(lines=8, associativity=2)
        for block in blocks:
            state = cache.lookup(block)
            if state is None:
                cache.insert(block, CacheState.SHARED)
        assert cache.hits + cache.misses == len(blocks)


class TestBlockMapProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        block_words=st.integers(1, 64),
        num_nodes=st.integers(1, 64),
        address=st.integers(0, 10_000),
    )
    def test_address_within_its_block_range(self, block_words, num_nodes, address):
        bm = BlockMap(block_words, num_nodes)
        block = bm.block_of(address)
        start, end = bm.block_range(block)
        assert start <= address < end
        assert 0 <= bm.home_of(block) < num_nodes

    @settings(max_examples=20, deadline=None)
    @given(
        block=st.integers(0, 1000),
        node=st.integers(0, 7),
    )
    def test_home_override_sticks(self, block, node):
        bm = BlockMap(8, 8)
        bm.set_home(block, node)
        assert bm.home_of(block) == node


class TestMeshProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(["mesh", "torus", "hypercube"]),
        data=st.data(),
    )
    def test_single_message_latency_equals_zero_load(self, name, data):
        config = MeshConfig.parse(f"4x2:{name}")
        src = data.draw(st.integers(0, 7))
        dst = data.draw(st.integers(0, 7))
        nbytes = data.draw(st.integers(0, 256))
        sim = Simulator()
        net = MeshNetwork(sim, config)
        net.inject(NetworkMessage(src=src, dst=dst, length_bytes=nbytes))
        sim.run()
        (record,) = net.log.records
        assert record.latency == pytest.approx(
            config.zero_load_latency(record.hops, nbytes)
        )
        assert record.contention == 0.0

    @settings(max_examples=20, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=25
        )
    )
    def test_all_messages_always_delivered(self, pairs):
        """No deadlock, no loss, and latency >= zero-load, whatever the
        traffic mix."""
        config = MeshConfig("4x2")
        sim = Simulator()
        net = MeshNetwork(sim, config)
        for s, d in pairs:
            net.inject(NetworkMessage(src=s, dst=d, length_bytes=32))
        sim.run()
        assert len(net.log) == len(pairs)
        assert net.in_flight == 0
        for record in net.log:
            floor = config.zero_load_latency(record.hops, record.length_bytes)
            assert record.latency >= floor - 1e-9
            assert record.latency == pytest.approx(floor + record.contention)

    @settings(max_examples=20, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=25
        )
    )
    def test_torus_never_deadlocks(self, pairs):
        config = MeshConfig("4x2:torus", virtual_channels=2)
        sim = Simulator()
        net = MeshNetwork(sim, config)
        for s, d in pairs:
            net.inject(NetworkMessage(src=s, dst=d, length_bytes=64))
        sim.run()
        assert len(net.log) == len(pairs)


class TestDistributionProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        dist=st.sampled_from(
            [
                Exponential(rate=0.5),
                Gamma(shape=2.0, scale=3.0),
                Weibull(shape=1.3, scale=2.0),
                Uniform(low=1.0, width=4.0),
                Hyperexponential2(p=0.3, rate1=2.0, rate2=0.2),
            ]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_own_samples_pass_ks(self, dist, seed):
        sample = dist.sample(np.random.default_rng(seed), 4000)
        assert ks_statistic(sample, dist) < 0.05

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        policy=st.sampled_from(["equal-width", "equal-mass"]),
    )
    def test_histogram_mass_conserved(self, seed, policy):
        data = np.random.default_rng(seed).exponential(3.0, 500)
        hist = build_histogram(data, policy=policy)
        assert hist.total == 500
        assert float(np.sum(hist.density * hist.widths)) == pytest.approx(1.0)


class TestTraceProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.integers(0, 3),            # src
                st.integers(0, 3),            # dst
                st.integers(0, 4096),         # bytes
                st.floats(0.0, 1000.0),       # inter-post delta
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_gaps_reconstruct_post_times(self, events):
        trace = TraceLog()
        clock = 0.0
        for src, dst, nbytes, delta in events:
            clock += delta
            trace.record(
                src=src, dst=dst, length_bytes=nbytes, kind="p2p", tag=0,
                post_time=clock,
            )
        # Per source, cumulative gaps rebuild the post times exactly.
        for src in trace.sources():
            series = trace.by_source(src)
            rebuilt = 0.0
            for event in series:
                rebuilt += event.gap
                assert rebuilt == pytest.approx(event.post_time)
