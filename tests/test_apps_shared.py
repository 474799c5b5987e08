"""Tests for the five shared-memory applications.

Each application computes a real result verified against an independent
reference inside ``run()``; these tests also pin the communication
*structure* the paper reports (butterfly partners for FFT, favorite
processor for IS/Cholesky, broad sharing for Nbody, graph-driven
traffic for Maxflow).
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps import create_app
from repro.apps.base import partition
from repro.apps.shared.cholesky import CholeskyApp, make_sparse_spd
from repro.apps.shared.fft1d import FFT1DApp, _bit_reverse
from repro.apps.shared.is_sort import IntegerSortApp
from repro.apps.shared.maxflow import MaxflowApp, make_flow_network, reference_max_flow
from repro.apps.shared.nbody import NbodyApp


class TestPartition:
    def test_covers_everything_once(self):
        pieces = [list(partition(100, 8, p)) for p in range(8)]
        flat = [i for piece in pieces for i in piece]
        assert flat == list(range(100))

    def test_balanced(self):
        sizes = [len(partition(100, 8, p)) for p in range(8)]
        assert max(sizes) - min(sizes) <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            partition(10, 0, 0)
        with pytest.raises(ValueError):
            partition(10, 4, 4)


class TestFFT1D:
    def test_bit_reverse(self):
        assert _bit_reverse(0b001, 3) == 0b100
        assert _bit_reverse(0b110, 3) == 0b011
        assert [_bit_reverse(i, 2) for i in range(4)] == [0, 2, 1, 3]

    def test_computes_correct_fft(self):
        app = FFT1DApp(n=64)
        app.run()  # verify() inside compares against numpy.fft.fft
        assert app.result is not None

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            FFT1DApp(n=100)

    def test_rejects_n_not_multiple_of_p(self):
        app = FFT1DApp(n=4)  # 4 < 8 processors
        with pytest.raises(ValueError):
            app.run()

    def test_butterfly_spatial_pattern(self):
        app = FFT1DApp(n=128)
        sim = app.run()
        # Every processor's remote traffic goes only to XOR partners.
        for src in range(8):
            fracs = sim.log.destination_fractions(src, 8)
            partners = {src ^ 1, src ^ 2, src ^ 4}
            for dst in range(8):
                if dst in partners or dst == src:
                    continue
                # Non-partner traffic only from spread barrier homes.
                assert fracs[dst] < 0.25

    def test_local_phases_generate_no_early_remote_traffic(self):
        app = FFT1DApp(n=128)
        sim = app.run()
        # Stage spans 1..8 are chunk-internal for n=128, P=8 (chunk=16):
        # the earliest messages should be barrier traffic, not data.
        kinds = sim.log.kinds()
        assert "rd_req" in kinds  # remote stages did communicate


class TestIntegerSort:
    def test_ranks_sort_the_keys(self):
        IntegerSortApp(n=512, buckets=32).run()

    def test_favorite_processor_is_p0(self):
        app = IntegerSortApp(n=512, buckets=32)
        sim = app.run()
        for src in range(1, 8):
            fracs = sim.log.destination_fractions(src, 8)
            assert np.argmax(fracs) == 0, f"p{src}'s favorite is not p0"
            assert fracs[0] > 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            IntegerSortApp(n=0)
        with pytest.raises(ValueError):
            IntegerSortApp(n=16, buckets=0)

    def test_different_seeds_still_sort(self):
        IntegerSortApp(n=256, buckets=16, seed=99).run()


class TestNbody:
    def test_matches_serial_reference(self):
        NbodyApp(n=32, steps=2).run()

    def test_broad_read_sharing(self):
        app = NbodyApp(n=32, steps=2)
        sim = app.run()
        # Every processor talks to most others (near-uniform pattern).
        for src in range(8):
            fracs = sim.log.destination_fractions(src, 8)
            talked_to = (fracs > 0).sum()
            assert talked_to >= 5

    def test_validation(self):
        with pytest.raises(ValueError):
            NbodyApp(n=1)
        with pytest.raises(ValueError):
            NbodyApp(n=16, steps=0)


class TestCholesky:
    def test_spd_generator(self):
        matrix = make_sparse_spd(16, 0.2, seed=1)
        assert np.allclose(matrix, matrix.T)
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert eigenvalues.min() > 0

    def test_factorization_correct(self):
        CholeskyApp(n=24, density=0.2).run()

    def test_task_queue_makes_p0_prominent(self):
        app = CholeskyApp(n=24, density=0.2)
        sim = app.run()
        skewed = 0
        for src in range(1, 8):
            fracs = sim.log.destination_fractions(src, 8)
            if np.argmax(fracs) == 0:
                skewed += 1
        assert skewed >= 4, "central task queue should make p0 the modal target"

    def test_validation(self):
        with pytest.raises(ValueError):
            CholeskyApp(n=1)
        with pytest.raises(ValueError):
            CholeskyApp(n=16, density=2.0)


def min_cut_by_enumeration(n, edges, source, sink):
    """Smallest capacity leaving any node set that holds the source and
    not the sink: the max-flow value, by the max-flow min-cut theorem."""
    others = [v for v in range(n) if v not in (source, sink)]
    cuts = []
    for mask in range(2 ** len(others)):
        side = {source} | {v for i, v in enumerate(others) if mask >> i & 1}
        cuts.append(sum(c for u, v, c in edges if u in side and v not in side))
    return min(cuts)


@st.composite
def flow_networks(draw):
    """(node count, edges) with source 0 and sink n - 1; edges may be
    parallel, antiparallel, self-loops or of zero capacity."""
    n = draw(st.integers(2, 7))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, st.integers(0, 20)), max_size=16))
    return n, edges


class TestMaxflow:
    def test_network_generator_has_st_path(self):
        edges, s, t = make_flow_network(16, 20, 10, seed=3)
        successors = {}
        for u, v, _ in edges:
            successors.setdefault(u, []).append(v)
        reached, frontier = {s}, deque([s])
        while frontier:
            for v in successors.get(frontier.popleft(), []):
                if v not in reached:
                    reached.add(v)
                    frontier.append(v)
        assert t in reached
        assert reference_max_flow(edges, s, t) > 0

    @settings(max_examples=200, deadline=None)
    @given(flow_networks())
    # BFS first augments 0-1-3-5, which takes an edge from each of the
    # disjoint paths 0-1-4-5 and 0-2-3-5; the second unit must cancel
    # 1->3 through its reverse residual arc (0-2-3-1-4-5).
    @example((6, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (1, 4, 1), (3, 5, 1), (4, 5, 1), (2, 3, 1)]))
    def test_reference_equals_min_cut(self, network):
        n, edges = network
        assert reference_max_flow(edges, 0, n - 1) == min_cut_by_enumeration(
            n, edges, 0, n - 1
        )

    def test_verify_rejects_a_wrong_flow(self):
        app = MaxflowApp(n=8, extra_edges=4, seed=2)
        app.run()
        app.excess.poke(app.sink, app.flow_value + 1)
        with pytest.raises(AssertionError, match="push-relabel found flow"):
            app.verify()

    def test_finds_maximum_flow(self):
        app = MaxflowApp(n=16, extra_edges=24, seed=5)
        app.run()
        assert app.flow_value is not None and app.flow_value > 0

    def test_another_instance(self):
        MaxflowApp(n=12, extra_edges=16, seed=11).run()

    def test_network_generator_validation(self):
        with pytest.raises(ValueError):
            make_flow_network(2, 0, 10, seed=1)


class TestRegistry:
    def test_create_known_apps(self):
        app = create_app("1d-fft", n=64)
        assert isinstance(app, FFT1DApp)
        assert app.n == 64

    def test_unknown_app_rejected(self):
        with pytest.raises(KeyError):
            create_app("quicksort")
