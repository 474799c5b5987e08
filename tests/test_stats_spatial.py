"""Tests for the discrete spatial pattern models and classifier."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh import TopologySpec
from repro.stats import (
    BimodalUniformPattern,
    LocalityDecayPattern,
    UniformPattern,
    classify_spatial,
)
from repro.stats.spatial_models import choice_sampler

RNG = np.random.default_rng(5)
MESH_4X2 = TopologySpec.parse("4x2").build()


def hop_row(src, topology=MESH_4X2):
    """``topology.hops(src, n)`` for every node ``n``."""
    return tuple(topology.hops(src, n) for n in range(topology.num_nodes))


class TestUniformPattern:
    def test_excludes_self(self):
        pattern = UniformPattern()
        fracs = pattern.fractions(src=2, num_nodes=8)
        assert fracs[2] == 0.0
        assert fracs.sum() == pytest.approx(1.0)
        others = np.delete(fracs, 2)
        assert np.allclose(others, 1.0 / 7)

    def test_include_self(self):
        pattern = UniformPattern(include_self=True)
        fracs = pattern.fractions(src=0, num_nodes=4)
        assert np.allclose(fracs, 0.25)

    def test_single_node_rejected(self):
        with pytest.raises(ValueError):
            UniformPattern().fractions(src=0, num_nodes=1)

    def test_sample_destination_never_self(self):
        pattern = UniformPattern()
        draws = {pattern.sample_destination(0, 8, RNG) for _ in range(200)}
        assert 0 not in draws
        assert draws <= set(range(1, 8))


class TestBimodalUniformPattern:
    def test_favorite_gets_mass(self):
        pattern = BimodalUniformPattern(favorite=3, p_favorite=0.6)
        fracs = pattern.fractions(src=0, num_nodes=8)
        assert fracs[3] == pytest.approx(0.6)
        assert fracs[0] == 0.0
        assert fracs.sum() == pytest.approx(1.0)
        others = [fracs[i] for i in range(8) if i not in (0, 3)]
        assert np.allclose(others, (1 - 0.6) / 6)

    def test_source_is_favorite_degenerates_to_uniform(self):
        pattern = BimodalUniformPattern(favorite=0, p_favorite=0.5)
        fracs = pattern.fractions(src=0, num_nodes=4)
        assert fracs[0] == 0.0
        assert np.allclose(fracs[1:], 1.0 / 3)

    def test_bad_p_rejected(self):
        with pytest.raises(ValueError):
            BimodalUniformPattern(favorite=0, p_favorite=0.0)

    def test_favorite_out_of_range(self):
        pattern = BimodalUniformPattern(favorite=9, p_favorite=0.5)
        with pytest.raises(ValueError):
            pattern.fractions(src=0, num_nodes=8)


class TestLocalityDecayPattern:
    def test_zero_decay_is_uniform(self):
        pattern = LocalityDecayPattern(decay=0.0, hops=hop_row(0))
        fracs = pattern.fractions(src=0, num_nodes=8)
        assert np.allclose(np.delete(fracs, 0), 1.0 / 7)

    def test_strong_decay_prefers_neighbors(self):
        pattern = LocalityDecayPattern(decay=3.0, hops=hop_row(0))
        fracs = pattern.fractions(src=0, num_nodes=8)
        # Node 1 and node 4 are the 1-hop neighbours of node 0.
        assert fracs[1] > fracs[2] > fracs[3]
        assert fracs[4] > fracs[5]

    def test_wrong_node_count_rejected(self):
        pattern = LocalityDecayPattern(decay=1.0, hops=hop_row(0))
        with pytest.raises(ValueError):
            pattern.fractions(src=0, num_nodes=9)

    def test_other_sources_hop_row_rejected(self):
        pattern = LocalityDecayPattern(decay=1.0, hops=hop_row(0))
        with pytest.raises(ValueError, match="hop row"):
            pattern.fractions(src=1, num_nodes=8)

    def test_negative_decay_rejected(self):
        with pytest.raises(ValueError):
            LocalityDecayPattern(decay=-1.0, hops=hop_row(0))


class TestClassifier:
    def test_classifies_uniform(self):
        observed = UniformPattern().fractions(src=0, num_nodes=8)
        fits = classify_spatial(observed, src=0, hops=hop_row(0))
        assert fits[0].name == "uniform"
        assert fits[0].r2 == pytest.approx(1.0)

    def test_classifies_favorite_processor(self):
        observed = BimodalUniformPattern(favorite=5, p_favorite=0.7).fractions(
            src=0, num_nodes=8
        )
        fits = classify_spatial(observed, src=0, hops=hop_row(0))
        assert fits[0].name == "bimodal-uniform"
        assert fits[0].pattern.favorite == 5
        assert fits[0].pattern.p_favorite == pytest.approx(0.7)
        assert fits[0].r2 > 0.99

    def test_classifies_locality(self):
        observed = LocalityDecayPattern(decay=2.0, hops=hop_row(0)).fractions(
            src=0, num_nodes=8
        )
        fits = classify_spatial(observed, src=0, hops=hop_row(0))
        assert fits[0].name == "locality-decay"
        assert fits[0].r2 > 0.98

    def test_noisy_uniform_not_called_bimodal(self):
        rng = np.random.default_rng(99)
        counts = rng.multinomial(500, UniformPattern().fractions(src=0, num_nodes=8))
        observed = counts / counts.sum()
        fits = classify_spatial(observed, src=0, hops=hop_row(0))
        assert fits[0].name == "uniform"

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            classify_spatial(np.zeros(8), src=0, hops=hop_row(0))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            classify_spatial(np.ones(6) / 6, src=0, hops=hop_row(0))

    def test_describe_lines(self):
        observed = UniformPattern().fractions(src=1, num_nodes=8)
        fits = classify_spatial(observed, src=1, hops=hop_row(1))
        assert "R2=" in fits[0].describe()

    def test_mesh_fit_is_pinned(self):
        """On the 2-D mesh, route lengths are the flattened-grid
        distances, so every fit keeps its recorded value bit for bit."""
        counts = np.array([3, 10, 3, 1, 9, 0, 11, 4], dtype=float)
        fits = classify_spatial(counts / counts.sum(), src=5, hops=hop_row(5))
        assert [(fit.name, fit.r2) for fit in fits] == [
            ("locality-decay", 0.9788782602586124),
            ("bimodal-uniform", 0.47980295566502473),
            ("uniform", 0.23659394792399735),
            ("butterfly", -1.0544460688910196),
        ]
        assert fits[0].pattern.decay == 1.1


class TestChoiceSampler:
    """``choice_sampler`` must be ``Generator.choice`` with the CDF hoisted."""

    @settings(max_examples=150, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), min_size=1, max_size=40
        ).filter(lambda w: sum(w) > 0),
        seed=st.integers(0, 2**32 - 1),
        as_array=st.booleans(),
        draws=st.integers(1, 60),
    )
    def test_draws_equal_rng_choice(self, weights, seed, as_array, draws):
        p = np.array(weights) / np.sum(weights)
        a = np.arange(100, 100 + 3 * p.size, 3) if as_array else p.size
        draw = choice_sampler(a, p)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(draws):
            got, want = draw(ours), theirs.choice(a, p=p)
            assert got == want
            assert type(got) is int
            assert p[(got - 100) // 3 if as_array else got] > 0
        # Same generator state afterwards: one uniform per draw, as choice.
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize(
        "a, p",
        [
            (3, [0.5, 0.5]),  # size mismatch
            (2, [1.5, -0.5]),  # negative entry
            (2, [0.5, float("nan")]),
            (2, [0.5, 0.4]),  # does not sum to 1
            (0, []),
            (2, [[0.5, 0.5]]),  # not 1-D
        ],
    )
    def test_rejects_what_choice_rejects(self, a, p):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(a, p=p)
        with pytest.raises(ValueError):
            choice_sampler(a, p)

    def test_sample_destination_matches_rng_choice(self):
        pattern = BimodalUniformPattern(favorite=3, p_favorite=0.6)
        probs = pattern.fractions(0, 8)
        ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(50):
            want = theirs.choice(8, p=probs / probs.sum())
            assert pattern.sample_destination(0, 8, ours) == want
