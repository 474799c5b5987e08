"""Tests for the classic synthetic traffic patterns."""

import numpy as np
import pytest

from repro.core.run import run_pattern
from repro.mesh import (
    BitComplementTraffic,
    BitReversalTraffic,
    HotspotTraffic,
    MeshConfig,
    TransposeTraffic,
    UniformTraffic,
    make_pattern,
)

RNG = np.random.default_rng(9)


class TestPermutationPatterns:
    def test_bit_complement(self):
        pattern = BitComplementTraffic(8)
        assert pattern.destination(0, RNG) == 7
        assert pattern.destination(3, RNG) == 4
        assert pattern.destination(5, RNG) == 2

    def test_bit_complement_needs_power_of_two(self):
        with pytest.raises(ValueError):
            BitComplementTraffic(6)

    def test_bit_reversal(self):
        pattern = BitReversalTraffic(8)
        assert pattern.destination(0b001, RNG) == 0b100
        assert pattern.destination(0b110, RNG) == 0b011
        assert pattern.destination(0b111, RNG) == 0b111

    def test_transpose(self):
        pattern = TransposeTraffic(16)  # 4x4
        # (1, 2) -> (2, 1): node 9 -> node 6.
        assert pattern.destination(9, RNG) == 6
        # Diagonal maps to itself.
        assert pattern.destination(5, RNG) == 5

    def test_transpose_needs_square(self):
        with pytest.raises(ValueError):
            TransposeTraffic(8)

    def test_permutations_are_bijections(self):
        for pattern in (BitComplementTraffic(16), BitReversalTraffic(16),
                        TransposeTraffic(16)):
            dests = {pattern.destination(s, RNG) for s in range(16)}
            assert dests == set(range(16)), pattern.name


class TestProbabilisticPatterns:
    def test_uniform_never_self(self):
        pattern = UniformTraffic(8)
        draws = [pattern.destination(3, RNG) for _ in range(500)]
        assert 3 not in draws
        assert set(draws) == set(range(8)) - {3}

    def test_uniform_is_balanced(self):
        pattern = UniformTraffic(8)
        rng = np.random.default_rng(1)
        counts = np.zeros(8)
        for _ in range(7000):
            counts[pattern.destination(0, rng)] += 1
        assert counts[0] == 0
        assert counts[1:].std() < counts[1:].mean() * 0.15

    def test_hotspot_concentration(self):
        pattern = HotspotTraffic(8, hotspot=2, fraction=0.5)
        rng = np.random.default_rng(2)
        draws = [pattern.destination(0, rng) for _ in range(4000)]
        hot_fraction = draws.count(2) / len(draws)
        # 0.5 direct + ~1/7 of the uniform remainder.
        assert hot_fraction == pytest.approx(0.5 + 0.5 / 7, abs=0.05)

    def test_hotspot_source_is_hotspot(self):
        pattern = HotspotTraffic(8, hotspot=2, fraction=0.5)
        draws = [pattern.destination(2, RNG) for _ in range(200)]
        assert 2 not in draws

    def test_hotspot_validation(self):
        with pytest.raises(ValueError):
            HotspotTraffic(8, hotspot=9)
        with pytest.raises(ValueError):
            HotspotTraffic(8, fraction=1.5)


class TestFactoryAndHarness:
    def test_make_pattern(self):
        assert make_pattern("uniform", 8).name == "uniform"
        assert make_pattern("hotspot", 8, fraction=0.2).fraction == 0.2
        with pytest.raises(ValueError):
            make_pattern("zipf", 8)

    def test_run_pattern_produces_log(self):
        log = run_pattern(
            MeshConfig(), pattern="uniform", messages_per_source=20, seed=5
        ).log
        assert len(log) == 160
        assert log.mean_latency() > 0

    def test_transpose_skips_self_messages(self):
        log = run_pattern(
            MeshConfig("4x4"), pattern="transpose", messages_per_source=10
        ).log
        # Four diagonal nodes send nothing.
        assert len(log) == (16 - 4) * 10
        for record in log:
            assert record.src != record.dst

    def test_bit_complement_latency_exceeds_uniform(self):
        # Bit-complement maximizes distance on the mesh.
        config = MeshConfig("4x4")
        uniform_log = run_pattern(
            config, pattern="uniform", messages_per_source=30, seed=3
        ).log
        complement_log = run_pattern(
            config, pattern="bit-complement", messages_per_source=30, seed=3
        ).log
        assert complement_log.mean_latency() > uniform_log.mean_latency()

    def test_harness_validation(self):
        with pytest.raises(ValueError):
            run_pattern(MeshConfig(), pattern="uniform", messages_per_source=0)
        with pytest.raises(ValueError):
            run_pattern(MeshConfig(), pattern="uniform", mean_gap=0)
        # A pattern that does not fit the network (transpose on 4x2).
        with pytest.raises(ValueError):
            run_pattern(MeshConfig("4x2"), pattern="transpose")

    def test_pattern_needs_two_nodes(self):
        with pytest.raises(ValueError):
            UniformTraffic(1)


class TestNewPatterns:
    def test_tornado_2d(self):
        from repro.mesh import TornadoTraffic

        # 4x4: each coordinate moves by ceil(4/2)-1 = 1 in every dim.
        pattern = TornadoTraffic(16, dims=(4, 4))
        assert pattern.destination(0, RNG) == 5  # (0,0) -> (1,1)
        assert pattern.destination(15, RNG) == 0  # (3,3) -> (0,0)

    def test_tornado_defaults_to_square(self):
        from repro.mesh import TornadoTraffic

        pattern = TornadoTraffic(16)
        assert pattern.destination(0, RNG) == TornadoTraffic(16, dims=(4, 4)).destination(0, RNG)

    def test_tornado_is_a_bijection(self):
        from repro.mesh import TornadoTraffic

        pattern = TornadoTraffic(24, dims=(6, 4))
        dests = {pattern.destination(s, RNG) for s in range(24)}
        assert dests == set(range(24))

    def test_neighbor_exchange(self):
        from repro.mesh import NeighborTraffic

        pattern = NeighborTraffic(16, dims=(4, 4))
        assert pattern.destination(0, RNG) == 1
        assert pattern.destination(3, RNG) == 0  # wraps the first axis

    def test_shuffle_rotates_bits(self):
        from repro.mesh import ShuffleTraffic

        pattern = ShuffleTraffic(8)
        # 0b001 -> 0b010, 0b100 -> 0b001, 0b110 -> 0b101
        assert pattern.destination(1, RNG) == 2
        assert pattern.destination(4, RNG) == 1
        assert pattern.destination(6, RNG) == 5

    def test_shuffle_needs_power_of_two(self):
        from repro.mesh import ShuffleTraffic

        with pytest.raises(ValueError):
            ShuffleTraffic(12)

    def test_transpose_palindromic_dims(self):
        pattern = TransposeTraffic(16, dims=(2, 4, 2))
        dests = {pattern.destination(s, RNG) for s in range(16)}
        assert dests == set(range(16))

    def test_transpose_rejects_non_palindromic(self):
        with pytest.raises(ValueError, match="palindromic"):
            TransposeTraffic(8, dims=(4, 2))

    def test_dims_must_match_node_count(self):
        from repro.mesh import TornadoTraffic

        with pytest.raises(ValueError):
            TornadoTraffic(16, dims=(3, 4))


class TestPatternRegistry:
    def test_registered_names(self):
        from repro.mesh import registered_patterns

        assert registered_patterns() == (
            "bit-complement", "bit-reversal", "hotspot", "neighbor",
            "shuffle", "tornado", "transpose", "uniform",
        )

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="registered"):
            make_pattern("zipf", 16)

    def test_unknown_kwarg_names_accepted(self):
        with pytest.raises(ValueError, match="accepted"):
            make_pattern("hotspot", 16, temperature=3)

    def test_pattern_for_config_injects_dims(self):
        from repro.mesh import pattern_for_config

        cfg = MeshConfig(spec="2x8:mesh")
        pattern = pattern_for_config("tornado", cfg)
        # (0,0) -> (0, 3) on the 2x8 grid, not the square default.
        assert pattern.destination(0, RNG) == 6

    def test_pattern_for_config_hierarchical_falls_back(self):
        from repro.mesh import pattern_for_config

        cfg = MeshConfig.parse("chiplet(4x4,hubs=4)")
        pattern = pattern_for_config("transpose", cfg)
        assert pattern.num_nodes == 64


class TestHotspotSelfSend:
    def test_hotspot_source_never_sends_to_itself(self):
        # The hotspot node itself draws from the uniform background; a
        # redraw must kick in whenever that lands on the source.
        pattern = HotspotTraffic(8, hotspot=3, fraction=0.9)
        rng = np.random.default_rng(123)
        for _ in range(500):
            assert pattern.destination(3, rng) != 3

    def test_all_sources_never_self_send(self):
        pattern = HotspotTraffic(4, hotspot=0, fraction=0.5)
        rng = np.random.default_rng(7)
        for src in range(4):
            for _ in range(200):
                assert pattern.destination(src, rng) != src
