"""Tests for the characterization core: attributes, analyses, pipelines,
synthetic generation and validation."""

import dataclasses

import numpy as np
import pytest

from repro.apps.shared.fft1d import FFT1DApp
from repro.apps.shared.is_sort import IntegerSortApp
from repro.apps.mp.fft3d import FFT3DApp
from repro.core import (
    SyntheticTrafficGenerator,
    analyze_spatial,
    analyze_temporal,
    analyze_volume,
    characterize_log,
    characterize_message_passing,
    characterize_shared_memory,
    compare_logs,
)
from repro.core.report import spatial_table, temporal_table, volume_table
from repro.mesh import MeshConfig, MeshNetwork, NetworkMessage
from repro.simkernel import Simulator, hold

TOPOLOGY_4X2 = MeshConfig("4x2").make_topology()


def synthetic_log(gaps_by_source, mesh=MeshConfig(), lengths=64):
    """Drive a small mesh with deterministic per-source gaps."""
    sim = Simulator()
    net = MeshNetwork(sim, mesh)
    for src, (gap, dsts) in gaps_by_source.items():
        def source(src=src, gap=gap, dsts=dsts):
            for dst in dsts:
                yield hold(gap)
                yield from net.transfer(
                    NetworkMessage(src=src, dst=dst, length_bytes=lengths)
                )
        sim.process(source(), name=f"s{src}")
    sim.run()
    return net.log


class TestAnalyses:
    def test_temporal_on_poisson_like_log(self):
        rng = np.random.default_rng(0)
        log = synthetic_log(
            {s: (float(rng.uniform(5, 15)), list(rng.integers(0, 8, 60))) for s in range(8)}
        )
        temporal = analyze_temporal(log)
        assert temporal.sample_size > 100
        assert temporal.rate > 0
        assert 0 <= temporal.fit.ks <= 1
        assert "rate=" in temporal.describe()

    def test_temporal_per_source(self):
        log = synthetic_log({s: (10.0, [(s + 1) % 8] * 40) for s in range(8)})
        temporal = analyze_temporal(log, per_source=True)
        assert set(temporal.per_source_fits) == set(range(8))
        # Deterministic per-source gaps -> deterministic fits.
        assert all(
            f.name == "deterministic" for f in temporal.per_source_fits.values()
        )

    def test_temporal_requires_enough_data(self):
        log = synthetic_log({0: (5.0, [1])})
        with pytest.raises(ValueError):
            analyze_temporal(log)

    def test_spatial_identifies_uniform(self):
        rng = np.random.default_rng(1)
        dsts = {s: [int(d) for d in rng.integers(0, 8, 700) if d != s] for s in range(8)}
        log = synthetic_log({s: (3.0, dsts[s]) for s in range(8)})
        spatial = analyze_spatial(log, TOPOLOGY_4X2)
        assert spatial.dominant_pattern == "uniform"
        assert spatial.fraction_matrix.shape == (8, 8)

    def test_spatial_identifies_favorite(self):
        log = synthetic_log({s: (3.0, [0] * 30) for s in range(1, 8)})
        spatial = analyze_spatial(log, TOPOLOGY_4X2)
        for src in range(1, 8):
            assert spatial.favorite_of(src) == 0
        assert spatial.dominant_pattern == "bimodal-uniform"

    def test_spatial_empty_log_rejected(self):
        log = synthetic_log({})
        with pytest.raises(ValueError):
            analyze_spatial(log, TOPOLOGY_4X2)

    @pytest.mark.parametrize("spec, src, dst, route_hops", [
        ("4x4:torus", 0, 3, 1),
        ("4x4x2", 0, 16, 1),
        ("4x2:hypercube", 0, 3, 2),
        ("chiplet(2x2,hubs=2)", 0, 4, 1),
    ])
    def test_spatial_locality_uses_route_lengths(self, spec, src, dst, route_hops):
        """The locality model's distance is the route length, not a
        flattened 2-D grid distance (3, 4, 3 and 2 hops for these pairs)."""
        config = MeshConfig.parse(spec)
        topology = config.make_topology()
        hops = [topology.hops(src, n) for n in range(config.num_nodes)]
        # Traffic that halves with every hop of route length.
        dsts = [n for n in range(config.num_nodes) if n != src
                for _ in range(2 ** (max(hops) - hops[n]))]
        log = synthetic_log({src: (3.0, dsts)}, mesh=config)
        fit = analyze_spatial(log, topology).per_source[src]
        assert fit.name == "locality-decay"
        assert list(fit.pattern.hops) == hops
        assert fit.pattern.hops[dst] == route_hops
        assert fit.r2 > 0.99

    def test_volume_length_modes(self):
        sim = Simulator()
        net = MeshNetwork(sim, MeshConfig())

        def source():
            for i in range(30):
                yield hold(5.0)
                yield from net.transfer(
                    NetworkMessage(src=0, dst=1, length_bytes=8 if i % 3 else 64)
                )

        sim.process(source(), name="s")
        sim.run()
        volume = analyze_volume(net.log, 8)
        assert volume.message_count == 30
        assert set(volume.length_fractions) == {8, 64}
        assert volume.length_fractions[8] == pytest.approx(2 / 3)
        modes = volume.modal_lengths(top=1)
        assert list(modes) == [8]
        assert "modes" in volume.describe()

    def test_volume_empty_log_rejected(self):
        with pytest.raises(ValueError):
            analyze_volume(synthetic_log({}), 8)


class TestPipelines:
    @pytest.fixture(scope="class")
    def fft_run(self):
        return characterize_shared_memory(FFT1DApp(n=128))

    @pytest.fixture(scope="class")
    def fft3d_run(self):
        return characterize_message_passing(FFT3DApp(n=16))

    def test_dynamic_strategy_produces_characterization(self, fft_run):
        c = fft_run.characterization
        assert c.app_name == "1d-fft"
        assert c.strategy == "dynamic"
        assert c.num_nodes == 8
        assert c.temporal.sample_size > 50
        assert len(fft_run.log) > 50
        assert fft_run.trace is None

    def test_fft_spatial_is_butterfly(self, fft_run):
        assert fft_run.characterization.spatial.dominant_pattern == "butterfly"

    def test_fft_lengths_bimodal_control_vs_data(self, fft_run):
        modes = fft_run.characterization.volume.length_fractions
        # Control messages (8B) and cache blocks (32B) only.
        assert set(modes) == {8, 32}

    def test_static_strategy_produces_characterization(self, fft3d_run):
        c = fft3d_run.characterization
        assert c.strategy == "static"
        assert fft3d_run.trace is not None
        assert len(fft3d_run.trace) == 56  # 8 ranks x 7 alltoall partners

    def test_fft3d_spatial_uniform(self, fft3d_run):
        assert fft3d_run.characterization.spatial.dominant_pattern == "uniform"
        for fit in fft3d_run.characterization.spatial.per_source.values():
            assert fit.r2 > 0.99

    def test_is_favorite_processor(self):
        run = characterize_shared_memory(IntegerSortApp(n=512, buckets=32))
        spatial = run.characterization.spatial
        favorites = [spatial.favorite_of(src) for src in range(1, 8)]
        assert favorites.count(0) >= 6

    def test_characterize_log_reusable(self, fft_run):
        again = characterize_log(fft_run.log, MeshConfig(), app_name="redo")
        assert again.app_name == "redo"
        assert again.temporal.sample_size == fft_run.characterization.temporal.sample_size

    def test_describe_renders(self, fft_run):
        text = fft_run.characterization.describe()
        assert "1d-fft" in text and "temporal:" in text

    def test_report_tables_render(self, fft_run, fft3d_run):
        results = [fft_run.characterization, fft3d_run.characterization]
        assert "application" in temporal_table(results)
        assert "spatial: 1d-fft" in spatial_table(results[0])
        assert "volume: 3d-fft" in volume_table(results[1])


class TestSyntheticAndValidation:
    @pytest.fixture(scope="class")
    def fft_run(self):
        return characterize_shared_memory(FFT1DApp(n=128))

    def test_generator_reproduces_rate_and_lengths(self, fft_run):
        gen = SyntheticTrafficGenerator(fft_run.characterization, seed=7)
        log = gen.generate(messages_per_source=100)
        assert len(log) == 800
        report = compare_logs(fft_run.log, log)
        assert report.rate_error < 0.5
        assert report.length_error < 0.1

    def test_generator_respects_spatial_model(self, fft_run):
        gen = SyntheticTrafficGenerator(fft_run.characterization, seed=8)
        log = gen.generate(messages_per_source=200)
        # Butterfly model: traffic only at XOR-power partners.
        for src in range(8):
            counts = log.destination_counts(src, 8)
            partners = {src ^ 1, src ^ 2, src ^ 4}
            for dst in range(8):
                if dst not in partners:
                    assert counts[dst] == 0

    def test_rate_scale_increases_load(self, fft_run):
        slow = SyntheticTrafficGenerator(fft_run.characterization, seed=9, rate_scale=1.0)
        fast = SyntheticTrafficGenerator(fft_run.characterization, seed=9, rate_scale=4.0)
        slow_log = slow.generate(messages_per_source=100)
        fast_log = fast.generate(messages_per_source=100)
        assert fast_log.offered_rate() > slow_log.offered_rate() * 2

    def test_mesh_mismatch_rejected(self, fft_run):
        with pytest.raises(ValueError):
            SyntheticTrafficGenerator(
                fft_run.characterization, mesh_config=MeshConfig("4x4")
            )

    def test_bad_parameters_rejected(self, fft_run):
        with pytest.raises(ValueError):
            SyntheticTrafficGenerator(fft_run.characterization, rate_scale=0.0)
        gen = SyntheticTrafficGenerator(fft_run.characterization)
        with pytest.raises(ValueError):
            gen.generate(messages_per_source=0)

    def test_compare_logs_requires_messages(self, fft_run):
        from repro.mesh import NetworkLog

        with pytest.raises(ValueError):
            compare_logs(fft_run.log, NetworkLog())

    def test_validation_report_renders(self, fft_run):
        gen = SyntheticTrafficGenerator(fft_run.characterization, seed=10)
        report = compare_logs(fft_run.log, gen.generate(messages_per_source=100))
        text = report.describe()
        assert "mean latency" in text and "rel.err" in text
        assert isinstance(report.acceptable(), bool)

        def contention_row(text):
            return next(
                line for line in text.splitlines() if line.startswith("mean contention")
            )

        original = report.original_mean_contention
        assert original > 0
        assert report.contention_error == (
            abs(report.synthetic_mean_contention - original) / original
        )
        assert contention_row(text).endswith(f"{report.contention_error:8.1%}")
        # No original contention: the error is infinite and prints n/a.
        # Contention is reported, not gated, so acceptable() ignores it.
        skewed = dataclasses.replace(
            report, original_mean_contention=0.0, synthetic_mean_contention=1.0
        )
        assert skewed.contention_error == float("inf")
        assert contention_row(skewed.describe()).endswith("n/a")
        assert skewed.acceptable() == report.acceptable()
