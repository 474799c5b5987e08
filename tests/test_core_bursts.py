"""Tests for burst estimation and the phase-coupled generator."""

import numpy as np
import pytest

from repro.core import (
    BurstModel,
    PhaseCoupledTrafficGenerator,
    compare_logs,
    characterize_shared_memory,
    estimate_bursts,
)
from repro.apps.shared.fft1d import FFT1DApp
from repro.mesh import MeshConfig


def synthetic_bursty_series(bursts, burst_size, within, between, jitter=0.0, seed=0):
    rng = np.random.default_rng(seed)
    gaps = []
    for _ in range(bursts):
        gaps.extend(within + jitter * rng.random() for _ in range(burst_size - 1))
        gaps.append(between + jitter * rng.random())
    return np.array(gaps[:-1])  # last between-gap has no following message


class TestEstimateBursts:
    def test_recovers_synthetic_structure(self):
        series = synthetic_bursty_series(
            bursts=50, burst_size=10, within=1.0, between=100.0
        )
        model = estimate_bursts(series)
        assert model.burst_count == 50
        assert model.mean_burst_size == pytest.approx(10.0, rel=0.05)
        assert model.mean_within_gap == pytest.approx(1.0, rel=0.05)
        assert model.mean_between_gap == pytest.approx(100.0, rel=0.05)

    def test_custom_threshold(self):
        series = np.array([1.0, 1.0, 5.0, 1.0, 1.0])
        model = estimate_bursts(series, threshold=3.0)
        assert model.burst_count == 2
        assert model.mean_burst_size == pytest.approx(3.0)

    def test_uniform_series_single_burst_edgecase(self):
        series = np.full(10, 2.0)
        # All gaps equal the mean; none are strictly below it, so the
        # whole series is "between" gaps -> many singleton bursts.
        model = estimate_bursts(series)
        assert model.burst_count == series.size + 1 or model.burst_count >= 1

    def test_all_within_degenerate(self):
        series = np.array([1.0, 1.0, 1.0])
        model = estimate_bursts(series, threshold=10.0)
        assert model.burst_count == 1
        assert model.mean_burst_size == 4.0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            estimate_bursts(np.array([1.0]))

    def test_describe(self):
        model = estimate_bursts(synthetic_bursty_series(5, 4, 1.0, 50.0))
        assert "bursts:" in model.describe()


class TestPhaseCoupledGenerator:
    @pytest.fixture(scope="class")
    def fft_run(self):
        return characterize_shared_memory(FFT1DApp(n=128))

    def test_generates_requested_messages(self, fft_run):
        generator = PhaseCoupledTrafficGenerator(
            fft_run.characterization, source_log=fft_run.log, seed=1
        )
        log = generator.generate(total_messages=300)
        assert len(log) == 300

    def test_requires_burst_source(self, fft_run):
        with pytest.raises(ValueError):
            PhaseCoupledTrafficGenerator(fft_run.characterization)

    def test_respects_spatial_model(self, fft_run):
        generator = PhaseCoupledTrafficGenerator(
            fft_run.characterization, source_log=fft_run.log, seed=2
        )
        log = generator.generate(total_messages=400)
        for src in log.sources():
            counts = log.destination_counts(src, 8)
            partners = {src ^ 1, src ^ 2, src ^ 4}
            assert sum(counts[d] for d in range(8) if d not in partners) == 0

    def test_recovers_more_contention_than_independent(self, fft_run):
        from repro.core import SyntheticTrafficGenerator

        independent = SyntheticTrafficGenerator(
            fft_run.characterization, seed=3
        ).generate(messages_per_source=100)
        coupled = PhaseCoupledTrafficGenerator(
            fft_run.characterization, source_log=fft_run.log, seed=3
        ).generate(total_messages=800)
        original = fft_run.log.mean_contention()
        gap_independent = abs(original - independent.mean_contention())
        gap_coupled = abs(original - coupled.mean_contention())
        assert gap_coupled < gap_independent

    def test_explicit_burst_model(self, fft_run):
        model = BurstModel(
            threshold=5.0,
            mean_within_gap=0.5,
            mean_between_gap=50.0,
            mean_burst_size=8.0,
            burst_count=10,
        )
        generator = PhaseCoupledTrafficGenerator(
            fft_run.characterization, burst_model=model, seed=4
        )
        log = generator.generate(total_messages=200)
        assert len(log) == 200

    def test_validation_params(self, fft_run):
        generator = PhaseCoupledTrafficGenerator(
            fft_run.characterization, source_log=fft_run.log
        )
        with pytest.raises(ValueError):
            generator.generate(total_messages=0)
        with pytest.raises(ValueError):
            PhaseCoupledTrafficGenerator(
                fft_run.characterization, source_log=fft_run.log, rate_scale=0
            )
        with pytest.raises(ValueError):
            PhaseCoupledTrafficGenerator(
                fft_run.characterization,
                source_log=fft_run.log,
                mesh_config=MeshConfig("4x4"),
            )
