"""Tests for the analytical wormhole latency model."""

import numpy as np
import pytest

from repro import create_app, run_dynamic
from repro.core import WormholeLatencyModel
from repro.mesh import MeshConfig


@pytest.fixture(scope="module")
def fft_run():
    return run_dynamic(create_app("1d-fft", n=128))


@pytest.fixture(scope="module")
def model(fft_run):
    return WormholeLatencyModel(fft_run.characterization)


class TestModelBasics:
    def test_mean_flits_from_modes(self, model):
        modes = model.characterization.volume.length_fractions
        expected = sum(
            frac * model.config.flits_for(size) for size, frac in modes.items()
        )
        assert model.mean_message_flits() == pytest.approx(expected)

    def test_service_time_positive(self, model):
        assert model.channel_service_time() > 0

    def test_latency_monotone_in_load(self, model):
        latencies = [model.predict(scale).mean_latency for scale in (0.5, 1, 2, 4, 8)]
        assert latencies == sorted(latencies)
        assert all(np.isfinite(latencies))

    def test_contention_grows_superlinearly_near_saturation(self, model):
        low = model.predict(1.0).mean_contention
        high = model.predict(8.0).mean_contention
        assert high > 4 * low

    def test_zero_load_floor(self, model, fft_run):
        # At vanishing load the model approaches the zero-load latency,
        # which lower-bounds the simulator's observed latency.
        estimate = model.predict(1e-6)
        assert estimate.mean_contention == pytest.approx(0.0, abs=1e-3)
        assert estimate.mean_latency <= fft_run.log.mean_latency() + 1.0

    def test_saturation_scale_linear_in_utilization(self, model):
        scale = model.saturation_scale()
        assert scale > 1.0  # the characterized workload is below saturation
        just_below = model.predict(scale * 0.99)
        just_above = model.predict(scale * 1.01)
        assert not just_below.saturated
        assert just_above.saturated
        assert just_above.mean_latency == float("inf") or just_above.saturated

    def test_utilization_scales_linearly(self, model):
        one = model.predict(1.0).max_channel_utilization
        two = model.predict(2.0).max_channel_utilization
        assert two == pytest.approx(2 * one, rel=1e-9)


class TestModelAgainstSimulation:
    def test_tracks_simulation_within_factor_two(self, fft_run, model):
        from repro.core import SyntheticTrafficGenerator

        for scale in (1.0, 4.0):
            estimate = model.predict(scale)
            log = SyntheticTrafficGenerator(
                fft_run.characterization, seed=11, rate_scale=scale
            ).generate(messages_per_source=120)
            assert estimate.mean_latency == pytest.approx(
                log.mean_latency(), rel=1.0
            ), f"model diverges at scale {scale}"


class TestValidation:
    def test_mesh_mismatch_rejected(self, fft_run):
        with pytest.raises(ValueError):
            WormholeLatencyModel(
                fft_run.characterization, mesh_config=MeshConfig("4x4")
            )

    def test_bad_scale_rejected(self, model):
        with pytest.raises(ValueError):
            model.predict(0.0)

    def test_works_on_other_topologies(self, fft_run):
        for spec in ("4x2:torus", "4x2:hypercube"):
            config = MeshConfig.parse(spec)
            model = WormholeLatencyModel(fft_run.characterization, mesh_config=config)
            estimate = model.predict(1.0)
            assert np.isfinite(estimate.mean_latency)

    def test_hypercube_predicts_lower_latency_for_butterfly(self, fft_run):
        mesh_model = WormholeLatencyModel(fft_run.characterization)
        cube_model = WormholeLatencyModel(
            fft_run.characterization,
            mesh_config=MeshConfig("4x2:hypercube"),
        )
        assert (
            cube_model.predict(1.0).mean_latency
            < mesh_model.predict(1.0).mean_latency
        )
