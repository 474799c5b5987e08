"""Tests for the latency-vs-load sweep harness."""

import pytest

from repro import characterize_shared_memory, create_app
from repro.core import measure_load_point, sweep_load
from repro.mesh import MeshConfig


@pytest.fixture(scope="module")
def fft_characterization():
    return characterize_shared_memory(create_app("1d-fft", n=128)).characterization


class TestSweepLoad:
    def test_points_in_order_and_rate_increases(self, fft_characterization):
        sweep = sweep_load(
            fft_characterization,
            rate_scales=(0.5, 2.0, 8.0),
            messages_per_source=60,
        )
        assert [p.rate_scale for p in sweep.points] == [0.5, 2.0, 8.0]
        achieved = [p.achieved_rate for p in sweep.points]
        assert achieved[0] < achieved[-1]
        requested = [p.requested_rate for p in sweep.points]
        assert requested == sorted(requested)

    def test_latency_floor_is_first_point(self, fft_characterization):
        sweep = sweep_load(
            fft_characterization, rate_scales=(0.5, 4.0), messages_per_source=60
        )
        assert sweep.zero_load_latency == sweep.points[0].mean_latency

    def test_efficiency_high_at_light_load(self, fft_characterization):
        sweep = sweep_load(
            fft_characterization, rate_scales=(0.25,), messages_per_source=60
        )
        assert sweep.points[0].efficiency > 0.6

    def test_saturation_detected_on_slow_network(self, fft_characterization):
        # Slow channels cap throughput; heavy requests can't be met.
        slow = MeshConfig("4x2", channel_time=20.0)
        sweep = sweep_load(
            fft_characterization,
            mesh_config=slow,
            rate_scales=(1.0, 8.0, 64.0),
            messages_per_source=40,
            efficiency_threshold=0.5,
        )
        assert sweep.saturation_scale is not None
        last = sweep.points[-1]
        assert last.efficiency < 0.5
        assert "saturates near" in sweep.describe()

    def test_no_saturation_reported_when_light(self, fft_characterization):
        sweep = sweep_load(
            fft_characterization,
            rate_scales=(0.25, 0.5),
            messages_per_source=40,
            efficiency_threshold=0.3,
        )
        assert sweep.saturation_scale is None
        assert "no saturation" in sweep.describe()

    def test_closed_loop_plateau_past_saturation(self, fft_characterization):
        # Sources are closed-loop, so past saturation the achieved rate
        # plateaus at the network's capacity instead of growing with the
        # requested rate: doubling the request must not double delivery.
        slow = MeshConfig("4x2", channel_time=20.0)
        sweep = sweep_load(
            fft_characterization,
            mesh_config=slow,
            rate_scales=(8.0, 32.0, 64.0),
            messages_per_source=40,
        )
        assert sweep.saturation_scale is not None
        saturated = [
            p for p in sweep.points if p.rate_scale >= sweep.saturation_scale
        ]
        assert len(saturated) >= 2
        first, last = saturated[0], saturated[-1]
        requested_growth = last.requested_rate / first.requested_rate
        achieved_growth = last.achieved_rate / first.achieved_rate
        assert achieved_growth < requested_growth / 2
        assert achieved_growth < 1.5

    def test_measure_load_point_matches_sweep(self, fft_characterization):
        measurement = measure_load_point(
            fft_characterization,
            rate_scale=2.0,
            messages_per_source=60,
            seed=99,
        )
        sweep = sweep_load(
            fft_characterization, rate_scales=(2.0,), messages_per_source=60, seed=99
        )
        assert measurement.point == sweep.points[0]
        assert len(measurement.log) > 0

    def test_validation(self, fft_characterization):
        with pytest.raises(ValueError):
            sweep_load(fft_characterization, rate_scales=())
        with pytest.raises(ValueError):
            sweep_load(fft_characterization, rate_scales=(2.0, 1.0))
        with pytest.raises(ValueError):
            sweep_load(
                fft_characterization, rate_scales=(1.0,), efficiency_threshold=1.5
            )
        with pytest.raises(ValueError):
            sweep_load(fft_characterization, rate_scales=(0.0, 1.0))
