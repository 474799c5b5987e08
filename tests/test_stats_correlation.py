"""Tests for inter-arrival autocorrelation analysis."""

import numpy as np
import pytest

from repro.stats import autocorrelation, correlation_profile


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        series = np.random.default_rng(0).exponential(1.0, 100)
        assert autocorrelation(series, 0) == 1.0

    def test_iid_series_near_zero(self):
        series = np.random.default_rng(1).exponential(1.0, 20000)
        assert abs(autocorrelation(series, 1)) < 0.03
        assert abs(autocorrelation(series, 5)) < 0.03

    def test_alternating_series_negative_lag_one(self):
        series = np.array([1.0, 10.0] * 200)
        assert autocorrelation(series, 1) == pytest.approx(-1.0, abs=0.02)
        assert autocorrelation(series, 2) == pytest.approx(1.0, abs=0.02)

    def test_bursty_series_positive_small_lags(self):
        # Runs of small gaps followed by one large gap.
        rng = np.random.default_rng(2)
        gaps = []
        for _ in range(300):
            gaps.extend(rng.exponential(1.0, 8))
            gaps.append(100.0)
        series = np.asarray(gaps)
        assert autocorrelation(series, 1) < 0.05  # big gaps are isolated
        # Burst length 9 -> periodic structure visible at that lag.
        assert autocorrelation(series, 9) > 0.5

    def test_constant_series_zero(self):
        assert autocorrelation(np.full(50, 3.0), 1) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            autocorrelation(np.array([1.0, 2.0]), -1)
        with pytest.raises(ValueError):
            autocorrelation(np.array([1.0, 2.0]), 5)


class TestCorrelationProfile:
    def test_iid_is_renewal_like(self):
        series = np.random.default_rng(3).exponential(1.0, 20000)
        profile = correlation_profile(series, max_lag=8)
        # The portmanteau test accepts white noise even when a single
        # lag grazes the per-lag band by chance.
        assert profile.is_renewal_like
        assert profile.p_value > 0.05

    def test_periodic_series_flagged(self):
        series = np.array([1.0, 1.0, 1.0, 50.0] * 200)
        profile = correlation_profile(series, max_lag=8)
        assert not profile.is_renewal_like
        assert 4 in profile.significant_lags
        assert profile.peak_lag in (4, 8)
        assert profile.p_value < 1e-6

    def test_lag_truncation_for_short_series(self):
        profile = correlation_profile(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), max_lag=50)
        assert profile.lags[-1] == 3  # n-2

    def test_describe(self):
        series = np.random.default_rng(4).exponential(1.0, 500)
        text = correlation_profile(series).describe()
        assert "r1=" in text and "band" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            correlation_profile(np.array([1.0, 2.0, 3.0]), max_lag=0)
        with pytest.raises(ValueError):
            correlation_profile(np.array([1.0, 2.0]))


class TestApplicationSeries:
    def test_fft_interarrivals_are_not_renewal(self):
        """The justification for the phase-coupled generator: real
        barrier-synchronized traffic has temporal dependence at its
        burst period (the per-wave message count)."""
        from repro import create_app, run_dynamic

        run = run_dynamic(create_app("1d-fft", n=256))
        profile = correlation_profile(run.log.interarrival_times(), max_lag=20)
        assert not profile.is_renewal_like
        assert profile.peak_lag == 14  # messages per injection wave
        assert max(profile.values) > 0.5
