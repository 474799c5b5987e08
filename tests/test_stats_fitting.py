"""Tests for histogramming, the secant solver and fitting."""

import numpy as np
import pytest

from repro.stats import (
    Exponential,
    Gamma,
    Hyperexponential2,
    Normal,
    Uniform,
    build_histogram,
    fit_distribution,
    ks_statistic,
    r_squared,
    secant_least_squares,
)

RNG = np.random.default_rng(123)


class TestHistogram:
    def test_density_integrates_to_one(self):
        data = RNG.exponential(2.0, 5000)
        hist = build_histogram(data)
        assert float(np.sum(hist.density * hist.widths)) == pytest.approx(1.0)

    def test_counts_sum_to_n(self):
        data = RNG.normal(0, 1, 1234)
        hist = build_histogram(data, bins=20)
        assert hist.total == 1234

    def test_explicit_bins(self):
        data = RNG.uniform(0, 1, 100)
        hist = build_histogram(data, bins=10)
        assert hist.n_bins == 10

    def test_equal_mass_policy(self):
        data = RNG.exponential(1.0, 2000)
        hist = build_histogram(data, bins=10, policy="equal-mass")
        # Equal-mass bins hold roughly equal counts.
        assert hist.counts.std() < hist.counts.mean() * 0.2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_histogram(np.array([]))

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            build_histogram(np.array([1.0, 2.0]), policy="nope")

    def test_negative_bins_rejected(self):
        with pytest.raises(ValueError):
            build_histogram(np.array([1.0, 2.0]), bins=-1)

    def test_degenerate_sample(self):
        hist = build_histogram(np.full(10, 3.0))
        assert hist.total == 10

    def test_nonempty_filter(self):
        data = np.concatenate([np.zeros(50), np.full(50, 10.0)])
        hist = build_histogram(data, bins=10)
        trimmed = hist.nonempty()
        assert (trimmed.counts > 0).all()

    def test_nonempty_interior_hole_keeps_true_geometry(self):
        # Regression: with an *interior* empty bin, the trimmed
        # histogram's centers/widths must describe the surviving bins,
        # not a recomputed edge sequence that silently shifts them.
        data = np.concatenate([np.full(5, 0.5), np.full(5, 2.5)])
        hist = build_histogram(data, bins=3)
        assert list(hist.counts) == [5, 0, 5]
        trimmed = hist.nonempty()
        assert list(trimmed.counts) == [5, 5]
        np.testing.assert_allclose(trimmed.lefts, hist.lefts[[0, 2]])
        np.testing.assert_allclose(trimmed.rights, hist.rights[[0, 2]])
        np.testing.assert_allclose(trimmed.centers, hist.centers[[0, 2]])
        np.testing.assert_allclose(trimmed.widths, hist.widths[[0, 2]])
        # Density over surviving bins still integrates to the surviving
        # mass fraction (here: all of it).
        assert float(np.sum(trimmed.density * trimmed.widths)) == pytest.approx(1.0)

    def test_nonempty_all_bins_occupied_is_identity_geometry(self):
        data = RNG.uniform(0, 1, 500)
        hist = build_histogram(data, bins=5)
        trimmed = hist.nonempty()
        np.testing.assert_allclose(trimmed.centers, hist.centers)
        np.testing.assert_allclose(trimmed.widths, hist.widths)


class TestGoodness:
    def test_r_squared_perfect(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, y) == pytest.approx(1.0)

    def test_r_squared_mean_predictor_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        pred = np.full(3, 2.0)
        assert r_squared(y, pred) == pytest.approx(0.0)

    def test_r_squared_shape_mismatch(self):
        with pytest.raises(ValueError):
            r_squared(np.array([1.0]), np.array([1.0, 2.0]))

    def test_r_squared_empty(self):
        with pytest.raises(ValueError):
            r_squared(np.array([]), np.array([]))

    def test_r_squared_constant_observed(self):
        y = np.full(5, 2.0)
        assert r_squared(y, y) == 1.0
        assert r_squared(y, y + 1.0) == 0.0

    def test_ks_statistic_small_for_true_model(self):
        dist = Exponential(rate=0.5)
        sample = dist.sample(np.random.default_rng(1), 5000)
        assert ks_statistic(sample, dist) < 0.03

    def test_ks_statistic_large_for_wrong_model(self):
        sample = np.random.default_rng(1).normal(100, 1, 1000)
        assert ks_statistic(sample, Exponential(rate=1.0)) > 0.5

    def test_ks_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([]), Exponential(rate=1.0))


class TestSecantSolver:
    def test_solves_linear_system(self):
        # residual(x) = A x - b has unique zero.
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([3.0, 5.0])
        result = secant_least_squares(lambda x: A @ x - b, np.zeros(2))
        expected = np.linalg.solve(A, b)
        np.testing.assert_allclose(result.x, expected, atol=1e-5)
        assert result.sse < 1e-10

    def test_solves_rosenbrock_style_residuals(self):
        def residual(x):
            return np.array([10 * (x[1] - x[0] ** 2), 1 - x[0]])

        result = secant_least_squares(residual, np.array([-1.2, 1.0]), max_iter=400)
        np.testing.assert_allclose(result.x, [1.0, 1.0], atol=1e-2)

    def test_overdetermined_least_squares(self):
        # Fit y = a * exp(-b t) to noiseless data.
        t = np.linspace(0, 5, 30)
        y = 3.0 * np.exp(-0.7 * t)

        def residual(params):
            return params[0] * np.exp(-params[1] * t) - y

        result = secant_least_squares(residual, np.array([1.0, 1.0]))
        np.testing.assert_allclose(result.x, [3.0, 0.7], atol=1e-3)

    def test_nonfinite_start_rejected(self):
        with pytest.raises(ValueError):
            secant_least_squares(lambda x: np.array([np.nan]), np.zeros(1))

    def test_handles_nonfinite_excursions(self):
        # Residual overflows for large x but has a finite minimum.
        def residual(x):
            return np.array([np.exp(x[0]) - 2.0])

        result = secant_least_squares(residual, np.array([0.0]))
        assert result.sse < 1e-8

    def test_overflowing_sse_start_rejected(self):
        # Residuals are individually finite but their sum of squares
        # overflows to inf; accepting it would poison the line search.
        with pytest.raises(ValueError):
            secant_least_squares(
                lambda x: np.array([1e200, 1e200]), np.zeros(1)
            )

    def test_sse_overflow_during_search_is_rejected_step(self):
        # A wild trial step lands where the residual is finite but its
        # SSE overflows; the solver must treat it as a rejected step
        # and still converge from the finite region.
        def residual(x):
            if abs(x[0]) > 10.0:
                return np.array([1e200])
            return np.array([x[0] - 0.5])

        result = secant_least_squares(residual, np.array([0.0]))
        assert np.isfinite(result.sse)
        assert result.sse < 1e-8
        np.testing.assert_allclose(result.x, [0.5], atol=1e-4)


class TestDistributionRecovery:
    """Generate from a known family; the fitter should pick it (or an
    equivalent) and recover its parameters."""

    def test_recovers_exponential(self):
        true = Exponential(rate=0.25)
        sample = true.sample(np.random.default_rng(11), 20000)
        best = fit_distribution(sample)[0]
        assert best.distribution.mean() == pytest.approx(true.mean(), rel=0.1)
        assert best.r2 > 0.95
        assert best.ks < 0.05

    def test_recovers_normal(self):
        true = Normal(mu=50.0, sigma=5.0)
        sample = true.sample(np.random.default_rng(12), 20000)
        best = fit_distribution(sample)[0]
        assert best.name in ("normal", "gamma", "weibull", "erlang")
        assert best.distribution.mean() == pytest.approx(50.0, rel=0.05)
        assert best.r2 > 0.97

    def test_recovers_uniform(self):
        true = Uniform(low=10.0, width=20.0)
        sample = true.sample(np.random.default_rng(13), 20000)
        best = fit_distribution(sample)[0]
        assert best.name == "uniform"
        assert best.distribution.mean() == pytest.approx(20.0, rel=0.05)

    def test_recovers_hyperexponential_burstiness(self):
        true = Hyperexponential2(p=0.8, rate1=10.0, rate2=0.1)
        sample = true.sample(np.random.default_rng(14), 30000)
        best = fit_distribution(sample)[0]
        # A CV >> 1 sample must not be called exponential/normal/uniform.
        assert best.name in ("hyperexponential", "gamma", "weibull")
        assert best.distribution.cv() > 1.2

    def test_recovers_gamma_shape(self):
        true = Gamma(shape=4.0, scale=2.0)
        sample = true.sample(np.random.default_rng(15), 30000)
        best = fit_distribution(sample)[0]
        assert best.distribution.mean() == pytest.approx(8.0, rel=0.08)
        assert best.distribution.cv() == pytest.approx(0.5, abs=0.12)
        assert best.r2 > 0.95

    def test_deterministic_short_circuit(self):
        sample = np.full(100, 42.0)
        results = fit_distribution(sample)
        assert len(results) == 1
        assert results[0].name == "deterministic"
        assert results[0].r2 == 1.0
        assert results[0].distribution.mean() == 42.0

    def test_results_sorted_by_selection_score(self):
        sample = Exponential(rate=1.0).sample(np.random.default_rng(16), 5000)
        results = fit_distribution(sample)
        scores = [r.r2 - r.ks for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_distribution(np.array([1.0]))

    def test_custom_candidates(self):
        sample = Exponential(rate=2.0).sample(np.random.default_rng(17), 5000)
        results = fit_distribution(sample, candidates=[Exponential])
        assert len(results) == 1
        assert results[0].name == "exponential"

    def test_fit_result_describe(self):
        sample = Exponential(rate=1.0).sample(np.random.default_rng(18), 2000)
        best = fit_distribution(sample)[0]
        text = best.describe()
        assert "R2=" in text and "KS=" in text
