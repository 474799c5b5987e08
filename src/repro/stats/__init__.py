"""Statistical analysis package (the repository's SAS substitute).

The paper analyzes the network activity log with SAS: "We have used the
statistical analysis package, SAS for the regression analysis.  The
non-linear model with iterative methods for curve-fitting is provided
by the package.  We have used the multivariate secant method for our
study."  This package provides the equivalent machinery:

* :mod:`repro.stats.distributions` -- the library of candidate
  distributions (exponential, hyper/hypo-exponential, Erlang, gamma,
  Weibull, normal, uniform, deterministic, shifted exponential).
* :mod:`repro.stats.histogram` -- binning of observed samples into the
  empirical densities the regression is run against.
* :mod:`repro.stats.secant` -- derivative-free multivariate secant
  non-linear least squares (SAS PROC NLIN's DUD/secant method).
* :mod:`repro.stats.regression` -- the PROC NLIN-style driver.
* :mod:`repro.stats.goodness` -- R-squared and Kolmogorov-Smirnov
  goodness-of-fit measures.
* :mod:`repro.stats.fitting` -- end-to-end inter-arrival / length
  distribution fitting with model selection.
* :mod:`repro.stats.spatial_models` -- discrete destination-distribution
  models (uniform, bimodal uniform / favorite processor, locality decay).
* :mod:`repro.stats.streaming` -- one-pass mergeable estimators
  (moments, quantile digests) for the activity log's summary fold.
"""

from repro.stats.distributions import (
    Deterministic,
    Distribution,
    Erlang,
    Exponential,
    Gamma,
    Hyperexponential2,
    Hypoexponential2,
    Lognormal,
    Normal,
    Pareto,
    ShiftedExponential,
    Uniform,
    Weibull,
    continuous_candidates,
)
from repro.stats.correlation import CorrelationProfile, autocorrelation, correlation_profile
from repro.stats.fitting import FitResult, fit_distribution, fit_interarrival
from repro.stats.mle import MLEResult, fit_mle, fit_mle_best
from repro.stats.goodness import ks_statistic, r_squared
from repro.stats.histogram import Histogram, build_histogram
from repro.stats.regression import NonlinearRegression, RegressionResult
from repro.stats.secant import SecantResult, secant_least_squares
from repro.stats.streaming import QuantileDigest, StreamingMoments
from repro.stats.spatial_models import (
    BimodalUniformPattern,
    ButterflyPattern,
    LocalityDecayPattern,
    SpatialFit,
    SpatialPattern,
    UniformPattern,
    classify_spatial,
)

__all__ = [
    "BimodalUniformPattern",
    "ButterflyPattern",
    "CorrelationProfile",
    "Deterministic",
    "Distribution",
    "Erlang",
    "Exponential",
    "FitResult",
    "Gamma",
    "Histogram",
    "Hyperexponential2",
    "Hypoexponential2",
    "LocalityDecayPattern",
    "Lognormal",
    "MLEResult",
    "NonlinearRegression",
    "Pareto",
    "Normal",
    "QuantileDigest",
    "RegressionResult",
    "SecantResult",
    "ShiftedExponential",
    "SpatialFit",
    "SpatialPattern",
    "StreamingMoments",
    "Uniform",
    "UniformPattern",
    "Weibull",
    "build_histogram",
    "autocorrelation",
    "classify_spatial",
    "correlation_profile",
    "continuous_candidates",
    "fit_distribution",
    "fit_mle",
    "fit_mle_best",
    "fit_interarrival",
    "ks_statistic",
    "r_squared",
    "secant_least_squares",
]
