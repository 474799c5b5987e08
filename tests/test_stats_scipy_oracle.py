"""Bit-identity oracle: the directly evaluated densities against SciPy.

Erlang, Gamma, Weibull, Normal, Lognormal and Pareto evaluate SciPy's
own ``pdf``/``cdf`` expressions without importing its statistics
package, and ``correlation_profile`` computes the Ljung-Box p-value with
``scipy.special.chdtrc``.  Only this test imports ``scipy.stats``, as
the reference; every comparison is bit-for-bit (nan payloads and the
sign of zero included), and scalar inputs must give scalars.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from repro.stats import (
    Erlang,
    Gamma,
    Lognormal,
    Normal,
    Pareto,
    Weibull,
    correlation_profile,
)


def _log_uniform(low, high):
    return st.floats(math.log(low), math.log(high)).map(math.exp)


# Shapes of 0.5, 1, 1.5, 2 and 3 put -1, 0.5 or 2 into an exponent,
# which NumPy's power loop special-cases when the exponent broadcasts.
SHAPE = st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), _log_uniform(1e-3, 1e3))
SCALE = _log_uniform(1e-6, 1e6)

#: family -> (strategy for an instance, its SciPy twin and arguments)
FAMILIES = {
    "erlang": (
        st.builds(Erlang, k=st.integers(1, 60), rate=SCALE),
        lambda d: (sps.erlang, (d.k,), {"scale": 1.0 / d.rate}),
    ),
    "gamma": (
        st.builds(Gamma, shape=SHAPE, scale=SCALE),
        lambda d: (sps.gamma, (d.shape,), {"scale": d.scale}),
    ),
    "weibull": (
        st.builds(Weibull, shape=SHAPE, scale=SCALE),
        lambda d: (sps.weibull_min, (d.shape,), {"scale": d.scale}),
    ),
    "normal": (
        st.builds(Normal, mu=st.floats(-1e3, 1e3), sigma=SCALE),
        lambda d: (sps.norm, (), {"loc": d.mu, "scale": d.sigma}),
    ),
    "lognormal": (
        st.builds(Lognormal, mu=st.floats(-60.0, 60.0), sigma=_log_uniform(1e-3, 20.0)),
        lambda d: (sps.lognorm, (d.sigma,), {"scale": math.exp(d.mu)}),
    ),
    "pareto": (
        st.builds(Pareto, shape=SHAPE, scale=SCALE),
        lambda d: (sps.pareto, (d.shape,), {"scale": d.scale}),
    ),
}

NAN = float("nan")
SPECIAL = [0.0, -0.0, 1.0, NAN, float("inf"), -float("inf")]


def _twin(dist):
    """SciPy's distribution, shape arguments and loc/scale for ``dist``."""
    return FAMILIES[dist.name][1](dist)


def _bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


def _assert_matches(dist, method, x):
    """``dist.method(x)`` is SciPy's answer: same type, shape and bits."""
    twin, args, kwargs = _twin(dist)
    with np.errstate(all="ignore"):
        got = getattr(dist, method)(x)
        want = getattr(twin, method)(x, *args, **kwargs)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert _bits(got) == _bits(want), (got, want)


def _inputs(dist, units, special):
    """Two ``x`` arrays: one spread around the support in units of the
    scale, with ``x == scale``, ``x == loc + scale`` and the special
    values (signed zeros, nan, infinities); and its points well inside
    every family's support, if any (SciPy lays out the parameters
    differently when every point is inside)."""
    _, _, kwargs = _twin(dist)
    loc, scale = kwargs.get("loc", 0.0), kwargs["scale"]
    around = [loc + u * scale for u in units] + [scale, loc + scale] + special
    inside = [loc + u * scale for u in units if u >= 1.5]
    return [np.array(xs, dtype=float) for xs in (around, inside) if xs]


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("method", ["pdf", "cdf"])
@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    units=st.lists(st.floats(-3.0, 12.0), min_size=1, max_size=40),
    special=st.lists(st.sampled_from(SPECIAL), max_size=4),
)
def test_matches_scipy_bit_for_bit(family, method, data, units, special):
    dist = data.draw(FAMILIES[family][0])
    arrays = _inputs(dist, units, special)
    for x in arrays:
        _assert_matches(dist, method, x)
    for scalar in (float(arrays[0][0]), 0.0, _twin(dist)[2]["scale"], NAN):
        _assert_matches(dist, method, scalar)


@pytest.mark.parametrize(
    "dist",
    [
        Erlang(3, 0.5),
        Gamma(2.5, 1.5),
        Weibull(0.7, 2.0),
        Normal(1.0, 2.0),
        Lognormal(0.3, 0.8),
        Pareto(1.5, 2.0),
    ],
    ids=lambda d: d.name,
)
@pytest.mark.parametrize("method", ["pdf", "cdf"])
def test_two_dimensional_input_keeps_its_shape(dist, method):
    _assert_matches(dist, method, np.linspace(-1.0, 9.0, 24).reshape(4, 6))


@pytest.mark.parametrize("family", ["weibull", "pareto"])
@pytest.mark.parametrize("shape", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_special_exponents_in_every_layout(family, shape):
    # These shapes put -1, 0.5 or 2 into an exponent.  SciPy hands the
    # formula a full-length exponent when every point is inside the
    # support, and a one-element one otherwise, which broadcasts only
    # when more than one point is inside; NumPy's power loop rounds
    # the three cases differently.
    dist = {"weibull": Weibull, "pareto": Pareto}[family](shape, 1.0)
    inside = np.linspace(1.05, 40.0, 301)
    layouts = [inside, np.append(inside, -1.0)]
    layouts += [np.array([x, -1.0]) for x in inside[::6]]
    layouts += [np.array([x]) for x in inside[::6]]
    for x in layouts:
        for method in ("pdf", "cdf"):
            _assert_matches(dist, method, x)


@pytest.mark.parametrize(
    "dist",
    [
        Erlang(2, NAN),
        Erlang(2, float("inf")),  # scale 1/rate == 0
        Gamma(NAN, 1.0),
        Weibull(NAN, 2.0),
        Normal(0.0, NAN),
        Lognormal(0.0, NAN),
        Pareto(NAN, 1.0),
        Pareto(1.5, NAN),
    ],
    ids=lambda d: d.describe(),
)
@pytest.mark.parametrize("method", ["pdf", "cdf"])
def test_invalid_parameters_match_scipy(dist, method):
    # The constructors let nan through; SciPy's argument check then
    # answers nan everywhere, inside the support or not.
    _assert_matches(dist, method, np.array([-1.0, 0.0, 0.5, 2.0, 1e3]))


@settings(max_examples=80, deadline=None)
@given(
    series=st.lists(st.floats(0.0, 1e4), min_size=3, max_size=120),
    max_lag=st.integers(1, 20),
)
def test_ljung_box_p_value_matches_chi2_sf(series, max_lag):
    profile = correlation_profile(np.array(series), max_lag=max_lag)
    want = float(sps.chi2.sf(profile.q_statistic, df=len(profile.lags)))
    assert _bits(profile.p_value) == _bits(want), (profile.p_value, want)


def test_ljung_box_white_noise_floor_is_one():
    # A constant series has no autocorrelation: q == 0, where chi2.sf is 1.
    profile = correlation_profile(np.full(50, 3.0), max_lag=5)
    assert profile.q_statistic == 0.0
    assert profile.p_value == 1.0 == float(sps.chi2.sf(0.0, df=5))
