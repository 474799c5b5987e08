"""Bit-identity oracles for the statistics fast paths.

The regression evaluates each family's in-support density directly
(``Distribution._density``) and takes its finite test from the
residual's sum of squares; the locality scan scores every decay in one
array pass; the synthetic generator draws one gap at a time.  Each fast
path must give its reference's bits.  The references are the code the
fast paths replaced, kept here: :func:`reference_fit_one` and
:func:`reference_solve` are the object path (every parameter point
builds its instance and calls ``pdf``, and every residual is scanned for
finiteness), and :func:`reference_locality` builds one pattern per
decay.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.apps import create_app
from repro.core.run import run_dynamic, run_static
from repro.mesh import MeshConfig, TopologySpec
from repro.stats import (
    Deterministic,
    Erlang,
    Exponential,
    FitResult,
    Gamma,
    Hyperexponential2,
    Hypoexponential2,
    LocalityDecayPattern,
    Lognormal,
    Normal,
    Pareto,
    ShiftedExponential,
    Uniform,
    Weibull,
    build_histogram,
    continuous_candidates,
    ks_statistic,
    r_squared,
    secant_least_squares,
)
from repro.stats.fitting import _fit_one
from repro.stats.spatial_models import _fit_locality

#: Every family the regression can fit, Pareto included.
FAMILIES = continuous_candidates() + [Pareto]


def reference_solve(residual_fn, x0, max_iter, tol, secant_step):
    """The secant solve with an element scan of every residual."""
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    eye = np.eye(n)

    def safe_residual(point):
        try:
            r = np.asarray(residual_fn(point), dtype=float)
        except (FloatingPointError, OverflowError, ValueError, ZeroDivisionError):
            return None
        if not np.isfinite(r).all():
            return None
        return r

    r = safe_residual(x)
    if r is None:
        raise ValueError("residual function is not finite at the starting point")
    sse = float(np.dot(r, r))
    if not np.isfinite(sse):
        raise ValueError("residual sum of squares overflows at the starting point")
    damping = 1e-8
    iterations = 0
    converged = False

    for iterations in range(1, max_iter + 1):
        jac = np.empty((r.size, n))
        degenerate = False
        for j in range(n):
            h = secant_step * (abs(x[j]) + 1.0)
            xj = x.copy()
            xj[j] += h
            rj = safe_residual(xj)
            if rj is None:
                xj[j] -= 2 * h
                rj = safe_residual(xj)
                h = -h
            if rj is None:
                degenerate = True
                break
            jac[:, j] = (rj - r) / h
        if degenerate:
            break

        grad = jac.T @ r
        if np.linalg.norm(grad) < 1e-14:
            converged = True
            break

        stepped = False
        for _ in range(30):
            try:
                step = np.linalg.solve(jac.T @ jac + damping * eye, -grad)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            scale = 1.0
            for _ in range(10):
                candidate = x + scale * step
                cand_r = safe_residual(candidate)
                if cand_r is not None:
                    cand_sse = float(np.dot(cand_r, cand_r))
                    if np.isfinite(cand_sse) and cand_sse <= sse:
                        gain = (sse - cand_sse) / max(sse, 1e-300)
                        full_step = scale == 1.0
                        x, r, sse = candidate, cand_r, cand_sse
                        damping = max(damping / 4.0, 1e-12)
                        stepped = True
                        if full_step and gain < tol:
                            converged = True
                        break
                scale *= 0.5
            if stepped:
                break
            damping *= 10.0
            if damping > 1e12:
                break
        if not stepped:
            converged = True
            break
        if converged:
            break
    return x, sse, iterations, converged


def reference_fit_one(data, histogram, family, max_iter=60):
    """``_fit_one`` on the object path, with ``NonlinearRegression``'s
    weighted residual written out."""
    try:
        start = family.initial_guess(data)
    except (ValueError, ZeroDivisionError):
        return None
    template = start
    mask = histogram.counts > 0
    centers = histogram.centers[mask]
    density = histogram.density[mask]
    weights = histogram.counts[mask].astype(float)
    if centers.size == 0:
        return None
    sqrt_w = np.sqrt(np.maximum(weights, 0.0))

    def residual(params):
        dist = template.from_unconstrained(params)
        predicted = np.asarray(dist.pdf(centers), dtype=float)
        return (predicted - density) * sqrt_w

    try:
        with np.errstate(all="ignore"):
            x, sse, _, converged = reference_solve(
                residual, start.to_unconstrained(), max_iter, 1e-10, 1e-6
            )
        fitted = template.from_unconstrained(x)
    except (ValueError, np.linalg.LinAlgError):
        return None
    predicted = np.asarray(fitted.pdf(centers), dtype=float)
    if not np.all(np.isfinite(predicted)):
        return None
    return FitResult(
        distribution=fitted,
        r2=r_squared(density, predicted),
        ks=ks_statistic(data, fitted),
        sse=sse,
        converged=converged,
    )


def _bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


def assert_solve_matches(residual, x0, max_iter):
    got = secant_least_squares(residual, x0, max_iter=max_iter, tol=1e-10)
    with np.errstate(all="ignore"):
        x, sse, iterations, converged = reference_solve(residual, x0, max_iter, 1e-10, 1e-6)
    assert (_bits(got.x), _bits(got.sse), got.iterations, got.converged) == (
        _bits(x), _bits(sse), iterations, converged
    )


class TestSolverOracle:
    """The sum-of-squares finite test against the element scan, on
    residuals with a wall past which they are infinite, nan, or finite
    with squares that overflow (``1e200``)."""

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        wall=st.floats(0.05, 3.0),
        kind=st.sampled_from(["inf", "nan", "overflow"]),
        max_iter=st.sampled_from([3, 60]),
    )
    def test_solve_matches_the_element_scan(self, seed, n, wall, kind, max_iter):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n + 2, n))
        # The unconstrained minimum lies beyond the wall on x[0].
        b = a @ (np.ones(n) * (wall + rng.uniform(0.5, 3.0)))

        def residual(x):
            r = a @ x - b + 0.1 * x[0] ** 2
            if x[0] > wall:
                if kind == "inf":
                    r[0] = np.inf
                elif kind == "nan":
                    r[-1] = np.nan
                else:
                    r = r * 1e200
            return r

        assert_solve_matches(residual, np.zeros(n), max_iter)

    def test_wall_at_the_secant_probe(self):
        # The forward probe of the Jacobian lands past the wall, so the
        # solver must take the backward one and descend away from it.
        def residual(x):
            r = np.array([x[0] + 2.0, 0.5 * x[0]])
            if x[0] > 0.0:
                r[0] = np.inf
            return r

        assert_solve_matches(residual, np.zeros(1), 5)


def fingerprint(fit):
    """Family, parameter bits, R², KS, SSE and converged flag."""
    if fit is None:
        return None
    params = tuple((k, _bits(v)) for k, v in fit.distribution.params().items())
    return (fit.name, params, _bits(fit.r2), _bits(fit.ks), _bits(fit.sse), fit.converged)


def assert_fits_match(data, policy="equal-mass", bins=0):
    """Every candidate's fit equals the object path's, bit for bit."""
    histogram = build_histogram(data, bins=bins, policy=policy)
    for family in FAMILIES:
        # Fits to pathological samples overflow by design (a KS test on
        # a wild CDF, say); the warnings say nothing here.
        with np.errstate(all="ignore"):
            got = fingerprint(_fit_one(data, histogram, family, 60))
            want = fingerprint(reference_fit_one(data, histogram, family))
        assert got == want, family.name


def _sample(kind, seed, size):
    rng = np.random.default_rng(seed)
    if kind == "exponential":
        return rng.exponential(rng.uniform(0.1, 50.0), size)
    if kind == "gamma":
        return rng.gamma(rng.uniform(0.2, 8.0), rng.uniform(0.1, 20.0), size)
    if kind == "lognormal":  # heavy tail
        return rng.lognormal(rng.uniform(-2.0, 4.0), rng.uniform(0.2, 3.0), size)
    if kind == "pareto":  # heavier tail
        return rng.uniform(0.5, 5.0) * (1.0 + rng.pareto(rng.uniform(0.4, 3.0), size))
    if kind == "bursty":
        fast = rng.exponential(1.0, size)
        slow = rng.exponential(rng.uniform(20.0, 500.0), size)
        return np.where(rng.random(size) < rng.uniform(0.5, 0.95), fast, slow)
    if kind == "ties":  # integer gaps: many ties, some zeros
        return np.round(rng.exponential(rng.uniform(0.5, 6.0), size))
    if kind == "zeros":  # same-instant injections
        gaps = rng.exponential(rng.uniform(1.0, 30.0), size)
        gaps[rng.random(size) < rng.uniform(0.1, 0.7)] = 0.0
        return gaps
    if kind == "signed":  # bins centred at or below 0
        return rng.normal(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 3.0), size)
    return rng.uniform(0.0, rng.uniform(1.0, 100.0), size)


class TestFitOracle:
    @settings(max_examples=12, deadline=None)
    @given(
        kind=st.sampled_from(
            ["exponential", "gamma", "lognormal", "pareto", "bursty",
             "ties", "zeros", "signed", "uniform"]
        ),
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(2, 120),
        policy=st.sampled_from(["equal-mass", "equal-width"]),
        bins=st.sampled_from([0, 4, 12]),
    )
    def test_every_candidate_matches_the_object_path(self, kind, seed, size, policy, bins):
        assert_fits_match(_sample(kind, seed, size), policy=policy, bins=bins)

    @pytest.mark.parametrize("policy", ["equal-mass", "equal-width"])
    def test_nonpositive_centers_take_the_pdf_path(self, policy):
        # Bins centred at or below 0 send the model to pdf, which must
        # still match.
        for data in (
            np.array([-3.0, -1.0, -0.5, 0.0, 0.25, 1.0, 2.0, 4.0]),
            _sample("signed", 7, 80),
        ):
            histogram = build_histogram(data, policy=policy)
            assert (histogram.centers[histogram.counts > 0] <= 0).any()
            assert_fits_match(data, policy=policy)


#: The paper apps at the sizes the other tests run them at.
APPS = {
    "1d-fft": {"n": 64},
    "is": {"n": 256, "buckets": 16},
    "cholesky": {"n": 16, "density": 0.2},
    "nbody": {"n": 16, "steps": 2},
    "maxflow": {"n": 8, "extra_edges": 4, "seed": 2},
    "3d-fft": {"n": 8},
    "mg": {"n": 16},
}


@pytest.fixture(scope="module")
def app_gaps():
    config = MeshConfig.parse("4x2")
    gaps = {}
    for name, params in APPS.items():
        run = run_static if name in ("3d-fft", "mg") else run_dynamic
        gaps[name] = run(create_app(name, **params), mesh_config=config).log.interarrival_times()
    return gaps


@pytest.mark.parametrize("name", sorted(APPS))
def test_app_interarrival_fits_match(app_gaps, name):
    assert_fits_match(app_gaps[name])


#: Unconstrained coordinates at, inside and beyond the ±60 clamps.
COORD = st.one_of(st.sampled_from([-80.0, -60.0, 0.0, 60.0, 80.0]), st.floats(-60.0, 60.0))
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


def _template(family, k):
    """An instance to map vectors from (Erlang's keeps its integer k)."""
    if family is Erlang:
        return Erlang(k=k, rate=1.0)
    return family.initial_guess(np.array([0.5, 1.0, 2.0, 4.0]))


def _density_matches_pdf(dist, x):
    with np.errstate(all="ignore"):  # extreme parameters overflow by design
        assert _bits(dist._density(x)) == _bits(dist.pdf(x)), dist.describe()


class TestDensity:
    @pytest.mark.parametrize("family", FAMILIES + [Deterministic], ids=lambda f: f.name)
    @settings(max_examples=15, deadline=None)
    @given(
        k=st.integers(1, 60),
        coords=st.lists(COORD, min_size=3, max_size=3),
        x=st.lists(POSITIVE, min_size=1, max_size=30),
    )
    def test_density_equals_pdf_on_positive_x(self, family, k, coords, x):
        template = _template(family, k)
        try:
            dist = template.from_unconstrained(np.array(coords[:template.to_unconstrained().size]))
        except ValueError:
            assume(False)  # e.g. a hyperexponential p that rounds to 1
        _density_matches_pdf(dist, np.array(x))

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
    def test_at_every_clamp_corner(self, family):
        x = np.concatenate([np.geomspace(5e-324, 1.7e308, 400), [1.0, 2.5, 1e-300]])
        template = _template(family, 3)
        size = template.to_unconstrained().size
        checked = 0
        for vector in itertools.product([-60.0, 60.0], repeat=size):
            try:
                dist = template.from_unconstrained(np.array(vector))
            except ValueError:
                continue
            _density_matches_pdf(dist, x)
            checked += 1
        assert checked > 0


class TestScalarSample:
    @pytest.mark.parametrize(
        "dist",
        [
            Exponential(rate=0.5),
            ShiftedExponential(shift=2.0, rate=1.0),
            Erlang(k=3, rate=1.5),
            Gamma(shape=0.3, scale=3.0),
            Weibull(shape=1.7, scale=4.0),
            Normal(mu=10.0, sigma=2.0),
            Uniform(low=1.0, width=5.0),
            Hyperexponential2(p=0.3, rate1=2.0, rate2=0.2),
            Hypoexponential2(rate1=1.0, rate2=3.0),
            Lognormal(mu=1.0, sigma=2.0),
            Pareto(shape=1.5, scale=2.0),
            Deterministic(value=4.0),
        ],
        ids=lambda d: d.name,
    )
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1))
    def test_one_draw_is_the_first_of_an_array_draw(self, dist, seed):
        one, many = np.random.default_rng(seed), np.random.default_rng(seed)
        got = dist.sample(one)
        want = dist.sample(many, 1)
        assert type(got) is float
        assert _bits(got) == _bits(want[0])
        # The same draws were taken: the generators are in one state.
        assert one.bit_generator.state == many.bit_generator.state


def reference_locality(observed, src, hops):
    """One pattern per decay, first maximum of R² wins."""
    best = None
    for decay in np.linspace(0.0, 4.0, 41):
        pattern = LocalityDecayPattern(decay=float(decay), hops=hops)
        try:
            predicted = pattern.fractions(src, observed.size)
        except ValueError:
            return None
        fit = (pattern.decay, r_squared(observed, predicted))
        if best is None or fit[1] > best[1]:
            best = fit
    return best


def assert_locality_matches(observed, src, hops):
    got = _fit_locality(observed, src, hops)
    want = reference_locality(observed, src, hops)
    if want is None:
        assert got is None
        return
    assert type(got.r2) is float
    assert (got.pattern.decay, _bits(got.r2)) == (want[0], _bits(want[1]))


TOPOLOGIES = {
    spec: TopologySpec.parse(spec).build()
    for spec in ("4x2", "4x4", "4x4x2:torus", "4x4:hypercube")
}


def _hops(topology, src):
    return tuple(topology.hops(src, n) for n in range(topology.num_nodes))


class TestLocalityScan:
    @settings(max_examples=80, deadline=None)
    @given(
        spec=st.sampled_from(sorted(TOPOLOGIES)),
        data=st.data(),
    )
    def test_scan_equals_the_per_decay_loop(self, spec, data):
        topology = TOPOLOGIES[spec]
        n = topology.num_nodes
        src = data.draw(st.integers(0, n - 1))
        counts = np.array(data.draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)),
                          dtype=float)
        assume(counts.sum() > 0)
        assert_locality_matches(counts / counts.sum(), src, _hops(topology, src))

    @pytest.mark.parametrize("spec", sorted(TOPOLOGIES))
    def test_constant_row(self, spec):
        # No spread to explain: every decay scores 0, the first wins.
        topology = TOPOLOGIES[spec]
        n = topology.num_nodes
        for src in range(n):
            assert_locality_matches(np.full(n, 1.0 / n), src, _hops(topology, src))
        assert _fit_locality(np.full(n, 1.0 / n), 0, _hops(topology, 0)).pattern.decay == 0.0

    def test_ties_go_to_the_first_decay(self):
        # Two nodes: every decay predicts the same row.
        assert_locality_matches(np.array([0.25, 0.75]), 0, (0, 1))
        assert _fit_locality(np.array([0.25, 0.75]), 0, (0, 1)).pattern.decay == 0.0
        # Equidistant destinations: every decay predicts uniform.
        assert_locality_matches(np.array([0.1, 0.3, 0.3, 0.3]), 0, (0, 2, 2, 2))

    def test_degenerate_rows_give_no_fit(self):
        assert_locality_matches(np.array([1.0]), 0, (0,))  # no destination
        assert_locality_matches(np.array([0.5, 0.5]), 0, (1, 0))  # another source's row
        assert _fit_locality(np.array([0.5, 0.5]), 0, (1, 0)) is None
