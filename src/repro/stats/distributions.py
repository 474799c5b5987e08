"""Candidate distribution library for the regression analysis.

These are the "commonly used distributions" the paper fits message
inter-arrival times against.  Every family exposes a uniform interface:
``pdf``/``cdf``, analytic ``mean``/``variance``, ``sample`` for the
synthetic traffic generator, and the unconstrained-vector plumbing the
secant regression needs (positive parameters are fit in log space,
probabilities through a logistic transform, so the solver can roam all
of R^n without leaving the family's domain).

The six families SciPy also ships as ``rv_continuous`` distributions
(Erlang, Gamma, Weibull, Normal, Lognormal, Pareto) evaluate SciPy's
own density and CDF expressions directly with NumPy and
``scipy.special`` ufuncs, under the same wrapper rules (:func:`_pdf`,
:func:`_cdf`).  The values are bit-identical to SciPy's, without
importing its statistics package (about 45 MiB and 0.8 s per process).
``scipy.special`` itself loads at the first evaluation (:func:`_special`),
so a process that never fits does not pay for it.  The regression
evaluates each family through :meth:`Distribution._density`, its ``pdf``
on finite, positive points without the masks ``pdf`` needs elsewhere.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Type

import numpy as np

_EPS = 1e-12

#: SciPy's normal-density constant, ``sqrt(2 pi)``.
_SQRT_2PI = np.sqrt(2 * np.pi)


@functools.lru_cache(maxsize=None)
def _special():
    """``scipy.special``, imported by the first formula that needs it.

    The import costs about 0.2 s and 300 modules (SciPy's array-API shim
    loads ``numpy.f2py`` and ``numpy.testing``), which a process that
    never fits should not pay.  A thread that calls this while another
    is importing waits on the module lock until the import is done.
    """
    import scipy.special

    return scipy.special


def _exp(value: float) -> float:
    """Clamped exponential keeping fitted parameters in a sane range."""
    return math.exp(min(max(float(value), -60.0), 60.0))


def _logit(p: float) -> float:
    p = min(max(p, 1e-9), 1 - 1e-9)
    return math.log(p / (1 - p))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _standardize(x, loc: float, scale: float, args: tuple):
    """Return ``y = (x - loc) / scale``, a zero output shaped like ``y``
    with nan where ``y`` is nan, and whether the parameters pass
    ``rv_continuous``' check (``scale`` and every shape parameter > 0,
    so nan fails).  When they fail, the output is nan everywhere."""
    y = np.asarray((np.asarray(x, dtype=float) - loc) / scale)
    out = np.zeros(y.shape)
    ok = scale > 0 and all(a > 0 for a in args)
    out[np.isnan(y) | (not ok)] = np.nan
    return y, out, ok


def _reduced(formula, y, inside, args):
    """Run ``formula`` on the in-support ``y`` laid out as SciPy's
    ``argsreduce`` lays it out: ``y`` contiguous and 1-D, each shape
    parameter a full-length array when every ``y`` is inside, else a
    one-element array (which broadcasts when more than one is inside).
    The layout is part of the result: NumPy's power loop computes a
    broadcast exponent of -1, 0.5 or 2 as a reciprocal, square root or
    square, any other through its vectorized ``pow``, and the two can
    round differently."""
    if inside.all():
        return formula(y.ravel(), *(np.full(y.size, a) for a in args))
    return formula(y[inside], *(np.array([a]) for a in args))


def _pdf(x, density, args: tuple, scale: float, loc: float = 0.0,
         low: float = 0.0, closed: bool = True):
    """``rv_continuous.pdf``'s rules around a standardized ``density``.

    ``density(y, *args)`` runs once, on the in-support values of
    ``y = (x - loc) / scale``, and is divided by ``scale``.  The support
    is ``[low, inf]`` (``(low, inf)`` unless ``closed``); outside it the
    density is 0 and at nan it is nan.  A scalar ``x`` gives a scalar.
    """
    y, out, ok = _standardize(x, loc, scale, args)
    if ok:
        with np.errstate(invalid="ignore"):
            inside = (low <= y) if closed else (low < y) & (y < np.inf)
        if inside.any():
            out[inside] = _reduced(density, y, inside, args) / scale
    return out[()] if out.ndim == 0 else out


def _cdf(x, cumulative, args: tuple, scale: float, loc: float = 0.0,
         low: float = 0.0):
    """``rv_continuous.cdf``'s rules around a standardized ``cumulative``:
    evaluated on the open support ``(low, inf)``, 1 at ``inf``, 0 at or
    below ``low``, nan at nan."""
    y, out, ok = _standardize(x, loc, scale, args)
    if ok:
        with np.errstate(invalid="ignore"):
            inside = (low < y) & (y < np.inf)
        out[y == np.inf] = 1.0
        if inside.any():
            out[inside] = _reduced(cumulative, y, inside, args)
    return out[()] if out.ndim == 0 else out


# SciPy's standardized formulas (``_pdf``/``_cdf`` of its ``gamma``,
# ``weibull_min``, ``norm``, ``lognorm`` and ``pareto``), term for term.


def _gamma_pdf(y, a):
    special = _special()
    return np.exp(special.xlogy(a - 1.0, y) - y - special.gammaln(a))


def _gamma_cdf(y, a):
    return _special().gammainc(a, y)


def _weibull_pdf(y, c):
    return c * pow(y, c - 1) * np.exp(-pow(y, c))


def _weibull_cdf(y, c):
    return -_special().expm1(-pow(y, c))


def _normal_pdf(y):
    return np.exp(-y**2 / 2.0) / _SQRT_2PI


def _normal_cdf(y):
    return _special().ndtr(y)


def _lognormal_pdf(y, s):
    return np.exp(-np.log(y)**2 / (2 * s**2) - np.log(s * y * _SQRT_2PI))


def _lognormal_cdf(y, s):
    return _special().ndtr(np.log(y) / s)


def _pareto_pdf(y, b):
    return b * y**(-b - 1)


def _pareto_cdf(y, b):
    return 1 - y**(-b)


class Distribution(ABC):
    """A parametric continuous distribution usable in the regression.

    Subclasses define ``name``, construct from named parameters, and
    implement the probability interface plus the unconstrained-vector
    transform used by :mod:`repro.stats.secant`.
    """

    name: str = "distribution"

    @abstractmethod
    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Probability density at ``x`` (vectorized)."""

    @abstractmethod
    def cdf(self, x: np.ndarray) -> np.ndarray:
        """Cumulative probability at ``x`` (vectorized)."""

    @abstractmethod
    def mean(self) -> float:
        """Analytic mean."""

    @abstractmethod
    def variance(self) -> float:
        """Analytic variance."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw ``size`` variates using ``rng``, as an array.

        Without ``size``, draw one variate as a Python float:
        ``sample(rng)`` takes the same draws from the generator as
        ``sample(rng, 1)[0]``, returns the same value and leaves ``rng``
        in the same state.
        """

    @abstractmethod
    def params(self) -> Dict[str, float]:
        """Named parameter values."""

    @abstractmethod
    def to_unconstrained(self) -> np.ndarray:
        """Map parameters to an unconstrained real vector for fitting."""

    @classmethod
    @abstractmethod
    def from_unconstrained(cls, vector: np.ndarray) -> "Distribution":
        """Inverse of :meth:`to_unconstrained`."""

    @classmethod
    @abstractmethod
    def initial_guess(cls, data: np.ndarray) -> "Distribution":
        """Moment-matched starting point for the regression."""

    def _density(self, x: np.ndarray) -> np.ndarray:
        """``pdf(x)`` bit for bit, for a 1-D float array of finite,
        positive ``x``.

        The regression calls this at its bin centers on every residual.
        A family whose support holds every positive ``x`` evaluates its
        in-support formula here without ``pdf``'s conversions, support
        masks and parameter checks, and its ``pdf`` runs the same
        formula.  The SciPy-formula families pass each shape parameter
        full length, the layout :func:`_reduced` uses when every point is
        inside the support.  Families whose support is a shift, an
        interval or a point away from 0 use ``pdf`` itself.
        """
        return self.pdf(x)

    def std(self) -> float:
        """Analytic standard deviation."""
        return math.sqrt(max(self.variance(), 0.0))

    def cv(self) -> float:
        """Coefficient of variation (std / mean)."""
        mu = self.mean()
        return self.std() / mu if mu > 0 else float("inf")

    def describe(self) -> str:
        """Human-readable summary, e.g. ``exponential(rate=0.031)``."""
        inner = ", ".join(f"{k}={v:.6g}" for k, v in self.params().items())
        return f"{self.name}({inner})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


class Exponential(Distribution):
    """Exponential distribution with rate ``lam`` (mean ``1/lam``)."""

    name = "exponential"

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, self._density(x), 0.0)

    def _density(self, x):
        return self.rate * np.exp(-self.rate * x)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, 1.0 - np.exp(-self.rate * x), 0.0)

    def mean(self):
        return 1.0 / self.rate

    def variance(self):
        return 1.0 / self.rate**2

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.rate, size)

    def params(self):
        return {"rate": self.rate}

    def to_unconstrained(self):
        return np.array([math.log(self.rate)])

    @classmethod
    def from_unconstrained(cls, vector):
        return cls(rate=_exp(vector[0]))

    @classmethod
    def initial_guess(cls, data):
        mean = float(np.mean(data))
        return cls(rate=1.0 / max(mean, _EPS))


class ShiftedExponential(Distribution):
    """Exponential shifted right by ``shift`` (a minimum inter-arrival gap).

    Message generation cannot be faster than the processor's issue path,
    so a deterministic offset plus an exponential tail is a natural
    model for several applications' inter-arrival times.
    """

    name = "shifted-exponential"

    def __init__(self, shift: float, rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if shift < 0:
            raise ValueError(f"shift must be >= 0, got {shift}")
        self.shift = float(shift)
        self.rate = float(rate)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = x - self.shift
        return np.where(z >= 0, self.rate * np.exp(-self.rate * z), 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        z = x - self.shift
        return np.where(z >= 0, 1.0 - np.exp(-self.rate * z), 0.0)

    def mean(self):
        return self.shift + 1.0 / self.rate

    def variance(self):
        return 1.0 / self.rate**2

    def sample(self, rng, size=None):
        return self.shift + rng.exponential(1.0 / self.rate, size)

    def params(self):
        return {"shift": self.shift, "rate": self.rate}

    def to_unconstrained(self):
        return np.array([math.log(self.shift + _EPS), math.log(self.rate)])

    @classmethod
    def from_unconstrained(cls, vector):
        return cls(shift=_exp(vector[0]), rate=_exp(vector[1]))

    @classmethod
    def initial_guess(cls, data):
        data = np.asarray(data, dtype=float)
        shift = float(np.min(data)) * 0.9
        tail_mean = float(np.mean(data)) - shift
        return cls(shift=max(shift, _EPS), rate=1.0 / max(tail_mean, _EPS))


class Erlang(Distribution):
    """Erlang distribution: sum of ``k`` iid exponentials of rate ``rate``.

    The shape ``k`` is integral and frozen during regression (only the
    rate is fit), matching how PROC NLIN treats integer-constrained
    shapes.
    """

    name = "erlang"

    def __init__(self, k: int, rate: float) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        self.k = int(k)
        self.rate = float(rate)

    def pdf(self, x):
        return _pdf(x, _gamma_pdf, (self.k,), 1.0 / self.rate)

    def _density(self, x):
        scale = 1.0 / self.rate
        return _gamma_pdf(x / scale, np.full(x.size, self.k)) / scale

    def cdf(self, x):
        return _cdf(x, _gamma_cdf, (self.k,), 1.0 / self.rate)

    def mean(self):
        return self.k / self.rate

    def variance(self):
        return self.k / self.rate**2

    def sample(self, rng, size=None):
        return rng.gamma(self.k, 1.0 / self.rate, size)

    def params(self):
        return {"k": float(self.k), "rate": self.rate}

    def to_unconstrained(self):
        return np.array([math.log(self.rate)])

    def from_unconstrained(self, vector):  # type: ignore[override]
        # Instance-level: preserves the frozen integer shape k.
        return Erlang(k=self.k, rate=_exp(vector[0]))

    @classmethod
    def initial_guess(cls, data):
        data = np.asarray(data, dtype=float)
        mean = float(np.mean(data))
        var = float(np.var(data))
        if var <= _EPS or mean <= _EPS:
            return cls(k=1, rate=1.0 / max(mean, _EPS))
        k = max(1, min(50, round(mean**2 / var)))
        return cls(k=k, rate=k / mean)


class Gamma(Distribution):
    """Gamma distribution with ``shape`` and ``scale``."""

    name = "gamma"

    def __init__(self, shape: float, scale: float) -> None:
        if shape <= 0 or scale <= 0:
            raise ValueError(f"shape and scale must be > 0, got {shape}, {scale}")
        self.shape = float(shape)
        self.scale = float(scale)

    def pdf(self, x):
        return _pdf(x, _gamma_pdf, (self.shape,), self.scale)

    def _density(self, x):
        return _gamma_pdf(x / self.scale, np.full(x.size, self.shape)) / self.scale

    def cdf(self, x):
        return _cdf(x, _gamma_cdf, (self.shape,), self.scale)

    def mean(self):
        return self.shape * self.scale

    def variance(self):
        return self.shape * self.scale**2

    def sample(self, rng, size=None):
        return rng.gamma(self.shape, self.scale, size)

    def params(self):
        return {"shape": self.shape, "scale": self.scale}

    def to_unconstrained(self):
        return np.array([math.log(self.shape), math.log(self.scale)])

    @classmethod
    def from_unconstrained(cls, vector):
        return cls(shape=_exp(vector[0]), scale=_exp(vector[1]))

    @classmethod
    def initial_guess(cls, data):
        data = np.asarray(data, dtype=float)
        mean = float(np.mean(data))
        var = max(float(np.var(data)), _EPS)
        shape = max(mean**2 / var, _EPS)
        scale = var / max(mean, _EPS)
        return cls(shape=shape, scale=max(scale, _EPS))


class Weibull(Distribution):
    """Weibull distribution with ``shape`` and ``scale``."""

    name = "weibull"

    def __init__(self, shape: float, scale: float) -> None:
        if shape <= 0 or scale <= 0:
            raise ValueError(f"shape and scale must be > 0, got {shape}, {scale}")
        self.shape = float(shape)
        self.scale = float(scale)

    def pdf(self, x):
        return _pdf(x, _weibull_pdf, (self.shape,), self.scale)

    def _density(self, x):
        return _weibull_pdf(x / self.scale, np.full(x.size, self.shape)) / self.scale

    def cdf(self, x):
        return _cdf(x, _weibull_cdf, (self.shape,), self.scale)

    def mean(self):
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def variance(self):
        g1 = math.gamma(1.0 + 1.0 / self.shape)
        g2 = math.gamma(1.0 + 2.0 / self.shape)
        return self.scale**2 * (g2 - g1**2)

    def sample(self, rng, size=None):
        return self.scale * rng.weibull(self.shape, size)

    def params(self):
        return {"shape": self.shape, "scale": self.scale}

    def to_unconstrained(self):
        return np.array([math.log(self.shape), math.log(self.scale)])

    @classmethod
    def from_unconstrained(cls, vector):
        return cls(shape=_exp(vector[0]), scale=_exp(vector[1]))

    @classmethod
    def initial_guess(cls, data):
        data = np.asarray(data, dtype=float)
        mean = float(np.mean(data))
        std = math.sqrt(max(float(np.var(data)), _EPS))
        cv = std / max(mean, _EPS)
        # Standard approximation: shape ~ cv^-1.086 for Weibull.
        shape = min(max(cv ** -1.086 if cv > 0 else 1.0, 0.1), 20.0)
        scale = mean / math.gamma(1.0 + 1.0 / shape)
        return cls(shape=shape, scale=max(scale, _EPS))


class Normal(Distribution):
    """Normal distribution (fits near-symmetric inter-arrival clusters)."""

    name = "normal"

    def __init__(self, mu: float, sigma: float) -> None:
        if sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def pdf(self, x):
        return _pdf(x, _normal_pdf, (), self.sigma, loc=self.mu, low=-np.inf)

    def _density(self, x):
        return _normal_pdf((x - self.mu) / self.sigma) / self.sigma

    def cdf(self, x):
        return _cdf(x, _normal_cdf, (), self.sigma, loc=self.mu, low=-np.inf)

    def mean(self):
        return self.mu

    def variance(self):
        return self.sigma**2

    def sample(self, rng, size=None):
        return rng.normal(self.mu, self.sigma, size)

    def params(self):
        return {"mu": self.mu, "sigma": self.sigma}

    def to_unconstrained(self):
        return np.array([self.mu, math.log(self.sigma)])

    @classmethod
    def from_unconstrained(cls, vector):
        return cls(mu=float(vector[0]), sigma=_exp(vector[1]))

    @classmethod
    def initial_guess(cls, data):
        data = np.asarray(data, dtype=float)
        return cls(
            mu=float(np.mean(data)),
            sigma=max(math.sqrt(max(float(np.var(data)), 0.0)), _EPS),
        )


class Uniform(Distribution):
    """Continuous uniform distribution on ``[low, low + width]``."""

    name = "uniform"

    def __init__(self, low: float, width: float) -> None:
        if width <= 0:
            raise ValueError(f"width must be > 0, got {width}")
        self.low = float(low)
        self.width = float(width)

    @property
    def high(self) -> float:
        """Upper endpoint of the support."""
        return self.low + self.width

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.low) & (x <= self.high)
        return np.where(inside, 1.0 / self.width, 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.low) / self.width, 0.0, 1.0)

    def mean(self):
        return self.low + self.width / 2.0

    def variance(self):
        return self.width**2 / 12.0

    def sample(self, rng, size=None):
        return rng.uniform(self.low, self.high, size)

    def params(self):
        return {"low": self.low, "high": self.high}

    def to_unconstrained(self):
        return np.array([self.low, math.log(self.width)])

    @classmethod
    def from_unconstrained(cls, vector):
        return cls(low=float(vector[0]), width=_exp(vector[1]))

    @classmethod
    def initial_guess(cls, data):
        data = np.asarray(data, dtype=float)
        low = float(np.min(data))
        high = float(np.max(data))
        return cls(low=low, width=max(high - low, _EPS))


class Hyperexponential2(Distribution):
    """Two-phase hyperexponential: mixture ``p*Exp(r1) + (1-p)*Exp(r2)``.

    Captures the bursty (CV > 1) inter-arrival behaviour shared-memory
    applications show: clustered coherence misses separated by long
    compute gaps.
    """

    name = "hyperexponential"

    def __init__(self, p: float, rate1: float, rate2: float) -> None:
        if not (0.0 < p < 1.0):
            raise ValueError(f"p must be in (0,1), got {p}")
        if rate1 <= 0 or rate2 <= 0:
            raise ValueError(f"rates must be > 0, got {rate1}, {rate2}")
        self.p = float(p)
        self.rate1 = float(rate1)
        self.rate2 = float(rate2)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, self._density(x), 0.0)

    def _density(self, x):
        out = self.p * self.rate1 * np.exp(-self.rate1 * x)
        return out + (1 - self.p) * self.rate2 * np.exp(-self.rate2 * x)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = self.p * (1 - np.exp(-self.rate1 * x))
        out = out + (1 - self.p) * (1 - np.exp(-self.rate2 * x))
        return np.where(x >= 0, out, 0.0)

    def mean(self):
        return self.p / self.rate1 + (1 - self.p) / self.rate2

    def variance(self):
        second = 2 * self.p / self.rate1**2 + 2 * (1 - self.p) / self.rate2**2
        return second - self.mean() ** 2

    def sample(self, rng, size=None):
        choose_first = rng.random(size) < self.p
        fast = rng.exponential(1.0 / self.rate1, size)
        slow = rng.exponential(1.0 / self.rate2, size)
        if size is None:
            return fast if choose_first else slow
        return np.where(choose_first, fast, slow)

    def params(self):
        return {"p": self.p, "rate1": self.rate1, "rate2": self.rate2}

    def to_unconstrained(self):
        return np.array([_logit(self.p), math.log(self.rate1), math.log(self.rate2)])

    @classmethod
    def from_unconstrained(cls, vector):
        return cls(
            p=_sigmoid(float(vector[0])),
            rate1=_exp(vector[1]),
            rate2=_exp(vector[2]),
        )

    @classmethod
    def initial_guess(cls, data):
        data = np.asarray(data, dtype=float)
        mean = max(float(np.mean(data)), _EPS)
        # Split observations around the mean into a fast and a slow phase.
        fast = data[data <= mean]
        slow = data[data > mean]
        if fast.size == 0 or slow.size == 0:
            return cls(p=0.5, rate1=2.0 / mean, rate2=0.5 / mean)
        p = fast.size / data.size
        rate1 = 1.0 / max(float(np.mean(fast)), _EPS)
        rate2 = 1.0 / max(float(np.mean(slow)), _EPS)
        return cls(p=min(max(p, 0.01), 0.99), rate1=rate1, rate2=rate2)


class Hypoexponential2(Distribution):
    """Two-stage hypoexponential: sum of Exp(r1) and Exp(r2), r1 != r2.

    Captures smoother-than-Poisson (CV < 1) generation, e.g. pipelined
    phases where each message requires two sequential service stages.
    """

    name = "hypoexponential"

    def __init__(self, rate1: float, rate2: float) -> None:
        if rate1 <= 0 or rate2 <= 0:
            raise ValueError(f"rates must be > 0, got {rate1}, {rate2}")
        if abs(rate1 - rate2) < 1e-9 * max(rate1, rate2):
            # Nudge apart: the two-rate closed form is singular at equality.
            rate2 = rate2 * (1.0 + 1e-6)
        self.rate1 = float(rate1)
        self.rate2 = float(rate2)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0, self._density(x), 0.0)

    def _density(self, x):
        r1, r2 = self.rate1, self.rate2
        coeff = r1 * r2 / (r2 - r1)
        return np.maximum(coeff * (np.exp(-r1 * x) - np.exp(-r2 * x)), 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        r1, r2 = self.rate1, self.rate2
        out = 1.0 - (r2 * np.exp(-r1 * x) - r1 * np.exp(-r2 * x)) / (r2 - r1)
        return np.where(x >= 0, np.clip(out, 0.0, 1.0), 0.0)

    def mean(self):
        return 1.0 / self.rate1 + 1.0 / self.rate2

    def variance(self):
        return 1.0 / self.rate1**2 + 1.0 / self.rate2**2

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.rate1, size) + rng.exponential(
            1.0 / self.rate2, size
        )

    def params(self):
        return {"rate1": self.rate1, "rate2": self.rate2}

    def to_unconstrained(self):
        return np.array([math.log(self.rate1), math.log(self.rate2)])

    @classmethod
    def from_unconstrained(cls, vector):
        return cls(rate1=_exp(vector[0]), rate2=_exp(vector[1]))

    @classmethod
    def initial_guess(cls, data):
        data = np.asarray(data, dtype=float)
        mean = max(float(np.mean(data)), _EPS)
        # Asymmetric split of the mean between the two stages.
        return cls(rate1=3.0 / mean, rate2=1.5 / mean)


class Deterministic(Distribution):
    """Point mass at ``value`` (fixed inter-arrival gap).

    Not fit by regression -- selected directly when the sample variance
    is negligible relative to the mean.
    """

    name = "deterministic"

    def __init__(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"value must be >= 0, got {value}")
        self.value = float(value)

    def pdf(self, x):
        # Density is a delta; report an indicator spike for plotting.
        x = np.asarray(x, dtype=float)
        return np.where(np.isclose(x, self.value), np.inf, 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x >= self.value, 1.0, 0.0)

    def mean(self):
        return self.value

    def variance(self):
        return 0.0

    def sample(self, rng, size=None):
        return self.value if size is None else np.full(size, self.value)

    def params(self):
        return {"value": self.value}

    def to_unconstrained(self):
        return np.array([math.log(self.value + _EPS)])

    @classmethod
    def from_unconstrained(cls, vector):
        return cls(value=_exp(vector[0]))

    @classmethod
    def initial_guess(cls, data):
        return cls(value=float(np.mean(data)))


class Lognormal(Distribution):
    """Lognormal distribution: ``exp(Normal(mu, sigma))``.

    Common for service/think times with multiplicative variability;
    included in the candidate library as an extension to the paper's
    set.
    """

    name = "lognormal"

    def __init__(self, mu: float, sigma: float) -> None:
        if sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)

    def pdf(self, x):
        return _pdf(x, _lognormal_pdf, (self.sigma,), math.exp(self.mu), closed=False)

    def _density(self, x):
        scale = math.exp(self.mu)
        y = x / scale
        if not y.all():
            # A tiny x over a large scale underflows to y = 0, outside
            # the open support.  (An overflow to y = inf gives 0 either
            # way, and this formula does not depend on the layout.)
            return self.pdf(x)
        return _lognormal_pdf(y, np.full(y.size, self.sigma)) / scale

    def cdf(self, x):
        return _cdf(x, _lognormal_cdf, (self.sigma,), math.exp(self.mu))

    def mean(self):
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def variance(self):
        factor = math.exp(self.sigma**2) - 1.0
        return factor * math.exp(2.0 * self.mu + self.sigma**2)

    def sample(self, rng, size=None):
        return rng.lognormal(self.mu, self.sigma, size)

    def params(self):
        return {"mu": self.mu, "sigma": self.sigma}

    def to_unconstrained(self):
        return np.array([self.mu, math.log(self.sigma)])

    @classmethod
    def from_unconstrained(cls, vector):
        return cls(mu=float(np.clip(vector[0], -60.0, 60.0)), sigma=_exp(vector[1]))

    @classmethod
    def initial_guess(cls, data):
        data = np.asarray(data, dtype=float)
        positive = data[data > 0]
        if positive.size == 0:
            raise ValueError("lognormal needs positive observations")
        logs = np.log(positive)
        return cls(
            mu=float(np.mean(logs)),
            sigma=max(float(np.std(logs)), _EPS),
        )


class Pareto(Distribution):
    """Pareto distribution on ``[scale, inf)`` with tail index ``shape``.

    The canonical heavy-tail model; mean requires ``shape > 1`` and
    variance ``shape > 2`` (infinite otherwise).  Not in the default
    candidate list (its hard lower bound rarely matches inter-arrival
    data) but available for explicit tail studies.
    """

    name = "pareto"

    def __init__(self, shape: float, scale: float) -> None:
        if shape <= 0 or scale <= 0:
            raise ValueError(f"shape and scale must be > 0, got {shape}, {scale}")
        self.shape = float(shape)
        self.scale = float(scale)

    def pdf(self, x):
        return _pdf(x, _pareto_pdf, (self.shape,), self.scale, low=1.0)

    def cdf(self, x):
        return _cdf(x, _pareto_cdf, (self.shape,), self.scale, low=1.0)

    def mean(self):
        if self.shape <= 1:
            return float("inf")
        return self.shape * self.scale / (self.shape - 1.0)

    def variance(self):
        if self.shape <= 2:
            return float("inf")
        a = self.shape
        return self.scale**2 * a / ((a - 1.0) ** 2 * (a - 2.0))

    def sample(self, rng, size=None):
        return self.scale * (1.0 + rng.pareto(self.shape, size))

    def params(self):
        return {"shape": self.shape, "scale": self.scale}

    def to_unconstrained(self):
        return np.array([math.log(self.shape), math.log(self.scale)])

    @classmethod
    def from_unconstrained(cls, vector):
        return cls(shape=_exp(vector[0]), scale=_exp(vector[1]))

    @classmethod
    def initial_guess(cls, data):
        data = np.asarray(data, dtype=float)
        positive = data[data > 0]
        if positive.size == 0:
            raise ValueError("pareto needs positive observations")
        scale = float(np.min(positive)) * 0.95
        # Hill-style estimator for the tail index.
        logs = np.log(positive / max(scale, _EPS))
        shape = 1.0 / max(float(np.mean(logs)), _EPS)
        return cls(shape=min(max(shape, 0.1), 50.0), scale=max(scale, _EPS))


def continuous_candidates() -> List[Type[Distribution]]:
    """The default candidate families for inter-arrival fitting.

    Ordered roughly from simplest to richest; the model-selection logic
    in :mod:`repro.stats.fitting` prefers simpler families on ties.
    :class:`Pareto` is excluded (hard lower bound) but available
    explicitly.
    """
    return [
        Exponential,
        ShiftedExponential,
        Erlang,
        Gamma,
        Weibull,
        Lognormal,
        Hyperexponential2,
        Hypoexponential2,
        Normal,
        Uniform,
    ]
