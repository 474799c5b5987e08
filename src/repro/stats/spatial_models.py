"""Discrete destination-distribution models (spatial characterization).

The paper expresses each application's spatial behaviour as "the
fraction of messages sent by a processor to others in the system" and
classifies the per-processor histograms against simple named patterns:

* **uniform** -- every other processor receives an equal share
  (the classic uniform-traffic assumption);
* **bimodal uniform** -- "one processor gets the maximum number of
  messages and the rest of them get equal number of messages" (the
  *favorite processor* pattern of IS, Cholesky and MG's broadcasts);
* **locality decay** -- the share falls off with route length in the
  network (nearest-neighbour algorithms like Nbody/MG halos).

Each model here predicts a fraction vector given a source; fitting is
linear least squares on the observed fractions with R-squared scoring,
mirroring the SAS regression on the spatial data.
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.stats.goodness import r_squared

#: ``Generator.choice``'s tolerance on ``sum(p) - 1``.
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)


def choice_sampler(a, p) -> Callable[[np.random.Generator], object]:
    """Return ``draw(rng)``, equal to ``rng.choice(a, p=p)`` draw for draw.

    ``p`` is checked once, as :meth:`numpy.random.Generator.choice`
    checks it, and its CDF is built once, as ``choice`` builds it on
    every call (``cumsum``, then divided by its last entry).  Each draw
    spends one ``rng.random()`` on a right-sided binary search of that
    CDF, the algorithm ``choice`` itself runs (``searchsorted``), here
    as :func:`bisect.bisect_right` over the CDF as a list of Python
    floats; so draws and generator state match ``choice`` exactly.  An
    integer ``a`` draws indices ``0..a-1``.  Draws are Python scalars
    (ints for an integer ``a`` or an integer array).
    """
    values = None if np.ndim(a) == 0 else np.asarray(a)
    size = operator.index(a) if values is None else len(values)
    p = np.ascontiguousarray(p, dtype=float)
    if size <= 0:
        raise ValueError("a must be a positive integer or a non-empty sequence")
    if p.ndim != 1:
        raise ValueError("p must be 1-dimensional")
    if p.size != size:
        raise ValueError("a and p must have same size")
    total = float(p.sum())
    if math.isnan(total):
        raise ValueError("probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("probabilities are not non-negative")
    if abs(total - 1.0) > _CHOICE_ATOL:
        raise ValueError("probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    if values is None:
        return lambda rng: bisect_right(cdf, rng.random())
    values = values.tolist()
    return lambda rng: values[bisect_right(cdf, rng.random())]


class SpatialPattern(ABC):
    """A named model of one source's destination fractions."""

    name: str = "pattern"

    @abstractmethod
    def fractions(self, src: int, num_nodes: int) -> np.ndarray:
        """Predicted fraction of ``src``'s messages to each node."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable parameterization."""

    def destination_sampler(
        self, src: int, num_nodes: int
    ) -> Callable[[np.random.Generator], int]:
        """``draw(rng)`` of ``src``'s destinations (see :func:`choice_sampler`)."""
        probs = self.fractions(src, num_nodes)
        total = probs.sum()
        if total <= 0:
            raise ValueError(f"pattern predicts no traffic from source {src}")
        return choice_sampler(num_nodes, probs / total)

    def sample_destination(
        self, src: int, num_nodes: int, rng: np.random.Generator
    ) -> int:
        """Draw a destination according to the pattern."""
        return self.destination_sampler(src, num_nodes)(rng)


class UniformPattern(SpatialPattern):
    """Equal share to every node except the source itself."""

    name = "uniform"

    def __init__(self, include_self: bool = False) -> None:
        self.include_self = include_self

    def fractions(self, src: int, num_nodes: int) -> np.ndarray:
        out = np.ones(num_nodes, dtype=float)
        if not self.include_self:
            if num_nodes < 2:
                raise ValueError("uniform pattern needs >= 2 nodes when excluding self")
            out[src] = 0.0
        return out / out.sum()

    def describe(self) -> str:
        return "uniform" + (" (self included)" if self.include_self else "")


class BimodalUniformPattern(SpatialPattern):
    """Favorite-processor pattern: one node gets ``p_favorite`` of the
    messages, the remaining share is spread equally over the others."""

    name = "bimodal-uniform"

    def __init__(self, favorite: int, p_favorite: float) -> None:
        if not (0.0 < p_favorite <= 1.0):
            raise ValueError(f"p_favorite must be in (0,1], got {p_favorite}")
        self.favorite = int(favorite)
        self.p_favorite = float(p_favorite)

    def fractions(self, src: int, num_nodes: int) -> np.ndarray:
        if not (0 <= self.favorite < num_nodes):
            raise ValueError(f"favorite {self.favorite} outside {num_nodes}-node system")
        out = np.zeros(num_nodes, dtype=float)
        others = [n for n in range(num_nodes) if n != src and n != self.favorite]
        if self.favorite == src:
            # Degenerate: source is its own favorite; spread uniformly.
            for n in others:
                out[n] = 1.0 / len(others)
            return out
        out[self.favorite] = self.p_favorite
        if others:
            rest = (1.0 - self.p_favorite) / len(others)
            for n in others:
                out[n] = rest
        return out

    def describe(self) -> str:
        return f"bimodal-uniform(favorite=p{self.favorite}, p={self.p_favorite:.3f})"


class LocalityDecayPattern(SpatialPattern):
    """Share decays exponentially with route length:
    ``P(d) proportional to exp(-decay * hops[d])``.

    ``hops`` is one source's row of route lengths, ``hops[d] ==
    topology.hops(src, d)``, so the pattern describes that source only.
    """

    name = "locality-decay"

    def __init__(self, decay: float, hops: Sequence[int]) -> None:
        if decay < 0:
            raise ValueError(f"decay must be >= 0, got {decay}")
        self.decay = float(decay)
        self.hops = tuple(hops)

    def fractions(self, src: int, num_nodes: int) -> np.ndarray:
        hops = self.hops
        if len(hops) != num_nodes:
            raise ValueError(
                f"pattern built for {len(hops)} nodes, asked for {num_nodes}"
            )
        if hops[src] != 0:
            raise ValueError(f"hop row is not source {src}'s (hops[{src}] != 0)")
        out = np.array(
            [
                0.0 if n == src else math.exp(-self.decay * hops[n])
                for n in range(num_nodes)
            ]
        )
        total = out.sum()
        if total <= 0:
            raise ValueError("locality pattern degenerate (no destinations)")
        return out / total

    def describe(self) -> str:
        return f"locality-decay(decay={self.decay:.3f})"


class ButterflyPattern(SpatialPattern):
    """Butterfly (XOR-partner) pattern: traffic only to ``src ^ 2^k``.

    The signature of FFT-style algorithms -- each processor exchanges
    with partners at XOR distances that are powers of two, with a
    per-stage weight.  ``weights[k]`` is the fraction of traffic to
    partner ``src ^ 2^k``.
    """

    name = "butterfly"

    def __init__(self, weights: Sequence[float]) -> None:
        weights = [float(w) for w in weights]
        if not weights:
            raise ValueError("butterfly needs at least one stage weight")
        if any(w < 0 for w in weights):
            raise ValueError(f"weights must be >= 0, got {weights}")
        total = sum(weights)
        if total <= 0:
            raise ValueError("butterfly weights must not all be zero")
        self.weights = [w / total for w in weights]

    def fractions(self, src: int, num_nodes: int) -> np.ndarray:
        out = np.zeros(num_nodes, dtype=float)
        for k, weight in enumerate(self.weights):
            partner = src ^ (1 << k)
            if partner >= num_nodes:
                raise ValueError(
                    f"butterfly stage {k} partner {partner} outside "
                    f"{num_nodes}-node system"
                )
            out[partner] = weight
        return out

    def describe(self) -> str:
        inner = ", ".join(f"2^{k}:{w:.2f}" for k, w in enumerate(self.weights))
        return f"butterfly({inner})"


@dataclass(frozen=True)
class SpatialFit:
    """Result of classifying one source's observed destination fractions."""

    pattern: SpatialPattern
    r2: float

    @property
    def name(self) -> str:
        """Winning pattern's family name."""
        return self.pattern.name

    def describe(self) -> str:
        """One-line report for experiment tables."""
        return f"{self.pattern.describe()}  R2={self.r2:.4f}"


def _fit_uniform(observed: np.ndarray, src: int) -> SpatialFit:
    pattern = UniformPattern()
    predicted = pattern.fractions(src, observed.size)
    return SpatialFit(pattern=pattern, r2=r_squared(observed, predicted))


def _fit_bimodal(observed: np.ndarray, src: int) -> Optional[SpatialFit]:
    masked = observed.copy()
    masked[src] = -1.0
    favorite = int(np.argmax(masked))
    p_favorite = float(observed[favorite])
    if p_favorite <= 0.0:
        return None
    pattern = BimodalUniformPattern(favorite=favorite, p_favorite=min(p_favorite, 1.0))
    predicted = pattern.fractions(src, observed.size)
    return SpatialFit(pattern=pattern, r2=r_squared(observed, predicted))


def _fit_butterfly(observed: np.ndarray, src: int) -> Optional[SpatialFit]:
    num_nodes = observed.size
    if num_nodes & (num_nodes - 1):
        return None  # XOR partners only make sense for power-of-two systems
    stages = num_nodes.bit_length() - 1
    weights = [float(observed[src ^ (1 << k)]) for k in range(stages)]
    if sum(weights) <= 0:
        return None
    pattern = ButterflyPattern(weights)
    predicted = pattern.fractions(src, num_nodes)
    return SpatialFit(pattern=pattern, r2=r_squared(observed, predicted))


#: The locality model's decay grid, as Python floats.
_DECAYS = np.linspace(0.0, 4.0, 41).tolist()


def _fit_locality(
    observed: np.ndarray, src: int, hops: Sequence[int]
) -> Optional[SpatialFit]:
    """Score every decay on the grid in one array pass; the first
    maximum of R² wins.

    Row ``k`` holds :meth:`LocalityDecayPattern.fractions` for decay
    ``k`` bit for bit: the same ``math.exp(-decay * hop)`` per (decay,
    hop value), each row divided by its own sum, and R² per row as
    :func:`r_squared` computes it.  The rows are C-contiguous, so
    ``sum(axis=1)`` is each row's own 1-D (pairwise) sum; a fancy-indexed
    ``table[:, column]`` would be Fortran-ordered and sum in another
    order.
    """
    if hops[src] != 0:
        return None
    levels, column = np.unique(np.asarray(hops), return_inverse=True)
    table = np.array([[math.exp(-d * h) for h in levels.tolist()] for d in _DECAYS])
    weights = table.take(column, axis=1)
    weights[:, src] = 0.0
    totals = weights.sum(axis=1)
    if (totals <= 0).any():
        return None
    ss_res = ((observed - weights / totals[:, None]) ** 2).sum(axis=1)
    ss_tot = float(np.sum((observed - np.mean(observed)) ** 2))
    if ss_tot <= 0.0:
        r2 = np.where(ss_res <= 1e-30, 1.0, 0.0)
    else:
        r2 = 1.0 - ss_res / ss_tot
    best = int(np.argmax(r2))
    pattern = LocalityDecayPattern(decay=_DECAYS[best], hops=hops)
    return SpatialFit(pattern=pattern, r2=float(r2[best]))


#: A bimodal/locality fit must beat plain uniform by this margin to be
#: preferred; this guards against calling near-uniform traffic
#: "favorite processor" because of sampling noise.
BIMODAL_PREFERENCE_MARGIN = 0.10


def classify_spatial(
    observed_fractions: np.ndarray,
    src: int,
    hops: Sequence[int],
) -> List[SpatialFit]:
    """Rank the spatial models against one source's observed fractions.

    Parameters
    ----------
    observed_fractions:
        Length-``num_nodes`` vector summing to ~1 (or all zero if the
        source sent nothing).
    src:
        Source node id (its own entry is expected to be ~0).
    hops:
        Route length from ``src`` to every node, ``topology.hops(src,
        n)`` for ``n`` in ``range(num_nodes)`` (used by the locality
        model).

    Returns
    -------
    list of SpatialFit, best first.
    """
    observed = np.asarray(observed_fractions, dtype=float)
    if observed.size != len(hops):
        raise ValueError(
            f"expected {len(hops)} fractions (one per hop entry), got {observed.size}"
        )
    if observed.sum() <= 0:
        raise ValueError(f"source {src} sent no messages; nothing to classify")

    # Built in preference order (simplest first); the sort below is
    # stable, so ties go to the simpler model.
    fits: List[SpatialFit] = [_fit_uniform(observed, src)]
    bimodal = _fit_bimodal(observed, src)
    if bimodal is not None:
        fits.append(bimodal)
    butterfly = _fit_butterfly(observed, src)
    if butterfly is not None:
        fits.append(butterfly)
    locality = _fit_locality(observed, src, hops)
    if locality is not None:
        fits.append(locality)

    def sort_key(fit: SpatialFit) -> float:
        # Richer models must clear a margin over plain uniform.
        penalty = 0.0 if fit.name == "uniform" else BIMODAL_PREFERENCE_MARGIN
        return fit.r2 - penalty

    fits.sort(key=sort_key, reverse=True)
    return fits
