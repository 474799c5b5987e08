"""Derivative-free multivariate secant non-linear least squares.

The paper: "The non-linear model with iterative methods for
curve-fitting is provided by the package [SAS].  We have used the
multivariate secant method for our study."  SAS PROC NLIN's secant
method (``METHOD=DUD``, Ralston & Jennrich) approximates the Jacobian
from secants through evaluated parameter points instead of analytic
derivatives.  This module implements the same idea in its robust
textbook form: per-iteration secant (finite-difference) Jacobians feed
a Levenberg-damped Gauss-Newton step with a halving line search.  No
analytic derivatives are ever used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

ResidualFunction = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SecantResult:
    """Outcome of a secant least-squares solve.

    Attributes
    ----------
    x:
        Final parameter vector (unconstrained space).
    sse:
        Final sum of squared residuals.
    iterations:
        Gauss-Newton iterations taken.
    converged:
        Whether the relative SSE improvement fell below tolerance.
    """

    x: np.ndarray
    sse: float
    iterations: int
    converged: bool


def secant_least_squares(
    residual_fn: ResidualFunction,
    x0: np.ndarray,
    max_iter: int = 100,
    tol: float = 1e-12,
    secant_step: float = 1e-6,
) -> SecantResult:
    """Minimize ``||residual_fn(x)||^2`` by the multivariate secant method.

    Parameters
    ----------
    residual_fn:
        Maps a parameter vector to the residual vector.  Non-finite
        residuals are treated as an infinitely bad point (the solver
        backs away), so transforms may safely overflow.
    x0:
        Starting parameter vector (unconstrained space).
    max_iter:
        Maximum Gauss-Newton iterations.
    tol:
        Convergence threshold on the relative SSE improvement of a
        full (undamped) step.
    secant_step:
        Relative offset of the secant evaluation points.

    The whole solve runs under one ``np.errstate(all="ignore")``: wild
    points overflow by design, and the solver rejects non-finite
    residuals and sums of squares instead of warning about them.
    """
    with np.errstate(all="ignore"):
        return _solve(residual_fn, x0, max_iter, tol, secant_step)


def _solve(
    residual_fn: ResidualFunction,
    x0: np.ndarray,
    max_iter: int,
    tol: float,
    secant_step: float,
) -> SecantResult:
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    eye = np.eye(n)

    def evaluate(point: np.ndarray) -> Tuple[Optional[np.ndarray], float]:
        """The residual at ``point`` and its sum of squares; ``None``
        (and an infinite sum) where a residual is not finite."""
        try:
            r = np.asarray(residual_fn(point), dtype=float)
        except (FloatingPointError, OverflowError, ValueError, ZeroDivisionError):
            return None, math.inf
        sse = float(np.dot(r, r))
        # A square cannot cancel, so a finite sum proves every residual
        # finite.  Only a sum that is not finite needs the element scan,
        # to tell a non-finite residual from finite ones whose squares
        # overflow.
        if not math.isfinite(sse) and not np.isfinite(r).all():
            return None, math.inf
        return r, sse

    r, sse = evaluate(x)
    if r is None:
        raise ValueError("residual function is not finite at the starting point")
    if not math.isfinite(sse):
        # Residuals can be individually finite while their dot product
        # overflows; an infinite starting SSE would make every line
        # search accept (inf <= inf) and poison the gain computation.
        raise ValueError("residual sum of squares overflows at the starting point")
    damping = 1e-8
    iterations = 0
    converged = False

    for iterations in range(1, max_iter + 1):
        # Secant Jacobian: forward differences through nearby points.
        jac = np.empty((r.size, n))
        degenerate = False
        for j in range(n):
            h = secant_step * (abs(x[j]) + 1.0)
            xj = x.copy()
            xj[j] += h
            rj, _ = evaluate(xj)
            if rj is None:
                xj[j] -= 2 * h
                rj, _ = evaluate(xj)
                h = -h
            if rj is None:
                degenerate = True
                break
            jac[:, j] = (rj - r) / h
        if degenerate:
            break

        grad = jac.T @ r
        if math.sqrt(grad @ grad) < 1e-14:
            converged = True
            break

        # The normal matrix and the right-hand side do not depend on the
        # damping; only the diagonal term changes per attempt.
        normal = jac.T @ jac
        descent = -grad
        stepped = False
        for _ in range(30):  # damping escalation
            try:
                step = np.linalg.solve(normal + damping * eye, descent)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            # Halving line search along the damped step.
            scale = 1.0
            for _ in range(10):
                candidate = x + scale * step
                cand_r, cand_sse = evaluate(candidate)
                # sse is finite (the start is checked, and only a finite
                # sum is accepted), so this rejects an infinite sum: a
                # wild step whose finite residuals overflow it, or a
                # non-finite residual.
                if cand_sse <= sse:
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
            converged = True  # no descent direction improves: local minimum
            break
        if converged:
            break

    return SecantResult(x=x, sse=sse, iterations=iterations, converged=converged)
