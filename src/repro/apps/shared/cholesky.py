"""Cholesky: sparse Cholesky factorization (SPLASH).

Paper: "Cholesky is an application drawn from the SPLASH benchmark
suite.  This application performs a Cholesky factorization of a sparse
positive definite matrix.  The sparse nature of the matrix results in
an algorithm with a data-dependent dynamic access pattern."  The
paper's spatial finding mirrors IS: a favorite-processor (bimodal
uniform) pattern, which here -- as in the original -- stems from the
centralized dynamic task queue every processor hammers, while the
column updates themselves wander data-dependently across memories.

Algorithm: left-looking column Cholesky.  Columns are self-scheduled
from a shared task counter (home: p0, lock-protected).  For column j,
the worker waits (spin with exponential backoff -- the spins hit in
cache until the writer's invalidation arrives) until each earlier
column k completes, applies ``cmod(j, k)`` only when L[j,k] is
numerically nonzero (the sparsity-driven skip), then performs
``cdiv(j)`` and raises the column's done flag.
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro.apps.base import SharedMemoryApplication
from repro.exec_driven.runtime import ExecutionDrivenSimulation
from repro.exec_driven.thread_api import ThreadContext

#: Cycles charged per multiply-subtract in cmod.
CMOD_CYCLES = 6.0
#: Cycles charged per division in cdiv.
CDIV_CYCLES = 8.0
#: Numeric threshold below which an entry is treated as structurally zero.
ZERO_EPS = 1e-12


def make_sparse_spd(n: int, density: float, seed: int) -> np.ndarray:
    """Random sparse symmetric positive-definite matrix.

    ``B B^T + n I`` for a sparse lower-triangular ``B`` -- guaranteed
    SPD with a data-dependent sparsity pattern.
    """
    rng = np.random.default_rng(seed)
    lower = np.tril(rng.standard_normal((n, n)), k=-1)
    mask = rng.random((n, n)) < density
    sparse_part = np.where(mask, lower, 0.0)
    np.fill_diagonal(sparse_part, rng.uniform(0.5, 1.5, n))
    return sparse_part @ sparse_part.T + n * np.eye(n)


class CholeskyApp(SharedMemoryApplication):
    """Left-looking sparse Cholesky with dynamic column self-scheduling.

    The factor is stored column-major in shared memory: entry
    ``L[i, j]`` (i >= j) lives at word ``j * n + i``.
    """

    name = "cholesky"
    description = "sparse Cholesky; dynamic data-dependent pattern, central task queue"

    def __init__(self, n: int = 48, density: float = 0.15, seed: int = 4) -> None:
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        if not (0.0 <= density <= 1.0):
            raise ValueError(f"density must be in [0,1], got {density}")
        self.n = n
        self.density = density
        self.seed = seed
        self.matrix: Optional[np.ndarray] = None

    def build(self, sim: ExecutionDrivenSimulation) -> None:
        n = self.n
        self.matrix = make_sparse_spd(n, self.density, self.seed)
        # Column-major storage; chunked placement homes each column
        # range on the node that will mostly touch it first.
        self.factor = sim.array("chol.L", n * n, placement="chunked")
        for j in range(n):
            for i in range(n):
                self.factor.poke(j * n + i, float(self.matrix[i, j]) if i >= j else 0.0)
        self.done = sim.array("chol.done", n, placement="interleaved")
        self.done.fill([0] * n)
        # The centralized dynamic task queue -- the favorite processor.
        self.task_counter = sim.array("chol.tasks", 1, placement=0)
        self.task_counter.poke(0, 0)
        self.task_lock = sim.lock(home=0)

    def _wait_done(self, ctx: ThreadContext, column: int):
        """Spin (with backoff) until ``column``'s done flag rises."""
        backoff = 20.0
        while True:
            flag = yield from ctx.load(self.done, column)
            if flag:
                return
            ctx.compute(backoff)
            yield from ctx.machine.flush_cycles(ctx.pid)
            backoff = min(backoff * 2.0, 2000.0)

    def thread_body(self, ctx: ThreadContext) -> Generator:
        n = self.n
        while True:
            # Grab the next column from the central queue.
            yield from ctx.lock(self.task_lock)
            j = yield from ctx.load(self.task_counter, 0)
            yield from ctx.store(self.task_counter, 0, j + 1)
            yield from ctx.unlock(self.task_lock)
            if j >= n:
                break

            # cmod(j, k) for every finished earlier column with a
            # numerically nonzero multiplier -- the sparse skip.
            for k in range(j):
                yield from self._wait_done(ctx, k)
                ljk = yield from ctx.load(self.factor, k * n + j)
                if abs(ljk) <= ZERO_EPS:
                    continue
                for i in range(j, n):
                    lik = yield from ctx.load(self.factor, k * n + i)
                    if abs(lik) <= ZERO_EPS:
                        continue
                    current = yield from ctx.load(self.factor, j * n + i)
                    yield from ctx.store(self.factor, j * n + i, current - ljk * lik)
                    ctx.compute(CMOD_CYCLES)

            # cdiv(j).
            diag = yield from ctx.load(self.factor, j * n + j)
            if not diag > 0:
                raise AssertionError(f"matrix not positive definite at column {j}")
            root = float(np.sqrt(diag))
            yield from ctx.store(self.factor, j * n + j, root)
            for i in range(j + 1, n):
                value = yield from ctx.load(self.factor, j * n + i)
                if abs(value) > ZERO_EPS:
                    yield from ctx.store(self.factor, j * n + i, value / root)
                ctx.compute(CDIV_CYCLES)
            yield from ctx.store(self.done, j, 1)

    def verify(self) -> None:
        n = self.n
        lower = np.zeros((n, n))
        for j in range(n):
            for i in range(j, n):
                lower[i, j] = self.factor.peek(j * n + i)
        reconstructed = lower @ lower.T
        if not np.allclose(reconstructed, self.matrix, atol=1e-6):
            raise AssertionError("L L^T does not reconstruct the input matrix")
