"""MG: the NAS multigrid kernel (MPI).

Paper: "The multigrid benchmark is a simple multigrid solver in
computing a three dimensional potential field.  It solves only a
constant coefficient equation, on a uniform cubical field.  It requires
a power-of-two number of processors."  And on its traffic: "the
application uses processor p0 as the root of all the broadcast calls
resulting in processor p0 being the favorite.  However, the volume
distribution is uniform for all the processors."

Structure: V-cycles on a 3-D Poisson problem, grid partitioned in
z-slabs.  Each Jacobi smoothing sweep exchanges one-plane halos with
the z-neighbours (big messages -- the uniform *volume*); every sweep's
convergence check is an allreduce rooted at rank 0, and the coarsest
level is gathered to, solved on, and broadcast from rank 0 (many small
messages -- the p0 *favorite* in message counts).
"""

from __future__ import annotations

from typing import Generator, List, Optional

import numpy as np

from repro.apps.base import MessagePassingApplication, partition

#: Bytes per float64 element on the wire.
FLOAT_BYTES = 8
#: Compute time charged per grid point per smoothing sweep (microseconds).
SMOOTH_US_PER_POINT = 0.02
#: Smoothing sweeps at each level per V-cycle leg.
SWEEPS = 2
#: Relaxation sweeps for the rank-0 coarse solve.
COARSE_SWEEPS = 40

HALO_TAG_UP = 11
HALO_TAG_DOWN = 12


def jacobi_sweep(u: np.ndarray, f: np.ndarray, h: float) -> np.ndarray:
    """One Jacobi sweep of the 7-point Poisson stencil on the interior
    of ``u`` (first/last z planes are halo/boundary)."""
    out = u.copy()
    out[1:-1, 1:-1, 1:-1] = (
        u[:-2, 1:-1, 1:-1]
        + u[2:, 1:-1, 1:-1]
        + u[1:-1, :-2, 1:-1]
        + u[1:-1, 2:, 1:-1]
        + u[1:-1, 1:-1, :-2]
        + u[1:-1, 1:-1, 2:]
        + h * h * f[1:-1, 1:-1, 1:-1]
    ) / 6.0
    return out


def residual_field(u: np.ndarray, f: np.ndarray, h: float) -> np.ndarray:
    """Poisson residual ``f + laplacian(u)`` on the interior."""
    res = np.zeros_like(u)
    res[1:-1, 1:-1, 1:-1] = f[1:-1, 1:-1, 1:-1] + (
        u[:-2, 1:-1, 1:-1]
        + u[2:, 1:-1, 1:-1]
        + u[1:-1, :-2, 1:-1]
        + u[1:-1, 2:, 1:-1]
        + u[1:-1, 1:-1, :-2]
        + u[1:-1, 1:-1, 2:]
        - 6.0 * u[1:-1, 1:-1, 1:-1]
    ) / (h * h)
    return res


class MultigridApp(MessagePassingApplication):
    """Two-level multigrid V-cycles for a 3-D Poisson problem.

    The global grid is ``n`` points per side (power of two); boundary
    values are zero.  After ``cycles`` V-cycles the residual norm must
    have dropped by :attr:`required_reduction`.
    """

    name = "mg"
    description = "NAS MG kernel; halo volume uniform, p0-rooted collectives favorite"

    required_reduction = 0.2

    def __init__(self, n: int = 32, cycles: int = 2, seed: int = 7) -> None:
        if n < 8 or n & (n - 1):
            raise ValueError(f"n must be a power of two >= 8, got {n}")
        if cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {cycles}")
        self.n = n
        self.cycles = cycles
        self.seed = seed
        self.initial_residual: Optional[float] = None
        self.final_residual: Optional[float] = None
        self._fields: List[Optional[np.ndarray]] = []
        self._forcing: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # distributed helpers
    # ------------------------------------------------------------------
    def _halo_exchange(self, comm, u: np.ndarray) -> Generator:
        """Swap boundary planes with z-neighbours (slab partition)."""
        plane_bytes = u.shape[1] * u.shape[2] * FLOAT_BYTES
        up = comm.rank - 1
        down = comm.rank + 1
        if up >= 0:
            yield from comm.send(up, u[1].copy(), plane_bytes, tag=HALO_TAG_UP, kind="halo")
        if down < comm.size:
            yield from comm.send(
                down, u[-2].copy(), plane_bytes, tag=HALO_TAG_DOWN, kind="halo"
            )
        if up >= 0:
            u[0] = yield from comm.recv(up, tag=HALO_TAG_DOWN)
        if down < comm.size:
            u[-1] = yield from comm.recv(down, tag=HALO_TAG_UP)

    def _global_norm(self, comm, field: np.ndarray) -> Generator:
        """Allreduce (root p0) of the squared norm of the local interior."""
        local = float(np.sum(field[1:-1, 1:-1, 1:-1] ** 2))
        total = yield from comm.allreduce(local, FLOAT_BYTES, lambda a, b: a + b)
        return float(np.sqrt(total))

    # ------------------------------------------------------------------
    def rank_body(self, comm) -> Generator:
        n = self.n
        size = comm.size
        if n % size or n // size < 2:
            raise ValueError(
                f"grid n={n} needs at least 2 z-planes per rank (got {size} ranks)"
            )
        if self._forcing is None:
            rng = np.random.default_rng(self.seed)
            self._forcing = rng.standard_normal((n, n, n))
            self._fields = [None] * size

        my_z = partition(n, size, comm.rank)
        nz = len(my_z)
        h = 1.0 / n
        # Local slab with one halo plane on each z side; x/y boundaries
        # are the global zero boundary.
        u = np.zeros((nz + 2, n + 2, n + 2))
        f = np.zeros((nz + 2, n + 2, n + 2))
        f[1 : nz + 1, 1 : n + 1, 1 : n + 1] = self._forcing[my_z.start : my_z.stop]

        initial = yield from self._global_norm(comm, residual_field(u, f, h))
        if comm.rank == 0:
            self.initial_residual = initial

        for _ in range(self.cycles):
            # Pre-smoothing with halo exchanges; like NAS MG, the
            # residual norm is reported after every sweep (a p0-rooted
            # allreduce of one scalar -- small messages, big count).
            for _ in range(SWEEPS):
                yield from self._halo_exchange(comm, u)
                u = jacobi_sweep(u, f, h)
                yield from comm.compute(u.size * SMOOTH_US_PER_POINT)
                yield from self._global_norm(comm, residual_field(u, f, h))

            # Residual, restricted to the coarse grid (factor 2).
            yield from self._halo_exchange(comm, u)
            res = residual_field(u, f, h)
            coarse = res[1 : nz + 1 : 2, 1 : n + 1 : 2, 1 : n + 1 : 2].copy()
            yield from comm.compute(coarse.size * SMOOTH_US_PER_POINT)

            # Coarse solve on rank 0: gather, relax, broadcast.
            gathered = yield from comm.gather(
                0, coarse, coarse.size * FLOAT_BYTES
            )
            if comm.rank == 0:
                nc = n // 2
                coarse_f = np.zeros((nc + 2, nc + 2, nc + 2))
                offset = 0
                for q in range(size):
                    qz = partition(n, size, q)
                    qnz = len(qz) // 2
                    coarse_f[1 + offset : 1 + offset + qnz, 1 : nc + 1, 1 : nc + 1] = (
                        gathered[q]
                    )
                    offset += qnz
                coarse_u = np.zeros_like(coarse_f)
                hc = 2.0 * h
                for _ in range(COARSE_SWEEPS):
                    coarse_u = jacobi_sweep(coarse_u, coarse_f, hc)
                yield from comm.compute(coarse_u.size * SMOOTH_US_PER_POINT * COARSE_SWEEPS)
                correction_full = coarse_u
            else:
                correction_full = None
            correction_full = yield from comm.bcast(
                0, correction_full, ((n // 2 + 2) ** 3) * FLOAT_BYTES
            )

            # Prolong (nearest-neighbour) my slab's share and correct.
            nc = n // 2
            my_coarse_start = my_z.start // 2
            my_coarse_nz = nz // 2
            local_corr = correction_full[
                1 + my_coarse_start : 1 + my_coarse_start + my_coarse_nz,
                1 : nc + 1,
                1 : nc + 1,
            ]
            fine_corr = np.repeat(
                np.repeat(np.repeat(local_corr, 2, axis=0), 2, axis=1), 2, axis=2
            )
            u[1 : nz + 1, 1 : n + 1, 1 : n + 1] += fine_corr
            yield from comm.compute(fine_corr.size * SMOOTH_US_PER_POINT)

            # Post-smoothing, again with per-sweep norm reporting.
            for _ in range(SWEEPS):
                yield from self._halo_exchange(comm, u)
                u = jacobi_sweep(u, f, h)
                yield from comm.compute(u.size * SMOOTH_US_PER_POINT)
                yield from self._global_norm(comm, residual_field(u, f, h))

        yield from self._halo_exchange(comm, u)
        final = yield from self._global_norm(comm, residual_field(u, f, h))
        if comm.rank == 0:
            self.final_residual = final
        self._fields[comm.rank] = u

    def verify(self) -> None:
        if self.initial_residual is None or self.final_residual is None:
            raise AssertionError("MG never computed its residuals")
        reduction = self.final_residual / self.initial_residual
        if not reduction < self.required_reduction:
            raise AssertionError(
                f"V-cycles reduced the residual only to {reduction:.3f} of initial "
                f"(need < {self.required_reduction})"
            )
