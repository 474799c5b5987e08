"""Nbody: gravitational N-body simulation.

Paper: "The Nbody application simulates over time the movement of
bodies due to the gravitational forces exerted on one another, given
some set of initial conditions.  The parallel implementation statically
allocates a set of bodies to each processor and goes through three
phases for each simulated time step."

Three phases per step here: force computation (each processor reads
*every* body's position and mass -- broad read sharing), barrier, local
position/velocity update, barrier.  Positions are 2-D and stored as one
complex value per body.
"""

from __future__ import annotations

from typing import Generator, List, Optional

import numpy as np

from repro.apps.base import SharedMemoryApplication
from repro.exec_driven.runtime import ExecutionDrivenSimulation
from repro.exec_driven.thread_api import ThreadContext

#: Cycles charged per pairwise force interaction.
INTERACTION_CYCLES = 8.0
#: Cycles charged per body update.
UPDATE_CYCLES = 6.0


def gravity_step(
    positions: np.ndarray,
    velocities: np.ndarray,
    masses: np.ndarray,
    dt: float,
    softening: float,
) -> None:
    """Reference serial step (identical arithmetic to the parallel code);
    mutates ``positions`` and ``velocities`` in place."""
    n = len(positions)
    forces = np.zeros(n, dtype=complex)
    for i in range(n):
        acc = 0j
        for j in range(n):
            if j == i:
                continue
            delta = positions[j] - positions[i]
            dist_sq = (delta.real * delta.real + delta.imag * delta.imag) + softening
            acc += masses[j] * delta / (dist_sq * np.sqrt(dist_sq))
        forces[i] = acc
    for i in range(n):
        velocities[i] += dt * forces[i]
        positions[i] += dt * velocities[i]


class NbodyApp(SharedMemoryApplication):
    """O(n^2) 2-D gravitational N-body over ``steps`` timesteps."""

    name = "nbody"
    description = "N-body gravity; three-phase timestep, broad read sharing"

    def __init__(
        self,
        n: int = 64,
        steps: int = 3,
        dt: float = 0.01,
        softening: float = 0.1,
        seed: int = 3,
    ) -> None:
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        self.n = n
        self.steps = steps
        self.dt = dt
        self.softening = softening
        self.seed = seed

    def build(self, sim: ExecutionDrivenSimulation) -> None:
        rng = np.random.default_rng(self.seed)
        self.init_pos = rng.standard_normal(self.n) + 1j * rng.standard_normal(self.n)
        self.init_vel = 0.1 * (rng.standard_normal(self.n) + 1j * rng.standard_normal(self.n))
        self.init_mass = rng.uniform(0.5, 2.0, self.n)
        self.pos = sim.array("nbody.pos", self.n, placement="chunked")
        self.vel = sim.array("nbody.vel", self.n, placement="chunked")
        self.mass = sim.array("nbody.mass", self.n, placement="chunked")
        self.pos.fill([complex(z) for z in self.init_pos])
        self.vel.fill([complex(z) for z in self.init_vel])
        self.mass.fill([float(m) for m in self.init_mass])
        self.force_barrier = sim.barrier(rotating=True)
        self.update_barrier = sim.barrier(rotating=True)

    def thread_body(self, ctx: ThreadContext) -> Generator:
        my = self.pos.chunk(ctx.pid)
        for _ in range(self.steps):
            # Phase 1: forces on owned bodies from every body.
            forces: List[complex] = []
            for i in my:
                xi = yield from ctx.load(self.pos, i)
                acc = 0j
                for j in range(self.n):
                    if j == i:
                        continue
                    xj = yield from ctx.load(self.pos, j)
                    mj = yield from ctx.load(self.mass, j)
                    delta = xj - xi
                    dist_sq = (
                        delta.real * delta.real + delta.imag * delta.imag
                    ) + self.softening
                    acc += mj * delta / (dist_sq * np.sqrt(dist_sq))
                    ctx.compute(INTERACTION_CYCLES)
                forces.append(acc)
            yield from ctx.barrier(self.force_barrier)

            # Phase 2: integrate owned bodies.
            for offset, i in enumerate(my):
                v = yield from ctx.load(self.vel, i)
                v = v + self.dt * forces[offset]
                yield from ctx.store(self.vel, i, v)
                x = yield from ctx.load(self.pos, i)
                yield from ctx.store(self.pos, i, x + self.dt * v)
                ctx.compute(UPDATE_CYCLES)
            yield from ctx.barrier(self.update_barrier)

    def verify(self) -> None:
        expected_pos = np.array(self.init_pos, dtype=complex)
        expected_vel = np.array(self.init_vel, dtype=complex)
        masses = np.array(self.init_mass, dtype=float)
        for _ in range(self.steps):
            gravity_step(expected_pos, expected_vel, masses, self.dt, self.softening)
        got_pos = np.asarray(self.pos.snapshot(), dtype=complex)
        got_vel = np.asarray(self.vel.snapshot(), dtype=complex)
        if not np.allclose(got_pos, expected_pos, atol=1e-9):
            raise AssertionError("positions diverged")
        if not np.allclose(got_vel, expected_vel, atol=1e-9):
            raise AssertionError("velocities diverged")
