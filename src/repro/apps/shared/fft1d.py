"""1D-FFT: one-dimensional complex Fast Fourier Transform.

Paper: "1D-FFT implements a 1-dimensional complex Fast Fourier
Transform.  Each processor works on an assigned portion of the data
space that is equally partitioned.  There are three main phases in the
execution.  In the first and last phase, the processors perform the
radix-2 Butterfly computation, which is an entirely local operation."

Structure here: radix-2 decimation-in-time over a bit-reverse-permuted
input, contiguous block partition with chunked placement.  Stages with
butterfly span smaller than the chunk are entirely local; the middle
log2(P) stages pair each processor with partner ``pid XOR 2^k`` -- the
butterfly communication pattern whose remote reads dominate the
network log.  Double buffering plus a barrier per stage keeps the
parallel update race-free.
"""

from __future__ import annotations

import cmath
from typing import Generator, List, Optional

import numpy as np

from repro.apps.base import SharedMemoryApplication
from repro.exec_driven.runtime import ExecutionDrivenSimulation
from repro.exec_driven.thread_api import ThreadContext

#: Cycles charged for one butterfly's complex arithmetic.
BUTTERFLY_CYCLES = 10.0


def _bit_reverse(index: int, bits: int) -> int:
    out = 0
    for _ in range(bits):
        out = (out << 1) | (index & 1)
        index >>= 1
    return out


class FFT1DApp(SharedMemoryApplication):
    """Parallel radix-2 complex FFT on ``n`` points.

    Parameters
    ----------
    n:
        Transform size; must be a power of two and a multiple of the
        processor count.
    seed:
        Seed for the random complex input.
    """

    name = "1d-fft"
    description = "1-D complex FFT; local butterfly phases + butterfly exchange"

    def __init__(self, n: int = 256, seed: int = 1) -> None:
        if n < 2 or n & (n - 1):
            raise ValueError(f"n must be a power of two >= 2, got {n}")
        self.n = n
        self.seed = seed
        self.input: Optional[np.ndarray] = None
        self.result: Optional[np.ndarray] = None
        self._sim: Optional[ExecutionDrivenSimulation] = None

    def build(self, sim: ExecutionDrivenSimulation) -> None:
        if self.n % sim.num_processors:
            raise ValueError(
                f"n={self.n} must be a multiple of P={sim.num_processors}"
            )
        self._sim = sim
        rng = np.random.default_rng(self.seed)
        self.input = rng.standard_normal(self.n) + 1j * rng.standard_normal(self.n)
        bits = self.n.bit_length() - 1
        self.current = sim.array("fft.a", self.n, placement="chunked")
        self.scratch = sim.array("fft.b", self.n, placement="chunked")
        # Decimation-in-time wants bit-reversed input order.
        for i in range(self.n):
            self.current.poke(i, complex(self.input[_bit_reverse(i, bits)]))
        self.stage_barrier = sim.barrier(rotating=True)

    def thread_body(self, ctx: ThreadContext) -> Generator:
        n = self.n
        src, dst = self.current, self.scratch
        my = src.chunk(ctx.pid)
        span = 1
        while span < n:
            for m in my:
                partner = m ^ span
                mine = yield from ctx.load(src, m)
                other = yield from ctx.load(src, partner)
                k = m % span
                w = cmath.exp(-2j * cmath.pi * k / (2 * span))
                if m & span:
                    value = other - w * mine
                else:
                    value = mine + w * other
                ctx.compute(BUTTERFLY_CYCLES)
                yield from ctx.store(dst, m, value)
            yield from ctx.barrier(self.stage_barrier)
            src, dst = dst, src
            span <<= 1
        if ctx.pid == 0:
            self._final = src  # which buffer holds the answer

    def verify(self) -> None:
        final: List[complex] = self._final.snapshot()
        self.result = np.asarray(final)
        expected = np.fft.fft(self.input)
        if not np.allclose(self.result, expected, atol=1e-8):
            raise AssertionError("1D-FFT result disagrees with numpy.fft.fft")
