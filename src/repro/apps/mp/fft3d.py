"""3D-FFT: the NAS 3-D Fast Fourier Transform kernel (MPI).

Paper: "The kernel benchmark 3D-FFT is an implementation of the 3D-FFT.
A 3-D array of data is distributed according to z-planes of the array;
one or more planes are stored in each processor."  The transform is the
classic transpose algorithm: 2-D FFTs on the locally held z-planes,
a personalized all-to-all exchange transposing z against x, then 1-D
FFTs along the now-local z axis.  The all-to-all makes the spatial
distribution uniform -- every rank sends one equal-size block to every
other rank per transpose.
"""

from __future__ import annotations

from typing import Generator, List, Optional

import numpy as np

from repro.apps.base import MessagePassingApplication, partition

#: Bytes per complex128 element on the wire.
COMPLEX_BYTES = 16
#: Compute time charged per element of a local FFT pass (microseconds).
FFT_US_PER_ELEMENT = 0.05


class FFT3DApp(MessagePassingApplication):
    """Distributed 3-D complex FFT on an ``n x n x n`` grid.

    ``n`` must be divisible by the rank count.  The verified result
    lives in x-slab distribution after the transpose, matching the NAS
    kernel's data flow.
    """

    name = "3d-fft"
    description = "NAS 3D-FFT kernel; all-to-all transpose, uniform spatial"

    def __init__(self, n: int = 16, seed: int = 6) -> None:
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        self.n = n
        self.seed = seed
        self.input: Optional[np.ndarray] = None
        self._slabs: List[Optional[np.ndarray]] = []

    def rank_body(self, comm) -> Generator:
        n = self.n
        size = comm.size
        if n % size:
            raise ValueError(f"n={n} must be a multiple of the rank count {size}")
        if self.input is None:
            rng = np.random.default_rng(self.seed)
            self.input = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal(
                (n, n, n)
            )
            self._slabs = [None] * size

        my_z = partition(n, size, comm.rank)
        local = self.input[my_z.start : my_z.stop].copy()  # (nz, n, n) over (z, y, x)

        # Phase 1: 2-D FFT over (y, x) on each owned z-plane.
        local = np.fft.fft2(local, axes=(1, 2))
        yield from comm.compute(local.size * FFT_US_PER_ELEMENT)

        # Phase 2: transpose z against x by personalized all-to-all --
        # rank q receives our x-columns in its x-range, every pair
        # exchanges one equal block.
        chunks = []
        for q in range(size):
            xs = partition(n, size, q)
            chunks.append(local[:, :, xs.start : xs.stop].copy())
        block_bytes = chunks[0].size * COMPLEX_BYTES
        received = yield from comm.alltoall(chunks, block_bytes)

        # Reassemble to (n_z_total, n_y, nx_local) for this rank's x-slab.
        my_x = partition(n, size, comm.rank)
        slab = np.empty((n, n, len(my_x)), dtype=complex)
        for q in range(size):
            zs = partition(n, size, q)
            slab[zs.start : zs.stop] = received[q]

        # Phase 3: 1-D FFT along the (now local) z axis.
        slab = np.fft.fft(slab, axis=0)
        yield from comm.compute(slab.size * FFT_US_PER_ELEMENT)
        self._slabs[comm.rank] = slab

    def verify(self) -> None:
        n = self.n
        if self.input is None:
            raise AssertionError("rank_body never ran")
        expected = np.fft.fftn(self.input)
        size = len(self._slabs)
        for rank, slab in enumerate(self._slabs):
            if slab is None:
                raise AssertionError(f"rank {rank} produced no slab")
            xs = partition(n, size, rank)
            if not np.allclose(slab, expected[:, :, xs.start : xs.stop], atol=1e-6):
                raise AssertionError(
                    f"3D-FFT slab of rank {rank} disagrees with numpy.fft.fftn"
                )
