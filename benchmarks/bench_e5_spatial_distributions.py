"""E5 -- spatial distribution figures, all applications.

Regenerates the paper's per-processor destination histograms ("the
fraction of messages sent by a processor to others in the system") and
the named pattern each one matches: butterfly for 1D-FFT, favorite
processor (bimodal uniform) for IS and Cholesky, broad/uniform sharing
for Nbody and 3D-FFT, p0-rooted favorite for MG.  The benchmarked
operation is the spatial classification.
"""

import numpy as np
import pytest

from repro.core import analyze_spatial
from repro.core.report import spatial_table
from repro.mesh import MeshConfig

from conftest import MESSAGE_PASSING, SHARED_MEMORY


def test_e5_spatial_tables(runs):
    print()
    for name in SHARED_MEMORY + MESSAGE_PASSING:
        print(spatial_table(runs.run(name).characterization))
        print()


def test_e5_fft_butterfly(runs):
    spatial = runs.run("1d-fft").characterization.spatial
    assert spatial.dominant_pattern == "butterfly"


def test_e5_is_favorite_processor(runs):
    spatial = runs.run("is").characterization.spatial
    favorites = [spatial.favorite_of(src) for src in range(1, 8)]
    assert favorites.count(0) == 7
    # "one processor gets the maximum number of messages and the rest
    # get equal": the favorite share is overwhelming for IS.
    for src in range(1, 8):
        assert spatial.fraction_matrix[src, 0] > 0.5


def test_e5_cholesky_favorite_processor(runs):
    spatial = runs.run("cholesky").characterization.spatial
    # The central task queue makes p0 the modal destination of most
    # processors (data-dependent column traffic spreads the rest).
    modal = [int(np.argmax(spatial.fraction_matrix[src])) for src in range(1, 8)]
    assert modal.count(0) >= 4


def test_e5_3dfft_uniform(runs):
    spatial = runs.run("3d-fft").characterization.spatial
    assert spatial.dominant_pattern == "uniform"


def test_e5_mg_p0_favorite(runs):
    spatial = runs.run("mg").characterization.spatial
    matrix = spatial.fraction_matrix
    for src in range(1, 8):
        assert int(np.argmax(matrix[src])) == 0, (
            f"rank {src}'s modal destination should be the collective root p0"
        )


def test_e5_classification_benchmark(runs, benchmark):
    log = runs.run("nbody").log
    spatial = benchmark(analyze_spatial, log, MeshConfig("4x2").make_topology())
    assert len(spatial.per_source) == 8
