"""E6 -- message *volume* distribution figures (3D-FFT, MG).

Regenerates the paper's "Message Volume Distribution for p0/p1" plots:
the fraction of each processor's *bytes* sent to every destination.
The paper's MG contrast must hold: p0 dominates message *counts* (it
roots every collective) while the *volume* distribution stays spread
over the halo partners -- small control messages vs big data messages.
"""

import numpy as np

from repro.core import analyze_volume

from conftest import MESSAGE_PASSING


def test_e6_volume_figures(runs):
    print()
    for name in MESSAGE_PASSING:
        characterization = runs.run(name).characterization
        volume = characterization.volume
        for src in (0, 1):
            fracs = volume.volume_matrix[src]
            row = " ".join(f"{f:5.2f}" for f in fracs)
            print(f"{name}: volume distribution for p{src}: [{row}]")
    print()


def test_e6_3dfft_volume_uniform(runs):
    volume = runs.run("3d-fft").characterization.volume
    for src in range(8):
        others = np.delete(volume.volume_matrix[src], src)
        assert np.allclose(others, 1.0 / 7, atol=0.01)


def test_e6_mg_count_vs_volume_contrast(runs):
    characterization = runs.run("mg").characterization
    counts = characterization.spatial.fraction_matrix
    volume = characterization.volume.volume_matrix
    for src in range(2, 7):  # interior ranks: two halo partners
        # Counts: p0 is the modal destination (collective root).
        assert int(np.argmax(counts[src])) == 0
        # Volume: halo neighbours carry the bytes, p0 only a sliver.
        neighbor_volume = volume[src, src - 1] + volume[src, src + 1]
        assert neighbor_volume > 0.8
        assert volume[src, 0] < 0.2


def test_e6_volume_analysis_benchmark(runs, benchmark):
    log = runs.run("mg").log
    volume = benchmark(analyze_volume, log, 8)
    assert volume.message_count == len(log)
