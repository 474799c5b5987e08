"""E17 (extension) -- phase-level communication structure.

The paper narrates its applications in phases ("in the first and last
phase ... an entirely local operation") but characterizes whole runs.
Segmenting the activity log at injection lulls recovers the
time-varying structure: 1D-FFT decomposes into message-free local
stages and single-partner exchange stages at XOR distances 1, 2, 4 (in
stage order) -- the aggregate butterfly is literally the superposition
of these phases.  MG similarly separates halo sweeps from the
p0-centric collective phases.
"""

from repro.core import phase_table, segment_phases


def test_e17_fft_phase_table(runs, benchmark):
    log = runs.run("1d-fft").log
    segments = benchmark.pedantic(lambda: segment_phases(log), rounds=1, iterations=1)
    print()
    print(phase_table(segments))

    distances = [
        s.modal_xor_distance() for s in segments if s.modal_xor_distance() is not None
    ]
    assert set(distances) == {1, 2, 4}
    first_seen = {d: distances.index(d) for d in (1, 2, 4)}
    assert first_seen[1] < first_seen[2] < first_seen[4]
    # Local stages (no data traffic) bracket the exchanges.
    assert segments[0].modal_xor_distance() is None
    assert segments[-1].modal_xor_distance() is None


def test_e17_mg_phases_separate_halos_from_collectives(runs):
    log = runs.run("mg").log
    segments = segment_phases(log, gap_factor=1.0)
    print()
    print(phase_table(segments[:12]))
    halo_phases = 0
    collective_phases = 0
    for segment in segments:
        kinds = segment.kind_counts()
        halo = kinds.get("halo", 0)
        collective = kinds.get("reduce", 0) + kinds.get("bcast", 0) + kinds.get("gather", 0)
        if halo > collective:
            halo_phases += 1
        elif collective > halo:
            collective_phases += 1
    assert halo_phases > 0 and collective_phases > 0, (
        "MG's timeline should alternate halo-dominated and "
        "collective-dominated phases"
    )
