"""E15 (extension) -- characterization across machine sizes.

The paper characterizes at one machine size (8 processors); a natural
follow-on question is whether the *named patterns* are properties of
the algorithm (stable across P) or artifacts of one configuration.
This experiment re-characterizes 1D-FFT and 3D-FFT at P = 4, 8, 16 and
checks that the butterfly / uniform classifications and the bimodal
length mix survive scaling, while rates shift with the machine size.
"""

import pytest

from repro import (
    characterize_message_passing,
    characterize_shared_memory,
    create_app,
)
from repro.mesh import MeshConfig

MACHINES = (
    ("2x2", MeshConfig("2x2")),
    ("4x2", MeshConfig("4x2")),
    ("4x4", MeshConfig("4x4")),
)


@pytest.fixture(scope="module")
def scaling_runs():
    out = {"1d-fft": {}, "3d-fft": {}}
    for label, config in MACHINES:
        out["1d-fft"][label] = characterize_shared_memory(
            create_app("1d-fft", n=256), mesh_config=config
        )
        out["3d-fft"][label] = characterize_message_passing(
            create_app("3d-fft", n=16), mesh_config=config
        )
    return out


def test_e15_scaling_table(scaling_runs, benchmark):
    print()
    header = (
        f"{'app':<8} {'machine':<8} {'messages':>9} {'rate':>10} "
        f"{'cv':>6} {'pattern':<16}"
    )
    print(header)
    print("-" * len(header))
    for app_name, by_machine in scaling_runs.items():
        for label, run in by_machine.items():
            c = run.characterization
            print(
                f"{app_name:<8} {label:<8} {len(run.log):>9} "
                f"{c.temporal.rate:>10.5f} {c.temporal.cv:>6.2f} "
                f"{c.spatial.dominant_pattern:<16}"
            )

    benchmark.pedantic(
        lambda: characterize_shared_memory(
            create_app("1d-fft", n=256), mesh_config=MeshConfig("4x4")
        ),
        rounds=1,
        iterations=1,
    )


def test_e15_patterns_stable_across_p(scaling_runs):
    for label, run in scaling_runs["1d-fft"].items():
        assert run.characterization.spatial.dominant_pattern == "butterfly", label
    for label, run in scaling_runs["3d-fft"].items():
        assert run.characterization.spatial.dominant_pattern == "uniform", label


def test_e15_length_modes_stable_across_p(scaling_runs):
    for label, run in scaling_runs["1d-fft"].items():
        assert set(run.characterization.volume.length_fractions) == {8, 32}, label


def test_e15_more_processors_more_messages(scaling_runs):
    for app_name in ("1d-fft", "3d-fft"):
        counts = [len(scaling_runs[app_name][label].log) for label, _ in MACHINES]
        assert counts[0] < counts[1] < counts[2], app_name
