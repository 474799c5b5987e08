"""E21 (extension) -- network capacity under application workloads.

The classic latency/throughput-vs-offered-load figure, driven by
characterized application traffic on fast and slow network builds.
Closed-loop sources make saturation appear as a throughput plateau
(achieved rate stops tracking the requested rate), which the sweep
harness detects via the efficiency threshold.
"""

from repro.core import sweep_load
from repro.mesh import MeshConfig

SCALES = (0.5, 1.0, 2.0, 4.0, 8.0)


def test_e21_capacity_sweep_table(runs, benchmark):
    characterization = runs.run("1d-fft").characterization
    fast = sweep_load(
        characterization, rate_scales=SCALES, messages_per_source=80, seed=41
    )
    slow = sweep_load(
        characterization,
        mesh_config=MeshConfig("4x2", channel_time=20.0),
        rate_scales=SCALES,
        messages_per_source=80,
        seed=41,
    )
    print()
    print("--- default mesh ---")
    print(fast.describe())
    print("--- slow channels (20x channel time) ---")
    print(slow.describe())

    # The slow build saturates inside the sweep; the fast one does not.
    assert slow.saturation_scale is not None
    assert fast.saturation_scale is None or fast.saturation_scale > slow.saturation_scale
    # Efficiency decays monotonically-ish with load on the slow build.
    efficiencies = [p.efficiency for p in slow.points]
    assert efficiencies[-1] < efficiencies[0]
    # Latency floor reflects the channel slowdown.
    assert slow.zero_load_latency > fast.zero_load_latency * 3

    benchmark.pedantic(
        lambda: sweep_load(
            characterization, rate_scales=(1.0, 4.0), messages_per_source=40
        ),
        rounds=1,
        iterations=1,
    )
