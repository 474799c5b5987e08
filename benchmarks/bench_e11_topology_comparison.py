"""E11 (extension) -- characterized traffic as an ICN design workload.

The methodology's payoff is driving ICN studies with *realistic*
workloads.  This extension experiment does exactly that: 1D-FFT's
fitted characterization drives a 2-D mesh, a 2-D torus (with dateline
virtual channels, as in the paper's Kumar & Bhuyan reference) and a
hypercube (Kim & Das), comparing mean latency and contention across
topologies -- including how the butterfly pattern favours the
hypercube, whose XOR partners are single hops.
"""

from repro import SyntheticTrafficGenerator
from repro.mesh import MeshConfig

#: name -> spec; ``MeshConfig.parse`` grants the torus its 2 VCs.
NETWORKS = (
    ("mesh", "4x2"),
    ("torus", "4x2:torus"),
    ("hypercube", "4x2:hypercube"),
)


def test_e11_topology_comparison_table(runs, benchmark):
    characterization = runs.run("1d-fft").characterization
    rows = []
    for name, spec in NETWORKS:
        config = MeshConfig.parse(spec)
        generator = SyntheticTrafficGenerator(
            characterization, mesh_config=config, seed=5, rate_scale=2.0
        )
        log = generator.generate(messages_per_source=150)
        mean_hops = sum(r.hops for r in log) / len(log)
        rows.append((name, log.mean_latency(), log.mean_contention(), mean_hops))
    print()
    print(f"{'topology':<10} {'latency':>9} {'contention':>11} {'mean hops':>10}")
    for name, latency, contention, hops in rows:
        print(f"{name:<10} {latency:>9.2f} {contention:>11.2f} {hops:>10.2f}")

    by_name = {r[0]: r for r in rows}
    # Butterfly traffic: every XOR partner is one hop on the hypercube,
    # so it beats both grid topologies on distance and latency.
    assert by_name["hypercube"][3] < by_name["mesh"][3]
    assert by_name["hypercube"][1] < by_name["mesh"][1]
    # Wraparound cannot lengthen routes.
    assert by_name["torus"][3] <= by_name["mesh"][3] + 1e-9

    benchmark.pedantic(
        lambda: SyntheticTrafficGenerator(
            characterization,
            mesh_config=MeshConfig("4x2:hypercube"),
            seed=6,
        ).generate(messages_per_source=60),
        rounds=1,
        iterations=1,
    )


def test_e11_average_distance_ordering(runs):
    # Static topology property backing the dynamic result above.
    mesh, torus, cube = (MeshConfig.parse(spec).make_topology() for _, spec in NETWORKS)
    assert cube.average_distance() < mesh.average_distance()
    assert torus.average_distance() <= mesh.average_distance()
