#!/usr/bin/env python
"""Using a characterization as a realistic ICN workload model.

The methodology's purpose: "these distributions can be used in the
analysis of ICNs for developing realistic performance models."  This
example closes that loop twice:

1. *Validation* -- generate synthetic traffic from 1D-FFT's fitted
   characterization and compare its network behaviour (latency,
   contention, rate) with the original execution's.
2. *The uniform-traffic fallacy* -- sweep network load under (a) the
   classic uniform-traffic assumption and (b) the application's
   characterized model, showing how far apart the latency curves are:
   the paper's motivating point that uniform traffic misrepresents
   real applications.

Run:  python examples/synthetic_traffic_study.py
"""

import numpy as np

from repro import (
    SyntheticTrafficGenerator,
    compare_logs,
    create_app,
    run_dynamic,
)
from repro.core.attributes import (
    CommunicationCharacterization,
    SpatialCharacterization,
)
from repro.stats.spatial_models import SpatialFit, UniformPattern


def uniformized(characterization: CommunicationCharacterization) -> CommunicationCharacterization:
    """The same workload with its spatial structure replaced by the
    uniform-traffic assumption."""
    uniform = {
        src: SpatialFit(pattern=UniformPattern(), r2=0.0)
        for src in characterization.spatial.per_source
    }
    n = characterization.num_nodes
    matrix = np.array([UniformPattern().fractions(s, n) for s in range(n)])
    return CommunicationCharacterization(
        app_name=characterization.app_name + "+uniform",
        strategy=characterization.strategy,
        num_nodes=n,
        temporal=characterization.temporal,
        spatial=SpatialCharacterization(
            per_source=uniform, fraction_matrix=matrix, dominant_pattern="uniform"
        ),
        volume=characterization.volume,
    )


def main() -> None:
    app = create_app("1d-fft", n=256)
    print(f"characterizing {app.name} ...", flush=True)
    run = run_dynamic(app)
    characterization = run.characterization
    print(characterization.temporal.describe())

    # --- 1. validation against the original execution ----------------
    generator = SyntheticTrafficGenerator(characterization, seed=42)
    synthetic = generator.generate(messages_per_source=200)
    report = compare_logs(run.log, synthetic)
    print()
    print("synthetic-vs-original validation:")
    print(report.describe())
    print(f"acceptable: {report.acceptable()}")

    # --- 2. characterized vs uniform traffic under load --------------
    print()
    print("load sweep: mean latency, characterized vs uniform spatial model")
    print(f"{'rate scale':>10} {'characterized':>14} {'uniform':>10}")
    for scale in (0.5, 1.0, 2.0, 4.0):
        real_gen = SyntheticTrafficGenerator(
            characterization, seed=1, rate_scale=scale
        )
        uni_gen = SyntheticTrafficGenerator(
            uniformized(characterization), seed=1, rate_scale=scale
        )
        real_latency = real_gen.generate(messages_per_source=150).mean_latency()
        uni_latency = uni_gen.generate(messages_per_source=150).mean_latency()
        print(f"{scale:>10.1f} {real_latency:>14.2f} {uni_latency:>10.2f}")
    print()
    print("(butterfly traffic keeps messages short-range; the uniform")
    print(" assumption overstates path length and hence latency)")


if __name__ == "__main__":
    main()
