#!/usr/bin/env python
"""Dynamic strategy over the full shared-memory suite.

Reproduces the paper's shared-memory evaluation flow: run all five
applications (1D-FFT, IS, Cholesky, Nbody, Maxflow) on the
execution-driven CC-NUMA simulator, and print the summary table of
fitted inter-arrival distributions plus each application's spatial
story (butterfly for FFT, favorite processor for IS and Cholesky,
broad sharing for Nbody, graph-driven for Maxflow).

Run:  python examples/characterize_shared_memory.py [--small]
"""

import sys

from repro import create_app, run_dynamic
from repro.core.report import spatial_table, temporal_table

#: Default problem sizes (paper-scale shapes, laptop-scale sizes).
PROBLEMS = {
    "1d-fft": {"n": 256},
    "is": {"n": 2048, "buckets": 64},
    "cholesky": {"n": 48, "density": 0.15},
    "nbody": {"n": 64, "steps": 3},
    "maxflow": {"n": 24, "extra_edges": 40},
}

SMALL_PROBLEMS = {
    "1d-fft": {"n": 128},
    "is": {"n": 512, "buckets": 32},
    "cholesky": {"n": 24, "density": 0.2},
    "nbody": {"n": 32, "steps": 2},
    "maxflow": {"n": 16, "extra_edges": 24},
}


def main() -> None:
    problems = SMALL_PROBLEMS if "--small" in sys.argv else PROBLEMS
    results = []
    for name, params in problems.items():
        app = create_app(name, **params)
        print(f"running {name} {params} ...", flush=True)
        run = run_dynamic(app)
        results.append(run.characterization)
        favorite_story = ", ".join(
            f"p{src}->p{run.characterization.spatial.favorite_of(src)}"
            for src in range(8)
            if run.characterization.spatial.favorite_of(src) is not None
        )
        if favorite_story:
            print(f"  favorites: {favorite_story}")

    print()
    print(temporal_table(results))
    print()
    for characterization in results:
        print(spatial_table(characterization))
        print()


if __name__ == "__main__":
    main()
