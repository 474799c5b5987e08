#!/usr/bin/env python
"""Quickstart: characterize one application's communication.

Runs the 1D-FFT shared-memory application on the execution-driven
CC-NUMA simulator (the paper's dynamic strategy), then prints the
three-attribute characterization: the fitted message inter-arrival
distribution, the per-processor spatial patterns, and the message
length/volume breakdown.

Run:  python examples/quickstart.py
"""

from repro import create_app, run_dynamic
from repro.core.report import spatial_table, volume_table


def main() -> None:
    app = create_app("1d-fft", n=256)
    print(f"running {app.name}: {app.description}")
    run = run_dynamic(app)

    characterization = run.characterization
    print()
    print(characterization.describe())
    print()
    print(spatial_table(characterization))
    print()
    print(volume_table(characterization))
    print()
    print(f"network log: {len(run.log)} messages, "
          f"mean latency {run.log.mean_latency():.1f} cycles, "
          f"mean contention {run.log.mean_contention():.1f} cycles")


if __name__ == "__main__":
    main()
