#!/usr/bin/env python
"""Static strategy over the NAS message-passing benchmarks.

Reproduces the paper's SP2 flow: run 3D-FFT and MG on the simulated
SP2 (software overhead = the paper's validated ``4.63e-2 x + 73.42``
microseconds), trace every MPI-level message, replay the traces
dependency-preserving into the same 2-D mesh simulator, and print the
resulting characterizations -- including MG's signature split between
*message-count* favorite (p0, the collective root) and *byte-volume*
spread (the halo neighbours).

Run:  python examples/characterize_message_passing.py
"""

from repro import create_app, run_static
from repro.core.report import spatial_table, temporal_table, volume_table
from repro.trace import profile_trace


def main() -> None:
    results = []
    for name, params in (("3d-fft", {"n": 16}), ("mg", {"n": 32, "cycles": 2})):
        app = create_app(name, **params)
        print(f"running {name} {params} on the simulated SP2 ...", flush=True)
        run = run_static(app)
        profile = profile_trace(run.trace, 8)
        print(f"  traced {profile.total_messages} messages, "
              f"{profile.total_bytes} bytes "
              f"({', '.join(f'{k}={v}' for k, v in sorted(profile.kind_counts.items()))})")
        results.append(run.characterization)

    print()
    print(temporal_table(results))
    for characterization in results:
        print()
        print(spatial_table(characterization))
        print()
        print(volume_table(characterization))


if __name__ == "__main__":
    main()
