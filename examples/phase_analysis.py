#!/usr/bin/env python
"""Phase-level structure of an application's communication.

The aggregate characterization blends an application's phases together;
this study takes them apart.  For 1D-FFT it shows the execution
timeline as the paper narrates it -- local butterfly stages (barrier
traffic only) bracketing exchange stages whose data messages go to a
*single* XOR partner each (distance 1, then 2, then 4) -- plus the
temporal-dependence evidence (Ljung-Box on the inter-arrival series)
that motivates burst-aware synthetic generation.

Run:  python examples/phase_analysis.py
"""

from repro import create_app, run_dynamic
from repro.core import estimate_bursts, phase_table, segment_phases
from repro.core.charts import spatial_chart
from repro.stats import correlation_profile


def main() -> None:
    app = create_app("1d-fft", n=256)
    print(f"running {app.name} on the execution-driven CC-NUMA simulator ...")
    run = run_dynamic(app)

    print()
    print("=== execution phases (segmented at injection lulls) ===")
    segments = segment_phases(run.log)
    print(phase_table(segments))

    print()
    print("=== per-phase spatial structure ===")
    for segment in segments:
        distance = segment.modal_xor_distance()
        if distance is None:
            continue
        fractions = segment.log.destination_fractions(0, 8)
        if fractions.sum() == 0:
            continue
        print()
        print(f"phase {segment.index}: data goes to XOR-distance {distance}")
        print(spatial_chart(fractions, src=0, width=30))

    print()
    print("=== temporal dependence (why marginals are not enough) ===")
    series = run.log.interarrival_times()
    profile = correlation_profile(series, max_lag=20)
    print(f"autocorrelation: {profile.describe()}")
    print(f"burst structure: {estimate_bursts(series).describe()}")
    print()
    print("(the dependence at the burst-period lag is what the")
    print(" phase-coupled synthetic generator reproduces and the")
    print(" independent-source generator discards)")


if __name__ == "__main__":
    main()
