"""E1 -- the application suite table.

Regenerates the paper's suite overview: every application with its
category, problem size, communication event count, byte volume, and
(for the dynamic strategy) the machine's miss behaviour.  The
benchmarked operation is one full dynamic-strategy pipeline run.
"""

from repro import create_app, run_dynamic

from conftest import BENCH_PROBLEMS, MESSAGE_PASSING, SHARED_MEMORY


def test_e1_application_suite_table(runs, benchmark):
    header = (
        f"{'application':<12} {'category':<16} {'params':<34} "
        f"{'messages':>9} {'bytes':>10} {'span':>12}"
    )
    lines = [header, "-" * len(header)]
    for name in SHARED_MEMORY + MESSAGE_PASSING:
        run = runs.run(name)
        category = "shared memory" if name in SHARED_MEMORY else "message passing"
        params = str(BENCH_PROBLEMS[name])
        log = run.log
        lines.append(
            f"{name:<12} {category:<16} {params:<34} "
            f"{len(log):>9} {log.total_bytes():>10} {log.span():>12.0f}"
        )
    print()
    print("\n".join(lines))

    # Benchmark: one full dynamic pipeline (run + analysis) on 1D-FFT.
    result = benchmark.pedantic(
        lambda: run_dynamic(create_app("1d-fft", n=128)),
        rounds=1,
        iterations=1,
    )
    assert len(result.log) > 0


def test_e1_every_app_communicates(runs):
    for name in SHARED_MEMORY + MESSAGE_PASSING:
        run = runs.run(name)
        assert len(run.log) > 20, f"{name} produced almost no traffic"
        assert run.characterization.volume.total_bytes > 0
