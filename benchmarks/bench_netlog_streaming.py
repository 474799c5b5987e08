"""Scale benchmark: streaming NetworkLog at 10M+ records in O(window).

Generates ``--records`` synthetic messages in bounded chunks, feeds
them through a :class:`repro.mesh.netlog_stream.StreamingNetworkLog`
spilling compressed npz segments to a temporary directory, and
measures ingest throughput plus the process's peak RSS
(``resource.getrusage``).  The point of the gate is the memory bound:
a 10M-record run must summarize, doctor, and matrix-ize without ever
holding more than the configured window (plus constant overhead) in
memory.

``--check`` enforces two things and exits non-zero on either failure:

1. peak RSS stays under ``--max-rss-mb`` for the full 10M-record
   ingest + summary + finalize + manifest-reload pass;
2. a small oracle run (``--oracle-records``) agrees with an in-memory
   :class:`NetworkLog` over the same records -- integer tallies and
   matrices bit-exact, float summary metrics to 1e-9 relative, and the
   manifest's stored summary document bit-identical to the live fold.

Standalone (not a pytest benchmark) so CI can gate on the result:

    PYTHONPATH=src python benchmarks/bench_netlog_streaming.py \
        --records 10000000 --check --max-rss-mb 900
"""

from __future__ import annotations

import argparse
import math
import resource
import shutil
import sys
import tempfile
import time

import numpy as np

from repro.mesh.netlog import NetworkLog
from repro.mesh.netlog_stream import (
    StreamingNetworkLog,
    summary_from_manifest,
)

KINDS = ("p2p", "coherence", "reply")
LENGTHS = np.array((8, 16, 64, 256, 1024))
LENGTH_P = (0.35, 0.3, 0.2, 0.1, 0.05)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB.

    ``ru_maxrss`` is KiB on Linux, bytes on macOS.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def synthesize_chunk(rng, start_id, n, num_nodes, t0):
    """One chunk of plausible traffic as parallel column arrays."""
    src = rng.integers(0, num_nodes, size=n)
    dst = (src + rng.integers(1, num_nodes, size=n)) % num_nodes
    length = LENGTHS[rng.choice(len(LENGTHS), size=n, p=LENGTH_P)]
    kind = np.asarray(KINDS, dtype=np.str_)[rng.integers(0, len(KINDS), size=n)]
    inject = t0 + np.sort(rng.exponential(2.0, size=n).cumsum())
    latency = rng.gamma(2.0, 3.0, size=n) + 1.0
    return dict(
        msg_id=np.arange(start_id, start_id + n),
        src=src,
        dst=dst,
        length_bytes=length,
        kind=kind,
        inject_time=inject,
        start_time=inject + 0.5,
        deliver_time=inject + latency,
        contention=rng.exponential(0.5, size=n),
        hops=rng.integers(1, 7, size=n),
    ), float(inject[-1])


def ingest(log, records, num_nodes, gen_chunk, seed=7):
    """Feed ``records`` synthetic messages into ``log`` in bounded
    chunks; returns wall seconds spent inside the log itself."""
    rng = np.random.default_rng(seed)
    produced = 0
    t0 = 0.0
    spent = 0.0
    while produced < records:
        n = min(gen_chunk, records - produced)
        columns, t0 = synthesize_chunk(rng, produced, n, num_nodes, t0)
        started = time.perf_counter()
        log.extend_columns(**columns)
        spent += time.perf_counter() - started
        produced += n
    return spent


def oracle_check(num_nodes, records, window, workdir) -> int:
    """Small-log equivalence pass; returns the number of failures."""
    streaming = StreamingNetworkLog(f"{workdir}/oracle", window=window)
    oracle = NetworkLog()
    ingest(streaming, records, num_nodes, gen_chunk=window)
    ingest(oracle, records, num_nodes, gen_chunk=window)
    failures = 0

    def check(name, ok):
        nonlocal failures
        if not ok:
            failures += 1
            print(f"FAIL: oracle mismatch: {name}")

    check("record count", len(streaming) == len(oracle))
    check("sources", streaming.sources() == oracle.sources())
    check("kinds", streaming.kinds() == oracle.kinds())
    check("length_counts", streaming.length_counts() == oracle.length_counts())
    check("total_bytes", streaming.total_bytes() == oracle.total_bytes())
    check(
        "count matrix",
        np.array_equal(
            streaming.destination_count_matrix(num_nodes),
            oracle.destination_count_matrix(num_nodes),
        ),
    )
    check(
        "volume matrix",
        np.array_equal(
            streaming.volume_matrix(num_nodes), oracle.volume_matrix(num_nodes)
        ),
    )
    ours, theirs = streaming.summary(), oracle.summary()
    check("messages", ours.messages == theirs.messages)
    check("span", ours.span == theirs.span)
    check("injection_span", ours.injection_span == theirs.injection_span)
    for field in ("mean_latency", "mean_contention", "offered_rate", "throughput"):
        a, b = getattr(ours, field), getattr(theirs, field)
        check(field, math.isclose(a, b, rel_tol=1e-9))
    manifest = streaming.finalize()
    check(
        "manifest summary bit-identical to live fold",
        summary_from_manifest(manifest).as_dict() == streaming.summary().as_dict(),
    )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=10_000_000)
    parser.add_argument("--nodes", type=int, default=16)
    parser.add_argument("--window", type=int, default=500_000,
                        help="streaming window (records held in memory)")
    parser.add_argument("--gen-chunk", type=int, default=250_000,
                        help="synthetic generator chunk size")
    parser.add_argument("--spill-dir", default=None,
                        help="segment directory (default: a fresh tempdir)")
    parser.add_argument("--max-rss-mb", type=float, default=900.0,
                        help="peak RSS ceiling enforced by --check")
    parser.add_argument("--oracle-records", type=int, default=50_000,
                        help="small-run size for the in-memory equivalence check")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on RSS over ceiling or oracle mismatch")
    args = parser.parse_args(argv)

    workdir = args.spill_dir or tempfile.mkdtemp(prefix="netlog-stream-bench-")
    failures = 0
    try:
        if args.check:
            print(f"oracle pass: {args.oracle_records} records vs in-memory log ...")
            failures += oracle_check(
                args.nodes, args.oracle_records, max(args.window // 8, 1), workdir
            )
            status = "ok" if failures == 0 else f"{failures} mismatch(es)"
            print(f"oracle pass: {status}")

        print(
            f"streaming {args.records} records over {args.nodes} nodes "
            f"(window {args.window}, spill {workdir}) ..."
        )
        log = StreamingNetworkLog(f"{workdir}/big", window=args.window)
        started = time.perf_counter()
        ingest_seconds = ingest(log, args.records, args.nodes, args.gen_chunk)
        stats = log.summary()
        manifest = log.finalize()
        total_seconds = time.perf_counter() - started
        reloaded = summary_from_manifest(manifest)
        rss = peak_rss_mb()

        rate = args.records / ingest_seconds if ingest_seconds else float("inf")
        print(f"ingest: {ingest_seconds:.2f}s ({rate / 1e6:.2f}M records/s)")
        print(f"end-to-end (ingest + summary + finalize): {total_seconds:.2f}s")
        print(
            f"{stats.messages} messages, {log.segment_count} segment(s), "
            f"mean latency {stats.mean_latency:.4f}"
        )
        print(f"peak RSS: {rss:.1f} MiB (ceiling {args.max_rss_mb:.0f} MiB)")

        if stats.messages != args.records:
            failures += 1
            print(f"FAIL: summary counted {stats.messages} of {args.records} records")
        if reloaded.as_dict() != log.summary().as_dict():
            failures += 1
            print("FAIL: manifest summary differs from the live fold")
        if args.check and rss > args.max_rss_mb:
            failures += 1
            print(f"FAIL: peak RSS {rss:.1f} MiB exceeds {args.max_rss_mb:.0f} MiB")
    finally:
        if args.spill_dir is None:
            shutil.rmtree(workdir, ignore_errors=True)

    if args.check and failures:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
