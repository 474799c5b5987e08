"""Pipeline benchmark: end-to-end metrics, or a traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload characterize --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones (see
README.md in this directory).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("characterize", "ccnuma", "torus-spill")
#: The seed whose original netlogs have digests recorded in digests.json.
DEFAULT_SEED = 1
SETUP_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--digests", default=os.path.join(HERE, "digests.json"),
                        help="digests recorded for the default seed")
    parser.add_argument("--record-digests", action="store_true",
                        help="write this run's digests to --digests (default seed only)")
    parser.add_argument("--out", default=os.path.join(HERE, "_out"),
                        help="directory for spill segments and the Chrome trace")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# probes and layer wrappers
# ----------------------------------------------------------------------
class Probe:
    """Counts kernel events and collects the networks one operation builds.

    Wraps two calls made once per simulation (``Simulator.run`` and
    ``MeshNetwork.__init__``), so it stays on in untraced runs too.
    """

    def __init__(self) -> None:
        from repro.mesh.network import MeshNetwork
        from repro.simkernel.engine import Simulator

        self.events = 0
        self.networks: List[object] = []
        run, init = Simulator.run, MeshNetwork.__init__
        probe = self

        @functools.wraps(run)
        def counted_run(sim, *args, **kwargs):
            before = sim.events_fired
            try:
                return run(sim, *args, **kwargs)
            finally:
                probe.events += sim.events_fired - before

        @functools.wraps(init)
        def collected_init(network, *args, **kwargs):
            init(network, *args, **kwargs)
            probe.networks.append(network)

        Simulator.run = counted_run
        MeshNetwork.__init__ = collected_init

    def reset(self) -> None:
        self.events = 0
        self.networks = []


class LayerCounts:
    """Per-layer counts gathered from wrapped calls' results."""

    COHERENCE = ("loads", "stores", "read_misses", "write_misses", "invalidations_sent")

    def __init__(self) -> None:
        self.coherence = dict.fromkeys(self.COHERENCE, 0)
        self.fit_attempts = 0
        self.fit_converged = 0

    def on_app_run(self, args, sim) -> None:
        stats = sim.machine.stats()
        for key in self.COHERENCE:
            self.coherence[key] += stats[key]

    def on_fit(self, args, results) -> None:
        from repro.stats.distributions import Deterministic, continuous_candidates

        if len(results) == 1 and isinstance(results[0].distribution, Deterministic):
            attempts = 1
        else:
            candidates = args[1] if len(args) > 1 and args[1] is not None else None
            attempts = len(candidates or continuous_candidates())
        self.fit_attempts += attempts
        self.fit_converged += sum(1 for fit in results if fit.converged)


def install_layers(tracer, counts: LayerCounts) -> None:
    """Wrap every layer boundary the traced run reports."""
    import repro.core.methodology as methodology
    import repro.core.spatial as spatial
    import repro.core.temporal as temporal
    import repro.core.validation as validation
    import repro.core.volume as volume
    import repro.mesh.netlog_stream as netlog_stream
    import repro.stats.fitting as fitting
    import repro.trace.replay as replay
    from repro.apps.base import MessagePassingApplication, SharedMemoryApplication
    from repro.core.synthetic import SyntheticTrafficGenerator
    from repro.mesh.netlog import NetworkLog
    from repro.mesh.topology import MeshTopology, NDMeshTopology
    from repro.simkernel.engine import Simulator

    tracer.patch_method(SharedMemoryApplication, "run", "apps.run", on_result=counts.on_app_run)
    tracer.patch_method(MessagePassingApplication, "run", "mp.run")
    tracer.patch_function(replay.replay_trace, "trace.replay")
    tracer.patch_method(Simulator, "run", "simkernel.run")
    tracer.patch_method(NDMeshTopology, "route", "mesh.route", span=False)
    tracer.patch_method(MeshTopology, "route_yx", "mesh.route", span=False)
    tracer.patch_method(NetworkLog, "add", "netlog.add", span=False)
    tracer.patch_method(NetworkLog, "seal", "netlog.seal", span=False)
    tracer.patch_method(netlog_stream.StreamingNetworkLog, "add", "netlog_stream.add", span=False)
    tracer.patch_method(netlog_stream.StreamingNetworkLog, "finalize", "netlog_stream.finalize")
    tracer.patch_function(netlog_stream.merge_manifest_partials, "netlog_stream.merge")
    tracer.patch_function(methodology.characterize_log, "core.characterize")
    tracer.patch_function(temporal.analyze_temporal, "core.temporal")
    tracer.patch_function(spatial.analyze_spatial, "core.spatial")
    tracer.patch_function(volume.analyze_volume, "core.volume")
    tracer.patch_function(fitting.fit_distribution, "stats.fit", on_result=counts.on_fit)
    tracer.patch_method(SyntheticTrafficGenerator, "generate", "synthetic.generate")
    tracer.patch_function(validation.compare_logs, "validation.compare")


# ----------------------------------------------------------------------
# one pass
# ----------------------------------------------------------------------
class PassRecord:
    def __init__(self) -> None:
        self.wall = 0.0
        #: Host slowness while the pass ran (see calibration.py).
        self.speed = 1.0
        self.events = 0
        self.messages = 0
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[str, str] = {}
        self.fidelity: List[tuple] = []
        self.first_output = None
        self.layer: Dict[str, float] = {}
        #: Traced passes: (per-name call totals, LayerCounts).
        self.trace = None

    @property
    def ref_wall(self) -> float:
        """Pass time in reference seconds."""
        return self.wall / self.speed


def run_pass(inputs, probe: Probe, hop_table, tracer=None, keep_first=False) -> PassRecord:
    import checks
    import workloads

    record = PassRecord()
    original_logs = []
    synthetic_logs = []
    stream_stats = {"segments": 0, "bytes": 0}
    for label, thunk in workloads.operations(inputs):
        if tracer is not None:
            thunk = tracer.wrap(thunk, f"op:{label}")
        record.attempted += 1
        probe.reset()
        start = time.perf_counter()
        try:
            output = thunk()
        except Exception:
            output = None
            print(f"FAILED {inputs.workload}/{label}:\n{traceback.format_exc()}", file=sys.stderr)
        record.wall += time.perf_counter() - start
        if output is None:
            record.failed += 1
            continue
        record.events += probe.events
        record.messages += sum(network.total_delivered for network in probe.networks)
        problems = checks.check_networks(probe.networks)
        if output.spill_dir is not None:
            stream_stats["segments"] += sum(o.log.segment_count for o in output.originals)
            stream_stats["bytes"] += sum(
                entry.stat().st_size for entry in os.scandir(output.spill_dir)
            )
        for original in output.originals:
            log = checks.sealed(original.log)
            problems += checks.check_log(log, original.config, hop_table, original.scheduled_ids)
            record.digests[original.label] = checks.log_digest(log)
            original_logs.append(log)
        synthetic_logs += output.synthetic
        record.fidelity += output.fidelity
        if problems:
            record.failed += 1
            print(f"FAILED {inputs.workload}/{label}: {'; '.join(problems)}", file=sys.stderr)
        if keep_first and record.first_output is None:
            record.first_output = output
        else:
            output.cleanup()
    logs = original_logs + synthetic_logs
    record.layer = {
        "mesh.messages": float(sum(len(log) for log in logs)),
        "mesh.contention_total": float(sum(log.columns()[0]["contention"].sum() for log in logs)),
        # One route per delivered message, so the logs' hop column is
        # the hops the routes produced.
        "mesh.hops": float(sum(log.columns()[0]["hops"].sum() for log in logs)),
        "synthetic.messages": float(sum(len(log) for log in synthetic_logs)),
        "netlog_stream.segments": float(stream_stats["segments"]),
        "netlog_stream.bytes": float(stream_stats["bytes"]),
    }
    return record


def layer_metrics(record: PassRecord, totals, counts: LayerCounts) -> Dict[str, float]:
    """The per-layer numbers of one traced pass (times in reference seconds)."""
    def self_s(name):
        return totals.get(name, (0, 0.0))[1] / record.speed

    def calls(name):
        return float(totals.get(name, (0, 0.0))[0])

    coherence = counts.coherence
    accesses = coherence["loads"] + coherence["stores"]
    misses = coherence["read_misses"] + coherence["write_misses"]
    out = {
        "apps.run_s": self_s("apps.run"),
        **{f"coherence.{key}": float(value) for key, value in coherence.items()},
        "coherence.miss_rate": misses / accesses if accesses else 0.0,
        "mp.run_s": self_s("mp.run"),
        "trace.replay_s": self_s("trace.replay"),
        "simkernel.run_s": self_s("simkernel.run"),
        "simkernel.events": float(record.events),
        "simkernel.us_per_event": (
            1e6 * self_s("simkernel.run") / record.events if record.events else 0.0
        ),
        "mesh.route_calls": calls("mesh.route"),
        "mesh.route_s": self_s("mesh.route"),
        "netlog.add_s": self_s("netlog.add"),
        "netlog.seal_s": self_s("netlog.seal"),
        "netlog_stream.add_s": self_s("netlog_stream.add"),
        "netlog_stream.finalize_s": self_s("netlog_stream.finalize"),
        "netlog_stream.merge_s": self_s("netlog_stream.merge"),
        "core.characterize_s": self_s("core.characterize"),
        "core.temporal_s": self_s("core.temporal"),
        "core.spatial_s": self_s("core.spatial"),
        "core.volume_s": self_s("core.volume"),
        "stats.fit_calls": calls("stats.fit"),
        "stats.fit_s": self_s("stats.fit"),
        "stats.fit_converged_ratio": (
            counts.fit_converged / counts.fit_attempts if counts.fit_attempts else 0.0
        ),
        "synthetic.generate_s": self_s("synthetic.generate"),
        "validation.compare_s": self_s("validation.compare"),
    }
    out.update(record.layer)
    return out


# ----------------------------------------------------------------------
# reporting helpers
# ----------------------------------------------------------------------
def fingerprint() -> Dict[str, object]:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": model or platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setups(args, kernel_times: List[float]) -> float:
    """Median time, in reference seconds, of fresh processes that
    import the layers, set up and exit.

    One kernel timing brackets the samples poorly (the kernel is as
    noisy as a setup), so the host speed is the median of every kernel
    timing of the run, ``kernel_times`` included.
    """
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
        "--out", args.out, "--setup-only",
    ]
    samples = []
    kernel_times = kernel_times + [calibration.kernel_seconds()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, check=True, timeout=150, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    kernel_times.append(calibration.kernel_seconds())
    return statistics.median(samples) / calibration.speed_factor(statistics.median(kernel_times))


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def run_workload(args) -> int:
    import checks
    import workloads
    from tracing import Tracer, totals_delta

    inputs = workloads.setup(args.workload, args.seed, args.size, args.out)
    if args.setup_only:
        if inputs.spill_root:
            shutil.rmtree(inputs.spill_root, ignore_errors=True)
        return 0
    probe = Probe()
    hop_table = checks.HopTable()
    tracer = Tracer() if args.trace else None
    counts = None
    records: List[PassRecord] = []  # in the order they ran
    untraced: List[PassRecord] = []
    traced: List[PassRecord] = []
    start = time.perf_counter()
    kernel_times = [calibration.kernel_seconds()]
    while True:
        trace_this = tracer is not None and len(traced) < len(untraced)
        if trace_this:
            counts = LayerCounts()
            install_layers(tracer, counts)
            before = tracer.totals()
        gc.collect()
        try:
            record = run_pass(inputs, probe, hop_table, tracer if trace_this else None,
                              keep_first=not untraced)
        finally:
            if trace_this:
                tracer.restore()
        kernel_times.append(calibration.kernel_seconds())
        records.append(record)
        if trace_this:
            record.trace = (totals_delta(tracer.totals(), before), counts)
            traced.append(record)
        else:
            untraced.append(record)
        elapsed = time.perf_counter() - start
        if elapsed * (len(records) + 1) / len(records) > args.seconds and (
            len(untraced) > 1 and (tracer is None or traced)
        ):
            break
    # The first pass warms caches and lazy set-up (it runs 20-50% slower);
    # it is checked like every pass but left out of the time metrics.
    timed = untraced[1:]
    # Kernel i ran just before pass i.  A single kernel timing is as
    # noisy as a short pass, so each pass takes the median of the four
    # kernel timings nearest to it.
    for index, record in enumerate(records):
        nearest = kernel_times[max(0, index - 1): index + 3]
        record.speed = calibration.speed_factor(statistics.median(nearest))
    for record in traced:
        record.layer = layer_metrics(record, *record.trace)
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)

    # Every pass of one seed must reproduce the same original netlogs,
    # traced or not; the default seed must also match the record.
    reference = records[0].digests
    for record in records[1:]:
        if record.digests != reference:
            failed += 1
            print("FAILED digests differ between passes of one seed", file=sys.stderr)
    recorded = checks.load_recorded(args.digests)
    if args.record_digests:
        recorded["seed"] = DEFAULT_SEED
        recorded.setdefault(args.size, {})[args.workload] = reference
        with open(args.digests, "w", encoding="utf-8") as handle:
            json.dump(recorded, handle, indent=1, sort_keys=True)
            handle.write("\n")
    elif args.seed == recorded.get("seed") and args.workload in recorded.get(args.size, {}):
        mismatches = checks.compare_digests(reference, recorded[args.size][args.workload])
        attempted += 1
        if mismatches:
            failed += 1
            print("FAILED recorded digest: " + "; ".join(mismatches), file=sys.stderr)

    first = untraced[0]
    fidelity = list(first.fidelity)
    output = first.first_output
    if output is not None:
        if not fidelity:
            attempted += 1
            try:
                fidelity = [workloads.side_fidelity(inputs, output)]
            except Exception:
                failed += 1
                print(f"FAILED fidelity check:\n{traceback.format_exc()}", file=sys.stderr)
        output.cleanup()

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "sizes": inputs.describe(),
        "passes": {"warm-up": 1, "untraced": len(timed), "traced": len(traced)},
        "pass_host_s": [round(r.wall, 4) for r in records],
        "pass_speed_factor": [round(r.speed, 4) for r in records],
        "kernel_s": [round(k, 4) for k in kernel_times],
        "digests": reference,
        "machine": fingerprint(),
    }
    if inputs.spill_root:
        shutil.rmtree(inputs.spill_root, ignore_errors=True)

    if tracer is None:
        metrics = end_to_end_metrics(args, timed, fidelity, attempted, failed, kernel_times)
    else:
        metrics = per_layer_metrics(timed, traced)
        os.makedirs(args.out, exist_ok=True)
        trace_path = os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write_chrome_trace(trace_path)
        report["chrome_trace"] = os.path.relpath(trace_path, ROOT)
    print("report " + json.dumps(report, sort_keys=True))
    emit(failed == 0, attempted, failed, metrics)
    return 0


def end_to_end_metrics(args, records, fidelity, attempted, failed, kernel_times):
    median = statistics.median
    metrics = {
        "wall_s": (median(r.ref_wall for r in records), "s"),
        "events_per_s": (median(r.events / r.ref_wall for r in records), "1/s"),
        "msgs_per_s": (median(r.messages / r.ref_wall for r in records), "1/s"),
        "setup_s": (time_setups(args, kernel_times), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }
    for index, name in enumerate(("synth_latency_err", "synth_rate_err", "synth_contention_err")):
        values = [errors[index] for errors in fidelity]
        # A failed fidelity check is already counted in ``failed``.
        metrics[name] = (statistics.fmean(values) if values else 0.0, "ratio")
    return metrics


#: Every per-layer metric the traced run reports, with its unit.
LAYER_UNITS = {
    "apps.run_s": "s",
    "coherence.loads": "count",
    "coherence.stores": "count",
    "coherence.read_misses": "count",
    "coherence.write_misses": "count",
    "coherence.invalidations_sent": "count",
    "coherence.miss_rate": "ratio",
    "mp.run_s": "s",
    "trace.replay_s": "s",
    "simkernel.run_s": "s",
    "simkernel.events": "count",
    "simkernel.us_per_event": "us",
    "mesh.route_calls": "count",
    "mesh.route_s": "s",
    "mesh.hops": "count",
    "mesh.messages": "count",
    "mesh.contention_total": "sim_time",
    "netlog.add_s": "s",
    "netlog.seal_s": "s",
    "netlog_stream.add_s": "s",
    "netlog_stream.finalize_s": "s",
    "netlog_stream.merge_s": "s",
    "netlog_stream.segments": "count",
    "netlog_stream.bytes": "bytes",
    "core.characterize_s": "s",
    "core.temporal_s": "s",
    "core.spatial_s": "s",
    "core.volume_s": "s",
    "stats.fit_calls": "count",
    "stats.fit_s": "s",
    "stats.fit_converged_ratio": "ratio",
    "synthetic.generate_s": "s",
    "synthetic.messages": "count",
    "validation.compare_s": "s",
    "trace_overhead": "ratio",
}


def per_layer_metrics(untraced, traced):
    overhead = statistics.median(r.ref_wall for r in traced) / statistics.median(
        r.ref_wall for r in untraced
    )
    for record in traced:
        record.layer["trace_overhead"] = overhead
    return {
        name: (statistics.median(r.layer[name] for r in traced), unit)
        for name, unit in LAYER_UNITS.items()
    }


def run_all(args) -> int:
    """Each workload in its own process; one combined result."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for workload in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--size", args.size,
                   "--digests", args.digests, "--out", args.out]
        done = subprocess.run(command, check=True, timeout=900, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        print(f"[{workload}]")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, entry in result["metrics"].items():
            metrics[f"{workload}.{name}"] = {"value": entry["value"], "unit": entry["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.record_digests and args.seed != DEFAULT_SEED:
        print(f"error: --record-digests needs --seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
