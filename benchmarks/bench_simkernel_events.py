"""Microbenchmark: calendar-queue fast kernel vs the legacy heap oracle.

Runs the same synthetic 100k-message kernel workload -- paired
sender/consumer processes exercising the hot commands (hold with
tie-prone quantized gaps, facility request/release under contention,
mailbox send/receive handoffs) -- on ``Simulator(scheduler="calendar")``
and ``Simulator(scheduler="heap")``, and reports event throughput for
each.  Both runs must fire the identical event count and finish at the
identical clock; a 4x4 wormhole-mesh run is then repeated under both
schedulers and its ``NetworkLog`` records compared bit-for-bit, so the
speedup is only ever measured between provably equivalent kernels.

Standalone (not a pytest benchmark) so CI can gate on the result:

    PYTHONPATH=src python benchmarks/bench_simkernel_events.py \
        --messages 100000 --check --min-speedup 2.0

``--check`` exits non-zero if the calendar path is below
``--min-speedup`` times the heap path, or if any equivalence check
fails.

``--scheduler parallel`` switches the benchmark to the parallel
region-replay mesh scheduler instead: a large row-local workload is
replayed once on the serial calendar simulator and once sharded over
``--regions`` worker processes, the merged netlog is required to be
bit-identical to the serial one, and ``--check`` gates the wall-clock
speedup (CI uses ``--min-speedup 2.5`` on 4 cores).  Hosts with fewer
cores than regions skip the gate (exit 0) rather than fail on hardware
they cannot demonstrate parallelism on:

    PYTHONPATH=src python benchmarks/bench_simkernel_events.py \
        --scheduler parallel --regions 4 --check --min-speedup 2.5
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from repro.mesh.config import MeshConfig
from repro.mesh.network import MeshNetwork
from repro.mesh.packet import NetworkMessage
from repro.simkernel import (
    Facility,
    Mailbox,
    Simulator,
    hold,
    receive,
    release,
    request,
    send,
)

#: Quantized (multiples of 0.25) gap/service tables: deterministic,
#: heavy-tailed enough to spread the calendar, tie-prone enough to
#: exercise the now-FIFO tie collection.
_rng = np.random.default_rng(1234)
GAPS = tuple(float(g) for g in np.round(_rng.exponential(1.0, 1024) * 4.0) / 4.0)
SERVICE = tuple(float(g) for g in np.round(_rng.exponential(0.5, 1024) * 4.0) / 4.0)


#: Commands are immutable, so model code can build them once and
#: re-yield them; the benchmark does exactly that (pre-built Hold
#: tables, one Request/Release/Send/Receive per process) so it measures
#: the kernel, not dataclass construction.
HOLD_GAPS = tuple(hold(g) for g in GAPS)
HOLD_SERVICE = tuple(hold(g) for g in SERVICE)

#: Run the channel-contention leg on every Nth message; the rest are
#: pure hold + mailbox handoff, the kernel's hottest event mix.
CONTENTION_EVERY = 16


def run_kernel_workload(scheduler, messages, pairs):
    """One synthetic run; returns (elapsed_s, events_fired, final_clock)."""
    sim = Simulator(scheduler=scheduler)
    channels = [Facility(sim, name=f"ch{i}") for i in range(max(pairs // 2, 1))]
    boxes = [Mailbox(sim, name=f"mb{i}") for i in range(pairs)]
    per_pair = messages // pairs

    def sender(idx):
        box = boxes[idx]
        chan = channels[idx % len(channels)]
        acquire = request(chan)
        free = release(chan)
        deposit = send(box, None)
        base = idx * 37
        for n in range(per_pair):
            yield HOLD_GAPS[(base + n) & 1023]
            if n % CONTENTION_EVERY == 0:
                yield acquire
                yield HOLD_SERVICE[(base + n) & 1023]
                yield free
            yield deposit

    def consumer(idx):
        box = boxes[idx]
        take = receive(box)
        drain = hold(0.25)
        for _ in range(per_pair):
            yield take
            yield drain

    for idx in range(pairs):
        sim.process(sender(idx), name=f"send{idx}")
        sim.process(consumer(idx), name=f"recv{idx}")

    started = time.perf_counter()
    final = sim.run()
    elapsed = time.perf_counter() - started
    return elapsed, sim.events_fired, final


def run_mesh_log(scheduler, messages_per_source):
    """A clean 4x4 mesh run; returns its sealed NetworkLog."""
    sim = Simulator(scheduler=scheduler)
    net = MeshNetwork(sim, MeshConfig(spec="4x4"))
    nodes = 16

    def source(src):
        for n in range(messages_per_source):
            yield hold(GAPS[(src * 131 + n) & 1023] * 3.0)
            msg = NetworkMessage(
                src=src,
                dst=(src + 3 + 5 * (n % 3)) % nodes,
                length_bytes=(16, 64, 256)[n % 3],
                kind="p2p",
                msg_id=src * 1_000_000 + n,
            )
            yield from net.transfer(msg)

    for src in range(nodes):
        sim.process(source(src), name=f"src{src}")
    sim.run(check_stall=True)
    net.log.seal()
    return net.log


def run_parallel_bench(args):
    """Serial calendar vs parallel region replay on a row-local mesh
    workload; returns an exit code (0 = pass/skip, 1 = fail)."""
    from repro.simkernel.engine_parallel import (
        ScheduleTraffic,
        logs_bit_identical,
        run_parallel_mesh,
        run_serial_schedule,
    )

    cores = os.cpu_count() or 1
    if cores < args.regions:
        print(f"SKIP: parallel bench needs >= {args.regions} cores, host has "
              f"{cores}; no parallelism to demonstrate")
        return 0

    config = MeshConfig.parse(args.parallel_mesh)
    traffic = ScheduleTraffic.compile_pattern(
        config,
        pattern="local",
        messages_per_source=args.parallel_messages,
        seed=1234,
    )
    print(f"parallel workload: {config.spec.canonical()} mesh, "
          f"{traffic.message_count} row-local messages, "
          f"{args.regions} regions ...")
    serial_best = parallel_best = float("inf")
    serial_log = None
    for _ in range(args.iterations):
        started = time.perf_counter()
        serial = run_serial_schedule(config, traffic, scheduler="calendar")
        serial_best = min(serial_best, time.perf_counter() - started)
        serial_log = serial.log

        started = time.perf_counter()
        parallel = run_parallel_mesh(config, traffic, regions=args.regions)
        parallel_best = min(parallel_best, time.perf_counter() - started)

    merged = parallel.merged_log()
    if not logs_bit_identical(serial_log, merged):
        print(f"FAIL: parallel merged netlog differs from the serial "
              f"calendar log ({len(merged)} vs {len(serial_log)} records)")
        return 1
    print(f"netlog identity: {len(merged)} records bit-identical between "
          f"serial and {args.regions}-region parallel (canonical order)")

    speedup = serial_best / parallel_best
    print(f"{'scheduler':>10} {'time':>9}")
    print(f"{'serial':>10} {serial_best:>8.3f}s")
    print(f"{'parallel':>10} {parallel_best:>8.3f}s  ({args.regions} regions)")
    print(f"parallel wall-clock speedup: {speedup:.2f}x "
          f"(best of {args.iterations})")
    if args.check and speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x below required {args.min_speedup}x")
        return 1
    return 0


def run_topology_bench(args):
    """N-D topology routing overhead vs the 2-D mesh baseline.

    Replays the same uniform workload (equal node count, equal message
    count) through the 2-D baseline mesh and each ``--topology`` spec,
    and reports serial event throughput.  Each network routes a pair
    once, through its topology's route table, and walks a compiled
    plan per message, so ``--check`` gates every topology at
    ``--min-ratio`` times the baseline events/sec (node counts must
    match the baseline, otherwise the comparison is meaningless).

    Each iteration runs the baseline and every topology back to back,
    and each workload's best events/sec is taken over the iterations.
    Interleaving spreads every workload's samples over the same span
    of host time, so a host-load swing lasting seconds cannot fall on
    one topology's samples only, as it could when each topology ran
    all of its iterations in one block.
    """
    from repro.mesh.spec import TopologySpec
    from repro.simkernel.engine_parallel import ScheduleTraffic, run_serial_schedule

    baseline_spec = TopologySpec.parse(args.baseline_mesh)
    specs = [TopologySpec.parse(text) for text in (args.topology or ["4x4x4:mesh"])]
    for spec in specs:
        if spec.num_nodes != baseline_spec.num_nodes:
            print(f"FAIL: {spec.canonical()} has {spec.num_nodes} nodes, "
                  f"baseline {baseline_spec.canonical()} has "
                  f"{baseline_spec.num_nodes}; equal node counts required")
            return 1

    workloads = []
    for spec in [baseline_spec] + specs:
        config = MeshConfig.from_spec(spec)
        traffic = ScheduleTraffic.compile_pattern(
            config,
            pattern="uniform",
            messages_per_source=args.parallel_messages,
            seed=1234,
        )
        workloads.append((config, traffic))

    print(f"topology workload: {baseline_spec.num_nodes} nodes, "
          f"{args.parallel_messages} uniform messages/source, "
          f"{args.iterations} interleaved iterations ...")
    best = [0.0] * len(workloads)  # best events/sec per workload
    for _ in range(args.iterations):
        for k, (config, traffic) in enumerate(workloads):
            started = time.perf_counter()
            result = run_serial_schedule(config, traffic, scheduler="calendar")
            rate = result.events_fired / (time.perf_counter() - started)
            best[k] = max(best[k], rate)
    base_rate = best[0]
    print(f"{'topology':>20} {'events/sec':>12} {'vs 2-D':>8}")
    print(f"{baseline_spec.canonical():>20} {base_rate:>12,.0f} {'1.00x':>8}")
    failed = False
    for spec, rate in zip(specs, best[1:]):
        ratio = rate / base_rate
        print(f"{spec.canonical():>20} {rate:>12,.0f} {ratio:>7.2f}x")
        if args.check and ratio < args.min_ratio:
            print(f"FAIL: {spec.canonical()} throughput is {ratio:.2f}x the "
                  f"2-D baseline, below required {args.min_ratio}x")
            failed = True
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--messages", type=int, default=100_000)
    parser.add_argument("--pairs", type=int, default=32,
                        help="sender/consumer process pairs")
    parser.add_argument("--iterations", type=int, default=2,
                        help="timing repetitions; best-of is reported")
    parser.add_argument("--identity-messages", type=int, default=40,
                        help="messages per source in the netlog identity run")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless calendar beats heap by --min-speedup")
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--scheduler", choices=("kernel", "parallel", "topology"),
                        default="kernel",
                        help="kernel: calendar vs heap event throughput "
                             "(the default); parallel: serial calendar vs "
                             "the multi-process region-replay mesh scheduler; "
                             "topology: N-D routing overhead vs the 2-D mesh")
    parser.add_argument("--regions", type=int, default=4,
                        help="region workers for --scheduler parallel")
    parser.add_argument("--parallel-mesh", default="16x16",
                        help="mesh for --scheduler parallel (default 16x16)")
    parser.add_argument("--parallel-messages", type=int, default=300,
                        help="messages per source for --scheduler parallel "
                             "and --scheduler topology")
    parser.add_argument("--topology", action="append", default=[],
                        help="N-D topology spec(s) for --scheduler topology "
                             "(repeatable; default 4x4x4:mesh); node count "
                             "must equal --baseline-mesh")
    parser.add_argument("--baseline-mesh", default="8x8",
                        help="2-D baseline for --scheduler topology "
                             "(default 8x8)")
    parser.add_argument("--min-ratio", type=float, default=0.9,
                        help="minimum N-D/2-D events-per-second ratio for "
                             "--scheduler topology --check (default 0.9)")
    args = parser.parse_args(argv)

    if args.scheduler == "parallel":
        return run_parallel_bench(args)
    if args.scheduler == "topology":
        return run_topology_bench(args)

    print(f"kernel workload: {args.messages} messages over {args.pairs} "
          f"sender/consumer pairs ...")
    best = {"heap": float("inf"), "calendar": float("inf")}
    fired = {}
    clocks = {}
    for _ in range(args.iterations):
        for scheduler in ("heap", "calendar"):
            elapsed, events, final = run_kernel_workload(
                scheduler, args.messages, args.pairs
            )
            best[scheduler] = min(best[scheduler], elapsed)
            fired.setdefault(scheduler, events)
            clocks.setdefault(scheduler, final)
            if fired[scheduler] != events or clocks[scheduler] != final:
                print(f"FAIL: {scheduler} run is not deterministic")
                return 1

    if fired["heap"] != fired["calendar"] or clocks["heap"] != clocks["calendar"]:
        print(f"FAIL: schedulers diverge: heap fired {fired['heap']} events "
              f"(t={clocks['heap']!r}), calendar fired {fired['calendar']} "
              f"(t={clocks['calendar']!r})")
        return 1

    rates = {s: fired[s] / best[s] for s in best}
    speedup = rates["calendar"] / rates["heap"]
    print(f"{'scheduler':>10} {'time':>9} {'events':>9} {'events/sec':>12}")
    for scheduler in ("heap", "calendar"):
        print(f"{scheduler:>10} {best[scheduler]:>8.3f}s {fired[scheduler]:>9} "
              f"{rates[scheduler]:>12,.0f}")
    print(f"event throughput speedup: {speedup:.2f}x "
          f"(best of {args.iterations}, identical clocks at "
          f"t={clocks['calendar']:g})")

    print(f"netlog identity: 4x4 mesh, {args.identity_messages} messages/source ...")
    heap_log = run_mesh_log("heap", args.identity_messages)
    cal_log = run_mesh_log("calendar", args.identity_messages)
    if heap_log.records != cal_log.records:
        print(f"FAIL: NetworkLog records differ between schedulers "
              f"({len(heap_log.records)} heap vs {len(cal_log.records)} calendar)")
        return 1
    print(f"netlog identity: {len(cal_log.records)} records bit-identical "
          f"on both schedulers")

    if args.check and speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x below required {args.min_speedup}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
