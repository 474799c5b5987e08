"""Microbenchmark: event throughput of the simulation kernel.

Runs a synthetic 100k-message kernel workload -- paired
sender/consumer processes exercising the hot commands (hold with
tie-prone quantized gaps, facility request/release under contention,
mailbox send/receive handoffs) -- and reports its event throughput,
after one small untimed run (:data:`WARMUP_RUNS`), in events per
*reference second*: each timed iteration is bracketed by the fixed
calibration kernel of ``perfbench/calibration.py``, and host seconds
are divided by the speed factor those timings give, so a loaded host
slows the yardstick along with the kernel.  Every iteration must fire
the same events and finish at the same clock (the default workload's
event count is pinned); a 4x4 wormhole-mesh run is then repeated
with the no-progress watchdog armed (never tripping), and its
``NetworkLog`` records must equal the unarmed run's bit for bit:
arming must not perturb a run.

Standalone (not a pytest benchmark) so CI can gate on the result:

    PYTHONPATH=src python benchmarks/bench_simkernel_events.py \
        --messages 100000 --iterations 3 --check

``--check`` exits non-zero if the best iteration is below
:data:`KERNEL_FLOOR` events per reference second, or if any
determinism or identity check fails.

``--scheduler topology`` measures N-D routing instead: the same
uniform schedule replayed on the 2-D ``--baseline-mesh`` and on each
``--topology`` spec, and ``--check`` gates each at ``--min-ratio``
times the baseline's events per second:

    PYTHONPATH=src python benchmarks/bench_simkernel_events.py \
        --scheduler topology --topology 4x4x4:mesh --check --min-ratio 0.9
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
)
from calibration import kernel_seconds, speed_factor  # noqa: E402

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

#: ``--check`` floor on the kernel workload's best iteration, in events
#: per reference second: twice the throughput of the binary-heap event
#: list the calendar queue replaced, on the slowest interpreter CI runs.
#: Measured as this gate then measured (fresh process, eight warm-up
#: runs, best of 3 bracketed iterations), 12 processes per interpreter
#: on a 2-vCPU x86-64 host, median [range] in events per reference
#: second:
#:
#:   CPython 3.9   heap 294k [272k-330k]   calendar 853k [744k-1.18M]
#:   CPython 3.11  heap 382k [318k-457k]   calendar 1.60M [1.55M-2.00M]
#:   CPython 3.12  heap 437k [406k-491k]   calendar 1.74M [1.64M-2.43M]
#:
#: The floor is twice 3.9's heap median.  It fails a run whose kernel
#: has lost about 30% of its median throughput on 3.9, and about 65% on
#: 3.11 or 3.12; smaller regressions pass.
KERNEL_FLOOR = 588_000

#: Untimed runs before the timed ones.  The one small run pays what a
#: process pays once: ``steady_clock``'s deferred imports, and the call
#: in which the interpreter first specializes the clock loop.  The loop
#: specializes within that call (DESIGN §5f), so one run is enough.
WARMUP_RUNS = 1

#: Events the default workload (100k messages over 32 pairs) fires; a
#: different count means the workload changed, not the kernel's speed.
KERNEL_EVENTS = {(100_000, 32): 418_880}


def run_kernel_workload(messages, pairs):
    """One synthetic run; returns (elapsed_s, events_fired, final_clock)."""
    sim = Simulator()
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


def run_mesh_log(messages_per_source, watchdog=None):
    """A clean 4x4 mesh run; returns its sealed NetworkLog.

    ``watchdog`` is ``run()``'s ``max_no_progress_events``; None
    leaves it unarmed."""
    sim = Simulator()
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
    sim.run(check_stall=True, max_no_progress_events=watchdog)
    net.log.seal()
    return net.log


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
            messages_per_source=args.messages_per_source,
            seed=1234,
        )
        workloads.append((config, traffic))

    print(f"topology workload: {baseline_spec.num_nodes} nodes, "
          f"{args.messages_per_source} uniform messages/source, "
          f"{args.iterations} interleaved iterations ...")
    best = [0.0] * len(workloads)  # best events/sec per workload
    for _ in range(args.iterations):
        for k, (config, traffic) in enumerate(workloads):
            started = time.perf_counter()
            result = run_serial_schedule(config, traffic)
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
                        help="exit 1 if a gate fails: kernel throughput below "
                             "KERNEL_FLOOR, topology ratio below --min-ratio")
    parser.add_argument("--scheduler", choices=("kernel", "topology"),
                        default="kernel",
                        help="kernel: event throughput against the floor "
                             "(the default); topology: N-D routing overhead "
                             "vs the 2-D mesh")
    parser.add_argument("--messages-per-source", type=int, default=300,
                        help="messages per source for --scheduler topology")
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

    if args.scheduler == "topology":
        return run_topology_bench(args)

    print(f"kernel workload: {args.messages} messages over {args.pairs} "
          f"sender/consumer pairs ...")
    for _ in range(WARMUP_RUNS):
        run_kernel_workload(2 * args.pairs, args.pairs)
    best = 0.0
    fired = clock = None
    before = kernel_seconds()
    for _ in range(args.iterations):
        elapsed, events, final = run_kernel_workload(args.messages, args.pairs)
        after = kernel_seconds()
        reference = elapsed / speed_factor((before + after) / 2)
        before = after
        best = max(best, events / reference)
        if fired is None:
            fired, clock = events, final
        elif (events, final) != (fired, clock):
            print("FAIL: kernel run is not deterministic")
            return 1
    expected = KERNEL_EVENTS.get((args.messages, args.pairs))
    if expected is not None and fired != expected:
        print(f"FAIL: workload fired {fired} events, pinned {expected}")
        return 1
    print(f"{'events':>9} {'events/ref-s':>13} {'floor':>9}")
    print(f"{fired:>9} {best:>13,.0f} {KERNEL_FLOOR:>9,}")
    print(f"best of {args.iterations} at t={clock:g}: "
          f"{best / KERNEL_FLOOR:.2f}x the floor")

    print(f"netlog identity: 4x4 mesh, {args.identity_messages} messages/source ...")
    unarmed_log = run_mesh_log(args.identity_messages)
    armed_log = run_mesh_log(args.identity_messages, watchdog=10**9)
    if unarmed_log.records != armed_log.records:
        print(f"FAIL: NetworkLog records differ with the watchdog armed "
              f"and unarmed ({len(unarmed_log.records)} unarmed vs "
              f"{len(armed_log.records)} armed)")
        return 1
    print(f"netlog identity: {len(unarmed_log.records)} records bit-identical "
          f"with the watchdog armed and unarmed")

    if args.check and best < KERNEL_FLOOR:
        print(f"FAIL: {best:,.0f} events per reference second, below the "
              f"floor of {KERNEL_FLOOR:,}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
