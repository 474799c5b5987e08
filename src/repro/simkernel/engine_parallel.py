"""Conservative parallel mesh simulation over region worker processes.

The ``parallel`` scheduler partitions the mesh into contiguous row
bands (:mod:`repro.mesh.partition`), runs each band's event queue in
its own worker process on the calendar engine, and synchronizes the
workers with a conservative protocol whose lookahead is the minimum
inter-region channel latency (``routing_time + channel_time``): no
region can affect a neighbour sooner than one boundary-channel
traversal, so each region may safely simulate up to its *horizon*
without ever receiving an event in its simulated past.

Two advancement modes are selectable (:data:`SYNC_MODES`):

``barrier``
    Every round, all regions advance to a single global horizon
    ``GVT + L`` where ``GVT`` is the minimum next-event time across
    regions and ``L`` the lookahead.  Any boundary handoff produced in
    the round departs at a time ``>= GVT`` and therefore arrives at
    ``>= GVT + L`` -- never inside any region's new past.

``null``
    Per-region horizons in the spirit of Chandy-Misra-Bryant null
    messages: the coordinator relaxes earliest-possible-event times
    ``E_r`` over the region channel graph (``E_r <- min(E_r, E_s + L)``
    for each crossing channel ``s -> r``) and grants region ``r`` the
    horizon ``min over senders s of E_s + L``.  Regions with no
    inbound channels run to completion immediately; others still
    out-run a global barrier whenever their senders are ahead of the
    global minimum.  Positive lookahead guarantees progress: the
    region holding the global minimum always clears its own horizon.

The region channel graph is *precomputed from the traffic schedule*
(traffic here is pre-drawn replay traffic, so every source/destination
pair is known up front).  When no scheduled message crosses a region
boundary, every horizon is infinite and each worker runs its whole
event queue in a single round -- the embarrassingly-parallel regime the
benchmark gate exercises.

Boundary crossings are simulated store-and-forward: each region
simulates the full wormhole transfer of its *leg* of the route, and
the handoff to the next region is delivered exactly one lookahead
after the leg's tail flit arrives at the boundary row.  Compared to
the serial simulator this charges an extra NI injection/ejection pair
per crossing and re-serializes the body per leg; message *routes*,
counts, payload bytes and hop counts are exact (each crossing
contributes the one boundary channel the legs omit), which is what the
cross-region conservation tests pin down.  Traffic whose messages
never cross a boundary (e.g. row-local patterns under the row-sliced
partitioner) shares no facilities between regions, so each region's
event sequence is *identical* to the serial simulation restricted to
that region and the merged log is bit-identical to the serial
calendar scheduler's under the canonical cross-region ordering rule:
records sorted by ``(deliver_time, inject_time, msg_id)``.

Each region logs into its own :class:`~repro.mesh.netlog_stream.StreamingNetworkLog`
shard; the coordinator merges the per-region partials with the
canonical fold (region-index order) and writes one combined
``netlog-spill`` manifest whose segments reference every region's
spill files, readable by every existing manifest consumer
(``repro doctor``, ``summary_from_manifest``, ``materialize_manifest``).
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import tempfile
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.mesh.config import MeshConfig
from repro.mesh.netlog import NetworkLog
from repro.mesh.netlog_stream import (
    MANIFEST_KIND,
    MANIFEST_SCHEMA_VERSION,
    MANIFEST_SUFFIX,
    DEFAULT_WINDOW,
    StreamingNetworkLog,
    StreamingSummary,
    materialize_manifest,
    read_manifest,
)
from repro.mesh.network import MeshNetwork
from repro.mesh.packet import NetworkMessage
from repro.mesh.partition import MeshPartition, slice_partition
from repro.obs.fsio import atomic_write_text
from repro.simkernel.engine import Simulator, hold

__all__ = [
    "PARALLEL_SCHEDULER",
    "PATTERNS",
    "SYNC_MODES",
    "TRAFFIC_KIND",
    "ParallelRunResult",
    "ParallelSimulationError",
    "ScheduleTraffic",
    "SerialRunResult",
    "canonical_order",
    "logs_bit_identical",
    "run_parallel_mesh",
    "run_serial_schedule",
    "schedule_pattern_names",
]

#: The :class:`~repro.core.options.RunOptions` scheduler name this
#: engine answers to ("calendar"/"heap" select the serial kernels).
PARALLEL_SCHEDULER = "parallel"

#: Conservative advancement modes (see the module docstring).
SYNC_MODES = ("barrier", "null")

#: Built-in schedule patterns :meth:`ScheduleTraffic.compile_pattern`
#: draws inline; any pattern registered in :mod:`repro.mesh.patterns`
#: (tornado, transpose, hotspot, ...) is accepted as well.
PATTERNS = ("local", "uniform")


def schedule_pattern_names() -> Tuple[str, ...]:
    """Every pattern name :meth:`ScheduleTraffic.compile_pattern` accepts."""
    from repro.mesh.patterns import registered_patterns

    return tuple(sorted(set(PATTERNS) | set(registered_patterns())))

#: Kind tag on every schedule-replay message.
TRAFFIC_KIND = "pattern"


class ParallelSimulationError(RuntimeError):
    """A region worker died or broke the conservative protocol."""


# ----------------------------------------------------------------------
# pre-drawn replay traffic
# ----------------------------------------------------------------------
class ScheduleTraffic:
    """Pre-drawn traffic replayed identically by every scheduler.

    Per-source entry lists of ``(gap, dst, length_bytes, msg_id)``:
    each source process holds for ``gap``, transfers the message, and
    waits for delivery before drawing the next entry (closed loop).
    All randomness happens at compile time, so the serial and parallel
    schedulers consume byte-for-byte the same workload -- the
    precondition for the cross-scheduler equivalence suite.
    """

    def __init__(
        self,
        num_nodes: int,
        per_source: Dict[int, Sequence[Tuple[float, int, int, int]]],
    ) -> None:
        self.num_nodes = int(num_nodes)
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        clean: Dict[int, Tuple[Tuple[float, int, int, int], ...]] = {}
        seen_ids: Set[int] = set()
        for src in sorted(per_source):
            entries = tuple(
                (float(gap), int(dst), int(length), int(msg_id))
                for gap, dst, length, msg_id in per_source[src]
            )
            if not entries:
                continue
            if not (0 <= src < self.num_nodes):
                raise ValueError(f"source {src} outside {self.num_nodes}-node mesh")
            for gap, dst, length, msg_id in entries:
                if not (0 <= dst < self.num_nodes):
                    raise ValueError(
                        f"destination {dst} outside {self.num_nodes}-node mesh"
                    )
                if gap < 0:
                    raise ValueError(f"negative gap {gap} for source {src}")
                if msg_id in seen_ids:
                    raise ValueError(f"duplicate msg_id {msg_id}")
                seen_ids.add(msg_id)
            clean[int(src)] = entries
        self.per_source = clean

    @property
    def message_count(self) -> int:
        return sum(len(entries) for entries in self.per_source.values())

    @classmethod
    def compile_pattern(
        cls,
        config: MeshConfig,
        pattern: str = "uniform",
        messages_per_source: int = 100,
        seed: int = 1234,
        mean_gap: float = 10.0,
        length_bytes: int = 64,
    ) -> "ScheduleTraffic":
        """Draw a synthetic pattern workload once, up front.

        ``local`` keeps every message inside its source's layer of the
        sliced axis (so it never crosses a region boundary);
        ``uniform`` spreads destinations over every other node; any
        name registered in :mod:`repro.mesh.patterns` (tornado,
        transpose, hotspot, ...) draws destinations from that pattern,
        shaped to the config's dims.  Gaps are exponential with mean
        ``mean_gap``, drawn from per-source
        :class:`numpy.random.SeedSequence` spawns so the schedule is
        independent of source iteration order.
        """
        registry_pattern = None
        if pattern not in PATTERNS:
            from repro.mesh.patterns import pattern_for_config, registered_patterns

            if pattern not in registered_patterns():
                raise ValueError(
                    f"unknown pattern {pattern!r}; expected one of "
                    f"{schedule_pattern_names()}"
                )
            registry_pattern = pattern_for_config(pattern, config)
        if messages_per_source < 0:
            raise ValueError(
                f"messages_per_source must be >= 0, got {messages_per_source}"
            )
        if messages_per_source >= 1_000_000:
            raise ValueError(
                "messages_per_source >= 1e6 would collide the msg_id blocks"
            )
        if mean_gap <= 0:
            raise ValueError(f"mean_gap must be positive, got {mean_gap}")
        n = config.num_nodes
        # In-layer node count of the sliced (highest) axis: the 2-D
        # width.  "local" traffic stays inside one layer.
        plane = n // config.spec.dims[-1]
        streams = np.random.SeedSequence(seed).spawn(n)
        per_source: Dict[int, List[Tuple[float, int, int, int]]] = {}
        for src in range(n):
            rng = np.random.default_rng(streams[src])
            x, y = src % plane, src // plane
            entries: List[Tuple[float, int, int, int]] = []
            for i in range(messages_per_source):
                gap = float(rng.exponential(mean_gap))
                if pattern == "local":
                    if plane < 2:
                        break  # a one-column mesh has no row-local peers
                    dst = y * plane + int((x + 1 + rng.integers(plane - 1)) % plane)
                elif registry_pattern is not None:
                    dst = int(registry_pattern.destination(src, rng))
                    if dst == src:
                        continue  # self-sends never enter the network
                else:
                    if n < 2:
                        break
                    dst = int((src + 1 + rng.integers(n - 1)) % n)
                entries.append((gap, dst, int(length_bytes), src * 1_000_000 + i))
            if entries:
                per_source[src] = entries
        return cls(n, per_source)

    def crossing_pairs(self, partition: MeshPartition) -> Set[Tuple[int, int]]:
        """Every directed region pair some scheduled message crosses.

        Region chains depend only on the endpoint regions (bands are
        ordered), so the scan memoizes per region pair rather than per
        message.
        """
        pairs: Set[Tuple[int, int]] = set()
        chain_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        for src, entries in self.per_source.items():
            src_region = partition.region_of(src)
            for _, dst, _, _ in entries:
                key = (src_region, partition.region_of(dst))
                chain = chain_cache.get(key)
                if chain is None:
                    chain = partition.region_chain(src, dst)
                    chain_cache[key] = chain
                pairs.update(zip(chain, chain[1:]))
        return pairs


# ----------------------------------------------------------------------
# canonical cross-region ordering
# ----------------------------------------------------------------------
def canonical_order(log: NetworkLog) -> NetworkLog:
    """A fresh log with the records in canonical cross-region order.

    Records sort by ``(deliver_time, inject_time, msg_id)``; msg_ids
    are unique, so the order is total and independent of which region
    (or which serial event interleaving) produced each record.  This
    is the presentation order under which the parallel scheduler's
    merged log is compared bit-for-bit against the serial one.
    """
    cols, vocab = log.columns()
    out = NetworkLog()
    n = cols["msg_id"].size
    if n == 0:
        return out
    order = np.lexsort((cols["msg_id"], cols["inject_time"], cols["deliver_time"]))
    tags = np.asarray(vocab, dtype=np.str_)[cols["kind"][order]]
    out.extend_columns(
        msg_id=cols["msg_id"][order],
        src=cols["src"][order],
        dst=cols["dst"][order],
        length_bytes=cols["length_bytes"][order],
        kind=tags,
        inject_time=cols["inject_time"][order],
        start_time=cols["start_time"][order],
        deliver_time=cols["deliver_time"][order],
        contention=cols["contention"][order],
        hops=cols["hops"][order],
    )
    return out


def logs_bit_identical(a: NetworkLog, b: NetworkLog) -> bool:
    """Whether two logs hold exactly the same records, canonically
    ordered first (column-for-column array equality, kinds decoded)."""
    ca, va = canonical_order(a).columns()
    cb, vb = canonical_order(b).columns()
    if ca["msg_id"].size != cb["msg_id"].size:
        return False
    for name in ca:
        if name == "kind":
            continue
        if not np.array_equal(ca[name], cb[name]):
            return False
    tags_a = np.asarray(va, dtype=np.str_)[ca["kind"]] if va else ca["kind"]
    tags_b = np.asarray(vb, dtype=np.str_)[cb["kind"]] if vb else cb["kind"]
    return bool(np.array_equal(tags_a, tags_b))


# ----------------------------------------------------------------------
# serial reference
# ----------------------------------------------------------------------
@dataclass
class SerialRunResult:
    """One serial schedule replay: the log plus kernel counters."""

    log: object
    clock: float
    events_fired: int
    manifest_path: Optional[str] = None


def run_serial_schedule(
    config: MeshConfig,
    traffic: ScheduleTraffic,
    scheduler: str = "calendar",
    log: Optional[object] = None,
):
    """Replay ``traffic`` on one serial simulator (the reference the
    parallel scheduler is checked against).  ``log`` defaults to an
    in-memory :class:`NetworkLog`; pass a
    :class:`~repro.mesh.netlog_stream.StreamingNetworkLog` to spill."""
    if traffic.num_nodes != config.num_nodes:
        raise ValueError(
            f"traffic drawn for {traffic.num_nodes} nodes, mesh has "
            f"{config.num_nodes}"
        )
    sim = Simulator(scheduler=scheduler)
    the_log = log if log is not None else NetworkLog()
    net = MeshNetwork(sim, config, log=the_log)

    def source(src: int, entries):
        for gap, dst, length_bytes, msg_id in entries:
            yield hold(gap)
            yield from net.transfer(
                NetworkMessage(
                    src=src,
                    dst=dst,
                    length_bytes=length_bytes,
                    kind=TRAFFIC_KIND,
                    msg_id=msg_id,
                )
            )

    for src in sorted(traffic.per_source):
        sim.process(source(src, traffic.per_source[src]), name=f"source-{src}")
    sim.run(check_stall=True)
    the_log.seal()
    manifest = None
    if isinstance(the_log, StreamingNetworkLog):
        manifest = the_log.finalize()
    return SerialRunResult(
        log=the_log,
        clock=sim.now,
        events_fired=sim.events_fired,
        manifest_path=manifest,
    )


# ----------------------------------------------------------------------
# region worker (child process)
# ----------------------------------------------------------------------
class _CouplerLog:
    """The region network's log seam: routes pure-local records into
    the region's spill shard (ids translated back to global) and folds
    boundary-leg records into their message's cross-region state."""

    def __init__(self, worker: "_RegionWorker") -> None:
        self._worker = worker

    def add(self, record) -> None:
        self._worker.couple(record)

    def seal(self) -> None:  # run-harness hook parity with NetworkLog
        self._worker.shard.seal()


class _RegionWorker:
    """One region's simulator, network, spill shard and handoff state."""

    def __init__(
        self,
        partition: MeshPartition,
        region: int,
        per_source: Dict[int, Sequence[Tuple[float, int, int, int]]],
        directory: str,
        stem: str,
        window: int,
    ) -> None:
        self.partition = partition
        self.region = region
        self.lookahead = partition.lookahead()
        self.sim = Simulator(scheduler="calendar")
        self.shard = StreamingNetworkLog(
            directory, stem=f"{stem}.r{region:02d}", window=window
        )
        self.net = MeshNetwork(
            self.sim, partition.region_config(region), log=_CouplerLog(self)
        )
        #: In-flight cross-region message state, keyed by msg_id; an
        #: entry exists exactly while one of the message's legs runs in
        #: this region's sub-mesh.
        self.pending: Dict[int, Dict[str, object]] = {}
        #: Handoffs produced since the last status report.
        self.outgoing: List[Dict[str, object]] = []
        for src in sorted(per_source):
            self.sim.process(
                self._source(src, per_source[src]), name=f"source-{src}"
            )

    def _local(self, node: int) -> int:
        return self.partition.to_local(self.region, node)

    def _source(self, src: int, entries):
        net = self.net
        for gap, dst, length_bytes, msg_id in entries:
            yield hold(gap)
            legs = self.partition.route_legs(src, dst)
            if len(legs) == 1:
                message = NetworkMessage(
                    src=self._local(src),
                    dst=self._local(dst),
                    length_bytes=length_bytes,
                    kind=TRAFFIC_KIND,
                    msg_id=msg_id,
                )
                yield from net.transfer(message)
                continue
            # Cross-region: run the first leg here, then hand off.  The
            # closed loop waits on the *leg* delivery (the source cannot
            # observe the remote tail without coupling the regions).
            self.pending[msg_id] = {
                "msg_id": msg_id,
                "src": src,
                "dst": dst,
                "length_bytes": length_bytes,
                "kind": TRAFFIC_KIND,
                "inject_time": None,
                "start_time": None,
                "contention": 0.0,
                "hops": 0,
                "leg": 0,
                "legs": legs,
            }
            _, leg_src, leg_dst = legs[0]
            message = NetworkMessage(
                src=self._local(leg_src),
                dst=self._local(leg_dst),
                length_bytes=length_bytes,
                kind=TRAFFIC_KIND,
                msg_id=msg_id,
            )
            yield from net.transfer(message)

    def couple(self, record) -> None:
        """Fold one delivered leg record into shard or handoff state."""
        meta = self.pending.pop(record.msg_id, None)
        if meta is None:
            # Pure-local message: log it verbatim with global ids.
            offset = self.partition.to_global(self.region, 0)
            self.shard.append(
                record.msg_id,
                record.src + offset,
                record.dst + offset,
                record.length_bytes,
                record.kind,
                record.inject_time,
                record.start_time,
                record.deliver_time,
                record.contention,
                record.hops,
            )
            return
        if meta["inject_time"] is None:
            # First leg: the record's injection/start times are the
            # message's true origin times.
            meta["inject_time"] = record.inject_time
            meta["start_time"] = record.start_time
        meta["contention"] = float(meta["contention"]) + record.contention
        meta["hops"] = int(meta["hops"]) + record.hops
        legs = meta["legs"]
        leg = int(meta["leg"])
        if leg == len(legs) - 1:
            self.shard.append(
                int(meta["msg_id"]),
                int(meta["src"]),
                int(meta["dst"]),
                int(meta["length_bytes"]),
                str(meta["kind"]),
                float(meta["inject_time"]),
                float(meta["start_time"]),
                record.deliver_time,
                float(meta["contention"]),
                int(meta["hops"]),
            )
            return
        # The boundary channel between this leg and the next is not
        # simulated by either region: count its hop here and charge its
        # latency as the lookahead on the arrival time.
        self.outgoing.append(
            {
                "msg_id": int(meta["msg_id"]),
                "src": int(meta["src"]),
                "dst": int(meta["dst"]),
                "length_bytes": int(meta["length_bytes"]),
                "kind": str(meta["kind"]),
                "inject_time": float(meta["inject_time"]),
                "start_time": float(meta["start_time"]),
                "contention": float(meta["contention"]),
                "hops": int(meta["hops"]) + 1,
                "leg": leg + 1,
                "region": legs[leg + 1][0],
                "arrival": record.deliver_time + self.lookahead,
            }
        )

    def _admit(self, handoff: Dict[str, object]) -> None:
        """Start a handed-off message's next leg in this region."""
        legs = self.partition.route_legs(int(handoff["src"]), int(handoff["dst"]))
        leg = int(handoff["leg"])
        meta = dict(handoff)
        meta.pop("arrival", None)
        meta.pop("region", None)
        meta["legs"] = legs
        self.pending[int(handoff["msg_id"])] = meta
        _, leg_src, leg_dst = legs[leg]
        self.net.inject(
            NetworkMessage(
                src=self._local(leg_src),
                dst=self._local(leg_dst),
                length_bytes=int(handoff["length_bytes"]),
                kind=str(handoff["kind"]),
                msg_id=int(handoff["msg_id"]),
            )
        )

    def _status(self) -> Dict[str, object]:
        outgoing, self.outgoing = self.outgoing, []
        return {
            "clock": self.sim.now,
            "next": self.sim._sched.peek_time(),
            "outgoing": outgoing,
        }

    def serve(self, conn) -> None:
        """The worker protocol loop (see :func:`run_parallel_mesh`)."""
        conn.send(("status", self._status()))
        while True:
            kind, payload = conn.recv()
            if kind == "advance":
                horizon, handoffs = payload
                for handoff in sorted(
                    handoffs, key=lambda h: (h["arrival"], h["msg_id"])
                ):
                    delay = float(handoff["arrival"]) - self.sim.now
                    self.sim.schedule(
                        max(delay, 0.0),
                        (lambda h=handoff: self._admit(h)),
                    )
                self.sim.run(until=horizon)
                conn.send(("status", self._status()))
            elif kind == "finish":
                manifest = self.shard.finalize()
                conn.send(
                    (
                        "result",
                        {
                            "region": self.region,
                            "manifest": manifest,
                            "records": len(self.shard),
                            "clock": self.sim.now,
                            "events_fired": self.sim.events_fired,
                        },
                    )
                )
                return
            else:  # pragma: no cover - coordinator never sends others
                raise ParallelSimulationError(f"unknown command {kind!r}")


def _region_worker_main(
    conn,
    partition: MeshPartition,
    region: int,
    per_source: Dict[int, Sequence[Tuple[float, int, int, int]]],
    directory: str,
    stem: str,
    window: int,
) -> None:
    """Child-process entry point (module-level for spawn picklability)."""
    try:
        worker = _RegionWorker(partition, region, per_source, directory, stem, window)
        worker.serve(conn)
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - parent already gone
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
@dataclass
class ParallelRunResult:
    """One parallel run: the merged manifest plus protocol counters."""

    manifest_path: str
    directory: str
    summary: StreamingSummary
    records: int
    clock: float
    events_fired: int
    rounds: int
    regions: int
    active_regions: Tuple[int, ...]
    sync: str
    lookahead: float
    region_manifests: Tuple[str, ...]

    def merged_log(self) -> NetworkLog:
        """Materialize every region segment in canonical order."""
        return canonical_order(materialize_manifest(self.manifest_path))


def _horizons(
    sync: str,
    active: Sequence[int],
    eff_next: Dict[int, Optional[float]],
    senders_of: Dict[int, Set[int]],
    lookahead: float,
) -> Dict[int, float]:
    """Per-region safe horizons for one round (inf = run to drain)."""
    inf = math.inf
    if sync == "barrier":
        finite = [t for t in eff_next.values() if t is not None]
        gvt = min(finite)
        return {r: (gvt + lookahead if senders_of[r] else inf) for r in active}
    # null: relax earliest-possible-event times over the channel graph
    # (Bellman-Ford; positive lookahead means |V|-1 sweeps suffice).
    earliest = {
        r: (eff_next[r] if eff_next[r] is not None else inf) for r in active
    }
    edges = [(s, r) for r in active for s in senders_of[r]]
    for _ in range(max(len(active) - 1, 1)):
        changed = False
        for s, r in edges:
            candidate = earliest[s] + lookahead
            if candidate < earliest[r]:
                earliest[r] = candidate
                changed = True
        if not changed:
            break
    return {
        r: (
            min(earliest[s] for s in senders_of[r]) + lookahead
            if senders_of[r]
            else inf
        )
        for r in active
    }


def run_parallel_mesh(
    config: MeshConfig,
    traffic: ScheduleTraffic,
    regions: int = 2,
    sync: str = "barrier",
    directory: Optional[str] = None,
    stem: str = "netlog",
    window: int = DEFAULT_WINDOW,
    max_rounds: Optional[int] = None,
) -> ParallelRunResult:
    """Replay ``traffic`` on ``regions`` conservative worker processes.

    Returns a :class:`ParallelRunResult` whose ``manifest_path`` names
    a merged ``netlog-spill`` manifest covering every region's spill
    segments (written into ``directory``, a fresh temporary directory
    when omitted).  Raises :class:`ParallelSimulationError` if a worker
    dies, and ``ValueError`` for an unknown sync mode, a partition the
    mesh does not admit, or zero lookahead.
    """
    if sync not in SYNC_MODES:
        raise ValueError(f"unknown sync mode {sync!r}; expected one of {SYNC_MODES}")
    if traffic.num_nodes != config.num_nodes:
        raise ValueError(
            f"traffic drawn for {traffic.num_nodes} nodes, mesh has "
            f"{config.num_nodes}"
        )
    partition = slice_partition(config, regions)
    lookahead = partition.lookahead()
    if directory is None:
        directory = tempfile.mkdtemp(prefix="repro-parallel-")
    active = tuple(
        r for r in range(partition.num_regions) if not partition.is_empty(r)
    )
    per_region: Dict[int, Dict[int, Sequence[Tuple[float, int, int, int]]]] = {
        r: {} for r in active
    }
    for src, entries in traffic.per_source.items():
        per_region[partition.region_of(src)][src] = entries
    senders_of: Dict[int, Set[int]] = {r: set() for r in active}
    for s, r in traffic.crossing_pairs(partition):
        senders_of[r].add(s)

    mp_methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in mp_methods else "spawn")
    conns: Dict[int, object] = {}
    procs: Dict[int, object] = {}
    rounds = 0
    try:
        for r in active:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_region_worker_main,
                args=(child_conn, partition, r, per_region[r], directory, stem, window),
                name=f"mesh-region-{r}",
            )
            proc.daemon = True
            proc.start()
            child_conn.close()
            conns[r] = parent_conn
            procs[r] = proc

        def recv(r: int):
            try:
                kind, payload = conns[r].recv()
            except EOFError:
                raise ParallelSimulationError(
                    f"region {r} worker exited without a reply"
                ) from None
            if kind == "error":
                raise ParallelSimulationError(
                    f"region {r} worker failed:\n{payload}"
                )
            return kind, payload

        statuses = {r: recv(r)[1] for r in active}
        buffered: Dict[int, List[Dict[str, object]]] = {r: [] for r in active}
        while True:
            for r in active:
                for handoff in statuses[r]["outgoing"]:
                    target = int(handoff["region"])
                    if float(handoff["arrival"]) < statuses[target]["clock"]:
                        raise ParallelSimulationError(
                            f"conservative invariant violated: handoff "
                            f"msg_id={handoff['msg_id']} arrives at "
                            f"{handoff['arrival']} inside region {target}'s "
                            f"past (clock {statuses[target]['clock']})"
                        )
                    buffered[target].append(handoff)
            eff_next: Dict[int, Optional[float]] = {}
            for r in active:
                times = [
                    t
                    for t in [statuses[r]["next"]]
                    + [float(h["arrival"]) for h in buffered[r]]
                    if t is not None
                ]
                eff_next[r] = min(times) if times else None
            if all(t is None for t in eff_next.values()):
                break
            rounds += 1
            if max_rounds is not None and rounds > max_rounds:
                raise ParallelSimulationError(
                    f"parallel run exceeded {max_rounds} synchronization rounds"
                )
            horizons = _horizons(sync, active, eff_next, senders_of, lookahead)
            for r in active:
                horizon = horizons[r]
                conns[r].send(
                    (
                        "advance",
                        (
                            None if math.isinf(horizon) else horizon,
                            buffered[r],
                        ),
                    )
                )
                buffered[r] = []
            for r in active:
                statuses[r] = recv(r)[1]

        results: Dict[int, Dict[str, object]] = {}
        for r in active:
            conns[r].send(("finish", None))
        for r in active:
            results[r] = recv(r)[1]
        for r in active:
            procs[r].join()
    finally:
        for conn in conns.values():
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for proc in procs.values():
            if proc.is_alive():  # pragma: no cover - only on error paths
                proc.terminate()
                proc.join()

    # Merge the per-region manifests: segments concatenated in region
    # order (all shards share ``directory``, so relative paths stay
    # valid) and summaries folded canonically (region-index order).
    segments: List[Dict[str, object]] = []
    partials: List[StreamingSummary] = []
    region_manifests: List[str] = []
    records = 0
    for r in active:
        doc = read_manifest(str(results[r]["manifest"]))
        segments.extend(doc["segments"])  # type: ignore[arg-type]
        partials.append(StreamingSummary.from_dict(doc["summary"]))  # type: ignore[arg-type]
        records += int(doc["records"])  # type: ignore[arg-type]
        region_manifests.append(str(results[r]["manifest"]))
    summary = StreamingSummary.merged(partials)
    manifest_path = os.path.join(directory, stem + MANIFEST_SUFFIX)
    doc = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "kind": MANIFEST_KIND,
        "stem": stem,
        "window": int(window),
        "records": records,
        "segments": segments,
        "summary": summary.as_dict(),
        "parallel": {
            "regions": partition.num_regions,
            "active_regions": list(active),
            "sync": sync,
            "partitioner": "slice",
            "lookahead": lookahead,
            "rounds": rounds,
            "region_manifests": [os.path.basename(p) for p in region_manifests],
        },
    }
    atomic_write_text(manifest_path, json.dumps(doc, sort_keys=True))
    return ParallelRunResult(
        manifest_path=manifest_path,
        directory=directory,
        summary=summary,
        records=records,
        clock=max((float(results[r]["clock"]) for r in active), default=0.0),
        events_fired=sum(int(results[r]["events_fired"]) for r in active),
        rounds=rounds,
        regions=partition.num_regions,
        active_regions=active,
        sync=sync,
        lookahead=lookahead,
        region_manifests=tuple(region_manifests),
    )
