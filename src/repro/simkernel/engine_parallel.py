"""Region-separable parallel mesh replay over worker processes.

The ``parallel`` scheduler partitions the mesh into contiguous bands
of the highest axis (:mod:`repro.mesh.partition`; rows of a 2-D mesh)
and replays each band's share of a pre-drawn schedule in its own
worker process on the calendar engine.

It accepts only *region-local* schedules: every scheduled message must
start and end in one region.  :func:`run_parallel_mesh` checks this up
front and raises ``ValueError`` before any worker starts otherwise;
such schedules belong to the serial scheduler
(:func:`run_serial_schedule`), which replays them exactly.  Region-local
messages share no facility, channel or message across regions, so each
worker's event sequence is *identical* to the serial simulation
restricted to its region and the workers need no synchronization: each
replays its sub-mesh to completion, spills its shard and reports once.
The merged log is bit-identical to the serial calendar scheduler's
under the canonical cross-region ordering rule: records sorted by
``(deliver_time, inject_time, msg_id)``.

Each region logs into its own :class:`~repro.mesh.netlog_stream.StreamingNetworkLog`
shard; the coordinator merges the per-region partials with the
canonical fold (region-index order) and writes one combined
``netlog-spill`` manifest whose segments reference every region's
spill files, readable by every existing manifest consumer
(``repro doctor``, ``summary_from_manifest``, ``materialize_manifest``).
A worker that dies or fails surfaces as :class:`ParallelSimulationError`
naming its region, and no merged manifest is written.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.mesh.config import MeshConfig
from repro.mesh.netlog import LogSummary, NetworkLog
from repro.mesh.netlog_stream import (
    MANIFEST_KIND,
    MANIFEST_SCHEMA_VERSION,
    MANIFEST_SUFFIX,
    DEFAULT_WINDOW,
    StreamingNetworkLog,
    materialize_manifest,
    read_manifest,
)
from repro.mesh.network import MeshNetwork
from repro.mesh.partition import MeshPartition, slice_partition
from repro.obs.fsio import atomic_write_text
from repro.simkernel.engine import Simulator

__all__ = [
    "PARALLEL_SCHEDULER",
    "PATTERNS",
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
#: engine answers to ("calendar" selects the serial kernel).
PARALLEL_SCHEDULER = "parallel"

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
    """A region worker died or failed."""


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
        if messages_per_source < 1:
            raise ValueError(
                f"messages_per_source must be >= 1, got {messages_per_source}"
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

    def crossings(self, partition: MeshPartition) -> List[Tuple[int, int]]:
        """Every scheduled ``(src, dst)`` whose endpoints lie in
        different regions of ``partition``, in source then schedule
        order (empty for a region-local schedule)."""
        region = [partition.region_of(node) for node in range(self.num_nodes)]
        return [
            (src, dst)
            for src, entries in self.per_source.items()
            for _, dst, _, _ in entries
            if region[src] != region[dst]
        ]


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
    cols, _ = log.columns()
    out = NetworkLog()
    out.extend_log(
        log, np.lexsort((cols["msg_id"], cols["inject_time"], cols["deliver_time"]))
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
    options=None,
):
    """Replay ``traffic`` on one serial simulator (the reference the
    parallel scheduler is checked against) under ``options``, a
    :class:`~repro.core.options.RunOptions` (stall check, watchdog,
    leak audit, telemetry; default options when omitted).  ``log``
    defaults to an in-memory :class:`NetworkLog`; pass a
    :class:`~repro.mesh.netlog_stream.StreamingNetworkLog` to spill.
    ``scheduler`` must be ``"calendar"``, the one serial kernel."""
    if scheduler != "calendar":
        raise ValueError(
            f"run_serial_schedule replays on the calendar kernel only, "
            f"got scheduler={scheduler!r}"
        )
    if traffic.num_nodes != config.num_nodes:
        raise ValueError(
            f"traffic drawn for {traffic.num_nodes} nodes, mesh has "
            f"{config.num_nodes}"
        )
    net = MeshNetwork(Simulator(), config, log=log)
    net.start_sources(traffic.per_source, TRAFFIC_KIND)
    net.run(options, label="replay")
    spilled = isinstance(net.log, StreamingNetworkLog)
    return SerialRunResult(
        log=net.log,
        clock=net.simulator.now,
        events_fired=net.simulator.events_fired,
        manifest_path=net.log.finalize() if spilled else None,
    )


# ----------------------------------------------------------------------
# region worker (child process)
# ----------------------------------------------------------------------
class _GlobalIdLog:
    """The region network's log seam: appends each delivery to the
    region's spill shard with its endpoints translated back to global
    node ids."""

    def __init__(self, shard: StreamingNetworkLog, offset: int) -> None:
        self._shard = shard
        self._offset = offset

    def add(self, record) -> None:
        self._shard.append(
            record.msg_id,
            record.src + self._offset,
            record.dst + self._offset,
            record.length_bytes,
            record.kind,
            record.inject_time,
            record.start_time,
            record.deliver_time,
            record.contention,
            record.hops,
        )

    def seal(self) -> None:
        self._shard.seal()


def _replay_region(
    partition: MeshPartition,
    region: int,
    per_source: Dict[int, Sequence[Tuple[float, int, int, int]]],
    directory: str,
    stem: str,
    window: int,
) -> Dict[str, object]:
    """Replay one region's sources on its sub-mesh to completion under
    the default run options (stall check and leak audit) and spill its
    shard; returns the shard manifest and kernel counters."""
    offset = partition.to_global(region, 0)
    shard = StreamingNetworkLog(directory, stem=f"{stem}.r{region:02d}", window=window)
    net = MeshNetwork(
        Simulator(), partition.region_config(region), log=_GlobalIdLog(shard, offset)
    )
    local = {
        src - offset: [(gap, dst - offset, *rest) for gap, dst, *rest in entries]
        for src, entries in per_source.items()
    }
    net.start_sources(local, TRAFFIC_KIND)
    net.run()
    return {
        "manifest": shard.finalize(),
        "clock": net.simulator.now,
        "events_fired": net.simulator.events_fired,
    }


def _region_worker_main(
    conn,
    partition: MeshPartition,
    region: int,
    per_source: Dict[int, Sequence[Tuple[float, int, int, int]]],
    directory: str,
    stem: str,
    window: int,
) -> None:
    """Child-process entry point (module-level for spawn picklability):
    replays the region and sends one ``result`` or ``error`` reply."""
    try:
        result = _replay_region(partition, region, per_source, directory, stem, window)
        conn.send(("result", result))
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - parent already gone
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
@dataclass
class ParallelRunResult:
    """One parallel run: the merged manifest plus kernel counters."""

    manifest_path: str
    directory: str
    summary: LogSummary
    records: int
    clock: float
    events_fired: int
    regions: int
    active_regions: Tuple[int, ...]
    region_manifests: Tuple[str, ...]

    def merged_log(self) -> NetworkLog:
        """Materialize every region segment in canonical order."""
        return canonical_order(materialize_manifest(self.manifest_path))


def run_parallel_mesh(
    config: MeshConfig,
    traffic: ScheduleTraffic,
    regions: int = 2,
    directory: Optional[str] = None,
    stem: str = "netlog",
    window: int = DEFAULT_WINDOW,
) -> ParallelRunResult:
    """Replay a region-local ``traffic`` on ``regions`` worker processes.

    Returns a :class:`ParallelRunResult` whose ``manifest_path`` names
    a merged ``netlog-spill`` manifest covering every region's spill
    segments (written into ``directory``, a fresh temporary directory
    when omitted).  Raises ``ValueError`` before any worker starts for
    a schedule with a message that crosses a region boundary, a
    partition the mesh does not admit, or traffic drawn for another
    mesh size; raises :class:`ParallelSimulationError` if a worker
    dies or fails.
    """
    if traffic.num_nodes != config.num_nodes:
        raise ValueError(
            f"traffic drawn for {traffic.num_nodes} nodes, mesh has "
            f"{config.num_nodes}"
        )
    partition = slice_partition(config, regions)
    crossings = traffic.crossings(partition)
    if crossings:
        src, dst = crossings[0]
        raise ValueError(
            f"{len(crossings)} of {traffic.message_count} scheduled messages "
            f"cross a region boundary (first: node {src} in region "
            f"{partition.region_of(src)} -> node {dst} in region "
            f"{partition.region_of(dst)}); the parallel scheduler replays only "
            f"region-local schedules, replay this one on the serial calendar "
            f"scheduler instead"
        )
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

    mp_methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in mp_methods else "spawn")
    conns: Dict[int, object] = {}
    procs: Dict[int, object] = {}
    results: Dict[int, Dict[str, object]] = {}
    try:
        for r in active:
            parent_conn, child_conn = ctx.Pipe(duplex=False)
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

        # Take replies in completion order, so a dead worker is named
        # as soon as its pipe closes rather than after its neighbours.
        waiting = {conns[r]: r for r in active}
        while waiting:
            for conn in wait(list(waiting)):
                r = waiting.pop(conn)
                try:
                    kind, payload = conn.recv()
                except EOFError:
                    procs[r].join(timeout=5.0)
                    raise ParallelSimulationError(
                        f"region {r} worker exited without a reply "
                        f"(exit code {procs[r].exitcode})"
                    ) from None
                if kind == "error":
                    raise ParallelSimulationError(
                        f"region {r} worker failed:\n{payload}"
                    )
                results[r] = payload
        for r in active:
            procs[r].join()
    finally:
        for conn in conns.values():
            conn.close()
        for proc in procs.values():
            if proc.is_alive():  # only on error paths
                proc.terminate()
                proc.join()

    # Merge the per-region manifests: segments concatenated in region
    # order (all shards share ``directory``, so relative paths stay
    # valid) and summaries folded canonically (region-index order).
    segments: List[Dict[str, object]] = []
    partials: List[LogSummary] = []
    region_manifests: List[str] = []
    records = 0
    for r in active:
        doc = read_manifest(str(results[r]["manifest"]))
        segments.extend(doc["segments"])  # type: ignore[arg-type]
        partials.append(LogSummary.from_dict(doc["summary"]))  # type: ignore[arg-type]
        records += int(doc["records"])  # type: ignore[arg-type]
        region_manifests.append(str(results[r]["manifest"]))
    summary = LogSummary.merged(partials)
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
            "partitioner": "slice",
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
        regions=partition.num_regions,
        active_regions=active,
        region_manifests=tuple(region_manifests),
    )
