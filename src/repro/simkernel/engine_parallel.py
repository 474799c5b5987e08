"""Pre-drawn schedule replay on the serial calendar kernel.

:class:`ScheduleTraffic` draws a pattern workload once, up front, and
:func:`run_serial_schedule` replays it closed-loop on one simulator
under a :class:`~repro.core.options.RunOptions` bundle.  ``repro
drive`` (through :func:`repro.core.run.run_pattern`), sweep pattern
cells and the pipeline benchmark's ``torus-spill`` workload all replay
through it.

The module name is historical: it also held a region-parallel replay
over worker processes, deleted because it could replay only schedules
in which no message leaves its region (DESIGN.md §5j).  The name stays
because ``perfbench/workloads.py`` imports the module by it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.mesh.config import MeshConfig
from repro.mesh.netlog_stream import StreamingNetworkLog
from repro.mesh.network import MeshNetwork
from repro.simkernel.engine import Simulator

__all__ = [
    "TRAFFIC_KIND",
    "ScheduleTraffic",
    "SerialRunResult",
    "run_serial_schedule",
]

#: Kind tag on every schedule-replay message.
TRAFFIC_KIND = "pattern"


class ScheduleTraffic:
    """Pre-drawn traffic, replayed identically on every run.

    Per-source entry lists of ``(gap, dst, length_bytes, msg_id)``:
    each source process holds for ``gap``, transfers the message, and
    waits for delivery before drawing the next entry (closed loop).
    All randomness happens at compile time, so every replay of one
    schedule consumes byte-for-byte the same workload.
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
                if not gap >= 0:  # written so that a NaN gap fails too
                    raise ValueError(f"gap must be >= 0, got {gap} for source {src}")
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

        ``pattern`` is any name registered in :mod:`repro.mesh.patterns`
        (uniform, tornado, transpose, hotspot, ...), shaped to the
        config's dims.  ``uniform`` is drawn inline, spreading
        destinations over every other node; it maps a draw to a
        different node than the registered pattern does, and the golden
        schedule digests pin that mapping.  Gaps are exponential with
        mean ``mean_gap``, drawn from per-source
        :class:`numpy.random.SeedSequence` spawns so the schedule is
        independent of source iteration order.
        """
        from repro.mesh.patterns import pattern_for_config, registered_patterns

        if pattern not in registered_patterns():
            raise ValueError(
                f"unknown pattern {pattern!r}; expected one of "
                f"{registered_patterns()}"
            )
        registry_pattern = (
            None if pattern == "uniform" else pattern_for_config(pattern, config)
        )
        if messages_per_source < 1:
            raise ValueError(
                f"messages_per_source must be >= 1, got {messages_per_source}"
            )
        if messages_per_source >= 1_000_000:
            raise ValueError(
                "messages_per_source >= 1e6 would collide the msg_id blocks"
            )
        if not mean_gap > 0:
            raise ValueError(f"mean_gap must be positive, got {mean_gap}")
        n = config.num_nodes
        streams = np.random.SeedSequence(seed).spawn(n)
        per_source: Dict[int, List[Tuple[float, int, int, int]]] = {}
        for src in range(n):
            rng = np.random.default_rng(streams[src])
            entries: List[Tuple[float, int, int, int]] = []
            for i in range(messages_per_source):
                gap = float(rng.exponential(mean_gap))
                if registry_pattern is not None:
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


@dataclass
class SerialRunResult:
    """One schedule replay: the log plus kernel counters."""

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
    """Replay ``traffic`` on one simulator under ``options``, a
    :class:`~repro.core.options.RunOptions` (stall check, watchdog,
    leak audit, telemetry; default options when omitted).  ``log``
    defaults to an in-memory :class:`~repro.mesh.netlog.NetworkLog`;
    pass a :class:`~repro.mesh.netlog_stream.StreamingNetworkLog` to
    spill.  ``scheduler`` must be ``"calendar"``, the one kernel."""
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
