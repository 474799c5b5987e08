"""Maxflow: parallel maximum flow by push-relabel (Anderson & Setubal).

Paper: "The Maxflow application finds the maximum flow from a source to
a sink, in a directed graph" -- citing Anderson & Setubal's parallel
implementation of Goldberg's push-relabel algorithm.  Communication is
graph-dependent and dynamic: flow pushes follow residual edges wherever
the graph puts them.

This implementation is a BSP (synchronous-round) push-relabel:

1. *Push phase*: every processor scans its owned active vertices and
   pushes along admissible arcs against the round's frozen heights,
   decrementing its own residual capacities and queueing the deltas in
   a per-processor outbox.
2. *Delivery phase*: processors scan all outboxes and apply deltas
   addressed to their own vertices (excess and reverse capacities).
3. *Relabel phase*: owned active vertices with no admissible arc lift
   their height to 1 + min over residual neighbours.
4. *Termination phase*: a reduction over per-processor active counts.

Heights only increase and pushes use frozen heights, so the standard
validity invariant (h(u) <= h(v) + 1 on residual arcs) is preserved;
the algorithm terminates with the maximum flow accumulated as the
sink's excess.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Generator, Iterable, List, Optional, Tuple

import numpy as np

from repro.apps.base import SharedMemoryApplication, partition
from repro.exec_driven.runtime import ExecutionDrivenSimulation
from repro.exec_driven.thread_api import ThreadContext

#: Cycles charged per arc examined in the push scan.
ARC_SCAN_CYCLES = 4.0
#: Cycles charged per relabel computation.
RELABEL_CYCLES = 10.0


@dataclass(frozen=True)
class Arc:
    """One directed residual arc in the static topology."""

    arc_id: int
    tail: int
    head: int
    rev_id: int


def make_flow_network(
    n: int, extra_edges: int, max_capacity: int, seed: int
) -> Tuple[List[Tuple[int, int, int]], int, int]:
    """Random s-t flow network guaranteed to have s-t paths.

    Returns ``(edges, source, sink)`` with ``edges`` as
    ``(u, v, capacity)`` triples (no duplicates, no self-loops).
    """
    if n < 3:
        raise ValueError(f"need at least 3 nodes, got {n}")
    rng = np.random.default_rng(seed)
    source, sink = 0, n - 1
    edges: Dict[Tuple[int, int], int] = {}
    # A random Hamiltonian-ish backbone guarantees connectivity s -> t.
    order = [source] + list(rng.permutation(np.arange(1, n - 1))) + [sink]
    for a, b in zip(order, order[1:]):
        edges[(int(a), int(b))] = int(rng.integers(5, max_capacity + 1))
    while len(edges) < len(order) - 1 + extra_edges:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v or (u, v) in edges or v == source or u == sink:
            continue
        edges[(u, v)] = int(rng.integers(1, max_capacity + 1))
    return [(u, v, c) for (u, v), c in edges.items()], source, sink


def reference_max_flow(
    edges: Iterable[Tuple[int, int, int]], source: int, sink: int
) -> int:
    """Maximum ``source``-``sink`` flow value by BFS augmenting paths.

    Edmonds-Karp over ``(u, v, capacity)`` triples with integer
    capacities: an algorithm independent of push-relabel, used to check
    the application's answer exactly.  Parallel edges add up, and each
    edge gets a reverse residual arc, so an augmenting path may cancel
    flow pushed earlier.
    """
    residual: Dict[int, Dict[int, int]] = {source: {}, sink: {}}
    for u, v, capacity in edges:
        residual.setdefault(u, {})
        residual.setdefault(v, {})
        residual[u][v] = residual[u].get(v, 0) + capacity
        residual[v].setdefault(u, 0)
    flow = 0
    while True:
        parent = {source: source}
        frontier = deque([source])
        while frontier and sink not in parent:
            u = frontier.popleft()
            for v, capacity in residual[u].items():
                if capacity > 0 and v not in parent:
                    parent[v] = u
                    frontier.append(v)
        if sink not in parent:
            return flow
        path = []
        v = sink
        while v != source:
            path.append((parent[v], v))
            v = parent[v]
        bottleneck = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
        flow += bottleneck


class MaxflowApp(SharedMemoryApplication):
    """BSP push-relabel maximum flow on a random directed network."""

    name = "maxflow"
    description = "push-relabel max flow; graph-dependent dynamic pattern"

    def __init__(
        self,
        n: int = 32,
        extra_edges: int = 64,
        max_capacity: int = 20,
        seed: int = 5,
    ) -> None:
        self.n = n
        self.edges, self.source, self.sink = make_flow_network(
            n, extra_edges, max_capacity, seed
        )
        self.flow_value: Optional[float] = None

    # ------------------------------------------------------------------
    def _build_arcs(self) -> None:
        """Forward + reverse residual arcs, grouped by tail vertex."""
        arc_pairs: Dict[Tuple[int, int], int] = {}
        tails: List[Tuple[int, int, int]] = []  # (tail, head, capacity)
        for u, v, c in self.edges:
            arc_pairs[(u, v)] = c
        all_pairs = set(arc_pairs)
        for u, v in list(all_pairs):
            if (v, u) not in arc_pairs:
                arc_pairs[(v, u)] = 0
        ordered = sorted(arc_pairs)  # grouped by tail, then head
        ids = {pair: i for i, pair in enumerate(ordered)}
        self.arcs: List[Arc] = [
            Arc(arc_id=ids[(u, v)], tail=u, head=v, rev_id=ids[(v, u)])
            for (u, v) in ordered
        ]
        self.initial_caps = [float(arc_pairs[(a.tail, a.head)]) for a in self.arcs]
        self.arcs_of: Dict[int, List[Arc]] = {u: [] for u in range(self.n)}
        for arc in self.arcs:
            self.arcs_of[arc.tail].append(arc)

    def build(self, sim: ExecutionDrivenSimulation) -> None:
        self._build_arcs()
        n, num_arcs = self.n, len(self.arcs)
        parties = sim.num_processors

        self.rescap = sim.array("mf.rescap", num_arcs, placement="chunked")
        self.excess = sim.array("mf.excess", n, placement="chunked")
        self.height = sim.array("mf.height", n, placement="chunked")
        caps = list(self.initial_caps)
        excess = [0.0] * n
        height = [0] * n
        height[self.source] = n
        # Initial preflow: saturate every arc out of the source.
        for arc in self.arcs_of[self.source]:
            delta = caps[arc.arc_id]
            if delta > 0:
                caps[arc.arc_id] = 0.0
                caps[arc.rev_id] += delta
                excess[arc.head] += delta
        self.rescap.fill(caps)
        self.excess.fill(excess)
        self.height.fill(height)

        # Outboxes: one per processor, homed at that processor.  Each
        # entry is 3 words (head vertex, reverse arc id, delta); slot 0
        # holds the entry count.
        outbox_len = 3 * num_arcs + 1
        self.outboxes = [
            sim.array(f"mf.outbox{p}", outbox_len, placement=p) for p in range(parties)
        ]
        self.active_counts = sim.array("mf.active", parties, placement="interleaved")
        self.active_counts.fill([0] * parties)
        self.push_barrier = sim.barrier(rotating=True)
        self.deliver_barrier = sim.barrier(rotating=True)
        self.relabel_barrier = sim.barrier(rotating=True)
        self.count_barrier = sim.barrier(rotating=True)

    # ------------------------------------------------------------------
    def thread_body(self, ctx: ThreadContext) -> Generator:
        n = self.n
        parties = ctx.num_processors
        my_vertices = [
            v
            for v in partition(n, parties, ctx.pid)
            if v not in (self.source, self.sink)
        ]
        my_vertex_set = set(my_vertices)
        outbox = self.outboxes[ctx.pid]

        while True:
            # ---- push phase (heights frozen) -------------------------
            entries = 0
            for u in my_vertices:
                excess_u = yield from ctx.load(self.excess, u)
                if excess_u <= 0:
                    continue
                height_u = yield from ctx.load(self.height, u)
                for arc in self.arcs_of[u]:
                    if excess_u <= 0:
                        break
                    ctx.compute(ARC_SCAN_CYCLES)
                    cap = yield from ctx.load(self.rescap, arc.arc_id)
                    if cap <= 0:
                        continue
                    height_v = yield from ctx.load(self.height, arc.head)
                    if height_u != height_v + 1:
                        continue
                    delta = min(excess_u, cap)
                    yield from ctx.store(self.rescap, arc.arc_id, cap - delta)
                    excess_u -= delta
                    base = 1 + entries * 3
                    yield from ctx.store(outbox, base, arc.head)
                    yield from ctx.store(outbox, base + 1, arc.rev_id)
                    yield from ctx.store(outbox, base + 2, delta)
                    entries += 1
                yield from ctx.store(self.excess, u, excess_u)
            yield from ctx.store(outbox, 0, entries)
            yield from ctx.barrier(self.push_barrier)

            # ---- delivery phase --------------------------------------
            for q in range(parties):
                box = self.outboxes[q]
                count = yield from ctx.load(box, 0)
                for e in range(count):
                    base = 1 + e * 3
                    head = yield from ctx.load(box, base)
                    deliver_here = head in my_vertex_set or (
                        head in (self.source, self.sink)
                        and head in partition(n, parties, ctx.pid)
                    )
                    if not deliver_here:
                        continue
                    rev_id = yield from ctx.load(box, base + 1)
                    delta = yield from ctx.load(box, base + 2)
                    rev_cap = yield from ctx.load(self.rescap, rev_id)
                    yield from ctx.store(self.rescap, rev_id, rev_cap + delta)
                    head_excess = yield from ctx.load(self.excess, head)
                    yield from ctx.store(self.excess, head, head_excess + delta)
            yield from ctx.barrier(self.deliver_barrier)

            # ---- relabel phase ---------------------------------------
            for u in my_vertices:
                excess_u = yield from ctx.load(self.excess, u)
                if excess_u <= 0:
                    continue
                height_u = yield from ctx.load(self.height, u)
                lowest = None
                admissible = False
                for arc in self.arcs_of[u]:
                    cap = yield from ctx.load(self.rescap, arc.arc_id)
                    if cap <= 0:
                        continue
                    height_v = yield from ctx.load(self.height, arc.head)
                    if height_u == height_v + 1:
                        admissible = True
                        break
                    if lowest is None or height_v < lowest:
                        lowest = height_v
                if not admissible and lowest is not None:
                    ctx.compute(RELABEL_CYCLES)
                    yield from ctx.store(self.height, u, lowest + 1)
            yield from ctx.barrier(self.relabel_barrier)

            # ---- termination reduction -------------------------------
            active = 0
            for u in my_vertices:
                excess_u = yield from ctx.load(self.excess, u)
                if excess_u > 0:
                    active += 1
            yield from ctx.store(self.active_counts, ctx.pid, active)
            yield from ctx.barrier(self.count_barrier)
            total_active = 0
            for q in range(parties):
                count = yield from ctx.load(self.active_counts, q)
                total_active += count
            if total_active == 0:
                break

    def verify(self) -> None:
        expected = reference_max_flow(self.edges, self.source, self.sink)
        self.flow_value = float(self.excess.peek(self.sink))
        # Raised explicitly, so the check still runs under ``python -O``.
        if self.flow_value != expected:
            raise AssertionError(
                f"push-relabel found flow {self.flow_value}, "
                f"the reference max-flow says {expected}"
            )
