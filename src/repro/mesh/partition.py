"""Spatial partitioning of N-D meshes for parallel simulation.

The conservative parallel scheduler (:mod:`repro.simkernel.engine_parallel`)
shards one mesh simulation across worker processes, one *region* per
worker.  A region is a contiguous band of *layers* along the highest
dimension of the spec (rows of the 2-D mesh, Z-planes of a 3-D one):
with dimension-order routing a message corrects every in-plane
dimension first and only then walks the sliced axis, so every route
crosses a region boundary at most once per band edge and always at its
final in-plane offset -- the property that makes boundary handoffs
between regions well defined.

:class:`MeshPartition` is the picklable description of one such
sharding: per-region layer bounds over a
:class:`~repro.mesh.config.MeshConfig`, plus the id algebra (global
node <-> region-local node), the per-region sub-mesh configs the
workers instantiate, the route *legs* a message takes through
successive regions, and the conservative protocol's *lookahead* -- the
minimum latency any message needs to cross from one region into the
next (head-flit routing plus one boundary-channel traversal, including
that axis' link scale), which bounds how far a region may safely
advance past its neighbours.

:func:`slice_partition` builds one by cutting the highest axis into
bands as evenly as possible (empty bands when ``regions > depth`` are
allowed and simply idle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.mesh.config import MeshConfig
from repro.mesh.spec import TopologySpec

__all__ = ["MeshPartition", "slice_partition"]


@dataclass(frozen=True)
class MeshPartition:
    """Layer-banded sharding of an N-D mesh into simulation regions.

    Attributes
    ----------
    config:
        The full mesh being sharded.
    bounds:
        Per-region half-open layer ranges ``(start, stop)`` along the
        spec's highest dimension, in region order, covering
        ``[0, depth)`` contiguously.  ``start == stop`` marks an empty
        region (no layers; the scheduler spawns no worker for it).

    Frozen and built from plain values only, so a partition pickles
    into worker processes unchanged.
    """

    config: MeshConfig
    bounds: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        cfg = self.config
        if cfg.spec.kind != "mesh" or cfg.spec.wraps or cfg.spec.is_hierarchical:
            raise ValueError(
                f"parallel regions require the mesh topology, got {cfg.spec.kind!r} "
                "(wraparound or hub channels would couple non-adjacent regions)"
            )
        if cfg.routing != "deterministic":
            raise ValueError(
                "parallel regions require deterministic (XY) routing, got "
                f"{cfg.routing!r} (adaptive choices depend on cross-region state)"
            )
        if not self.bounds:
            raise ValueError("partition needs at least one region")
        layer = 0
        for index, (start, stop) in enumerate(self.bounds):
            if start != layer or stop < start:
                raise ValueError(
                    f"region {index} bounds ({start}, {stop}) do not continue "
                    f"contiguously from row {layer}"
                )
            layer = stop
        if layer != self.depth:
            raise ValueError(
                f"partition bounds cover rows [0, {layer}), mesh has {self.depth}"
            )

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Extent of the sliced (highest) dimension: the 2-D height."""
        return self.config.spec.dims[-1]

    @property
    def plane(self) -> int:
        """Nodes per layer of the sliced dimension: the 2-D width."""
        return self.config.num_nodes // self.depth

    @property
    def num_regions(self) -> int:
        return len(self.bounds)

    def rows(self, region: int) -> Tuple[int, int]:
        """The half-open global layer range of ``region``."""
        return self.bounds[region]

    def is_empty(self, region: int) -> bool:
        start, stop = self.bounds[region]
        return start == stop

    def region_of_row(self, y: int) -> int:
        """The region owning global layer ``y``."""
        if not (0 <= y < self.depth):
            raise ValueError(f"row {y} outside mesh of height {self.depth}")
        for region, (start, stop) in enumerate(self.bounds):
            if start <= y < stop:
                return region
        raise AssertionError("contiguous bounds cover every row")  # pragma: no cover

    def region_of(self, node: int) -> int:
        """The region owning global node ``node``."""
        self._check_node(node)
        return self.region_of_row(node // self.plane)

    def nodes(self, region: int) -> List[int]:
        """All global node ids in ``region``, ascending."""
        start, stop = self.bounds[region]
        return list(range(start * self.plane, stop * self.plane))

    def to_local(self, region: int, node: int) -> int:
        """Global node id -> the region sub-mesh's local id."""
        self._check_node(node)
        start, stop = self.bounds[region]
        y = node // self.plane
        if not (start <= y < stop):
            raise ValueError(f"node {node} (row {y}) is not in region {region}")
        return node - start * self.plane

    def to_global(self, region: int, local: int) -> int:
        """Region-local node id -> global id."""
        start, stop = self.bounds[region]
        if not (0 <= local < (stop - start) * self.plane):
            raise ValueError(f"local node {local} outside region {region}")
        return local + start * self.plane

    def region_config(self, region: int) -> MeshConfig:
        """The sub-mesh a region worker simulates: same in-plane
        geometry and timing, the region's band of the sliced axis.
        Raises for empty regions (no worker runs there)."""
        start, stop = self.bounds[region]
        if start == stop:
            raise ValueError(f"region {region} is empty; no sub-mesh to build")
        cfg = self.config
        spec = cfg.spec
        sub_spec = TopologySpec(
            kind="mesh",
            dims=spec.dims[:-1] + (stop - start,),
            link_scale=spec.link_scale,
        )
        return MeshConfig(
            spec=sub_spec,
            virtual_channels=cfg.virtual_channels,
            routing=cfg.routing,
            flit_bytes=cfg.flit_bytes,
            header_flits=cfg.header_flits,
            channel_time=cfg.channel_time,
            routing_time=cfg.routing_time,
            injection_time=cfg.injection_time,
            ejection_time=cfg.ejection_time,
        )

    # ------------------------------------------------------------------
    # conservative protocol inputs
    # ------------------------------------------------------------------
    def lookahead(self) -> float:
        """Minimum latency for a message to cross between regions.

        The head flit must route through and traverse the boundary
        channel (``routing_time + channel_time`` scaled by the sliced
        axis' link factor), so no region can affect a neighbour sooner
        than this -- the conservative protocol's safe advancement
        window.  Raises when the mesh timing makes it zero (zero
        lookahead admits no conservative parallelism at all).
        """
        value = (
            self.config.routing_time
            + self.config.channel_time * self.config.spec.link_scale[-1]
        )
        if not value > 0.0:
            raise ValueError(
                f"conservative lookahead is {value:g} "
                "(routing_time + channel_time); parallel simulation needs "
                "a positive inter-region channel latency"
            )
        return value

    def route_legs(self, src: int, dst: int) -> List[Tuple[int, int, int]]:
        """The per-region legs of the route from ``src`` to ``dst``.

        Returns ``(region, leg_src, leg_dst)`` triples in traversal
        order (global ids).  A message whose endpoints share a region
        is a single leg.  Cross-region messages exit each band at the
        destination's in-plane offset (dimension order: every in-plane
        correction happens inside the source layer) and re-enter the
        next band on the adjacent layer at the same offset; the
        boundary channel between two legs is not part of either leg --
        the scheduler charges it as the lookahead on the handoff.
        """
        self._check_node(src)
        self._check_node(dst)
        plane = self.plane
        sy, dy = src // plane, dst // plane
        dx = dst % plane
        first = self.region_of_row(sy)
        if sy == dy:
            return [(first, src, dst)]
        step = 1 if dy > sy else -1
        legs: List[Tuple[int, int, int]] = []
        current, leg_src, y = first, src, sy
        while y != dy:
            ny = y + step
            nr = self.region_of_row(ny)
            if nr != current:
                legs.append((current, leg_src, y * plane + dx))
                current, leg_src = nr, ny * plane + dx
            y = ny
        legs.append((current, leg_src, dst))
        return legs

    def region_chain(self, src: int, dst: int) -> Tuple[int, ...]:
        """The sequence of regions :meth:`route_legs` visits."""
        return tuple(leg[0] for leg in self.route_legs(src, dst))

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.config.num_nodes):
            raise ValueError(
                f"node {node} outside mesh with {self.config.num_nodes} nodes"
            )


def slice_partition(config: MeshConfig, regions: int) -> MeshPartition:
    """Cut the highest axis into ``regions`` near-equal contiguous bands.

    The first ``depth % regions`` bands get the extra layer; with more
    regions than layers the tail bands are empty (allowed -- they
    idle).
    """
    if regions < 1:
        raise ValueError(f"regions must be >= 1, got {regions}")
    base, extra = divmod(config.spec.dims[-1], regions)
    bounds: List[Tuple[int, int]] = []
    layer = 0
    for region in range(regions):
        take = base + (1 if region < extra else 0)
        bounds.append((layer, layer + take))
        layer += take
    return MeshPartition(config=config, bounds=tuple(bounds))
