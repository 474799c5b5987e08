"""Network topologies: N-D meshes/tori, hypercube, chiplet hierarchies.

The paper's simulator is a 2-D mesh; its related work evaluates tori
with virtual channels (Kumar & Bhuyan) and hypercubes (Kim & Das; Hsu &
Banerjee).  All of them -- plus N-dimensional generalizations and
hierarchical chiplet-hub graphs -- are provided behind one interface so
a fitted characterization can drive any of them: the "use the
distributions in ICN analysis" workflow across topologies.

Every topology yields *directed physical channels* ``(u, v)`` and a
deterministic, deadlock-free route as a list of :class:`Hop`\\ s.  A
hop's ``vclass`` pins the virtual-channel class the head flit must use
on that link (the torus' dateline discipline, the chiplet's up/down
phases); ``None`` leaves the class free for the router to balance.  A
hop's ``scale`` multiplies the channel time on that link -- the
TSV-style "vertical links are slower" knob driven by
:class:`~repro.mesh.spec.TopologySpec` link scales.

:func:`build` constructs the topology a
:class:`~repro.mesh.spec.TopologySpec` describes, for each kind in
:data:`repro.mesh.spec.KINDS`.

Because every discipline is deterministic, a route is a pure function
of ``(src, dst)``.  Hot paths therefore read a topology's
:attr:`Topology.routes` table, which computes each pair once through
:meth:`Topology.route` and keeps it as an immutable tuple.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from operator import index
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.mesh.spec import TopologySpec

#: Most ``(src, dst)`` entries one :class:`RouteTable` keeps.  Past the
#: cap a miss is still computed, just not stored.  65,536 pairs hold
#: every mesh up to 16x16.
ROUTE_TABLE_CAP = 65_536


@dataclass(frozen=True)
class Hop:
    """One physical channel traversal within a route."""

    src: int
    dst: int
    #: Virtual-channel class this hop must use (None = router's choice).
    vclass: Optional[int] = None
    #: Channel-time multiplier of this link (1.0 = nominal speed).
    scale: float = 1.0


class RouteTable:
    """A topology's lazily filled ``(src, dst) -> route`` table.

    A miss calls the owning topology's route method (looked up by name
    at miss time, so a wrapped or patched method is honoured) and
    stores the result as a tuple of :class:`Hop` objects interned in
    this table: equal hops of different routes are one object, so a
    full table costs one pointer per hop.  Only pairs actually routed
    are computed -- no dense precompute -- and at most
    :data:`ROUTE_TABLE_CAP` entries are kept.
    """

    __slots__ = ("_owner", "_method", "_entries", "_hops")

    def __init__(self, owner: "Topology", method: str = "route") -> None:
        self._owner = owner
        self._method = method
        self._entries: Dict[Tuple[int, int], Tuple[Hop, ...]] = {}
        self._hops: Dict[Hop, Hop] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, src: int, dst: int) -> Tuple[Hop, ...]:
        """The route from ``src`` to ``dst`` (empty when equal)."""
        entry = self._entries.get((src, dst))
        if entry is None:
            # NumPy endpoints route as the equal Python ints: a walk
            # stepping in an unsigned dtype would wrap past node 0.
            src, dst = index(src), index(dst)
            intern = self._hops.setdefault
            route = getattr(self._owner, self._method)(src, dst)
            entry = tuple([intern(hop, hop) for hop in route])
            if len(self._entries) < ROUTE_TABLE_CAP:
                self._entries[src, dst] = entry
        return entry


class Topology(ABC):
    """Interface every network topology implements."""

    #: Short name used in configs and reports.
    name: str = "topology"

    @cached_property
    def routes(self) -> RouteTable:
        """This instance's table of :meth:`route` results."""
        return RouteTable(self)

    @property
    @abstractmethod
    def num_nodes(self) -> int:
        """Total node count."""

    @abstractmethod
    def channels(self) -> Iterator[Tuple[int, int]]:
        """All directed physical channels ``(u, v)``."""

    @abstractmethod
    def route(self, src: int, dst: int) -> List[Hop]:
        """Deterministic deadlock-free route (empty when src == dst)."""

    @abstractmethod
    def hops(self, src: int, dst: int) -> int:
        """Length of :meth:`route` without materializing it."""

    #: Number of virtual-channel classes the routing discipline needs
    #: per physical channel for deadlock freedom (1 unless wraparound
    #: or hierarchical up/down phases).
    required_vclasses: int = 1

    def average_distance(self) -> float:
        """Mean route length over all ordered src != dst pairs."""
        n = self.num_nodes
        if n < 2:
            return 0.0
        total = sum(self.hops(s, d) for s in range(n) for d in range(n) if s != d)
        return total / (n * (n - 1))

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.num_nodes):
            raise ValueError(f"node {node} outside topology with {self.num_nodes} nodes")


class NDMeshTopology(Topology):
    """N-dimensional mesh/torus with dimension-order (e-cube) routing.

    Node ids are row-major over ``dims``: dimension 0 varies fastest,
    so for 2-D ``dims = (width, height)`` node ``i`` sits at
    ``(i % width, i // width)`` exactly like the paper's mesh.  Routing
    corrects dimensions in ascending order, which orders channel
    acquisition and keeps the dependence graph acyclic.

    Per-dimension ``wrap`` flags add wraparound (torus) channels; a
    wrapped dimension routes the shorter way around its ring and uses
    the classic *dateline* virtual-channel discipline (class 0 until
    the wrap channel, class 1 after), hence ``required_vclasses = 2``
    whenever any dimension wraps.  Per-dimension ``link_scale`` factors
    slow or speed every channel of that dimension (TSV-style vertical
    links), carried on each :class:`Hop` as ``scale``.
    """

    name = "mesh"

    def __init__(
        self,
        dims: Sequence[int],
        wrap: Optional[Sequence[bool]] = None,
        link_scale: Optional[Sequence[float]] = None,
    ) -> None:
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"mesh dimensions must all be >= 1, got {dims!r}")
        self.dims = dims
        ndim = len(dims)
        self.wrap = tuple(bool(w) for w in wrap) if wrap else (False,) * ndim
        if len(self.wrap) != ndim:
            raise ValueError(f"wrap has {len(self.wrap)} flags for {ndim} dimensions")
        self.link_scale = (
            tuple(float(s) for s in link_scale) if link_scale else (1.0,) * ndim
        )
        if len(self.link_scale) != ndim:
            raise ValueError(
                f"link_scale has {len(self.link_scale)} factors for {ndim} dimensions"
            )
        if any(s <= 0 for s in self.link_scale):
            raise ValueError(f"link-scale factors must be > 0, got {link_scale!r}")
        strides = [1] * ndim
        for i in range(1, ndim):
            strides[i] = strides[i - 1] * dims[i - 1]
        self._strides = tuple(strides)
        self._num_nodes = strides[-1] * dims[-1]
        self.name = "torus" if any(self.wrap) else "mesh"
        self.required_vclasses = 2 if any(self.wrap) else 1

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    def coordinates(self, node: int) -> Tuple[int, ...]:
        """Map node id -> coordinate vector (row-major layout)."""
        self._check_node(node)
        return tuple([(node // s) % d for s, d in zip(self._strides, self.dims)])

    def node_at(self, *coords: int) -> int:
        """Map a coordinate vector -> node id."""
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])  # type: ignore[assignment]
        if len(coords) != len(self.dims):
            raise ValueError(
                f"coordinate {coords!r} has {len(coords)} axes, "
                f"topology has {len(self.dims)}"
            )
        for axis, c in enumerate(coords):
            if not (0 <= c < self.dims[axis]):
                raise ValueError(
                    f"coordinate {tuple(coords)} outside "
                    f"{'x'.join(map(str, self.dims))} {self.name}"
                )
        return sum(c * s for c, s in zip(coords, self._strides))

    def neighbors(self, node: int) -> List[int]:
        """Adjacent node ids; ordered per dimension on a pure mesh,
        sorted and deduplicated once any dimension wraps."""
        coords = self.coordinates(node)
        if not any(self.wrap):
            out = []
            for axis in range(len(self.dims)):
                c = coords[axis]
                if c > 0:
                    out.append(node - self._strides[axis])
                if c < self.dims[axis] - 1:
                    out.append(node + self._strides[axis])
            return out
        found = set()
        for axis in range(len(self.dims)):
            c = coords[axis]
            size = self.dims[axis]
            stride = self._strides[axis]
            if self.wrap[axis]:
                for nxt in ((c - 1) % size, (c + 1) % size):
                    found.add(node + (nxt - c) * stride)
            else:
                if c > 0:
                    found.add(node - stride)
                if c < size - 1:
                    found.add(node + stride)
        found.discard(node)
        return sorted(found)

    def channels(self) -> Iterator[Tuple[int, int]]:
        for node in range(self.num_nodes):
            for nbr in self.neighbors(node):
                yield node, nbr

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance (shorter ring way on wrapped dimensions)."""
        s = self.coordinates(src)
        d = self.coordinates(dst)
        total = 0
        for axis in range(len(self.dims)):
            if self.wrap[axis]:
                size = self.dims[axis]
                total += min((d[axis] - s[axis]) % size, (s[axis] - d[axis]) % size)
            else:
                total += abs(s[axis] - d[axis])
        return total

    @staticmethod
    def _ring_steps(start: int, stop: int, size: int) -> List[int]:
        """Successive coordinates along the shorter ring direction."""
        if start == stop or size == 1:
            return []
        forward = (stop - start) % size
        backward = (start - stop) % size
        step = 1 if forward <= backward else -1
        steps = []
        position = start
        while position != stop:
            position = (position + step) % size
            steps.append(position)
        return steps

    # The axis walkers step ``node`` (the current position's id) by the
    # axis stride and return the node they stop at.

    def _axis_hops(self, path: List[Hop], node: int, start: int, target: int, axis: int) -> int:
        """Walk one unwrapped dimension from ``start`` to ``target`` (plain e-cube)."""
        scale = self.link_scale[axis]
        stride = self._strides[axis] if target > start else -self._strides[axis]
        for _ in range(abs(target - start)):
            path.append(Hop(node, node + stride, None, scale))
            node += stride
        return node

    def _ring_axis_hops(self, path: List[Hop], node: int, start: int, target: int, axis: int) -> int:
        """Walk one wrapped dimension with the dateline VC discipline."""
        scale = self.link_scale[axis]
        stride = self._strides[axis]
        vclass = 0
        position = start
        for nxt in self._ring_steps(start, target, self.dims[axis]):
            v = node + (nxt - position) * stride
            if abs(nxt - position) > 1:
                # Crossing the wrap channel: everything after the
                # dateline rides class 1.
                path.append(Hop(node, v, 0, scale))
                vclass = 1
            else:
                path.append(Hop(node, v, vclass, scale))
            node = v
            position = nxt
        return node

    def route(self, src: int, dst: int) -> List[Hop]:
        s = self.coordinates(src)
        d = self.coordinates(dst)
        path: List[Hop] = []
        node = src
        for axis in range(len(self.dims)):
            if self.wrap[axis] and self.dims[axis] > 1:
                node = self._ring_axis_hops(path, node, s[axis], d[axis], axis)
            else:
                node = self._axis_hops(path, node, s[axis], d[axis], axis)
        return path


class MeshTopology(NDMeshTopology):
    """``width x height`` 2-D mesh with dimension-order (XY) routing.

    Node ids are row-major: node ``i`` sits at ``(i % width, i // width)``.
    XY routing is deadlock-free with a single virtual-channel class.  A
    2-D torus is an :class:`NDMeshTopology` with both axes wrapped; this
    class adds the YX order adaptive routing needs.
    """

    def __init__(
        self,
        width: int,
        height: int,
        *,
        link_scale: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__((width, height), link_scale=link_scale)

    @cached_property
    def routes_yx(self) -> RouteTable:
        """This instance's table of :meth:`route_yx` results."""
        return RouteTable(self, "route_yx")

    def route_yx(self, src: int, dst: int) -> List[Hop]:
        """Dimension-order route traversing Y before X.

        Used by adaptive routing as the alternative to the default XY
        order; on its own virtual-channel class it is deadlock-free by
        the same dimension-order argument.
        """
        s = self.coordinates(src)
        d = self.coordinates(dst)
        path: List[Hop] = []
        node = self._axis_hops(path, src, s[1], d[1], 1)
        self._axis_hops(path, node, s[0], d[0], 0)
        return path


class HypercubeTopology(Topology):
    """``d``-dimensional hypercube with e-cube routing.

    Nodes are ``0 .. 2^d - 1``; neighbours differ in exactly one bit.
    E-cube routing corrects differing bits from least to most
    significant, which orders channel acquisition and keeps the
    dependence graph acyclic (single virtual-channel class suffices).
    """

    name = "hypercube"

    def __init__(self, dimension: int) -> None:
        if dimension < 1:
            raise ValueError(f"hypercube dimension must be >= 1, got {dimension}")
        self.dimension = dimension

    @classmethod
    def for_nodes(cls, num_nodes: int) -> "HypercubeTopology":
        """Hypercube with exactly ``num_nodes`` nodes (power of two)."""
        if num_nodes < 2 or num_nodes & (num_nodes - 1):
            raise ValueError(f"hypercube needs a power-of-two node count, got {num_nodes}")
        return cls(num_nodes.bit_length() - 1)

    @property
    def num_nodes(self) -> int:
        return 1 << self.dimension

    def neighbors(self, node: int) -> List[int]:
        """The ``d`` nodes differing from ``node`` in one bit."""
        self._check_node(node)
        return [node ^ (1 << k) for k in range(self.dimension)]

    def channels(self) -> Iterator[Tuple[int, int]]:
        for node in range(self.num_nodes):
            for nbr in self.neighbors(node):
                yield node, nbr

    def hops(self, src: int, dst: int) -> int:
        """Hamming distance."""
        self._check_node(src)
        self._check_node(dst)
        return bin(src ^ dst).count("1")

    def route(self, src: int, dst: int) -> List[Hop]:
        self._check_node(src)
        self._check_node(dst)
        path: List[Hop] = []
        position = src
        difference = src ^ dst
        for k in range(self.dimension):
            if difference & (1 << k):
                nxt = position ^ (1 << k)
                path.append(Hop(position, nxt))
                position = nxt
        return path


class ChipletTopology(Topology):
    """``hubs`` identical mesh chiplets joined through gateway nodes.

    Each chiplet is an N-D mesh block of ``dims`` nodes; its local node
    0 is the *gateway*, and the gateways form a fully connected hub
    graph (the package-level interposer links).  Node ids are
    block-major: node ``i`` is local node ``i % block_nodes`` of chiplet
    ``i // block_nodes``.

    Routing is up*/down*: a cross-chiplet message climbs
    dimension-order to its source gateway on virtual-channel class 0,
    takes one hub channel, then descends dimension-order to the
    destination on class 1.  Up-hops only ever wait on class-0 local
    channels and hub channels, down-hops only on class-1 local
    channels, and no worm goes back up -- the channel-dependence graph
    is acyclic, hence ``required_vclasses = 2``.
    """

    name = "chiplet"
    required_vclasses = 2

    def __init__(
        self,
        dims: Sequence[int],
        hubs: int,
        link_scale: Optional[Sequence[float]] = None,
    ) -> None:
        if hubs < 1:
            raise ValueError(f"chiplet topology needs hubs >= 1, got {hubs}")
        self.block = NDMeshTopology(dims, link_scale=link_scale)
        self.hubs = hubs
        self.dims = self.block.dims
        self.link_scale = self.block.link_scale
        self.block_nodes = self.block.num_nodes

    @property
    def num_nodes(self) -> int:
        return self.block_nodes * self.hubs

    def chiplet_of(self, node: int) -> int:
        """Which chiplet block a node belongs to."""
        self._check_node(node)
        return node // self.block_nodes

    def gateway(self, chiplet: int) -> int:
        """The hub-attached gateway node of a chiplet (local node 0)."""
        if not (0 <= chiplet < self.hubs):
            raise ValueError(f"chiplet {chiplet} outside {self.hubs}-chiplet package")
        return chiplet * self.block_nodes

    def neighbors(self, node: int) -> List[int]:
        """Local mesh neighbours, plus the other gateways for gateways."""
        chiplet = self.chiplet_of(node)
        offset = chiplet * self.block_nodes
        out = [offset + nbr for nbr in self.block.neighbors(node - offset)]
        if node == self.gateway(chiplet):
            out.extend(
                self.gateway(other) for other in range(self.hubs) if other != chiplet
            )
        return out

    def channels(self) -> Iterator[Tuple[int, int]]:
        for node in range(self.num_nodes):
            for nbr in self.neighbors(node):
                yield node, nbr

    def hops(self, src: int, dst: int) -> int:
        source_chiplet = self.chiplet_of(src)
        dest_chiplet = self.chiplet_of(dst)
        local_src = src - source_chiplet * self.block_nodes
        local_dst = dst - dest_chiplet * self.block_nodes
        if source_chiplet == dest_chiplet:
            return self.block.hops(local_src, local_dst)
        return self.block.hops(local_src, 0) + 1 + self.block.hops(0, local_dst)

    def route(self, src: int, dst: int) -> List[Hop]:
        source_chiplet = self.chiplet_of(src)
        dest_chiplet = self.chiplet_of(dst)
        source_offset = source_chiplet * self.block_nodes
        dest_offset = dest_chiplet * self.block_nodes
        if source_chiplet == dest_chiplet:
            return [
                Hop(h.src + source_offset, h.dst + source_offset, h.vclass, h.scale)
                for h in self.block.route(src - source_offset, dst - source_offset)
            ]
        up = [
            Hop(h.src + source_offset, h.dst + source_offset, 0, h.scale)
            for h in self.block.route(src - source_offset, 0)
        ]
        hub = Hop(self.gateway(source_chiplet), self.gateway(dest_chiplet), 0)
        down = [
            Hop(h.src + dest_offset, h.dst + dest_offset, 1, h.scale)
            for h in self.block.route(0, dst - dest_offset)
        ]
        return up + [hub] + down


def build(spec: TopologySpec) -> Topology:
    """The topology ``spec`` describes (what :meth:`TopologySpec.build` returns)."""
    if spec.kind == "hypercube":
        return HypercubeTopology.for_nodes(spec.num_nodes)
    if spec.kind == "chiplet":
        return ChipletTopology(spec.dims, spec.hubs, link_scale=spec.link_scale)
    if len(spec.dims) == 2 and not spec.wraps:
        return MeshTopology(spec.dims[0], spec.dims[1], link_scale=spec.link_scale)
    return NDMeshTopology(spec.dims, wrap=spec.wrap, link_scale=spec.link_scale)
