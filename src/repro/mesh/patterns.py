"""Classic synthetic traffic patterns for ICN evaluation.

The paper's complaint is that ICN studies use *synthetic* workloads --
"the most critical one being the uniform traffic assumption".  These
are those workloads: the standard permutation and probabilistic
patterns of the interconnection-network literature, provided so the
characterized application traffic can be compared against them on the
same simulator (experiments E10/E18), plus the adversarial patterns
(tornado, shuffle, neighbor exchange) that saturate meshes and tori
earlier than uniform random.

Each pattern maps a source to a destination distribution; permutation
patterns are deterministic, probabilistic ones draw per message.
:data:`PATTERNS` is the fixed catalogue of them by name, and
:func:`make_pattern` builds one with named, argument-level errors.
Dimension-aware patterns (tornado, transpose, neighbor) accept a
``dims`` radix vector so they stress an N-D topology along its real
axes; :func:`pattern_for_config` wires that up from a
:class:`~repro.mesh.config.MeshConfig` automatically.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod
from typing import Dict, Optional, Sequence, Tuple, Type

import numpy as np

from repro.mesh.config import MeshConfig


class TrafficPattern(ABC):
    """A destination rule over ``num_nodes`` sources."""

    name: str = "pattern"

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 2:
            raise ValueError(f"patterns need >= 2 nodes, got {num_nodes}")
        self.num_nodes = num_nodes

    @abstractmethod
    def destination(self, src: int, rng: np.random.Generator) -> int:
        """Destination of one message from ``src``."""

    def _check_src(self, src: int) -> None:
        if not (0 <= src < self.num_nodes):
            raise ValueError(f"source {src} outside {self.num_nodes}-node system")


def _resolve_dims(num_nodes: int, dims: Optional[Sequence[int]], pattern: str) -> Tuple[int, ...]:
    """A radix vector for a pattern: the given dims, validated, or a
    square 2-D factorization, or the 1-D ring as a last resort."""
    if dims is not None:
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"{pattern} dims must all be >= 1, got {dims!r}")
        product = 1
        for d in dims:
            product *= d
        if product != num_nodes:
            raise ValueError(
                f"{pattern} dims {dims!r} cover {product} nodes, "
                f"pattern is for {num_nodes}"
            )
        return dims
    side = int(round(num_nodes**0.5))
    if side * side == num_nodes:
        return (side, side)
    return (num_nodes,)


class UniformTraffic(TrafficPattern):
    """Each message goes to a uniformly random other node -- the
    assumption the paper's methodology exists to replace."""

    name = "uniform"

    def destination(self, src: int, rng: np.random.Generator) -> int:
        self._check_src(src)
        dst = int(rng.integers(0, self.num_nodes - 1))
        return dst if dst < src else dst + 1


class BitComplementTraffic(TrafficPattern):
    """Node ``i`` sends to ``~i`` (mod the node count) -- long-range
    permutation stressing bisection (requires power-of-two nodes)."""

    name = "bit-complement"

    def __init__(self, num_nodes: int) -> None:
        super().__init__(num_nodes)
        if num_nodes & (num_nodes - 1):
            raise ValueError("bit-complement needs a power-of-two node count")

    def destination(self, src: int, rng: np.random.Generator) -> int:
        self._check_src(src)
        return src ^ (self.num_nodes - 1)


class BitReversalTraffic(TrafficPattern):
    """Node ``i`` sends to bit-reverse(i) -- the FFT-adversarial
    permutation (requires power-of-two nodes)."""

    name = "bit-reversal"

    def __init__(self, num_nodes: int) -> None:
        super().__init__(num_nodes)
        if num_nodes & (num_nodes - 1):
            raise ValueError("bit-reversal needs a power-of-two node count")
        self._bits = num_nodes.bit_length() - 1

    def destination(self, src: int, rng: np.random.Generator) -> int:
        self._check_src(src)
        out = 0
        value = src
        for _ in range(self._bits):
            out = (out << 1) | (value & 1)
            value >>= 1
        return out


class ShuffleTraffic(TrafficPattern):
    """Node ``i`` sends to rotate-left(i) -- the perfect-shuffle
    permutation of sorting/FFT networks (requires power-of-two
    nodes)."""

    name = "shuffle"

    def __init__(self, num_nodes: int) -> None:
        super().__init__(num_nodes)
        if num_nodes & (num_nodes - 1):
            raise ValueError("shuffle needs a power-of-two node count")
        self._bits = num_nodes.bit_length() - 1

    def destination(self, src: int, rng: np.random.Generator) -> int:
        self._check_src(src)
        high = src >> (self._bits - 1)
        return ((src << 1) | high) & (self.num_nodes - 1)


class TransposeTraffic(TrafficPattern):
    """Coordinate-reversal (matrix-transpose) permutation: the node at
    ``(c0, ..., ck)`` sends to ``(ck, ..., c0)``.

    Defaults to the square 2-D ``(x, y) -> (y, x)`` transpose (requires
    a perfect-square node count); pass an N-D palindromic ``dims``
    radix vector (e.g. ``(4, 4, 4)``) for the N-D generalization.
    """

    name = "transpose"

    def __init__(self, num_nodes: int, dims: Optional[Sequence[int]] = None) -> None:
        super().__init__(num_nodes)
        resolved = _resolve_dims(num_nodes, dims, self.name)
        if len(resolved) < 2 or resolved != tuple(reversed(resolved)):
            raise ValueError(
                "transpose needs a perfect-square node count "
                f"(or palindromic dims, got {resolved!r})"
            )
        self.dims = resolved
        self.side = resolved[0]

    def destination(self, src: int, rng: np.random.Generator) -> int:
        self._check_src(src)
        coords = []
        value = src
        for size in self.dims:
            coords.append(value % size)
            value //= size
        # Row-major repack of the reversed coordinate vector (the dims
        # are palindromic, so each reversed coordinate fits its axis).
        out = 0
        stride = 1
        for size, c in zip(self.dims, reversed(coords)):
            out += c * stride
            stride *= size
        return out


class TornadoTraffic(TrafficPattern):
    """Each node sends half-way around every ring: coordinate ``c_i``
    targets ``(c_i + ceil(k_i / 2) - 1) mod k_i``.

    The classic adversary for tori -- all traffic circles the same way,
    so minimal routing loads every ring link equally at twice the
    uniform load -- and a strong stressor for meshes.  Dimension-aware:
    pass ``dims`` to aim along a topology's real axes (defaults to the
    square 2-D factorization, else the 1-D ring).
    """

    name = "tornado"

    def __init__(self, num_nodes: int, dims: Optional[Sequence[int]] = None) -> None:
        super().__init__(num_nodes)
        self.dims = _resolve_dims(num_nodes, dims, self.name)

    def destination(self, src: int, rng: np.random.Generator) -> int:
        self._check_src(src)
        out = 0
        stride = 1
        value = src
        for size in self.dims:
            c = value % size
            value //= size
            offset = (size + 1) // 2 - 1  # ceil(k/2) - 1
            out += ((c + offset) % size) * stride
            stride *= size
        return out


class NeighborTraffic(TrafficPattern):
    """Nearest-neighbor exchange along the first dimension: ``c_0``
    targets ``(c_0 + 1) mod k_0``.

    The best case for any mesh-like topology (all hops distance 1,
    wrap links only at the edge) -- the locality counterpoint to
    tornado.  Dimension-aware like :class:`TornadoTraffic`.
    """

    name = "neighbor"

    def __init__(self, num_nodes: int, dims: Optional[Sequence[int]] = None) -> None:
        super().__init__(num_nodes)
        self.dims = _resolve_dims(num_nodes, dims, self.name)
        if self.dims[0] < 2:
            raise ValueError(
                f"neighbor exchange needs dims[0] >= 2, got {self.dims!r}"
            )

    def destination(self, src: int, rng: np.random.Generator) -> int:
        self._check_src(src)
        size = self.dims[0]
        c = src % size
        return src - c + (c + 1) % size


class HotspotTraffic(TrafficPattern):
    """Uniform traffic with an extra probability mass on one node --
    the paper-era model of a shared-variable hotspot."""

    name = "hotspot"

    def __init__(self, num_nodes: int, hotspot: int = 0, fraction: float = 0.3) -> None:
        super().__init__(num_nodes)
        if not (0 <= hotspot < num_nodes):
            raise ValueError(f"hotspot {hotspot} outside {num_nodes}-node system")
        if not (0.0 < fraction < 1.0):
            raise ValueError(f"fraction must be in (0,1), got {fraction}")
        self.hotspot = hotspot
        self.fraction = fraction
        self._uniform = UniformTraffic(num_nodes)

    def destination(self, src: int, rng: np.random.Generator) -> int:
        self._check_src(src)
        if src != self.hotspot and rng.random() < self.fraction:
            return self.hotspot
        # The hotspot node itself redraws uniformly (self-excluding)
        # rather than ever targeting itself, so every source produces
        # the same per-message send probability.
        dst = self._uniform.destination(src, rng)
        while dst == src:  # defensive: uniform already excludes self
            dst = self._uniform.destination(src, rng)
        return dst


#: Every pattern class by name.
PATTERNS: Dict[str, Type[TrafficPattern]] = {
    cls.name: cls
    for cls in (
        UniformTraffic,
        BitComplementTraffic,
        BitReversalTraffic,
        ShuffleTraffic,
        TransposeTraffic,
        TornadoTraffic,
        NeighborTraffic,
        HotspotTraffic,
    )
}


def registered_patterns() -> Tuple[str, ...]:
    """Sorted names of every pattern in :data:`PATTERNS`."""
    return tuple(sorted(PATTERNS))


def _accepted_kwargs(factory: Type[TrafficPattern]) -> Tuple[str, ...]:
    """Keyword arguments a pattern class accepts beyond num_nodes."""
    parameters = inspect.signature(factory.__init__).parameters
    return tuple(
        p.name
        for p in parameters.values()
        if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        and p.name not in ("self", "num_nodes")
    )


def make_pattern(name: str, num_nodes: int, **kwargs) -> TrafficPattern:
    """Build a pattern of :data:`PATTERNS` by name.

    Unknown names and unknown keyword arguments raise ``ValueError``\\ s
    that name the pattern and list what is accepted, instead of leaking
    a bare ``KeyError``/``TypeError``.
    """
    factory = PATTERNS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown pattern {name!r}; registered: {', '.join(registered_patterns())}"
        )
    accepted = _accepted_kwargs(factory)
    unknown = sorted(set(kwargs) - set(accepted))
    if unknown:
        accepted_text = ", ".join(accepted) if accepted else "none"
        raise ValueError(
            f"pattern {name!r} got unknown argument(s) {', '.join(unknown)}; "
            f"accepted: {accepted_text}"
        )
    return factory(num_nodes, **kwargs)


def pattern_for_config(name: str, config: MeshConfig, **kwargs) -> TrafficPattern:
    """Build a pattern shaped for a network config.

    Passes the config's radix vector to dimension-aware patterns (when
    the spec's dims describe the whole id space -- i.e. everything but
    hierarchical graphs, whose patterns fall back to their node-count
    defaults).
    """
    factory = PATTERNS.get(name)
    if (
        factory is not None
        and "dims" not in kwargs
        and "dims" in _accepted_kwargs(factory)
        and not config.spec.is_hierarchical
        and config.spec.kind in ("mesh", "torus")
    ):
        kwargs["dims"] = config.spec.dims
    return make_pattern(name, config.num_nodes, **kwargs)
