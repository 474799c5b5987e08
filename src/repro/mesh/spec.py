"""First-class topology descriptions: :class:`TopologySpec`.

The paper simulates one 2-D wormhole mesh.  :class:`TopologySpec` is
the one way to describe that network or any other: every consumer
(``MeshConfig``, the CLI, sweep grids, serve validation, spatial
fitting) gets its geometry from one frozen, serializable value:

* ``kind`` -- which routing discipline/graph family builds the network,
  one of :data:`KINDS` (``chiplet``, ``hypercube``, ``mesh``,
  ``torus``);
* ``dims`` -- N-dimensional radix vector, row-major node numbering
  (``dims[0]`` is the fastest-varying axis);
* ``wrap`` -- per-dimension wraparound flags (derived from ``kind``
  when omitted: a torus wraps every dimension);
* ``link_scale`` -- per-dimension channel-latency multipliers, the
  TSV-style "vertical links are slower" knob (``z=4.0``);
* ``hubs`` -- hierarchy block count for chiplet-hub graphs.

One canonical parser covers the whole grammar::

    4x4                  2-D mesh
    4x4x2:torus          3-D torus
    8x8x4:mesh:z=4.0     3-D mesh, 4x slower vertical links
    chiplet(4x4,hubs=2)  two 4x4 mesh chiplets joined by a hub

All spec-level problems raise :class:`TopologySpecError` (a
``ValueError``), so every entry point -- CLI flags, sweep grids, serve
request validation -- rejects bad specs with the same message.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

#: The topology kinds :func:`repro.mesh.topology.build` constructs.
KINDS = ("chiplet", "hypercube", "mesh", "torus")

#: Axis letters accepted by the ``axis=scale`` suffix, in dimension
#: order (dimension 4 and beyond use ``d4=...``).
AXIS_LETTERS = "xyzw"

_GRAMMAR_HINT = (
    "DxD[xD...][:kind][:axis=scale,...] or chiplet(WxH,hubs=K) "
    "(e.g. 4x2, 4x4x2:torus, 8x8x4:mesh:z=4.0, chiplet(4x4,hubs=2))"
)

_CHIPLET_RE = re.compile(r"^chiplet\((?P<dims>[^,()]+)(?:,\s*hubs=(?P<hubs>[^,()]+))?\)$")


class TopologySpecError(ValueError):
    """A topology spec string or value that cannot describe a network."""


@dataclass(frozen=True)
class TopologySpec:
    """Frozen, serializable description of an interconnection network.

    ``wrap`` and ``link_scale`` may be given shorter than ``dims`` (or
    empty); ``__post_init__`` normalizes both to full per-dimension
    tuples, so two specs describing the same network compare equal.
    """

    kind: str = "mesh"
    dims: Tuple[int, ...] = (4, 2)
    wrap: Tuple[bool, ...] = field(default=())
    link_scale: Tuple[float, ...] = field(default=())
    hubs: int = 0

    def __post_init__(self) -> None:
        kind = str(self.kind).strip().lower()
        if kind not in KINDS:
            raise TopologySpecError(
                f"unknown topology {kind!r}; known kinds: {', '.join(KINDS)}"
            )
        object.__setattr__(self, "kind", kind)

        try:
            dims = tuple(int(d) for d in self.dims)
        except (TypeError, ValueError):
            raise TopologySpecError(
                f"topology dims must be a tuple of integers, got {self.dims!r}"
            ) from None
        if not dims:
            raise TopologySpecError("topology needs at least one dimension")
        if any(d < 1 for d in dims):
            raise TopologySpecError(
                f"topology dimensions must be positive, got {self.dims!r}"
            )
        object.__setattr__(self, "dims", dims)

        wrap = tuple(bool(w) for w in self.wrap)
        if not wrap:
            wrap = (kind == "torus",) * len(dims)
        if len(wrap) != len(dims):
            raise TopologySpecError(
                f"wrap has {len(wrap)} flags for {len(dims)} dimensions"
            )
        object.__setattr__(self, "wrap", wrap)

        scale = tuple(float(s) for s in self.link_scale)
        if not scale:
            scale = (1.0,) * len(dims)
        if len(scale) != len(dims):
            raise TopologySpecError(
                f"link_scale has {len(scale)} factors for {len(dims)} dimensions"
            )
        if any(s <= 0 for s in scale):
            raise TopologySpecError(
                f"link-scale factors must be > 0, got {self.link_scale!r}"
            )
        object.__setattr__(self, "link_scale", scale)

        hubs = int(self.hubs)
        if kind == "chiplet":
            if hubs < 1:
                raise TopologySpecError(
                    f"chiplet topology needs hubs >= 1, got {hubs}"
                )
        elif hubs != 0:
            raise TopologySpecError(
                f"hubs= only applies to the chiplet topology, not {kind!r}"
            )
        object.__setattr__(self, "hubs", hubs)

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Total node count (all hierarchy blocks included)."""
        nodes = 1
        for d in self.dims:
            nodes *= d
        if self.kind == "chiplet":
            nodes *= self.hubs
        return nodes

    @property
    def is_hierarchical(self) -> bool:
        """True for block-structured graphs routed up/down via hubs."""
        return self.kind == "chiplet"

    @property
    def wraps(self) -> bool:
        """True when any dimension has wraparound channels."""
        return any(self.wrap)

    def scaled_links(self) -> bool:
        """True when any dimension's channels are slowed/sped."""
        return any(s != 1.0 for s in self.link_scale)

    # ------------------------------------------------------------------
    # Canonical string form / serialization
    # ------------------------------------------------------------------

    @staticmethod
    def axis_name(dim: int) -> str:
        """Grammar name of dimension ``dim`` (``x``/``y``/``z``/``w``,
        then ``d4``, ``d5``, ...)."""
        if 0 <= dim < len(AXIS_LETTERS):
            return AXIS_LETTERS[dim]
        return f"d{dim}"

    def canonical(self) -> str:
        """The spec as its canonical grammar string (parse round-trips)."""
        dims_text = "x".join(str(d) for d in self.dims)
        if self.kind == "chiplet":
            return f"chiplet({dims_text},hubs={self.hubs})"
        scales = ",".join(
            f"{self.axis_name(i)}={s:g}"
            for i, s in enumerate(self.link_scale)
            if s != 1.0
        )
        text = dims_text
        if self.kind != "mesh" or scales:
            text += f":{self.kind}"
        if scales:
            text += f":{scales}"
        return text

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready document; optional axes omitted when at defaults."""
        doc: Dict[str, object] = {"kind": self.kind, "dims": list(self.dims)}
        if self.wraps and self.kind != "torus":
            doc["wrap"] = [bool(w) for w in self.wrap]
        if self.scaled_links():
            doc["link_scale"] = list(self.link_scale)
        if self.hubs:
            doc["hubs"] = self.hubs
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "TopologySpec":
        """Rebuild a spec from :meth:`as_dict` output."""
        if not isinstance(doc, Mapping):
            raise TopologySpecError(f"topology doc must be a mapping, got {doc!r}")
        unknown = set(doc) - {"kind", "dims", "wrap", "link_scale", "hubs"}
        if unknown:
            raise TopologySpecError(
                f"unknown topology doc key(s) {sorted(unknown)}"
            )
        return cls(
            kind=str(doc.get("kind", "mesh")),
            dims=tuple(doc.get("dims", (4, 2))),  # type: ignore[arg-type]
            wrap=tuple(doc.get("wrap", ())),  # type: ignore[arg-type]
            link_scale=tuple(doc.get("link_scale", ())),  # type: ignore[arg-type]
            hubs=int(doc.get("hubs", 0)),  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    # The one parser
    # ------------------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "TopologySpec":
        """Parse the canonical topology grammar.

        Every entry point (CLI ``--mesh``, ``MeshConfig.parse`` used by
        sweep grids, serve request validation) funnels through here, so
        malformed specs, non-positive dimensions and unknown topology
        kinds raise the same spec-level :class:`TopologySpecError`
        everywhere.
        """
        text = str(spec).strip().lower()
        if not text:
            raise TopologySpecError(
                f"topology spec expects {_GRAMMAR_HINT}, got {spec!r}"
            )

        chiplet = _CHIPLET_RE.match(text)
        if chiplet:
            dims = cls._parse_dims(chiplet.group("dims"), spec)
            hubs_text = chiplet.group("hubs")
            try:
                hubs = int(hubs_text) if hubs_text is not None else 2
            except ValueError:
                raise TopologySpecError(
                    f"chiplet hubs must be an integer, got {spec!r}"
                ) from None
            if hubs < 1:
                raise TopologySpecError(
                    f"chiplet hubs must be positive, got {spec!r}"
                )
            return cls(kind="chiplet", dims=dims, hubs=hubs)
        if text.startswith("chiplet"):
            raise TopologySpecError(
                f"topology spec expects {_GRAMMAR_HINT}, got {spec!r}"
            )

        parts = text.split(":")
        if len(parts) > 3:
            raise TopologySpecError(
                f"topology spec expects {_GRAMMAR_HINT}, got {spec!r}"
            )
        dims = cls._parse_dims(parts[0], spec)
        kind = parts[1].strip() if len(parts) > 1 else "mesh"
        if kind not in KINDS:
            raise TopologySpecError(
                f"unknown topology {kind!r} in mesh spec {spec!r}; "
                f"known kinds: {', '.join(KINDS)}"
            )
        link_scale: Tuple[float, ...] = ()
        if len(parts) > 2:
            link_scale = cls._parse_scales(parts[2], dims, spec)
        return cls(kind=kind, dims=dims, link_scale=link_scale)

    @classmethod
    def _parse_dims(cls, text: str, spec: str) -> Tuple[int, ...]:
        pieces = text.strip().split("x")
        if len(pieces) < 2:
            raise TopologySpecError(
                f"topology spec expects {_GRAMMAR_HINT}, got {spec!r}"
            )
        try:
            dims = tuple(int(piece) for piece in pieces)
        except ValueError:
            raise TopologySpecError(
                f"topology spec expects {_GRAMMAR_HINT}, got {spec!r}"
            ) from None
        if any(d < 1 for d in dims):
            raise TopologySpecError(
                f"mesh dimensions must be positive, got {spec!r}"
            )
        return dims

    @classmethod
    def _parse_scales(cls, text: str, dims: Tuple[int, ...], spec: str) -> Tuple[float, ...]:
        names = {cls.axis_name(i): i for i in range(len(dims))}
        scales = [1.0] * len(dims)
        for assignment in text.split(","):
            axis, sep, value_text = assignment.partition("=")
            axis = axis.strip()
            if not sep or axis not in names:
                raise TopologySpecError(
                    f"unknown link-scale axis {axis!r} in spec {spec!r}; "
                    f"axes for {len(dims)} dimensions: {', '.join(names)}"
                )
            try:
                value = float(value_text)
            except ValueError:
                raise TopologySpecError(
                    f"link-scale for axis {axis!r} must be a number, got {spec!r}"
                ) from None
            if value <= 0:
                raise TopologySpecError(
                    f"link-scale for axis {axis!r} must be > 0, got {spec!r}"
                )
            scales[names[axis]] = value
        return tuple(scales)

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------

    def build(self):
        """Instantiate the described :class:`~repro.mesh.topology.Topology`."""
        # Imported here: repro.mesh.topology imports this module.
        from repro.mesh.topology import build

        return build(self)
