"""Configuration of the simulated network: a TopologySpec plus timing.

:class:`MeshConfig` is the value every simulator layer consumes.
Geometry lives in ``config.spec`` (a
:class:`~repro.mesh.spec.TopologySpec`: any N-D or hierarchical
topology); timing and wormhole parameters live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.mesh.spec import TopologySpec


@dataclass(frozen=True, init=False)
class MeshConfig:
    """Geometry and timing parameters of the simulated network.

    Times are in the simulator's abstract time unit; the paper's
    experiments use processor cycles for the dynamic strategy and
    microseconds for the static strategy -- either works as long as
    message timestamps use the same unit.

    Attributes
    ----------
    spec:
        The :class:`~repro.mesh.spec.TopologySpec` describing the
        network graph (kind, N-D dims, wrap flags, link scales,
        hierarchy blocks).  Accepts a spec string (``"4x4x2:torus"``)
        which is parsed with :meth:`TopologySpec.parse`.
    virtual_channels:
        Virtual channels multiplexed on each physical channel.  The
        torus' dateline routing and the chiplet's up/down routing need
        at least 2.  Modeled as independent lanes at full channel
        bandwidth each -- an optimistic approximation that captures the
        head-of-line-blocking relief VCs provide (see DESIGN.md
        ablations).
    routing:
        ``"deterministic"`` (dimension-order / shortest-ring / e-cube /
        up-down per topology) or ``"adaptive"`` (2-D mesh only, needs 2
        virtual channels): the head flit picks XY or YX per message
        based on which first channel is free; each order rides its own
        VC class, so both sub-networks stay deadlock-free.
    flit_bytes:
        Payload bytes carried per flit (channel word).
    header_flits:
        Flits of header prepended to every message.
    channel_time:
        Time for one flit to cross one nominal physical channel (a
        link's spec-level ``scale`` multiplies this for its head-flit
        traversals).
    routing_time:
        Per-hop routing/arbitration delay incurred by the head flit.
    injection_time:
        Source-side network-interface overhead per message (the time to
        move the head flit from the NI into the router).
    ejection_time:
        Destination-side NI overhead per message.
    """

    spec: TopologySpec = TopologySpec()
    virtual_channels: int = 1
    routing: str = "deterministic"
    flit_bytes: int = 8
    header_flits: int = 1
    channel_time: float = 1.0
    routing_time: float = 1.0
    injection_time: float = 1.0
    ejection_time: float = 1.0

    def __init__(
        self,
        spec: Optional[Union[TopologySpec, str]] = None,
        *,
        virtual_channels: int = 1,
        routing: str = "deterministic",
        flit_bytes: int = 8,
        header_flits: int = 1,
        channel_time: float = 1.0,
        routing_time: float = 1.0,
        injection_time: float = 1.0,
        ejection_time: float = 1.0,
    ) -> None:
        if spec is None:
            spec = TopologySpec()
        elif isinstance(spec, str):
            spec = TopologySpec.parse(spec)
        elif not isinstance(spec, TopologySpec):
            raise TypeError(
                f"spec must be a TopologySpec or spec string, got {type(spec).__name__}"
            )
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "virtual_channels", virtual_channels)
        object.__setattr__(self, "routing", routing)
        object.__setattr__(self, "flit_bytes", flit_bytes)
        object.__setattr__(self, "header_flits", header_flits)
        object.__setattr__(self, "channel_time", channel_time)
        object.__setattr__(self, "routing_time", routing_time)
        object.__setattr__(self, "injection_time", injection_time)
        object.__setattr__(self, "ejection_time", ejection_time)
        self._validate()

    def _validate(self) -> None:
        # Validates the spec kind and (for hypercube) the node count,
        # and lets the routing discipline demand virtual channels.
        built = self.make_topology()
        if self.virtual_channels < built.required_vclasses:
            raise ValueError(
                f"{self.spec.kind} routing needs >= {built.required_vclasses} "
                f"virtual channels, got {self.virtual_channels}"
            )
        if self.routing not in ("deterministic", "adaptive"):
            raise ValueError(
                f"routing must be 'deterministic' or 'adaptive', got {self.routing!r}"
            )
        if self.routing == "adaptive":
            if self.spec.kind != "mesh" or len(self.spec.dims) != 2 or self.spec.wraps:
                raise ValueError("adaptive routing is only supported on the mesh")
            if self.virtual_channels < 2:
                raise ValueError(
                    "adaptive routing needs >= 2 virtual channels "
                    "(one class per dimension order)"
                )
        if self.flit_bytes < 1:
            raise ValueError(f"flit_bytes must be >= 1, got {self.flit_bytes}")
        if self.header_flits < 0:
            raise ValueError(f"header_flits must be >= 0, got {self.header_flits}")
        for field_name in ("channel_time", "routing_time", "injection_time", "ejection_time"):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be >= 0")

    @classmethod
    def from_spec(
        cls,
        spec: Union[TopologySpec, str],
        virtual_channels: Optional[int] = None,
        **timing: float,
    ) -> "MeshConfig":
        """A config for ``spec`` with the VCs its routing needs.

        ``virtual_channels=None`` (the default) asks the built topology
        for its ``required_vclasses``; ``timing`` passes through any of
        the wormhole/timing keywords.
        """
        if isinstance(spec, str):
            spec = TopologySpec.parse(spec)
        if virtual_channels is None:
            virtual_channels = spec.build().required_vclasses
        return cls(spec=spec, virtual_channels=virtual_channels, **timing)

    @classmethod
    def parse(cls, spec: str) -> "MeshConfig":
        """Parse a topology spec string into a config.

        Accepts the full :meth:`TopologySpec.parse` grammar (``"4x2"``,
        ``"4x4x2:torus"``, ``"8x8x4:mesh:z=4.0"``,
        ``"chiplet(4x4,hubs=2)"``) and grants the topology the virtual
        channels its routing discipline requires.  Malformed specs,
        non-positive dimensions and unknown topology kinds are rejected
        with the same spec-level :class:`TopologySpecError` every entry
        point sees.
        """
        return cls.from_spec(TopologySpec.parse(spec))

    @property
    def num_nodes(self) -> int:
        """Total node count of the network."""
        return self.spec.num_nodes

    def make_topology(self):
        """Instantiate the configured :class:`~repro.mesh.topology.Topology`."""
        return self.spec.build()

    def flits_for(self, length_bytes: int) -> int:
        """Number of flits (header + payload) for a message of
        ``length_bytes`` payload bytes."""
        if length_bytes < 0:
            raise ValueError(f"message length must be >= 0, got {length_bytes}")
        payload_flits = -(-length_bytes // self.flit_bytes)  # ceil div
        return max(1, self.header_flits + payload_flits)

    def zero_load_latency(self, hops: int, length_bytes: int) -> float:
        """Contention-free wormhole latency for a message.

        ``hops * (routing + channel)`` for the head flit plus one
        channel time per remaining flit (pipelined body), plus NI
        injection/ejection overheads.  Uses nominal channel time; a
        scaled link adds ``(scale - 1) * channel_time`` per traversal
        on top of this.
        """
        if hops < 0:
            raise ValueError(f"hops must be >= 0, got {hops}")
        flits = self.flits_for(length_bytes)
        head = hops * (self.routing_time + self.channel_time)
        body = (flits - 1) * self.channel_time
        return self.injection_time + head + body + self.ejection_time
