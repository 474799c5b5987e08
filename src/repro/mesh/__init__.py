"""Wormhole-routed interconnection network simulator.

This package reproduces the paper's network simulator: a process
oriented simulator of a 2-D mesh with wormhole routing, written against
the CSIM-like kernel in :mod:`repro.simkernel`.  "Inputs to the
simulator are messages defined by their source, destination, length and
time since the last network activity at the source.  The output is the
network latency and contention incurred by the message and overall
utilization of the different network resources."  Beyond the paper's
2-D mesh, :class:`~repro.mesh.spec.TopologySpec` describes N-D
meshes/tori with per-dimension link scales, hypercubes and chiplet-hub
hierarchies behind the same simulator.

Public surface:

* :class:`~repro.mesh.spec.TopologySpec` -- frozen, serializable
  topology description with the canonical spec grammar, over the fixed
  kinds in :data:`~repro.mesh.spec.KINDS`.
* :class:`~repro.mesh.config.MeshConfig` -- a spec plus timing knobs.
* :class:`~repro.mesh.topology.MeshTopology` (and the N-D/hierarchical
  classes) -- node/coordinate algebra and routing, with a lazily
  filled per-instance :class:`~repro.mesh.topology.RouteTable`.
* :class:`~repro.mesh.packet.NetworkMessage` -- a message in flight.
* :class:`~repro.mesh.network.MeshNetwork` -- the simulator proper,
  with the drive harness every driver shares (closed-loop sources,
  one run tail).
* :class:`~repro.mesh.netlog.NetworkLog` -- the activity log analyzed by
  the statistics package.
* :func:`~repro.mesh.patterns.make_pattern` over the fixed
  :data:`~repro.mesh.patterns.PATTERNS` catalogue -- synthetic and
  adversarial traffic patterns.
"""

from repro.mesh.config import MeshConfig
from repro.mesh.netlog import LogSummary, NetLogFormatError, NetLogRecord, NetworkLog
from repro.mesh.netlog_stream import (
    DEFAULT_WINDOW,
    StreamingNetworkLog,
    iter_segments,
    materialize_manifest,
    read_manifest,
    summarize_csv,
    summarize_npz,
    summary_from_manifest,
)
from repro.mesh.network import MeshNetwork
from repro.mesh.packet import NetworkMessage
from repro.mesh.patterns import (
    PATTERNS,
    BitComplementTraffic,
    BitReversalTraffic,
    HotspotTraffic,
    NeighborTraffic,
    ShuffleTraffic,
    TornadoTraffic,
    TrafficPattern,
    TransposeTraffic,
    UniformTraffic,
    make_pattern,
    pattern_for_config,
    registered_patterns,
)
from repro.mesh.spec import TopologySpec, TopologySpecError
from repro.mesh.topology import (
    ChipletTopology,
    Hop,
    HypercubeTopology,
    MeshTopology,
    NDMeshTopology,
    Topology,
)

__all__ = [
    "BitComplementTraffic",
    "BitReversalTraffic",
    "ChipletTopology",
    "DEFAULT_WINDOW",
    "Hop",
    "HotspotTraffic",
    "HypercubeTopology",
    "LogSummary",
    "MeshConfig",
    "MeshNetwork",
    "MeshTopology",
    "NDMeshTopology",
    "NeighborTraffic",
    "NetLogFormatError",
    "NetLogRecord",
    "NetworkLog",
    "NetworkMessage",
    "PATTERNS",
    "ShuffleTraffic",
    "StreamingNetworkLog",
    "Topology",
    "TopologySpec",
    "TopologySpecError",
    "TornadoTraffic",
    "TrafficPattern",
    "TransposeTraffic",
    "UniformTraffic",
    "iter_segments",
    "make_pattern",
    "materialize_manifest",
    "pattern_for_config",
    "read_manifest",
    "registered_patterns",
    "summarize_csv",
    "summarize_npz",
    "summary_from_manifest",
]
