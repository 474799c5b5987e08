"""Spatial attribute analysis: destination distributions per source."""

from __future__ import annotations

from collections import Counter
from typing import Dict

from repro.core.attributes import SpatialCharacterization
from repro.mesh.netlog import NetworkLog
from repro.mesh.topology import Topology
from repro.stats.spatial_models import SpatialFit, classify_spatial


def analyze_spatial(log: NetworkLog, topology: Topology) -> SpatialCharacterization:
    """Classify every source's destination fractions in ``log``.

    Produces the paper's spatial results: the fraction-of-messages
    matrix ("the fraction of messages sent by a processor to others in
    the system") and, per source, the best-matching named pattern
    (uniform / bimodal uniform / locality decay).  The locality model
    measures distance as ``topology``'s route length.
    """
    num_nodes = topology.num_nodes
    # One vectorized pass builds every source's fraction row; the
    # per-source loop below only runs the pattern classification.
    matrix = log.destination_fraction_matrix(num_nodes)
    per_source: Dict[int, SpatialFit] = {}
    for src in log.sources():
        hops = tuple(topology.hops(src, dst) for dst in range(num_nodes))
        fits = classify_spatial(matrix[src], src=src, hops=hops)
        per_source[src] = fits[0]
    if not per_source:
        raise ValueError("log contains no messages; nothing to classify")
    majority = Counter(fit.name for fit in per_source.values()).most_common(1)[0][0]
    return SpatialCharacterization(
        per_source=per_source,
        fraction_matrix=matrix,
        dominant_pattern=majority,
    )
