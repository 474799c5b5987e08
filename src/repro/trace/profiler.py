"""The trace profiler and analyzer.

Summarizes an application-level trace before replay -- per-source
message counts, byte volumes, destination spreads and gap statistics --
the paper's "trace profiler and analyzer" stage between tracing and the
network simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.trace.log import TraceLog


@dataclass(frozen=True)
class TraceProfile:
    """Aggregate view of one trace.

    Attributes
    ----------
    total_messages, total_bytes:
        Whole-trace volume.
    span:
        First-to-last post time.
    per_source_messages, per_source_bytes:
        Count/volume keyed by source rank.
    destination_matrix:
        ``matrix[src][dst]`` = messages from src to dst.
    mean_gap, cv_gap:
        Mean and coefficient of variation of per-source gaps (pooled).
    kind_counts:
        Message count per kind tag.
    """

    total_messages: int
    total_bytes: int
    span: float
    per_source_messages: Dict[int, int]
    per_source_bytes: Dict[int, int]
    destination_matrix: np.ndarray
    mean_gap: float
    cv_gap: float
    kind_counts: Dict[str, int]

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"messages: {self.total_messages}",
            f"bytes:    {self.total_bytes}",
            f"span:     {self.span:.1f}",
            f"gap mean: {self.mean_gap:.2f} (cv {self.cv_gap:.2f})",
            "kinds:    "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.kind_counts.items())),
        ]
        return "\n".join(lines)


def profile_trace(trace: TraceLog, num_nodes: int) -> TraceProfile:
    """Analyze ``trace`` over a ``num_nodes``-rank system."""
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    per_source_messages: Dict[int, int] = {}
    per_source_bytes: Dict[int, int] = {}
    kind_counts: Dict[str, int] = {}
    matrix = np.zeros((num_nodes, num_nodes), dtype=int)
    gaps: List[float] = []
    for event in trace:
        if event.src < 0 or event.dst < 0:
            # Without this check a negative rank would silently index
            # the destination matrix from the end.
            raise ValueError(
                f"event has negative rank (src={event.src}, dst={event.dst})"
            )
        if event.src >= num_nodes or event.dst >= num_nodes:
            raise ValueError(
                f"event touches rank {max(event.src, event.dst)} outside "
                f"{num_nodes}-node system"
            )
        per_source_messages[event.src] = per_source_messages.get(event.src, 0) + 1
        per_source_bytes[event.src] = (
            per_source_bytes.get(event.src, 0) + event.length_bytes
        )
        kind_counts[event.kind] = kind_counts.get(event.kind, 0) + 1
        matrix[event.src, event.dst] += 1
        gaps.append(event.gap)
    gap_array = np.asarray(gaps, dtype=float)
    mean_gap = float(gap_array.mean()) if gap_array.size else 0.0
    cv_gap = (
        float(gap_array.std() / gap_array.mean())
        if gap_array.size and gap_array.mean() > 0
        else 0.0
    )
    return TraceProfile(
        total_messages=len(trace),
        total_bytes=trace.total_bytes(),
        span=trace.span(),
        per_source_messages=per_source_messages,
        per_source_bytes=per_source_bytes,
        destination_matrix=matrix,
        mean_gap=mean_gap,
        cv_gap=cv_gap,
        kind_counts=kind_counts,
    )
