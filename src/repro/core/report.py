"""Textual report rendering for characterization results.

Formats the rows the paper's evaluation reports: per-application
temporal fits, per-processor spatial fractions, and message-volume
distributions.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.attributes import CommunicationCharacterization


def temporal_table(results: Sequence[CommunicationCharacterization]) -> str:
    """The paper's inter-arrival summary table: one row per application."""
    header = (
        f"{'application':<12} {'strategy':<8} {'distribution':<44} "
        f"{'R2':>6} {'KS':>6} {'rate':>10} {'cv':>6}"
    )
    lines = [header, "-" * len(header)]
    for result in results:
        temporal = result.temporal
        lines.append(
            f"{result.app_name:<12} {result.strategy:<8} "
            f"{temporal.fit.distribution.describe():<44} "
            f"{temporal.fit.r2:>6.3f} {temporal.fit.ks:>6.3f} "
            f"{temporal.rate:>10.6f} {temporal.cv:>6.2f}"
        )
    return "\n".join(lines)


def spatial_table(result: CommunicationCharacterization) -> str:
    """Per-processor destination fractions (the paper's bar charts,
    rendered as a matrix) plus each processor's classified pattern."""
    matrix = result.spatial.fraction_matrix
    n = matrix.shape[0]
    header = "src\\dst " + " ".join(f"{d:>5}" for d in range(n)) + "  pattern"
    lines = [f"=== spatial: {result.app_name} ===", header]
    for src in range(n):
        fit = result.spatial.per_source.get(src)
        pattern = fit.pattern.describe() if fit is not None else "(no traffic)"
        row = " ".join(f"{matrix[src, d]:>5.2f}" for d in range(n))
        lines.append(f"p{src:<6} {row}  {pattern}")
    lines.append(f"dominant pattern: {result.spatial.dominant_pattern}")
    return "\n".join(lines)


def volume_table(result: CommunicationCharacterization) -> str:
    """Message-volume distribution per processor plus length modes."""
    matrix = result.volume.volume_matrix
    n = matrix.shape[0]
    header = "src\\dst " + " ".join(f"{d:>5}" for d in range(n))
    lines = [f"=== volume: {result.app_name} ===", header]
    for src in range(n):
        row = " ".join(f"{matrix[src, d]:>5.2f}" for d in range(n))
        lines.append(f"p{src:<6} {row}")
    modes = ", ".join(
        f"{size}B:{frac:.0%}" for size, frac in result.volume.modal_lengths().items()
    )
    lines.append(f"length modes: {modes}")
    lines.append(
        f"messages: {result.volume.message_count}, bytes: {result.volume.total_bytes}"
    )
    return "\n".join(lines)
