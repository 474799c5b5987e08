"""Text-mode figure rendering.

The paper's evaluation is figures: inter-arrival histograms with
fitted curves and per-processor destination bar charts.  These helpers
render the same series as terminal-friendly ASCII, used by the
examples and the experiment benchmarks.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    title: Optional[str] = None,
) -> str:
    """Horizontal ASCII bar chart.

    ``values`` are scaled so the maximum spans ``width`` characters.
    """
    values = [float(v) for v in values]
    if len(labels) != len(values):
        raise ValueError(f"{len(labels)} labels vs {len(values)} values")
    if not values:
        raise ValueError("nothing to chart")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    peak = max(values)
    label_width = max(len(str(l)) for l in labels)
    lines = [] if title is None else [title]
    for label, value in zip(labels, values):
        bar_len = 0 if peak <= 0 else int(round(width * value / peak))
        lines.append(f"{str(label):>{label_width}} |{'#' * bar_len:<{width}}| {value:.3f}")
    return "\n".join(lines)


def spatial_chart(fractions: np.ndarray, src: int, width: int = 40) -> str:
    """The paper's per-processor spatial figure: fraction of ``src``'s
    messages sent to each destination, as bars."""
    fractions = np.asarray(fractions, dtype=float)
    labels = [f"p{d}" for d in range(fractions.size)]
    return bar_chart(
        labels,
        fractions.tolist(),
        width=width,
        title=f"spatial distribution of p{src} (fraction of messages)",
    )
