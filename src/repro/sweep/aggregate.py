"""Joining sweep cell results into comparison tables and reports.

Every successful cell carries a versioned run report
(:mod:`repro.obs.report`); this module pivots those rows into the
tables the methodology is after — one line per (app, mesh, protocol)
configuration, one column per injection-rate scale, values averaged
over the seed axis — plus structured failure listings and a
JSON-serializable :class:`SweepResult` the CLI writes and re-reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.report import SCHEMA_VERSION as RUN_REPORT_SCHEMA
from repro.sweep.grid import CellSpec, GridSpec

#: Bumped when the sweep report layout changes incompatibly.
SWEEP_SCHEMA_VERSION = 1

#: Values resolvable by :func:`comparison_table`: top-level run-report
#: fields first, then the sweep-specific extras.  ``offered_rate`` (the
#: injection-window rate from the cell log's one-pass summary) joins
#: the delivered-rate numbers so saturation shows up in one table.
_EXTRA_VALUES = ("requested_rate", "achieved_rate", "offered_rate", "efficiency")


def _row_value(row: Dict[str, object], value: str) -> Optional[float]:
    report = row.get("report")
    if not isinstance(report, dict):
        return None
    if value in report and isinstance(report[value], (int, float)):
        return float(report[value])  # type: ignore[arg-type]
    extra = report.get("extra")
    if isinstance(extra, dict) and isinstance(extra.get(value), (int, float)):
        return float(extra[value])  # type: ignore[arg-type]
    return None


def _config_key(row: Dict[str, object]) -> Tuple[str, str, str]:
    cell = row["cell"]
    return (cell["app"], cell["mesh"], cell["protocol"])  # type: ignore[index]


def comparison_table(
    rows: Sequence[Dict[str, object]], value: str = "mean_latency"
) -> str:
    """Pivot successful rows: configurations down, rate scales across.

    ``value`` is any numeric run-report field (``mean_latency``,
    ``mean_contention``, ``messages``, ``wall_seconds``, ...) or a
    sweep extra (``achieved_rate``, ``efficiency``, ...); cells with
    several seeds average over them.
    """
    ok_rows = [row for row in rows if row.get("status") == "ok"]
    if not ok_rows:
        return f"(no successful cells to compare on {value!r})"
    scales = sorted(
        {float(row["cell"]["rate_scale"]) for row in ok_rows}  # type: ignore[index]
    )
    grouped: Dict[Tuple[str, str, str], Dict[float, List[float]]] = {}
    for row in ok_rows:
        scale = float(row["cell"]["rate_scale"])  # type: ignore[index]
        measured = _row_value(row, value)
        if measured is None:
            continue
        grouped.setdefault(_config_key(row), {}).setdefault(scale, []).append(measured)

    label_width = max(
        [len(f"{app}@{mesh}/{protocol}") for app, mesh, protocol in grouped] + [13]
    )
    header = f"{value:>{label_width}} " + " ".join(f"{'x%g' % s:>10}" for s in scales)
    lines = [header]
    for (app, mesh, protocol), by_scale in sorted(grouped.items()):
        label = f"{app}@{mesh}/{protocol}"
        cells = []
        for scale in scales:
            values = by_scale.get(scale)
            if values:
                cells.append(f"{sum(values) / len(values):>10.3f}")
            else:
                cells.append(f"{'-':>10}")
        lines.append(f"{label:>{label_width}} " + " ".join(cells))
    return "\n".join(lines)


def failure_table(rows: Sequence[Dict[str, object]]) -> str:
    """One line per failed cell: id, status, attempts, error — plus the
    indented diagnosis (``failure_log``) for deadlock/leak/stall rows."""
    failures = [row for row in rows if row.get("status") != "ok"]
    if not failures:
        return "no failures"
    lines = []
    for row in failures:
        spec = CellSpec.from_dict(row["cell"])  # type: ignore[arg-type]
        error = str(row.get("error", "?")).splitlines() or ["?"]
        lines.append(
            f"{spec.cell_id}: {row['status']} after {row['attempts']} attempt(s): "
            f"{error[0]}"
        )
        for detail in row.get("failure_log", ())[1:]:  # type: ignore[index]
            lines.append(f"    {detail}")
    return "\n".join(lines)


@dataclass
class SweepResult:
    """Everything one sweep invocation produced.

    ``rows`` holds one structured row per cell, in grid-expansion
    order: ``{"status": "ok"|"error"|"timeout"|"crashed"|"deadlock"|"leak"|
    "stall", "cached": bool, "attempts": int, "cell": {...}, "key": ...,
    "report": {...}}`` (failure rows carry ``"error"`` instead of
    ``"report"``; diagnosed failures also carry ``"failure_log"`` —
    the wait-for cycle or leak audit, one line per entry).
    """

    grid: Dict[str, object]
    rows: List[Dict[str, object]] = field(default_factory=list)
    wall_seconds: float = 0.0
    jobs: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    cache_enabled: bool = False
    cache_dir: Optional[str] = None

    @property
    def ok_rows(self) -> List[Dict[str, object]]:
        return [row for row in self.rows if row["status"] == "ok"]

    @property
    def failures(self) -> List[Dict[str, object]]:
        return [row for row in self.rows if row["status"] != "ok"]

    @property
    def executed(self) -> int:
        """Cells actually run this invocation (not served from cache)."""
        return sum(1 for row in self.rows if not row["cached"])

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": SWEEP_SCHEMA_VERSION,
            "run_report_schema": RUN_REPORT_SCHEMA,
            "grid": self.grid,
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "cache": {
                "enabled": self.cache_enabled,
                "dir": self.cache_dir,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
            },
            "cells": self.rows,
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.as_dict(), handle, indent=1, sort_keys=True)

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "SweepResult":
        cache = doc.get("cache") or {}
        return cls(
            grid=doc.get("grid", {}),  # type: ignore[arg-type]
            rows=list(doc.get("cells", [])),  # type: ignore[arg-type]
            wall_seconds=float(doc.get("wall_seconds", 0.0)),  # type: ignore[arg-type]
            jobs=int(doc.get("jobs", 1)),  # type: ignore[arg-type]
            cache_hits=int(cache.get("hits", 0)),  # type: ignore[union-attr]
            cache_misses=int(cache.get("misses", 0)),  # type: ignore[union-attr]
            cache_enabled=bool(cache.get("enabled", False)),  # type: ignore[union-attr]
            cache_dir=cache.get("dir"),  # type: ignore[union-attr, arg-type]
        )

    @classmethod
    def read_json(cls, path: str) -> "SweepResult":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def describe(self, value: str = "mean_latency") -> str:
        """Human summary: counters, comparison table, failures."""
        total = len(self.rows)
        lines = [
            f"{total} cells: {len(self.ok_rows)} ok "
            f"({self.cache_hits} from cache, {self.executed} executed), "
            f"{len(self.failures)} failed; "
            f"jobs={self.jobs} wall={self.wall_seconds:.2f}s",
        ]
        if self.cache_enabled:
            lines.append(
                f"cache: {self.cache_hits} hits, {self.cache_misses} misses "
                f"({self.cache_dir})"
            )
        lines.append("")
        lines.append(comparison_table(self.rows, value=value))
        if self.failures:
            lines.append("")
            lines.append("failures:")
            lines.append(failure_table(self.rows))
        return "\n".join(lines)


def sweep_status(grid: GridSpec, cache) -> Dict[str, object]:
    """Which cells of ``grid`` are already cached vs still pending.

    Uses :meth:`ResultCache.has`, so it does not disturb the cache's
    hit/miss counters.
    """
    cells = []
    cached = 0
    for spec in grid.expand():
        key = cache.key_for(spec.canonical_json())
        present = cache.has(key)
        cached += int(present)
        cells.append({"cell_id": spec.cell_id, "key": key, "cached": present})
    return {
        "total": len(cells),
        "cached": cached,
        "pending": len(cells) - cached,
        "cells": cells,
    }


def describe_status(status: Dict[str, object]) -> str:
    """Text rendering of :func:`sweep_status`."""
    lines = [
        f"{status['cached']}/{status['total']} cells cached, "
        f"{status['pending']} pending"
    ]
    for cell in status["cells"]:  # type: ignore[union-attr]
        marker = "cached " if cell["cached"] else "pending"
        lines.append(f"  [{marker}] {cell['cell_id']}")
    return "\n".join(lines)
