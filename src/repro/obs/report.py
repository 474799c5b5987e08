"""Machine-readable run reports (the perf trajectory format).

One :class:`RunReport` captures everything needed to compare a run
against past runs: what ran (app, params, mesh), how big it was
(messages, bytes, simulated span), how long it took on the wall clock,
and the metrics snapshot if observability was on.  The CLI writes one
per ``characterize --report``; the benchmark suite appends one per
cached pipeline run to a JSONL trajectory file, so successive PRs can
diff performance without re-deriving a harness.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


#: Bumped when the report layout changes incompatibly.
SCHEMA_VERSION = 1


@dataclass
class RunReport:
    """One run's machine-readable record."""

    app: str
    strategy: str
    mesh: str
    params: Dict[str, object] = field(default_factory=dict)
    messages: int = 0
    total_bytes: int = 0
    sim_span: float = 0.0
    mean_latency: float = 0.0
    mean_contention: float = 0.0
    wall_seconds: float = 0.0
    metrics: Optional[Dict[str, Dict[str, object]]] = None
    extra: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "schema": SCHEMA_VERSION,
            "python": platform.python_version(),
            "app": self.app,
            "strategy": self.strategy,
            "mesh": self.mesh,
            "params": self.params,
            "messages": self.messages,
            "total_bytes": self.total_bytes,
            "sim_span": self.sim_span,
            "mean_latency": self.mean_latency,
            "mean_contention": self.mean_contention,
            "wall_seconds": self.wall_seconds,
        }
        if self.metrics is not None:
            out["metrics"] = self.metrics
        if self.extra:
            out["extra"] = self.extra
        return out

    def write_json(self, path: str) -> None:
        """Write this report alone as a JSON object."""
        with open(path, "w") as handle:
            json.dump(self.as_dict(), handle, indent=1, sort_keys=True)

    def append_jsonl(self, path: str) -> None:
        """Append this report as one line of a JSONL trajectory file."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "a") as handle:
            handle.write(json.dumps(self.as_dict(), sort_keys=True) + "\n")


def report_from_run(
    run,
    app_params: Optional[Dict[str, object]] = None,
    wall_seconds: float = 0.0,
    metrics: Optional[Dict[str, Dict[str, object]]] = None,
) -> RunReport:
    """Build a :class:`RunReport` from a
    :class:`~repro.core.methodology.CharacterizationRun`."""
    characterization = run.characterization
    return report_from_summary(
        run.log.summary(),
        app=characterization.app_name,
        strategy=characterization.strategy,
        mesh=f"{characterization.num_nodes} nodes",
        params=app_params,
        wall_seconds=wall_seconds,
        metrics=metrics,
    )


def report_from_summary(
    stats,
    app: str,
    strategy: str,
    mesh: str,
    params: Optional[Dict[str, object]] = None,
    wall_seconds: float = 0.0,
    metrics: Optional[Dict[str, Dict[str, object]]] = None,
    extra: Optional[Dict[str, object]] = None,
) -> RunReport:
    """Build a :class:`RunReport` from a log's
    :class:`~repro.mesh.netlog.LogSummary` (``log.summary()``, or a
    spilled log's manifest summary).

    Runs that drive the network without a full characterization
    pipeline (synthetic traffic, sweep cells, uploaded traces) report
    through here, with the same versioned schema as
    :func:`report_from_run`, so sweeps and characterizations land in
    one comparable trajectory.
    """
    return RunReport(
        app=app,
        strategy=strategy,
        mesh=mesh,
        params=dict(params or {}),
        messages=stats.messages,
        total_bytes=stats.total_bytes,
        sim_span=stats.span,
        mean_latency=stats.mean_latency,
        mean_contention=stats.mean_contention,
        wall_seconds=wall_seconds,
        metrics=metrics,
        extra=dict(extra or {}),
    )


def read_trajectory(path: str) -> List[Dict[str, object]]:
    """Read every report from a JSONL trajectory file."""
    reports: List[Dict[str, object]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                reports.append(json.loads(line))
    return reports


# ----------------------------------------------------------------------
# health summaries (the `repro doctor` backend)
# ----------------------------------------------------------------------


def netlog_health(stats) -> Tuple[List[str], int]:
    """Health lines + problem count for a network activity log, from
    its :class:`~repro.mesh.netlog.LogSummary`.

    Flags an empty log and a drain-dominated span (last delivery far
    past last injection), the signature of a run that stalled while
    draining — exactly the failure mode that silently corrupts
    offered-rate numbers when the denominator is the full span.
    """
    lines: List[str] = []
    problems = 0
    n = stats.messages
    if n == 0:
        return ["empty activity log: no messages were delivered"], 1
    span = stats.span
    inj_span = stats.injection_span
    lines.append(f"{n} messages over span {span:g} (injection window {inj_span:g})")
    lines.append(
        f"offered rate {stats.offered_rate:g}/t, throughput {stats.throughput:g}/t"
    )
    lines.append(
        f"mean latency {stats.mean_latency:g}, "
        f"mean contention {stats.mean_contention:g}"
    )
    if inj_span > 0 and span > 2.0 * inj_span:
        problems += 1
        lines.append(
            f"WARNING: drain time dominates ({span:g} vs injection window "
            f"{inj_span:g}) — network saturated or stalled while draining"
        )
    return lines, problems


def report_health(doc: Dict[str, object]) -> Tuple[List[str], int]:
    """Health lines + problem count for one run-report dict."""
    lines: List[str] = []
    problems = 0
    app = doc.get("app", "?")
    messages = int(doc.get("messages", 0) or 0)
    lines.append(
        f"app {app}: {messages} messages, sim span {doc.get('sim_span', 0)}, "
        f"wall {doc.get('wall_seconds', 0)}s"
    )
    if messages == 0:
        problems += 1
        lines.append("WARNING: run delivered zero messages")
    metrics = doc.get("metrics") or {}
    leaked = metrics.get("net.leaked_facilities") if isinstance(metrics, dict) else None
    if isinstance(leaked, dict) and leaked.get("value"):
        problems += 1
        lines.append(
            f"WARNING: {leaked['value']} facility server(s) leaked at end of run"
        )
    return lines, problems


def heartbeat_health(records: List[Dict[str, object]]) -> Tuple[List[str], int]:
    """Health lines + problem count for one heartbeat stream.

    The post-hoc reading of the live channel: summarizes the stream's
    progress, surfaces every unhealthy sampling window (the online
    verdicts :func:`repro.obs.live.window_health` attached while the
    run was going), and treats a non-terminal or failed final record as
    a problem — a stream that just stops is exactly the black-box
    outcome heartbeats exist to prevent.  Flagged windows in a run that
    finished ``done`` are reported but not counted as problems: bursty
    phases (a barrier storm pinning channels for one window) are normal,
    and the run demonstrably recovered.  The same flags in a failed or
    truncated stream corroborate the failure and do count.
    """
    lines: List[str] = []
    problems = 0
    if not records:
        return ["empty heartbeat stream: no records written"], 1
    last = records[-1]
    status = str(last.get("status", "?"))
    label = last.get("label", records[0].get("label", "run"))
    lines.append(
        f"{label}: {len(records)} record(s), final status {status}, "
        f"sim-t {last.get('sim_time', '?')}, events {last.get('events', '?')}"
    )
    finished_clean = status in ("done", "cached")
    unhealthy: Dict[str, int] = {}
    for record in records:
        health = record.get("health")
        if isinstance(health, str) and health not in ("ok", "idle"):
            unhealthy[health] = unhealthy.get(health, 0) + 1
    for verdict in sorted(unhealthy):
        if finished_clean:
            lines.append(
                f"note: {unhealthy[verdict]} window(s) flagged {verdict} "
                "while the run was live (run finished cleanly)"
            )
        else:
            problems += 1
            lines.append(
                f"WARNING: {unhealthy[verdict]} window(s) flagged {verdict} "
                "while the run was live"
            )
    if status == "failed":
        problems += 1
        lines.append(f"WARNING: run failed: {last.get('error', '?')}")
    elif status == "running":
        problems += 1
        lines.append(
            "WARNING: stream ends mid-run (no terminal record) — "
            "producer still alive, or killed without finishing"
        )
    return lines, problems


def job_health(doc: Dict[str, object]) -> Tuple[List[str], int]:
    """Health lines + problem count for one serve-job document.

    Job documents (``repro serve``'s on-disk index,
    :mod:`repro.serve.index`) carry the doctor verdict the service
    attached when the job finished; this re-surfaces it — plus the
    job's own lifecycle state — so ``repro doctor jobs/<id>.json``
    works offline, on the index file alone.
    """
    lines: List[str] = []
    problems = 0
    state = str(doc.get("state", "?"))
    job_id = doc.get("id", "?")
    kind = doc.get("job_kind", "?")
    lines.append(f"job {job_id} ({kind}): state {state}")
    result = doc.get("result")
    if isinstance(result, dict) and "cells" in result:
        lines.append(
            f"{result.get('cells', 0)} cell(s): {result.get('computed', 0)} computed, "
            f"{result.get('cached', 0)} cached, {result.get('failed', 0)} failed"
        )
    if state == "failed":
        problems += 1
        lines.append(f"WARNING: job failed: {doc.get('error', '?')}")
    elif state not in ("done",):
        lines.append(f"note: job not finished (state {state}); resumes on restart")
    health = doc.get("health")
    if isinstance(health, dict):
        embedded = int(health.get("problems", 0) or 0)
        problems += embedded
        for line in health.get("lines", ()):
            lines.append(str(line))
    return lines, problems


def sweep_health(doc: Dict[str, object]) -> Tuple[List[str], int]:
    """Health lines + problem count for a sweep-report dict.

    Counts rows by status and prints each diagnosed failure's
    ``failure_log`` (the wait-for cycle or leak audit).
    """
    rows = doc.get("rows", [])
    lines: List[str] = []
    counts: Dict[str, int] = {}
    for row in rows:
        status = str(row.get("status", "?"))
        counts[status] = counts.get(status, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    lines.append(f"{len(rows)} cells: {summary or 'no rows'}")
    problems = sum(v for k, v in counts.items() if k != "ok")
    for row in rows:
        status = str(row.get("status", "?"))
        if status == "ok":
            continue
        cell = row.get("cell", {})
        cell_id = "/".join(
            str(cell.get(k)) for k in ("app", "mesh") if cell.get(k) is not None
        ) or "cell"
        lines.append(f"{cell_id}: {status}: {row.get('error', '?')}".splitlines()[0])
        for detail in row.get("failure_log", ()):
            lines.append(f"    {detail}")
    return lines, problems
