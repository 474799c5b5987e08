"""Job lifecycle: validation, single-flight scheduling, execution.

A *job* is one client-submitted unit of characterization work — either
a declarative sweep grid (the common case) or an uploaded activity
trace to analyze.  :class:`JobManager` owns the whole lifecycle:

* **Validation** happens at submission time, before anything is
  persisted: the grid must parse, expand to at most ``max_cells``
  cells and name no server path (``log_spill``, ``heartbeat``), and
  trace uploads must be non-empty.  Bad input costs a 400, not a
  worker.
* **Single-flight coalescing**: a job's identity is the content
  address of its spec (the same keying scheme as the sweep cache, so
  the code fingerprint participates — a redeploy never serves stale
  results).  While a job for digest D is queued or running, another
  submission of D attaches to it instead of spawning a duplicate:
  many concurrent identical clients cost one simulation.  After D
  completes, a re-submission runs again but every cell is a cache
  hit, which is the steady-state "second request is free" path.
* **Execution** reuses the PR-2 sweep machinery verbatim: each grid
  job is one :func:`repro.sweep.runner.run_sweep` call on a worker
  pool with the existing per-cell timeouts, bounded retries and
  failure isolation, writing per-cell heartbeat streams the SSE
  endpoint tails.  Job execution threads are bounded by
  ``max_concurrent_jobs``; excess jobs wait in the queue as
  ``queued``.
* **Persistence**: every state transition lands in the on-disk
  :class:`~repro.serve.index.JobIndex`.  :meth:`JobManager.resume`
  re-enqueues whatever was incomplete at the last shutdown — combined
  with the content-addressed cache, a restarted service fast-forwards
  through already-computed cells and finishes the remainder.
* **Diagnosis**: every finished job carries a doctor verdict
  (:func:`repro.obs.report.sweep_health` /
  :func:`~repro.obs.report.netlog_health`) so a client — or ``repro
  doctor`` pointed at the index file — sees deadlocked, leaky or
  drain-stalled cells without re-deriving the analysis.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.report import netlog_health, report_from_summary, sweep_health
from repro.serve.api import HttpError
from repro.serve.index import (
    DONE,
    FAILED,
    JOB_KIND,
    JOB_SCHEMA_VERSION,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    JobIndex,
)
from repro.sweep.cache import ResultCache
from repro.sweep.grid import GridSpec
from repro.sweep.runner import run_sweep

#: Job kinds accepted by ``POST /v1/jobs``.
GRID_JOB = "grid"
TRACE_JOB = "trace"


def _slim_row(row: Dict[str, object]) -> Dict[str, object]:
    """A job-document row: everything but the full run report.

    Artifacts stay in the result cache; the job carries each cell's
    content address (``key``) so clients fetch reports through
    ``GET /v1/results/{digest}``.
    """
    from repro.sweep.grid import CellSpec

    cell = row.get("cell")
    slim: Dict[str, object] = {
        "cell": CellSpec.from_dict(cell).cell_id if isinstance(cell, dict) else "?",
        "status": row.get("status"),
        "cached": bool(row.get("cached")),
        "attempts": row.get("attempts"),
        "key": row.get("key"),
    }
    if row.get("error"):
        slim["error"] = row["error"]
    return slim


class JobManager:
    """Submission, scheduling and persistence of characterization jobs.

    Parameters
    ----------
    state_dir:
        Service state root; holds ``jobs/`` (the index), ``traces/``
        (content-addressed uploads) and ``heartbeats/<job>/`` (per-job
        live streams).
    cache:
        The content-addressed sweep :class:`ResultCache` results are
        published to and served from.
    sweep_jobs:
        Worker processes *per grid job* (the ``run_sweep`` pool size).
    max_concurrent_jobs:
        Jobs executing at once; the rest wait as ``queued``.
    timeout / retries:
        Per-cell budgets forwarded to :func:`run_sweep`.
    max_cells:
        Upper bound on a submitted grid's expansion (validation cap).
    cell_fn:
        Replacement cell function (tests and the throughput benchmark
        inject deterministic/slow cells).
    """

    def __init__(
        self,
        state_dir: str,
        cache: ResultCache,
        sweep_jobs: int = 1,
        max_concurrent_jobs: int = 2,
        timeout: Optional[float] = None,
        retries: int = 1,
        max_cells: int = 64,
        cell_fn: Optional[Callable] = None,
    ) -> None:
        self.state_dir = str(state_dir)
        self.cache = cache
        self.sweep_jobs = sweep_jobs
        self.timeout = timeout
        self.retries = retries
        self.max_cells = max_cells
        self.cell_fn = cell_fn
        self.index = JobIndex(os.path.join(self.state_dir, "jobs"))
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrent_jobs, thread_name_prefix="serve-job"
        )
        self._lock = threading.Lock()
        #: digest -> job id for every queued/running job (single-flight).
        self._inflight: Dict[str, str] = {}
        self._cancel = threading.Event()
        #: Executions started, for observability and the CI smoke's
        #: "no recomputation" assertion (cache hits don't increment the
        #: per-job ``computed`` count anyway; this is the belt to that
        #: suspender).
        self.executions = 0

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def digest_for_grid(self, grid: GridSpec) -> str:
        return self.cache.key_for_doc({"serve": GRID_JOB, "spec": grid.as_dict()})

    def digest_for_trace(self, payload: bytes) -> str:
        sha = hashlib.sha256(payload).hexdigest()
        return self.cache.key_for_doc({"serve": TRACE_JOB, "sha256": sha})

    def submit_grid(
        self, grid_doc: Dict[str, object], client: str = "?"
    ) -> Tuple[Dict[str, object], bool]:
        """Validate and enqueue a grid job; returns ``(doc, coalesced)``.

        ``coalesced`` is True when an identical job was already in
        flight and this submission attached to it.
        """
        if not isinstance(grid_doc, dict):
            raise HttpError(400, "grid must be a JSON object")
        try:
            grid = GridSpec.from_dict(grid_doc)
            cells = grid.expand()
        except (ValueError, KeyError, TypeError) as error:
            raise HttpError(400, f"invalid grid spec: {error}")
        # Paths on this host are the service's to choose (it already
        # picks each job's heartbeat directory), never a client's.
        for name in ("log_spill", "heartbeat"):
            if getattr(grid.options, name, None) is not None:
                message = f"grid options may not set {name}: the service chooses paths"
                raise HttpError(400, message, field=name)
        if len(cells) > self.max_cells:
            raise HttpError(
                400,
                f"grid expands to {len(cells)} cells, over the service cap "
                f"of {self.max_cells}",
                cells=len(cells),
                limit=self.max_cells,
            )
        digest = self.digest_for_grid(grid)
        spec = {"grid": grid.as_dict()}
        extra = {"cells": len(cells)}
        return self._enqueue(GRID_JOB, digest, spec, client, extra)

    def submit_trace(
        self, payload: bytes, client: str = "?", label: str = "trace"
    ) -> Tuple[Dict[str, object], bool]:
        """Validate, store and enqueue an uploaded activity trace."""
        if not payload or not payload.strip():
            raise HttpError(400, "trace upload is empty")
        digest = self.digest_for_trace(payload)
        trace_path = os.path.join(self.state_dir, "traces", digest + ".csv")
        if not os.path.exists(trace_path):
            os.makedirs(os.path.dirname(trace_path), exist_ok=True)
            tmp = trace_path + f".{uuid.uuid4().hex[:8]}.tmp"
            with open(tmp, "wb") as handle:
                handle.write(payload)
            os.replace(tmp, trace_path)
        spec = {"trace_path": trace_path, "label": str(label)}
        return self._enqueue(TRACE_JOB, digest, spec, client, {})

    def _enqueue(
        self,
        kind: str,
        digest: str,
        spec: Dict[str, object],
        client: str,
        extra: Dict[str, object],
    ) -> Tuple[Dict[str, object], bool]:
        with self._lock:
            existing = self._inflight.get(digest)
            if existing is not None:
                doc = self.index.load(existing)
                if doc is not None and doc.get("state") not in TERMINAL_STATES:
                    doc["coalesced"] = int(doc.get("coalesced", 0)) + 1
                    self.index.save(doc)
                    return doc, True
                # Stale mapping (terminal or vanished doc): fall through.
                self._inflight.pop(digest, None)
            doc = {
                "schema": JOB_SCHEMA_VERSION,
                "kind": JOB_KIND,
                "job_kind": kind,
                "id": f"j{uuid.uuid4().hex[:12]}",
                "digest": digest,
                "spec": spec,
                "client": client,
                "state": QUEUED,
                "created": time.time(),
                "coalesced": 0,
            }
            doc.update(extra)
            self.index.save(doc)
            self._inflight[digest] = str(doc["id"])
        self._executor.submit(self._execute, str(doc["id"]))
        return doc, False

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[Dict[str, object]]:
        return self.index.load(job_id)

    def jobs(self) -> List[Dict[str, object]]:
        return self.index.all_jobs()

    def result_for(self, digest: str) -> Optional[Dict[str, object]]:
        return self.cache.get(digest)

    def heartbeat_dir(self, job_id: str) -> str:
        return os.path.join(self.state_dir, "heartbeats", job_id)

    # ------------------------------------------------------------------
    # execution (worker threads)
    # ------------------------------------------------------------------
    def _save(self, doc: Dict[str, object]) -> None:
        self.index.save(doc)

    def _finish(self, doc: Dict[str, object], state: str) -> None:
        doc["state"] = state
        doc["finished"] = time.time()
        with self._lock:
            if self._inflight.get(str(doc["digest"])) == doc["id"]:
                self._inflight.pop(str(doc["digest"]), None)
            self._save(doc)

    def _execute(self, job_id: str) -> None:
        doc = self.index.load(job_id)
        if doc is None or doc.get("state") in TERMINAL_STATES:
            return
        if self._cancel.is_set():
            return  # stays queued; resumed by the next start
        doc["state"] = RUNNING
        doc["started"] = time.time()
        self._save(doc)
        try:
            if doc.get("job_kind") == TRACE_JOB:
                self._run_trace(doc)
            else:
                self._run_grid(doc)
        except Exception as error:  # the job fails; the service lives on
            doc["error"] = f"{type(error).__name__}: {error}"
            self._finish(doc, FAILED)

    def _run_grid(self, doc: Dict[str, object]) -> None:
        grid = GridSpec.from_dict(doc["spec"]["grid"])  # type: ignore[index]
        total = len(grid.expand())

        def progress(row: Dict[str, object], done: int, _total: int) -> None:
            counts = doc.setdefault(
                "progress", {"done": 0, "computed": 0, "cached": 0, "failed": 0}
            )
            counts["done"] = done
            if row.get("status") == "ok":
                counts["cached" if row.get("cached") else "computed"] += 1
                if not row.get("cached"):
                    self.executions += 1
            else:
                counts["failed"] += 1
            counts["total"] = total
            self._save(doc)

        result = run_sweep(
            grid,
            jobs=self.sweep_jobs,
            cache=self.cache,
            timeout=self.timeout,
            retries=self.retries,
            cell_fn=self.cell_fn,
            on_progress=progress,
            heartbeat_dir=self.heartbeat_dir(str(doc["id"])),
            cancel_event=self._cancel,
        )
        if self._cancel.is_set() and len(result.rows) < total:
            # Interrupted by shutdown: back to the queue for resume.
            doc["state"] = QUEUED
            doc.pop("started", None)
            doc["note"] = "interrupted by shutdown; resumes on restart"
            with self._lock:
                self._save(doc)
            return
        rows = [_slim_row(row) for row in result.rows]
        lines, problems = sweep_health({"rows": result.rows})
        doc["result"] = {
            "cells": total,
            "computed": sum(1 for r in rows if r["status"] == "ok" and not r["cached"]),
            "cached": sum(1 for r in rows if r["status"] == "ok" and r["cached"]),
            "failed": sum(1 for r in rows if r["status"] != "ok"),
            "wall_seconds": result.wall_seconds,
            "rows": rows,
        }
        doc["health"] = {
            "verdict": "healthy" if not problems else "problems",
            "problems": problems,
            "lines": lines,
        }
        self._finish(doc, DONE if not result.failures else FAILED)

    def _run_trace(self, doc: Dict[str, object]) -> None:
        from repro.mesh.netlog import NetworkLog

        digest = str(doc["digest"])
        cached = self.cache.get(digest)
        if cached is None:
            started = time.perf_counter()
            log = NetworkLog.read_csv(str(doc["spec"]["trace_path"]))  # type: ignore[index]
            stats = log.summary()
            report = report_from_summary(
                stats,
                app=str(doc["spec"].get("label", "trace")),  # type: ignore[union-attr]
                strategy="uploaded-trace",
                mesh="n/a",
                wall_seconds=time.perf_counter() - started,
                extra={"source": "serve-trace"},
            )
            self.cache.put(digest, report.as_dict())
            self.executions += 1
            lines, problems = netlog_health(stats)
            doc["result"] = {"key": digest, "cached": False}
        else:
            lines, problems = (["report served from cache"], 0)
            doc["result"] = {"key": digest, "cached": True}
        doc["health"] = {
            "verdict": "healthy" if not problems else "problems",
            "problems": problems,
            "lines": lines,
        }
        self._finish(doc, DONE)

    # ------------------------------------------------------------------
    # restart / shutdown
    # ------------------------------------------------------------------
    def resume(self) -> int:
        """Re-enqueue every job left incomplete by the last shutdown."""
        resumed = 0
        for doc in self.index.incomplete():
            with self._lock:
                doc["state"] = QUEUED
                doc.pop("started", None)
                self._save(doc)
                self._inflight[str(doc["digest"])] = str(doc["id"])
            self._executor.submit(self._execute, str(doc["id"]))
            resumed += 1
        return resumed

    def shutdown(self, wait: bool = True) -> None:
        """Stop executing: running sweeps are cancelled (their jobs
        revert to ``queued`` for the next start), queued jobs stay
        queued."""
        self._cancel.set()
        self._executor.shutdown(wait=wait, cancel_futures=True)
