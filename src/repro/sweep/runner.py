"""Parallel sweep execution: worker pool, timeouts, retries, isolation.

:func:`run_sweep` takes an expanded grid and executes every cell that
is not already in the result cache, on a
:class:`concurrent.futures.ProcessPoolExecutor` when ``jobs > 1`` or
inline when ``jobs == 1``.  Cells are isolated: a cell that raises,
hangs or kills its worker process becomes a structured failure row —
after its bounded retries are exhausted — and the sweep continues.

Timeouts are enforced *inside* the worker with an interval timer
(``SIGALRM``), so a hung cell raises :class:`CellTimeoutError` through
the normal future path and the worker slot is reclaimed immediately.
A supervisor-side deadline (twice the timeout plus a grace period)
backstops cells the alarm cannot interrupt (e.g. stuck in C code); a
worker abandoned that way poisons the pool, whose workers are killed
once the sweep drains.

Per-cell seeding is deterministic: each cell derives an independent
root from :meth:`~repro.sweep.grid.CellSpec.seed_sequence`
(``np.random.SeedSequence``), and the synthetic generator spawns one
child stream per source from it — results are reproducible cell by
cell regardless of worker scheduling.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps import SHARED_MEMORY_APPS, create_app
from repro.coherence.config import CoherenceConfig
from repro.core.loadsweep import measure_load_point
from repro.core.options import RunOptions
from repro.core.run import run_dynamic, run_pattern, run_static
from repro.obs.heartbeat import HEARTBEAT_SUFFIX, safe_label, write_status_record
from repro.obs.report import report_from_summary
from repro.sweep.aggregate import SweepResult
from repro.sweep.cache import ResultCache
from repro.sweep.grid import NO_PROTOCOL, CellSpec, GridSpec

#: A cell function maps a cell-spec dict to a run-report dict.  The
#: default is :func:`execute_cell`; tests inject failing/hanging ones.
#: When the sweep runs with ``heartbeat_dir``, the function is called
#: with an extra ``heartbeat=<path>`` keyword (the per-cell stream).
CellFunction = Callable[[Dict[str, object]], Dict[str, object]]

#: Extra supervisor-side wait beyond ``2 * timeout`` before a cell is
#: declared hung despite the in-worker alarm.
_DEADLINE_GRACE = 5.0


class CellTimeoutError(Exception):
    """A cell exceeded its wall-clock budget."""


def _classify_failure(error: BaseException) -> Tuple[str, str, List[str]]:
    """Map a cell exception to ``(status, message, failure_log)``.

    Deadlocked and leaky simulations get their own statuses so a sweep
    over thousands of unattended cells reports *diagnosed* failures;
    the wait-for cycle / leak audit carried in the exception message
    becomes the row's ``failure_log``.  Matching is by exception name,
    which survives worker-pool pickling of exception subclasses.
    """
    name = type(error).__name__
    if name == "DeadlockError":
        status = "deadlock"
    elif name in ("FacilityLeakError", "StallError"):
        status = "leak" if name == "FacilityLeakError" else "stall"
    else:
        status = "error"
    message = f"{name}: {error}"
    failure_log = [line for line in str(error).splitlines() if line]
    return status, message, failure_log


def _raise_timeout(signum, frame):  # pragma: no cover - signal context
    raise CellTimeoutError()


def _invoke(
    fn: CellFunction,
    spec_doc: Dict[str, object],
    timeout: Optional[float],
    heartbeat: Optional[str] = None,
):
    """Run ``fn`` under an interval-timer timeout (worker entry point).

    Module-level so it pickles into pool workers.  Falls back to no
    in-worker enforcement on platforms without ``SIGALRM`` (the
    supervisor deadline still applies).  ``heartbeat`` (a per-cell
    stream path, *not* part of the cell's cache identity) is forwarded
    as a keyword only when set, so plain single-argument cell functions
    keep working on heartbeat-less sweeps.
    """

    def call():
        if heartbeat is not None:
            return fn(spec_doc, heartbeat=heartbeat)
        return fn(spec_doc)

    if not timeout or not hasattr(signal, "SIGALRM"):
        return call()
    if threading.current_thread() is not threading.main_thread():
        # signal.signal/setitimer raise ValueError off the main thread
        # (embedders run cells on worker threads); fall back to no
        # in-worker enforcement — the supervisor deadline still applies.
        return call()
    previous_handler = signal.signal(signal.SIGALRM, _raise_timeout)
    armed_at = time.monotonic()
    prev_delay, prev_interval = signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous_handler)
        if prev_delay:
            # Re-arm whatever itimer our caller had running rather than
            # silently zeroing it; if it expired while ours was armed,
            # fire it (almost) immediately under the restored handler.
            remaining = prev_delay - (time.monotonic() - armed_at)
            signal.setitimer(
                signal.ITIMER_REAL, max(remaining, 1e-6), prev_interval
            )


def execute_cell(
    spec_doc: Dict[str, object], heartbeat: Optional[str] = None
) -> Dict[str, object]:
    """Execute one grid cell end to end; returns a run-report dict.

    Characterizes the cell's application on its mesh (with the cell's
    coherence protocol for shared-memory apps), then drives the same
    mesh with synthetic traffic at the cell's rate scale and reports
    the synthetic run in the versioned run-report schema
    (:mod:`repro.obs.report`), with the load-point measurements in
    ``extra``.

    ``heartbeat`` is the cell's heartbeat stream (see
    :func:`_cell_options` for how it and ``log_spill`` are overlaid).

    Pattern cells (``spec.pattern`` set) skip characterization entirely
    and drive the mesh with the named synthetic pattern instead.
    """
    spec = CellSpec.from_dict(spec_doc)
    run_options = _cell_options(spec, heartbeat)
    if spec.pattern is not None:
        return _execute_pattern_cell(spec, run_options)
    started = time.perf_counter()
    mesh = spec.mesh_config()
    app = create_app(spec.app, **spec.params_dict)
    if spec.app in SHARED_MEMORY_APPS:
        coherence = (
            CoherenceConfig(protocol=spec.protocol)
            if spec.protocol != NO_PROTOCOL
            else None
        )
        run = run_dynamic(
            app, mesh_config=mesh, coherence_config=coherence, options=run_options
        )
    else:
        run = run_static(app, mesh_config=mesh, options=run_options)
    cell_seed = int(spec.seed_sequence().generate_state(1)[0])
    measurement = measure_load_point(
        run.characterization,
        mesh_config=mesh,
        rate_scale=spec.rate_scale,
        messages_per_source=spec.messages_per_source,
        seed=cell_seed,
        options=run_options,
    )
    point = measurement.point
    # One summary pass serves both the extra fields and the report --
    # and works unchanged when the log is a streaming (spilled) one.
    stats = measurement.log.summary()
    report = report_from_summary(
        stats,
        app=spec.app,
        strategy=run.characterization.strategy,
        mesh=spec.mesh,
        params=spec.params_dict,
        wall_seconds=time.perf_counter() - started,
        extra={
            "source": "sweep",
            "protocol": spec.protocol,
            "options": spec.options.as_dict() if spec.options is not None else None,
            "rate_scale": spec.rate_scale,
            "seed": spec.seed,
            "cell_seed": cell_seed,
            "requested_rate": point.requested_rate,
            "achieved_rate": point.achieved_rate,
            "offered_rate": stats.offered_rate,
            "efficiency": point.efficiency,
        },
    )
    return report.as_dict()


def _cell_options(spec: CellSpec, heartbeat: Optional[str]) -> RunOptions:
    """The cell's options for this execution only.

    ``heartbeat`` (the supervisor's ``--heartbeat-dir`` stream for the
    cell) is overlaid as the bundle's heartbeat, and a ``log_spill``
    directory becomes a per-cell subdirectory named from the cell id,
    so cells sharing one spill directory never overwrite each other's
    segments.  Neither overlay enters the report's recorded
    ``options`` or the cache key: where a sweep was watched or spilled
    must not re-key its results.
    """
    options = spec.options or RunOptions()
    if heartbeat is not None:
        options = options.with_(heartbeat=heartbeat)
    if options.log_spill is not None:
        options = options.with_(
            log_spill=os.path.join(options.log_spill, safe_label(spec.cell_id))
        )
    return options


def _execute_pattern_cell(spec: CellSpec, options: RunOptions) -> Dict[str, object]:
    """Execute a synthetic-pattern cell; returns a run-report dict.

    Replays the cell's pattern on its mesh with :func:`run_pattern`
    (closed-loop per-source Poisson schedules, dims-aware for
    mesh/torus specs) under ``options``, drawn from the cell's seed;
    ``rate_scale`` scales the offered load by shrinking the mean
    inter-injection gap.  The report uses the pattern name as both
    ``app`` and ``strategy`` axis values, so topology x pattern x load
    comparison tables line up with application rows.
    """
    started = time.perf_counter()
    cell_seed = int(spec.seed_sequence().generate_state(1)[0])
    mean_gap = 10.0 / spec.rate_scale
    log = run_pattern(
        spec.mesh_config(),
        pattern=spec.pattern,
        messages_per_source=spec.messages_per_source,
        seed=cell_seed,
        mean_gap=mean_gap,
        options=options,
    ).log
    stats = log.summary()
    report = report_from_summary(
        stats,
        app=spec.pattern,
        strategy="pattern",
        mesh=spec.mesh,
        params=spec.params_dict,
        wall_seconds=time.perf_counter() - started,
        extra={
            "source": "sweep",
            "pattern": spec.pattern,
            "protocol": spec.protocol,
            "options": spec.options.as_dict() if spec.options is not None else None,
            "rate_scale": spec.rate_scale,
            "seed": spec.seed,
            "cell_seed": cell_seed,
            "mean_gap": mean_gap,
            "offered_rate": stats.offered_rate,
        },
    )
    return report.as_dict()


def _ok_row(
    spec: CellSpec,
    key: Optional[str],
    report: Dict[str, object],
    cached: bool,
    attempts: int,
) -> Dict[str, object]:
    return {
        "status": "ok",
        "cached": cached,
        "attempts": attempts,
        "cell": spec.as_dict(),
        "key": key,
        "report": report,
    }


def _failure_row(
    spec: CellSpec,
    key: Optional[str],
    status: str,
    message: str,
    attempts: int,
    failure_log: Optional[List[str]] = None,
) -> Dict[str, object]:
    row: Dict[str, object] = {
        "status": status,
        "cached": False,
        "attempts": attempts,
        "cell": spec.as_dict(),
        "key": key,
        "error": message,
    }
    if failure_log:
        row["failure_log"] = list(failure_log)
    return row


def run_sweep(
    grid: GridSpec,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    backoff: float = 0.25,
    cell_fn: Optional[CellFunction] = None,
    on_progress: Optional[Callable[[Dict[str, object], int, int], None]] = None,
    heartbeat_dir: Optional[str] = None,
    cancel_event: Optional["threading.Event"] = None,
) -> SweepResult:
    """Execute every cell of ``grid``; never raises for cell failures.

    Parameters
    ----------
    grid:
        The declarative grid to expand and run.
    jobs:
        Worker processes (1 = inline in this process).
    cache:
        Optional :class:`~repro.sweep.cache.ResultCache`; hits skip
        execution, successful cells are stored back.
    timeout:
        Per-attempt wall-clock budget in seconds (None = unlimited).
    retries:
        Extra attempts after a failed, timed-out or crashed one
        (bounded).
    backoff:
        Base delay before retry ``k`` (grows as ``backoff * 2**(k-1)``).
    cell_fn:
        Replacement cell function (fault injection in tests); must be
        picklable when ``jobs > 1`` and accept a ``heartbeat=`` keyword
        when ``heartbeat_dir`` is used.
    on_progress:
        Called as ``on_progress(row, done, total)`` when a cell settles.
    heartbeat_dir:
        Directory receiving one JSONL heartbeat stream per cell (for
        ``repro watch``).  Purely observational: it crosses the worker
        boundary as an out-of-band keyword and never enters a cell's
        cache key, so watched and unwatched sweeps share results.
        Cells that never run a kernel here still get a record — fresh
        ``pending`` streams up front, ``cached`` on cache hits, and an
        appended ``failed`` record when retries are exhausted — so the
        fleet table always shows the whole grid.
    cancel_event:
        A :class:`threading.Event` that, once set, stops the sweep at
        the next cell boundary: no new cells start, in-flight pool
        futures are cancelled or abandoned, and the partial
        :class:`SweepResult` holds only the cells that settled.  The
        long-running service uses this for graceful shutdown — the
        cache makes re-running the settled cells free, so a cancelled
        sweep resumes where it left off.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    fn = cell_fn or execute_cell
    cells = grid.expand()
    heartbeats = _heartbeat_paths(cells, heartbeat_dir)
    rows: List[Optional[Dict[str, object]]] = [None] * len(cells)
    pending: List[Tuple[int, CellSpec, Optional[str]]] = []
    started = time.perf_counter()
    done_count = 0

    def settle(index: int, row: Dict[str, object]) -> None:
        nonlocal done_count
        rows[index] = row
        done_count += 1
        if on_progress is not None:
            on_progress(row, done_count, len(cells))

    for index, spec in enumerate(cells):
        key = cache.key_for(spec.canonical_json()) if cache else None
        if cache is not None:
            doc = cache.get(key)
            if doc is not None:
                if heartbeats is not None:
                    write_status_record(heartbeats[index], spec.cell_id, "cached")
                settle(index, _ok_row(spec, key, doc, cached=True, attempts=0))
                continue
        if heartbeats is not None:
            write_status_record(heartbeats[index], spec.cell_id, "pending")
        pending.append((index, spec, key))

    def record_success(index, spec, key, report, attempts):
        if cache is not None and key is not None:
            cache.put(key, report)
        settle(index, _ok_row(spec, key, report, cached=False, attempts=attempts))

    def record_failure(index, spec, key, status, message, attempts, failure_log=None):
        if heartbeats is not None:
            # The worker may have died without a terminal record (or
            # never started); append so its partial stream survives.
            write_status_record(
                heartbeats[index], spec.cell_id, "failed", error=message, append=True
            )
        settle(
            index, _failure_row(spec, key, status, message, attempts, failure_log)
        )

    def heartbeat_for(index: int) -> Optional[str]:
        return heartbeats[index] if heartbeats is not None else None

    cancelled = cancel_event.is_set if cancel_event is not None else (lambda: False)
    if jobs == 1 or len(pending) <= 1:
        for index, spec, key in pending:
            if cancelled():
                break
            attempt = 0
            while True:
                attempt += 1
                try:
                    report = _invoke(
                        fn, spec.as_dict(), timeout, heartbeat=heartbeat_for(index)
                    )
                except CellTimeoutError:
                    status, message = "timeout", f"cell exceeded {timeout:g}s"
                    failure_log: List[str] = []
                except Exception as error:
                    status, message, failure_log = _classify_failure(error)
                else:
                    record_success(index, spec, key, report, attempt)
                    break
                if attempt > retries or cancelled():
                    record_failure(
                        index, spec, key, status, message, attempt, failure_log
                    )
                    break
                time.sleep(backoff * 2 ** (attempt - 1))
    else:
        _run_pool(
            pending,
            fn,
            jobs,
            timeout,
            retries,
            backoff,
            record_success,
            record_failure,
            heartbeat_for,
            cancelled,
        )

    return SweepResult(
        grid=grid.as_dict(),
        rows=[row for row in rows if row is not None],
        wall_seconds=time.perf_counter() - started,
        jobs=jobs,
        cache_hits=cache.hits if cache else 0,
        cache_misses=cache.misses if cache else 0,
        cache_enabled=cache is not None,
        cache_dir=cache.root if cache else None,
    )


def _heartbeat_paths(
    cells: List[CellSpec], heartbeat_dir: Optional[str]
) -> Optional[List[str]]:
    """One stream path per cell (collision-numbered sanitized labels)."""
    if heartbeat_dir is None:
        return None
    os.makedirs(heartbeat_dir, exist_ok=True)
    paths: List[str] = []
    used: Dict[str, int] = {}
    for spec in cells:
        stem = safe_label(spec.cell_id)
        count = used.get(stem, 0)
        used[stem] = count + 1
        if count:
            stem = f"{stem}.{count}"
        paths.append(os.path.join(heartbeat_dir, stem + HEARTBEAT_SUFFIX))
    return paths


def _describe_exit(code: int) -> str:
    if code < 0:
        try:
            return f"killed by {signal.Signals(-code).name}"
        except ValueError:
            return f"killed by signal {-code}"
    return f"exited with code {code}"


def _shut_down_broken(executor: ProcessPoolExecutor) -> str:
    """Shut down a pool a dead worker broke; says how its workers died.

    Once shut down, every future the pool held has settled: with its
    result if it finished before the crash, else with
    :class:`BrokenProcessPool`.  The pool SIGTERMs its surviving workers
    when one dies, so those exits are left out of the description
    unless nothing else explains the crash.
    """
    processes = list((getattr(executor, "_processes", None) or {}).values())
    executor.shutdown(wait=True)
    codes = [p.exitcode for p in processes if p.exitcode]
    named = [code for code in codes if code != -signal.SIGTERM] or codes
    if not named:
        return "a worker process died"
    return "worker process " + ", ".join(_describe_exit(code) for code in named)


def _run_pool(
    pending, fn, jobs, timeout, retries, backoff, record_success, record_failure,
    heartbeat_for=lambda index: None, cancelled=lambda: False,
) -> None:
    """Pool execution with supervisor-side retry queue and deadlines.

    At most ``jobs`` cells are in flight, so a cell's deadline starts
    when a worker is free to take it.  A worker that dies (SIGKILL from
    the OOM killer, a segfault) breaks the whole pool: the pool is
    rebuilt, every cell that was in flight is charged a ``crashed``
    attempt, and each of their retries runs alone, so a crash that
    repeats is charged to the cell that causes it.  Cells settled
    before the crash keep their rows and cache entries.
    """
    deadline_budget = (2.0 * timeout + _DEADLINE_GRACE) if timeout else None
    executor = ProcessPoolExecutor(max_workers=jobs)
    # future -> (index, spec, key, attempt, deadline, alone)
    futures: Dict[Future, Tuple[int, CellSpec, Optional[str], int, Optional[float], bool]] = {}
    # (ready_at, index, spec, key, attempt, alone), in submission order.
    queue: List[Tuple[float, int, CellSpec, Optional[str], int, bool]] = [
        (0.0, index, spec, key, 1, False) for index, spec, key in pending
    ]
    abandoned = False

    def next_due(now: float) -> Optional[int]:
        """Position in ``queue`` of the next cell to start, or None: no
        free worker, nothing due, or a lone retry waiting for the pool
        to drain (nothing starts past it, so it cannot starve)."""
        if len(futures) >= jobs or any(meta[5] for meta in futures.values()):
            return None
        for position, entry in enumerate(queue):
            if entry[0] <= now:
                return None if entry[5] and futures else position
        return None

    def submit(index, spec, key, attempt, alone):
        future = executor.submit(
            _invoke, fn, spec.as_dict(), timeout, heartbeat_for(index)
        )
        deadline = (
            time.monotonic() + deadline_budget if deadline_budget is not None else None
        )
        futures[future] = (index, spec, key, attempt, deadline, alone)

    try:
        while futures or queue:
            if cancelled():
                # Graceful stop: drop unstarted work on the floor (the
                # caller's cache-backed resume re-runs it for free) and
                # kill the pool rather than wait for cells in flight.
                for future in list(futures):
                    future.cancel()
                abandoned = True
                break
            now = time.monotonic()
            # A worker can also die between cells; the pool then refuses
            # the next submission.
            broken = False
            position = next_due(now)
            while position is not None:
                try:
                    submit(*queue[position][1:])
                except BrokenProcessPool:
                    broken = True
                    break
                del queue[position]
                position = next_due(now)
            if not (futures or broken):
                time.sleep(min(0.05, backoff))
                continue
            done = set()
            if not broken:
                done, _ = wait(
                    set(futures), timeout=0.1, return_when=FIRST_COMPLETED
                )
                broken = any(
                    not future.cancelled()
                    and isinstance(future.exception(), BrokenProcessPool)
                    for future in done
                )
            crash = None
            if broken:
                crash = _shut_down_broken(executor)
                executor = ProcessPoolExecutor(max_workers=jobs)
                done = set(futures)
            now = time.monotonic()
            for future in done:
                index, spec, key, attempt, _, _ = futures.pop(future)
                alone = False
                try:
                    report = future.result()
                except BrokenProcessPool:
                    status = "crashed"
                    message = f"{crash} while the cell was in flight"
                    failure_log: List[str] = []
                    alone = True
                except CellTimeoutError:
                    status, message = "timeout", f"cell exceeded {timeout:g}s"
                    failure_log = []
                except BaseException as error:
                    status, message, failure_log = _classify_failure(error)
                else:
                    record_success(index, spec, key, report, attempt)
                    continue
                if attempt <= retries:
                    queue.append(
                        (
                            now + backoff * 2 ** (attempt - 1),
                            index,
                            spec,
                            key,
                            attempt + 1,
                            alone,
                        )
                    )
                else:
                    record_failure(
                        index, spec, key, status, message, attempt, failure_log
                    )
            # Backstop: a worker the alarm could not interrupt.  Its
            # slot is lost (the pool shrinks), so no retry; the sweep
            # keeps draining and the pool is killed at the end.
            for future, meta in list(futures.items()):
                index, spec, key, attempt, deadline, _ = meta
                if deadline is not None and now > deadline:
                    del futures[future]
                    abandoned = True
                    record_failure(
                        index,
                        spec,
                        key,
                        "timeout",
                        f"cell unresponsive past {deadline_budget:g}s; worker abandoned",
                        attempt,
                    )
    finally:
        if abandoned:
            # A worker may be stuck where no alarm reaches it: kill the
            # workers first, so waiting for the pool cannot block.
            for process in list((getattr(executor, "_processes", None) or {}).values()):
                try:
                    process.terminate()
                except Exception:  # pragma: no cover - defensive
                    pass
        executor.shutdown(wait=True, cancel_futures=True)
