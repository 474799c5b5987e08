"""Command-line interface to the characterization methodology.

Usage (via ``python -m repro``):

.. code-block:: console

    $ python -m repro apps
    $ python -m repro characterize 1d-fft --param n=256 --mesh 4x2
    $ python -m repro characterize mg --param n=32 --param cycles=2
    $ python -m repro characterize 1d-fft --param n=256 \
          --metrics m.json --timeline t.json --report r.json
    $ python -m repro characterize 1d-fft --max-no-progress 100000
    $ python -m repro metrics m.json
    $ python -m repro validate 1d-fft --messages 200
    $ python -m repro sp2-model 1024
    $ python -m repro sweep run --app 1d-fft --app is \
          --mesh 4x2 --mesh 4x4:torus --rate-scale 1 --rate-scale 4 \
          --jobs 4 --timeout 120
    $ python -m repro sweep status --app 1d-fft --mesh 4x2
    $ python -m repro sweep report sweep.json --value achieved_rate
    $ python -m repro doctor sweep.json
    $ python -m repro doctor run-log.csv.gz
    $ python -m repro characterize 1d-fft --param n=256 --log-npz log.npz
    $ python -m repro doctor log.npz
    $ python -m repro drive --mesh 4x4x2:torus --pattern tornado \
          --messages 200 --log-spill /tmp/run

``characterize`` runs the right strategy for the application (dynamic
for shared memory, static for message passing), prints the
three-attribute report, and can persist the network activity log as
CSV (``--log-csv``, for external analysis) or as a compressed columnar
``.npz`` (``--log-npz``, the fast binary path for sweep-scale logs).  ``--metrics`` turns on the observability
layer and writes every counter/gauge/histogram/time-series to JSON;
``--timeline`` writes a Chrome trace-event file loadable in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``; ``--report`` writes
the machine-readable run report the benchmark suite also emits.
``metrics`` summarizes a previously written metrics JSON.

``characterize``, ``validate`` and the ``sweep`` grid commands share
one simulation-kernel flag group: ``--max-no-progress N`` arms the
no-progress watchdog and ``--sample-interval T`` turns on live
telemetry.  For sweeps the flags enter every cell's
:class:`~repro.core.options.RunOptions` and therefore its cache key;
with ``--grid FILE`` they override only the fields they set in the
file's bundle.

``drive`` replays a pre-drawn pattern workload (any registered
pattern: uniform, tornado, transpose, hotspot, ...) on the mesh and
prints its message count, final clock and event count; with
``--log-spill`` it writes a ``netlog-spill`` manifest that ``doctor``
and the characterize readers understand.

``sweep`` runs declarative experiment grids (app x mesh x protocol x
rate-scale x seed) on a worker pool with per-cell timeouts, bounded
retries and a content-addressed result cache — see
:mod:`repro.sweep`.  ``sweep status`` shows cached vs pending cells;
``sweep report`` re-renders a saved sweep report.

``doctor`` inspects a saved artifact — an activity-log CSV, a run
report, a sweep report, a heartbeat stream, or a serve-job index
document — and flags failure signatures: deadlocked or leaking sweep
cells (with their wait-for cycle from ``failure_log``), leaked
facility servers in a run report's metrics, and drain-dominated
activity logs where offered rate and throughput diverge.  Exit code 1
when problems are found.

``serve`` runs the long-lived characterization service: an asyncio
HTTP API (``POST /v1/jobs``, SSE progress streams, cached results by
content address) over the sweep worker pool and result cache — see
:mod:`repro.serve`.  ``sweep cache gc`` prunes that shared cache by
age and/or total size (``--dry-run`` lists the victims first), and
``watch --url`` tails a served job's SSE stream from anywhere.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.apps import MESSAGE_PASSING_APPS, SHARED_MEMORY_APPS, create_app
from repro.core import (
    RunOptions,
    SyntheticTrafficGenerator,
    characterize_message_passing,
    characterize_shared_memory,
    compare_logs,
)
from repro.core.report import spatial_table, temporal_table, volume_table
from repro.mesh import MeshConfig, registered_patterns
from repro.mp.sp2 import SP2Config
from repro.obs import load_metrics, report_from_run, summarize_metrics
from repro.simkernel import SimulationError


def _parse_params(entries: Sequence[str]) -> Dict[str, object]:
    """Turn ``["n=256", "density=0.2"]`` into typed kwargs."""
    params: Dict[str, object] = {}
    for entry in entries:
        if "=" not in entry:
            raise ValueError(f"--param expects key=value, got {entry!r}")
        key, raw = entry.split("=", 1)
        try:
            value: object = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        params[key] = value
    return params


def _parse_mesh(spec: str) -> MeshConfig:
    """Turn ``"4x2"`` (optionally ``"4x2:torus"``) into a MeshConfig.

    Delegates to :meth:`MeshConfig.parse`, which rejects malformed
    specs, non-positive dimensions (``"0x4"``) and unknown topology
    suffixes with a spec-level message.
    """
    return MeshConfig.parse(spec)


def _kernel_options_from_args(
    args: argparse.Namespace, metrics: bool = False, timeline: bool = False
) -> Optional[RunOptions]:
    """A RunOptions bundle from the shared instrumentation flags.

    Returns None when every knob is at its default, so call sites that
    content-address on the bundle (sweep cache keys) stay stable for
    flag-free invocations.  A flag given without its partner (say
    ``--log-spill-window`` without ``--log-spill``) still builds the
    bundle, whose validation rejects it.
    """
    max_no_progress = getattr(args, "max_no_progress", None)
    sample_interval = getattr(args, "sample_interval", None)
    heartbeat = getattr(args, "heartbeat", None)
    log_spill = getattr(args, "log_spill", None)
    log_spill_window = getattr(args, "log_spill_window", None)
    if not (
        metrics
        or timeline
        or max_no_progress
        or sample_interval
        or heartbeat
        or log_spill
        or log_spill_window is not None
    ):
        return None
    return RunOptions(
        metrics=metrics,
        timeline=timeline,
        max_no_progress_events=max_no_progress,
        sample_interval=sample_interval,
        heartbeat=heartbeat,
        log_spill=log_spill,
        log_spill_window=log_spill_window,
    )


def _run_characterization(
    name: str,
    params: Dict[str, object],
    mesh: MeshConfig,
    options: Optional[RunOptions] = None,
):
    app = create_app(name, **params)
    if name in SHARED_MEMORY_APPS:
        return characterize_shared_memory(app, mesh_config=mesh, options=options)
    return characterize_message_passing(app, mesh_config=mesh, options=options)


def cmd_apps(_: argparse.Namespace) -> int:
    """List the application suite."""
    print("shared memory (dynamic strategy):")
    for name in SHARED_MEMORY_APPS:
        print(f"  {name}")
    print("message passing (static strategy):")
    for name in MESSAGE_PASSING_APPS:
        print(f"  {name}")
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    """Run one application through the methodology and report."""
    params = _parse_params(args.param)
    mesh = _parse_mesh(args.mesh)
    if (args.live_series or args.openmetrics) and args.sample_interval is None:
        # The exports need windows; fall back to the default cadence.
        from repro.obs.live import DEFAULT_SAMPLE_INTERVAL

        args.sample_interval = DEFAULT_SAMPLE_INTERVAL
    options = _kernel_options_from_args(
        args,
        metrics=bool(args.metrics or args.report),
        timeline=bool(args.timeline),
    )
    started = time.perf_counter()
    run = _run_characterization(args.app, params, mesh, options=options)
    wall_seconds = time.perf_counter() - started
    characterization = run.characterization
    print(characterization.describe())
    print()
    print(temporal_table([characterization]))
    print()
    print(spatial_table(characterization))
    print()
    print(volume_table(characterization))
    if args.log_spill:
        manifest = run.log.finalize()
        print(
            f"\nactivity log spilled to {run.log.segment_count} segment(s); "
            f"manifest at {manifest} (inspect with repro doctor)"
        )
    if args.log_csv:
        run.log.write_csv(args.log_csv)
        print(f"\nactivity log written to {args.log_csv}")
    if args.log_npz:
        written = run.log.write_npz(args.log_npz)
        print(f"\nactivity log written to {written} (columnar npz)")
    if args.metrics:
        run.registry.write_json(
            args.metrics,
            extra={"app": args.app, "mesh": args.mesh, "params": params},
        )
        print(f"metrics written to {args.metrics}")
    if args.timeline:
        run.timeline.write(args.timeline)
        print(f"timeline written to {args.timeline} (load in ui.perfetto.dev)")
    if args.report:
        report = report_from_run(
            run, app_params=params, wall_seconds=wall_seconds, metrics=run.metrics
        )
        report.write_json(args.report)
        print(f"run report written to {args.report}")
    if args.live_series:
        run.live.write_jsonl(args.live_series)
        print(
            f"live series written to {args.live_series} "
            f"({len(run.live)} window(s))"
        )
    if args.openmetrics:
        run.live.write_openmetrics(args.openmetrics)
        print(f"OpenMetrics exposition written to {args.openmetrics}")
    if args.heartbeat:
        print(f"heartbeat stream at {args.heartbeat} (inspect with repro watch)")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Summarize a metrics JSON written by ``characterize --metrics``."""
    metrics = load_metrics(args.path)
    print(summarize_metrics(metrics))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Characterize, synthesize, and compare against the original."""
    params = _parse_params(args.param)
    mesh = _parse_mesh(args.mesh)
    options = _kernel_options_from_args(args)
    run = _run_characterization(args.app, params, mesh, options=options)
    generator = SyntheticTrafficGenerator(
        run.characterization, mesh_config=mesh, seed=args.seed, options=options
    )
    synthetic = generator.generate(messages_per_source=args.messages)
    report = compare_logs(run.log, synthetic)
    print(report.describe())
    print(f"acceptable: {report.acceptable()}")
    return 0 if report.acceptable() else 1


def _grid_from_args(args: argparse.Namespace):
    """Build a GridSpec from ``--grid FILE`` or the inline axis flags."""
    from repro.sweep import GridSpec, make_grid

    cli_options = _kernel_options_from_args(args)
    if args.grid:
        grid = GridSpec.from_json_file(args.grid)
        if cli_options is not None:
            # Kernel flags override only the fields they set in the
            # grid file's bundle.
            from dataclasses import replace

            base = grid.options or RunOptions()
            overrides: Dict[str, object] = {}
            if cli_options.max_no_progress_events is not None:
                overrides["max_no_progress_events"] = cli_options.max_no_progress_events
            if cli_options.sample_interval is not None:
                overrides["sample_interval"] = cli_options.sample_interval
            grid = replace(grid, options=base.with_(**overrides))
        return grid
    patterns = getattr(args, "pattern", None) or ()
    if not args.app and not patterns:
        raise ValueError(
            "sweep needs --grid FILE or at least one --app or --pattern"
        )
    app_params: Dict[str, Dict[str, object]] = {}
    for entry in args.param:
        scope = None
        key_part = entry.split("=", 1)[0]
        if ":" in key_part:
            scope, entry = entry.split(":", 1)
            if scope not in args.app:
                raise ValueError(
                    f"--param scope {scope!r} is not one of the swept apps {args.app}"
                )
        parsed = _parse_params([entry])
        for app in [scope] if scope else args.app:
            app_params.setdefault(app, {}).update(parsed)
    from repro.sweep.grid import DEFAULT_APP_PARAMS

    for app, overrides in app_params.items():
        merged = dict(DEFAULT_APP_PARAMS.get(app, {}))
        merged.update(overrides)
        app_params[app] = merged
    return make_grid(
        apps=args.app,
        app_params=app_params or None,
        meshes=args.mesh or ("4x2",),
        protocols=args.protocol or ("invalidate",),
        rate_scales=args.rate_scale or (1.0,),
        seeds=args.seed or (0,),
        messages_per_source=args.messages,
        options=cli_options,
        patterns=patterns,
    )


def _sweep_cache(args: argparse.Namespace):
    from repro.sweep import ResultCache

    if getattr(args, "no_cache", False):
        return None
    return ResultCache(args.cache_dir)


def _humanize_seconds(seconds: float) -> str:
    """``95`` -> ``"1m35s"``; seconds under a minute keep one decimal."""
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    hours, minutes = divmod(minutes, 60)
    if hours:
        return f"{hours}h{minutes:02d}m"
    return f"{minutes}m{secs:02d}s"


def cmd_sweep_run(args: argparse.Namespace) -> int:
    """Run an experiment grid on a worker pool, cache-backed."""
    from repro.sweep import run_sweep

    grid = _grid_from_args(args)
    cache = _sweep_cache(args)
    progress_started = time.perf_counter()
    counts = {"cached": 0, "computed": 0, "failed": 0}
    computed_walls: List[float] = []

    def progress(row: Dict[str, object], done: int, total: int) -> None:
        from repro.sweep import CellSpec

        spec = CellSpec.from_dict(row["cell"])
        if row["status"] == "ok":
            tag = "cached" if row["cached"] else "ok"
            counts["cached" if row["cached"] else "computed"] += 1
            if not row["cached"]:
                wall = (row.get("report") or {}).get("wall_seconds")
                if isinstance(wall, (int, float)) and wall > 0:
                    computed_walls.append(float(wall))
        else:
            tag = row["status"]
            counts["failed"] += 1
        elapsed = time.perf_counter() - progress_started
        rate = done / elapsed if elapsed > 0 else 0.0
        note = f"{counts['cached']} cached, {counts['computed']} computed"
        if counts["failed"]:
            note += f", {counts['failed']} failed"
        note += f"; {rate:.1f} cells/s"
        # ETA from the mean wall time of *computed* cells (cached ones
        # settle in microseconds and would wildly skew it), spread over
        # the worker pool.
        remaining = total - done
        if remaining and computed_walls:
            per_cell = sum(computed_walls) / len(computed_walls)
            note += f", eta {_humanize_seconds(remaining * per_cell / max(args.jobs, 1))}"
        print(f"[{done}/{total}] {tag:>7} {spec.cell_id} ({note})", flush=True)

    result = run_sweep(
        grid,
        jobs=args.jobs,
        cache=cache,
        timeout=args.timeout,
        retries=args.retries,
        cell_fn=None,
        on_progress=progress,
        heartbeat_dir=args.heartbeat_dir,
    )
    print()
    print(result.describe(value=args.value))
    if args.report:
        result.write_json(args.report)
        print(f"\nsweep report written to {args.report}")
    return 0 if not result.failures else 1


def cmd_sweep_status(args: argparse.Namespace) -> int:
    """Show which cells of a grid are cached vs pending."""
    from repro.sweep import ResultCache, describe_status, sweep_status

    grid = _grid_from_args(args)
    status = sweep_status(grid, ResultCache(args.cache_dir))
    print(describe_status(status))
    return 0


def cmd_sweep_report(args: argparse.Namespace) -> int:
    """Summarize a sweep report JSON written by ``sweep run --report``."""
    from repro.sweep import SweepResult

    result = SweepResult.read_json(args.path)
    print(result.describe(value=args.value))
    return 0


def cmd_doctor(args: argparse.Namespace) -> int:
    """Diagnose a saved artifact: activity log CSV, run report JSON, or
    sweep report JSON.  Exit 0 when healthy, 1 when problems found."""
    import json

    from repro.mesh.netlog import NetworkLog
    from repro.obs.heartbeat import read_heartbeats
    from repro.obs.report import (
        heartbeat_health,
        netlog_health,
        report_health,
        sweep_health,
    )

    path = args.path
    if path.endswith(".csv") or path.endswith(".csv.gz"):
        lines, problems = netlog_health(NetworkLog.read_csv(path).summary())
        kind = "activity log"
    elif path.endswith(".manifest.json"):
        from repro.mesh.netlog_stream import read_manifest, summary_from_manifest

        doc = read_manifest(path)
        # The manifest's merged summary: no segment is read.
        lines, problems = netlog_health(summary_from_manifest(path))
        lines.insert(
            0,
            f"{len(doc['segments'])} segment(s), window {doc['window']}, "
            f"{doc['records']} records spilled",
        )
        kind = "spilled activity log"
    elif path.endswith(".npz"):
        lines, problems = netlog_health(NetworkLog.read_npz(path).summary())
        kind = "activity log"
    elif path.endswith(".jsonl"):
        lines, problems = heartbeat_health(read_heartbeats(path))
        kind = "heartbeat stream"
    else:
        with (open(path) if not path.endswith(".gz") else _gz_open(path)) as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: not a JSON object")
        if doc.get("kind") == "serve-job":
            from repro.obs.report import job_health

            lines, problems = job_health(doc)
            kind = "serve job"
        elif "cells" in doc or "rows" in doc:
            lines, problems = sweep_health({"rows": doc.get("cells", doc.get("rows"))})
            kind = "sweep report"
        elif "schema" in doc:
            lines, problems = report_health(doc)
            kind = "run report"
        else:
            raise ValueError(
                f"{path}: unrecognized artifact (expected an activity-log CSV, "
                f"a run report, or a sweep report)"
            )
    print(f"{kind}: {path}")
    for line in lines:
        print(f"  {line}")
    print("healthy" if not problems else f"{problems} problem(s) found")
    return 0 if not problems else 1


def _gz_open(path: str):
    import gzip

    return gzip.open(path, "rt")


def cmd_watch(args: argparse.Namespace) -> int:
    """Tail heartbeat stream(s) and render the fleet table.

    ``PATH`` is one run's ``.jsonl`` stream or a sweep's
    ``--heartbeat-dir``.  ``--once`` renders the current state
    deterministically and exits (0 healthy, 1 when any run failed);
    without it the table refreshes every ``--interval`` seconds until
    every run reaches a terminal status.  A path that does not exist
    *yet* is waited for in live mode (``repro serve`` creates a job's
    heartbeat directory lazily, after the job is admitted), and an
    error only in ``--once`` mode.

    ``--url`` follows a served job instead of a local path: it
    connects to the service's server-sent-event stream
    (``/v1/jobs/{id}/events``) and prints job transitions and
    heartbeat records as they arrive, exiting 0 when the job ends
    ``done`` and 1 otherwise.
    """
    import os

    from repro.obs.heartbeat import TERMINAL_STATUSES, heartbeat_rows, render_fleet

    if args.url:
        if args.path is not None:
            raise ValueError("watch takes a PATH or --url, not both")
        return _watch_url(args.url)
    path = args.path
    if path is None:
        raise ValueError("watch needs a heartbeat PATH or --url")
    if not os.path.exists(path):
        if args.once:
            raise ValueError(f"{path}: no such heartbeat file or directory")
        print(f"waiting for {path} to appear...", flush=True)

    def healthy(rows) -> bool:
        return all(str(r.get("status")) != "failed" for r in rows.values())

    if args.once:
        rows = heartbeat_rows(path)
        if not rows:
            raise ValueError(f"{path}: no heartbeat records yet")
        print(render_fleet(rows))
        return 0 if healthy(rows) else 1
    rows = {}
    try:
        while True:
            # The producer may create (or momentarily recreate) the
            # path at any time; treat absence as an empty fleet, not
            # an error, and keep polling.
            rows = heartbeat_rows(path) if os.path.exists(path) else {}
            if rows:
                if sys.stdout.isatty():  # pragma: no cover - interactive only
                    print("\x1b[2J\x1b[H", end="")
                print(render_fleet(rows, now=time.time()), flush=True)
                if all(
                    str(r.get("status")) in TERMINAL_STATUSES for r in rows.values()
                ):
                    break
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 130
    return 0 if healthy(rows) else 1


def _watch_url(url: str) -> int:
    """Follow a served job's SSE stream; 0 when the job ends ``done``."""
    import urllib.error
    import urllib.request

    from repro.serve import parse_sse_stream

    if "://" not in url:
        url = "http://" + url
    try:
        response = urllib.request.urlopen(url)  # noqa: S310 - user-given URL
    except urllib.error.URLError as error:
        raise ValueError(f"{url}: {error.reason}")
    final_state = None
    with response:
        for event, doc in parse_sse_stream(response):
            if event == "job":
                progress = doc.get("progress") or {}
                done = progress.get("done")
                total = progress.get("total")
                suffix = f" [{done}/{total}]" if done is not None else ""
                print(f"job {doc.get('id')}: {doc.get('state')}{suffix}", flush=True)
            elif event == "heartbeat":
                label = doc.get("label", "?")
                status = doc.get("status", "?")
                sim_time = doc.get("sim_time")
                events = doc.get("events")
                detail = ""
                if isinstance(sim_time, (int, float)):
                    detail += f" sim-t {sim_time:g}"
                if isinstance(events, (int, float)):
                    detail += f" events {int(events)}"
                print(f"  {label}: {status}{detail}", flush=True)
            elif event == "end":
                final_state = str(doc.get("state", "?"))
                print(f"job ended: {final_state}", flush=True)
                break
    return 0 if final_state == "done" else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived characterization service (see repro.serve)."""
    from repro.serve import ServiceConfig, run_service

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        cache_dir=args.cache_dir,
        sweep_jobs=args.jobs,
        max_concurrent_jobs=args.max_jobs,
        timeout=args.timeout,
        retries=args.retries,
        max_cells=args.max_cells,
        max_body=args.max_body,
        rate=args.rate,
        burst=args.burst,
        resume=not args.no_resume,
    )
    return run_service(config)


def _parse_size(text: str) -> int:
    """``"512"`` bytes, or with a K/M/G suffix (binary multiples)."""
    text = text.strip()
    multiplier = 1
    suffixes = {"k": 1024, "m": 1024**2, "g": 1024**3}
    if text and text[-1].lower() in suffixes:
        multiplier = suffixes[text[-1].lower()]
        text = text[:-1]
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"malformed size {text!r} (want bytes or K/M/G suffix)")
    if value < 0:
        raise ValueError(f"size must be >= 0, got {value}")
    return value * multiplier


def cmd_sweep_cache_gc(args: argparse.Namespace) -> int:
    """Prune the content-addressed result cache by age and/or size."""
    from repro.sweep import ResultCache

    if args.max_age_days is None and args.max_bytes is None:
        raise ValueError("cache gc needs --max-age-days and/or --max-bytes")
    cache = ResultCache(args.cache_dir)
    report = cache.gc(
        max_age_seconds=(
            args.max_age_days * 86400.0 if args.max_age_days is not None else None
        ),
        max_bytes=_parse_size(args.max_bytes) if args.max_bytes is not None else None,
        dry_run=args.dry_run,
    )
    print(f"cache {args.cache_dir}:")
    print(report.describe())
    return 0


def cmd_sp2_model(args: argparse.Namespace) -> int:
    """Print the SP2 software-overhead model at given sizes."""
    sp2 = SP2Config()
    print(f"{'bytes':>10} {'software (us)':>14} {'end-to-end (us)':>16}")
    for nbytes in args.bytes:
        print(
            f"{nbytes:>10} {sp2.software_overhead(nbytes):>14.2f} "
            f"{sp2.end_to_end(nbytes):>16.2f}"
        )
    return 0


def cmd_drive(args: argparse.Namespace) -> int:
    """Replay a pre-drawn pattern workload on the mesh."""
    from repro.core.run import run_pattern

    mesh = _parse_mesh(args.mesh)
    options = RunOptions(
        log_spill=args.log_spill, log_spill_window=args.log_spill_window
    )
    result = run_pattern(
        mesh_config=mesh,
        pattern=args.pattern,
        messages_per_source=args.messages,
        seed=args.seed,
        mean_gap=args.mean_gap,
        length_bytes=args.length,
        options=options,
    )
    print(f"mesh {mesh.spec.canonical()}, pattern {args.pattern}")
    print(f"  messages {len(result.log)}, clock {result.clock:.3f}, "
          f"events {result.events_fired}")
    if result.manifest_path:
        print(f"  manifest {result.manifest_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Communication characterization methodology (HPCA'97 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("apps", help="list the application suite").set_defaults(
        handler=cmd_apps
    )

    def add_instrumentation_arguments(p: argparse.ArgumentParser) -> None:
        """The kernel flag group shared by every simulating subcommand."""
        group = p.add_argument_group("simulation kernel")
        group.add_argument(
            "--max-no-progress", type=int, default=None, metavar="N",
            help="let at most N events fire at one simulated instant; the "
                 "next aborts with a stall diagnosis (default: watchdog off)",
        )
        group.add_argument(
            "--sample-interval", type=float, default=None, metavar="T",
            help="sample live telemetry every T simulated time units "
                 "(windowed series; default: sampling off)",
        )

    characterize = sub.add_parser(
        "characterize", help="characterize one application's communication"
    )
    characterize.add_argument("app", choices=SHARED_MEMORY_APPS + MESSAGE_PASSING_APPS)
    characterize.add_argument(
        "--param", action="append", default=[], help="application parameter key=value"
    )
    characterize.add_argument(
        "--mesh", default="4x2",
        help="topology spec: WxH[xD...][:kind][:axis=scale,...] or "
             "chiplet(WxH,hubs=N) (default 4x2)",
    )
    characterize.add_argument(
        "--log-csv", default=None,
        help="write the activity log here (.csv or .csv.gz)",
    )
    characterize.add_argument(
        "--log-npz", default=None,
        help="write the activity log here as columnar .npz (fast binary; "
        ".npz is appended when missing)",
    )
    characterize.add_argument(
        "--log-spill", default=None, metavar="DIR",
        help="collect the activity log out-of-core: spill full windows "
             "to sharded npz segments under DIR and write a manifest "
             "(characterization memory stays O(window))",
    )
    characterize.add_argument(
        "--log-spill-window", type=int, default=None, metavar="N",
        help="in-memory window size (records) before a spill "
             "(default 262144; needs --log-spill)",
    )
    characterize.add_argument(
        "--metrics", default=None,
        help="enable observability and write the metrics JSON here",
    )
    characterize.add_argument(
        "--timeline", default=None,
        help="write a Chrome trace-event timeline here (Perfetto-loadable)",
    )
    characterize.add_argument(
        "--report", default=None,
        help="write the machine-readable run report JSON here",
    )
    characterize.add_argument(
        "--heartbeat", default=None, metavar="PATH",
        help="stream live progress records (JSONL) here; tail with "
             "'repro watch PATH' while the run is going",
    )
    characterize.add_argument(
        "--live-series", default=None, metavar="PATH",
        help="write the windowed live-telemetry series here as JSONL "
             "(implies --sample-interval at its default)",
    )
    characterize.add_argument(
        "--openmetrics", default=None, metavar="PATH",
        help="write the final telemetry window here as Prometheus/"
             "OpenMetrics text (implies --sample-interval at its default)",
    )
    add_instrumentation_arguments(characterize)
    characterize.set_defaults(handler=cmd_characterize)

    metrics = sub.add_parser(
        "metrics", help="summarize a metrics JSON from characterize --metrics"
    )
    metrics.add_argument("path", help="metrics JSON file")
    metrics.set_defaults(handler=cmd_metrics)

    validate = sub.add_parser(
        "validate", help="validate synthetic traffic against the original"
    )
    validate.add_argument("app", choices=SHARED_MEMORY_APPS + MESSAGE_PASSING_APPS)
    validate.add_argument("--param", action="append", default=[])
    validate.add_argument("--mesh", default="4x2")
    validate.add_argument("--messages", type=int, default=150)
    validate.add_argument("--seed", type=int, default=42)
    add_instrumentation_arguments(validate)
    validate.set_defaults(handler=cmd_validate)

    sp2 = sub.add_parser("sp2-model", help="print the SP2 overhead model")
    sp2.add_argument("bytes", nargs="+", type=int)
    sp2.set_defaults(handler=cmd_sp2_model)

    drive = sub.add_parser(
        "drive", help="replay a pre-drawn pattern workload on the mesh"
    )
    drive.add_argument(
        "--mesh", default="8x8",
        help="topology spec: WxH[xD...][:kind][:axis=scale,...] or "
             "chiplet(WxH,hubs=N) (default 8x8)",
    )
    drive.add_argument(
        "--pattern", choices=registered_patterns(), default="uniform",
        help="traffic pattern: uniform spreads over every other node, "
             "the rest are the registered synthetic patterns "
             "(tornado, transpose, hotspot, ...)",
    )
    drive.add_argument("--messages", type=int, default=100, metavar="N",
                       help="messages per source (default 100)")
    drive.add_argument("--seed", type=int, default=1234)
    drive.add_argument("--mean-gap", type=float, default=10.0, metavar="T",
                       help="mean exponential inter-injection gap (default 10)")
    drive.add_argument("--length", type=int, default=64, metavar="BYTES",
                       help="payload bytes per message (default 64)")
    drive.add_argument(
        "--log-spill", default=None, metavar="DIR",
        help="spill the activity log under DIR and write a netlog-spill "
             "manifest",
    )
    drive.add_argument(
        "--log-spill-window", type=int, default=None, metavar="N",
        help="in-memory window size (records) before a spill "
             "(default 262144; needs --log-spill)",
    )
    drive.set_defaults(handler=cmd_drive)

    doctor = sub.add_parser(
        "doctor",
        help="diagnose a saved log or report (deadlocks, leaks, drain stalls)",
    )
    doctor.add_argument(
        "path",
        help="activity log (.csv/.csv.gz/.npz), run report or sweep report JSON",
    )
    doctor.set_defaults(handler=cmd_doctor)

    sweep = sub.add_parser(
        "sweep", help="run experiment grids in parallel with result caching"
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    def add_grid_arguments(p: argparse.ArgumentParser) -> None:
        p.add_argument("--grid", default=None, help="grid spec JSON file")
        p.add_argument(
            "--app", action="append", default=[],
            choices=SHARED_MEMORY_APPS + MESSAGE_PASSING_APPS,
            help="application axis (repeatable)",
        )
        p.add_argument(
            "--mesh", action="append", default=[],
            help="mesh axis, topology spec WxH[xD...][:kind][:axis=scale,...] "
                 "or chiplet(WxH,hubs=N) (repeatable; default 4x2)",
        )
        p.add_argument(
            "--pattern", action="append", default=[],
            help="synthetic traffic pattern axis (repeatable); each "
                 "pattern becomes cells driven directly on every mesh, "
                 "no application characterization",
        )
        p.add_argument(
            "--protocol", action="append", default=[],
            choices=("invalidate", "update"),
            help="coherence protocol axis for shared-memory apps (repeatable)",
        )
        p.add_argument(
            "--rate-scale", action="append", default=[], type=float,
            help="injection-rate multiplier axis (repeatable; default 1.0)",
        )
        p.add_argument(
            "--seed", action="append", default=[], type=int,
            help="seed axis for replications (repeatable; default 0)",
        )
        p.add_argument(
            "--param", action="append", default=[],
            help="app parameter key=value (or app:key=value to scope)",
        )
        p.add_argument(
            "--messages", type=int, default=120,
            help="synthetic messages per source per cell (default 120)",
        )
        p.add_argument(
            "--cache-dir", default=".repro-sweep-cache",
            help="result cache directory (default .repro-sweep-cache)",
        )
        # The same kernel flags as characterize/validate; they become
        # part of every cell's RunOptions (and thus its cache key).
        add_instrumentation_arguments(p)

    sweep_run = sweep_sub.add_parser("run", help="execute the grid")
    add_grid_arguments(sweep_run)
    sweep_run.add_argument(
        "--jobs", type=int, default=1, help="worker processes (default 1)"
    )
    sweep_run.add_argument(
        "--no-cache", action="store_true", help="execute every cell, cache nothing"
    )
    sweep_run.add_argument(
        "--timeout", type=float, default=None,
        help="per-cell wall-clock budget in seconds",
    )
    sweep_run.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts per failed cell (default 1)",
    )
    sweep_run.add_argument(
        "--report", default=None, help="write the sweep report JSON here"
    )
    sweep_run.add_argument(
        "--value", default="mean_latency",
        help="run-report field for the comparison table (default mean_latency)",
    )
    sweep_run.add_argument(
        "--heartbeat-dir", default=None, metavar="DIR",
        help="write one JSONL heartbeat stream per cell under DIR "
             "(watch the fleet with 'repro watch DIR'); not part of "
             "the cells' cache keys",
    )
    sweep_run.set_defaults(handler=cmd_sweep_run)

    sweep_status_p = sweep_sub.add_parser(
        "status", help="show cached vs pending cells for a grid"
    )
    add_grid_arguments(sweep_status_p)
    sweep_status_p.set_defaults(handler=cmd_sweep_status)

    sweep_report = sweep_sub.add_parser(
        "report", help="summarize a sweep report JSON"
    )
    sweep_report.add_argument("path", help="sweep report JSON file")
    sweep_report.add_argument(
        "--value", default="mean_latency",
        help="run-report field for the comparison table (default mean_latency)",
    )
    sweep_report.set_defaults(handler=cmd_sweep_report)

    sweep_cache = sweep_sub.add_parser(
        "cache", help="manage the content-addressed result cache"
    )
    sweep_cache_sub = sweep_cache.add_subparsers(
        dest="cache_command", required=True
    )
    cache_gc = sweep_cache_sub.add_parser(
        "gc", help="evict cache entries by age and/or total size"
    )
    cache_gc.add_argument(
        "--cache-dir", default=".repro-sweep-cache",
        help="result cache directory (default .repro-sweep-cache)",
    )
    cache_gc.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="evict entries not rewritten in DAYS days",
    )
    cache_gc.add_argument(
        "--max-bytes", default=None, metavar="SIZE",
        help="evict oldest entries until the cache fits SIZE "
             "(bytes, or with a K/M/G suffix)",
    )
    cache_gc.add_argument(
        "--dry-run", action="store_true",
        help="list what would be evicted without deleting anything",
    )
    cache_gc.set_defaults(handler=cmd_sweep_cache_gc)

    watch = sub.add_parser(
        "watch", help="tail heartbeat stream(s) as a refreshing fleet table"
    )
    watch.add_argument(
        "path", nargs="?", default=None,
        help="one run's heartbeat .jsonl, or a sweep's --heartbeat-dir "
             "(waited for if it does not exist yet)",
    )
    watch.add_argument(
        "--url", default=None, metavar="URL",
        help="follow a served job's SSE stream instead of a local path "
             "(http://HOST:PORT/v1/jobs/ID/events)",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="render the current state once and exit (deterministic)",
    )
    watch.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period for live tailing (default 2.0)",
    )
    watch.set_defaults(handler=cmd_watch)

    serve = sub.add_parser(
        "serve", help="run the async characterization service (HTTP job API)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8177, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--state-dir", default=".repro-serve",
        help="service state root: job index, trace uploads, heartbeats",
    )
    serve.add_argument(
        "--cache-dir", default=".repro-sweep-cache",
        help="content-addressed result cache shared with repro sweep",
    )
    serve.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes per grid job (run_sweep pool size)",
    )
    serve.add_argument(
        "--max-jobs", type=int, default=2, metavar="N",
        help="jobs executing concurrently; the rest queue (default 2)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None,
        help="per-cell wall-clock budget in seconds",
    )
    serve.add_argument(
        "--retries", type=int, default=1,
        help="extra attempts per failed cell (default 1)",
    )
    serve.add_argument(
        "--max-cells", type=int, default=64,
        help="largest grid expansion one POST may request (default 64)",
    )
    serve.add_argument(
        "--max-body", type=int, default=1_000_000,
        help="largest request body in bytes (default 1000000)",
    )
    serve.add_argument(
        "--rate", type=float, default=5.0,
        help="sustained job submissions/sec per client; <= 0 disables "
             "(default 5.0)",
    )
    serve.add_argument(
        "--burst", type=int, default=10,
        help="submission burst capacity per client (default 10)",
    )
    serve.add_argument(
        "--no-resume", action="store_true",
        help="do not re-enqueue incomplete jobs from the index at startup",
    )
    serve.set_defaults(handler=cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError, SimulationError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
