"""Simulator-wide observability: metrics, time series, timelines.

Three pieces:

* :mod:`repro.obs.registry` -- the :class:`MetricsRegistry` every layer
  reports into (counters, gauges, histograms, simulated-time series)
  and its zero-overhead :data:`NULL_REGISTRY` used when observability
  is off (the default);
* :mod:`repro.obs.timeline` -- a Chrome trace-event recorder rendering
  per-node message activity and per-channel occupancy as timeline spans
  viewable in Perfetto / ``chrome://tracing``;
* :mod:`repro.obs.report` -- the machine-readable run report shared by
  the CLI and the benchmark suite (the perf trajectory format);
* :mod:`repro.obs.live` -- the live-telemetry layer: a periodic
  in-kernel sampler producing windowed struct-of-arrays series
  (JSONL / OpenMetrics exports) plus online health verdicts;
* :mod:`repro.obs.heartbeat` -- append-only JSONL heartbeat streams
  crossing process boundaries, the channel ``repro watch`` tails.

Enabling it end to end::

    from repro import RunOptions, run_dynamic

    run = run_dynamic(
        "1d-fft", params={"n": 256},
        options=RunOptions(metrics=True, timeline=True),
    )
    run.registry.write_json("metrics.json")
    run.timeline.write("timeline.json")   # load in https://ui.perfetto.dev
"""

from repro.obs.fsio import atomic_write_text
from repro.obs.heartbeat import (
    HEARTBEAT_SCHEMA_VERSION,
    HeartbeatWriter,
    heartbeat_rows,
    last_heartbeat,
    read_heartbeats,
    render_fleet,
    safe_label,
    scan_heartbeat_dir,
)
from repro.obs.live import (
    DEFAULT_SAMPLE_INTERVAL,
    LiveSampler,
    LiveSeries,
    LiveTelemetry,
    series_health,
    start_live_telemetry,
    window_health,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    TimeSeries,
    load_metrics,
    summarize_metrics,
)
from repro.obs.report import (
    RunReport,
    read_trajectory,
    report_from_run,
    report_from_summary,
)
from repro.obs.timeline import (
    CHANNELS_PID,
    NULL_TIMELINE,
    NullTimeline,
    TimelineRecorder,
)

__all__ = [
    "CHANNELS_PID",
    "Counter",
    "DEFAULT_SAMPLE_INTERVAL",
    "Gauge",
    "HEARTBEAT_SCHEMA_VERSION",
    "HeartbeatWriter",
    "Histogram",
    "LiveSampler",
    "LiveSeries",
    "LiveTelemetry",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TIMELINE",
    "NullRegistry",
    "NullTimeline",
    "RunReport",
    "TimeSeries",
    "TimelineRecorder",
    "atomic_write_text",
    "heartbeat_rows",
    "last_heartbeat",
    "load_metrics",
    "read_heartbeats",
    "read_trajectory",
    "render_fleet",
    "report_from_run",
    "report_from_summary",
    "safe_label",
    "scan_heartbeat_dir",
    "series_health",
    "start_live_telemetry",
    "summarize_metrics",
    "window_health",
]
