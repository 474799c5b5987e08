"""Tests for the observability layer (repro.obs).

Covers the registry instruments, the null-registry zero-overhead
contract, the Chrome trace-event exporter's schema, the run-report
format, and end-to-end instrumentation of both pipeline strategies.
"""

import json

import pytest

from repro import (
    RunOptions,
    create_app,
    run_dynamic,
    run_static,
)
from repro.mesh import MeshConfig, MeshNetwork
from repro.obs import (
    CHANNELS_PID,
    MetricsRegistry,
    NULL_REGISTRY,
    NULL_TIMELINE,
    NullRegistry,
    RunReport,
    TimelineRecorder,
    load_metrics,
    read_trajectory,
    report_from_run,
    summarize_metrics,
)
from repro.obs.registry import TimeSeries
from repro.simkernel import Simulator, hold


class TestCounterGauge:
    def test_counter_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        assert reg.counter("x") is c  # create-or-get

    def test_gauge_tracks_high_water(self):
        g = MetricsRegistry().gauge("depth")
        g.set(3)
        g.set(10)
        g.set(4)
        assert g.value == 4
        assert g.high_water == 10
        g.add(-1)
        assert g.value == 3

    def test_as_dict(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(7)
        reg.gauge("g").set(2)
        d = reg.as_dict()
        assert d["c"] == {"type": "counter", "value": 7.0}
        assert d["g"]["high_water"] == 2

    def test_cross_type_name_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        with pytest.raises(ValueError):
            reg.time_series("x")


class TestHistogram:
    def test_summary_statistics(self):
        h = MetricsRegistry().histogram("lat")
        for v in (1.0, 2.0, 3.0, 10.0):
            h.observe(v)
        assert h.count == 4
        assert h.mean == 4.0
        assert h.min == 1.0
        assert h.max == 10.0

    def test_buckets_partition_observations(self):
        h = MetricsRegistry().histogram("b", bounds=[1.0, 10.0])
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        d = h.as_dict()
        assert d["buckets"]["counts"] == [1, 1, 1]
        assert d["buckets"]["le"] == [1.0, 10.0, "inf"]

    def test_empty_histogram_exports(self):
        d = MetricsRegistry().histogram("empty").as_dict()
        assert d["count"] == 0
        assert "min" not in d


class TestTimeSeries:
    def test_samples_in_time_order(self):
        s = MetricsRegistry().time_series("q")
        s.sample(0.0, 1.0)
        s.sample(5.0, 3.0)
        assert s.times == [0.0, 5.0]
        assert s.values == [1.0, 3.0]

    def test_decimation_bounds_memory(self):
        s = TimeSeries("big", max_samples=16)
        for i in range(10_000):
            s.sample(float(i), float(i))
        assert len(s) < 32
        # Still spans the whole run at coarser resolution.
        assert s.times[0] < 100
        assert s.times[-1] > 5_000
        # Times stay monotone after decimation.
        assert s.times == sorted(s.times)

    def test_rejects_tiny_max_samples(self):
        with pytest.raises(ValueError):
            TimeSeries("x", max_samples=1)

    def test_latest_accessor(self):
        s = TimeSeries("q")
        assert s.latest() is None
        s.sample(1.0, 5.0)
        s.sample(2.0, 7.0)
        assert s.latest() == (2.0, 7.0)

    def test_decimation_pins_newest_sample(self):
        # [::2] keeps even indices; the newest sample must survive a
        # decimation pass even when it sits at an odd index.
        s = TimeSeries("q", max_samples=16)
        for i in range(16):  # triggers decimation on the 16th sample
            s.sample(float(i), float(i) * 10.0)
        assert s.times[-1] == 15.0
        assert s.values[-1] == 150.0
        assert s.latest() == (15.0, 150.0)
        assert s.times == sorted(s.times)

    def test_latest_survives_heavy_decimation(self):
        # Stored columns skip samples by stride, so times[-1] may lag;
        # latest() must still be the freshest offered pair.
        s = TimeSeries("q", max_samples=8)
        for i in range(1_000):
            s.sample(float(i), float(i))
        assert s.latest() == (999.0, 999.0)
        assert s.times[-1] <= 999.0


class TestNullRegistryContract:
    def test_disabled_flag(self):
        assert NULL_REGISTRY.enabled is False
        assert MetricsRegistry().enabled is True

    def test_null_instruments_are_shared_singletons(self):
        reg = NullRegistry()
        assert reg.counter("a") is reg.counter("b")
        assert reg.gauge("a") is reg.gauge("b")
        assert reg.histogram("a") is reg.histogram("b")
        assert reg.time_series("a") is reg.time_series("b")

    def test_null_updates_record_nothing(self):
        reg = NullRegistry()
        reg.counter("c").inc(100)
        reg.gauge("g").set(5)
        reg.histogram("h").observe(1.0)
        reg.time_series("s").sample(0.0, 1.0)
        assert reg.counter("c").value == 0
        assert reg.gauge("g").high_water == 0
        assert reg.histogram("h").count == 0
        assert len(reg.time_series("s")) == 0
        assert reg.as_dict() == {}
        assert reg.names() == []

    def test_simulator_defaults_to_null(self):
        sim = Simulator()
        assert sim.obs is NULL_REGISTRY

        def body():
            yield hold(5.0)

        sim.process(body())
        sim.run()
        assert NULL_REGISTRY.as_dict() == {}


class TestRegistryExport:
    def test_write_json_load_metrics_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("net.injected").inc(12)
        reg.time_series("sim.q").sample(1.0, 2.0)
        path = str(tmp_path / "m.json")
        reg.write_json(path, extra={"app": "demo"})
        metrics = load_metrics(path)
        assert metrics["net.injected"]["value"] == 12
        assert metrics["sim.q"]["times"] == [1.0]
        with open(path) as handle:
            assert json.load(handle)["app"] == "demo"

    def test_write_json_is_atomic(self, tmp_path):
        import os

        from repro.obs.fsio import atomic_write_text

        reg = MetricsRegistry()
        reg.counter("c").inc()
        path = str(tmp_path / "m.json")
        reg.write_json(path)
        reg.write_json(path)  # overwrite goes through rename, not truncate
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        load_metrics(path)
        # The helper also creates missing parent directories.
        nested = str(tmp_path / "sub" / "x.txt")
        atomic_write_text(nested, "payload")
        with open(nested) as handle:
            assert handle.read() == "payload"

    def test_load_metrics_rejects_non_metrics_json(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            json.dump({"nope": 1}, handle)
        with pytest.raises(ValueError):
            load_metrics(path)

    def test_summarize_covers_every_type(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(2)
        reg.histogram("h").observe(1.0)
        reg.time_series("s").sample(0.0, 3.0)
        text = summarize_metrics(reg.as_dict())
        for name in ("c", "g", "h", "s"):
            assert name in text
        assert summarize_metrics({}) == "(no metrics recorded)"


class TestTimelineRecorder:
    def test_chrome_trace_schema(self):
        tl = TimelineRecorder()
        tl.name_process(0, "node 0")
        tl.name_thread(0, 1, "inj")
        tl.complete("msg", "message", start=10.0, duration=5.0, pid=0, tid=1,
                    args={"bytes": 8})
        tl.counter("inflight", time=12.0, values={"n": 3}, pid=0)
        tl.instant("mark", "phase", time=13.0, pid=0, tid=1)
        doc = tl.to_dict()
        events = doc["traceEvents"]
        assert {e["ph"] for e in events} == {"M", "X", "C", "i"}
        span = next(e for e in events if e["ph"] == "X")
        assert span["ts"] == 10.0 and span["dur"] == 5.0
        assert span["args"]["bytes"] == 8
        meta = next(e for e in events if e["name"] == "process_name")
        assert meta["args"]["name"] == "node 0"

    def test_write_produces_valid_json(self, tmp_path):
        tl = TimelineRecorder()
        tl.complete("a", "b", 0.0, 1.0, pid=1, tid=0)
        path = str(tmp_path / "t.json")
        tl.write(path)
        with open(path) as handle:
            doc = json.load(handle)
        assert isinstance(doc["traceEvents"], list)
        assert doc["otherData"]["dropped_events"] == 0

    def test_write_is_atomic(self, tmp_path):
        # Overwriting an existing export must go through a same-dir
        # temp file + rename, never leaving a partial file behind.
        import os

        tl = TimelineRecorder()
        tl.complete("a", "b", 0.0, 1.0, pid=1, tid=0)
        path = str(tmp_path / "t.json")
        tl.write(path)
        tl.write(path)
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        with open(path) as handle:
            json.load(handle)

    def test_max_events_drops_excess(self):
        tl = TimelineRecorder(max_events=2)
        for i in range(5):
            tl.complete(f"e{i}", "c", float(i), 1.0, pid=0, tid=0)
        assert len(tl) == 2
        assert tl.dropped == 3
        assert tl.to_dict()["otherData"]["dropped_events"] == 3

    def test_metadata_idempotent(self):
        tl = TimelineRecorder()
        tl.name_process(0, "n")
        tl.name_process(0, "n")
        assert len(tl.to_dict()["traceEvents"]) == 1

    def test_null_timeline_records_nothing(self):
        assert NULL_TIMELINE.enabled is False
        NULL_TIMELINE.complete("x", "c", 0.0, 1.0, pid=0, tid=0)
        NULL_TIMELINE.counter("x", 0.0, {"v": 1}, pid=0)
        NULL_TIMELINE.name_process(0, "n")
        assert len(NULL_TIMELINE) == 0


class TestRunReport:
    def test_write_json(self, tmp_path):
        report = RunReport(app="demo", strategy="dynamic", mesh="8 nodes",
                           messages=10, wall_seconds=0.5)
        path = str(tmp_path / "r.json")
        report.write_json(path)
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["app"] == "demo"
        assert doc["schema"] == 1
        assert doc["messages"] == 10

    def test_trajectory_append_and_read(self, tmp_path):
        path = str(tmp_path / "traj" / "runs.jsonl")
        RunReport(app="a", strategy="s", mesh="m").append_jsonl(path)
        RunReport(app="b", strategy="s", mesh="m").append_jsonl(path)
        reports = read_trajectory(path)
        assert [r["app"] for r in reports] == ["a", "b"]


class TestInstrumentedPipelines:
    def test_shared_memory_metrics_content(self):
        run = run_dynamic(
            create_app("1d-fft", n=64), options=RunOptions(metrics=True)
        )
        metrics = run.metrics
        assert metrics is not None
        # The acceptance trio: event-queue depth, per-channel
        # utilization series, coherence transition counts.
        assert metrics["sim.event_queue_depth"]["samples"] > 0
        channel_series = [
            k for k in metrics
            if k.startswith("net.channel[") and k.endswith(".utilization")
        ]
        assert channel_series, "no per-channel utilization series exported"
        transition_counters = [k for k in metrics if k.startswith("coherence.msg.")]
        assert transition_counters
        assert metrics["net.injected"]["value"] == len(run.log)
        assert metrics["coherence.directory_blocks"]["samples"] > 0
        assert metrics["sim.holds_per_process"]["count"] > 0

    def test_message_passing_metrics_content(self):
        run = run_static(
            create_app("3d-fft", n=8), options=RunOptions(metrics=True)
        )
        metrics = run.metrics
        assert metrics is not None
        assert metrics["mp.messages"]["value"] > 0
        assert metrics["mp.pending_messages"]["high_water"] >= 0
        assert metrics["replay.stall"]["count"] == len(run.log)
        assert metrics["net.delivered"]["value"] == len(run.log)

    def test_uninstrumented_run_has_no_metrics(self):
        run = run_dynamic(create_app("1d-fft", n=64))
        assert run.metrics is None

    def test_timeline_spans_match_log(self):
        run = run_dynamic(
            create_app("1d-fft", n=64), options=RunOptions(timeline=True)
        )
        doc = run.timeline.to_dict()
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        messages = [e for e in spans if e["cat"] == "message"]
        channels = [e for e in spans if e["cat"] == "channel"]
        assert len(messages) == len(run.log)
        assert channels, "no channel occupancy spans recorded"
        assert all(e["pid"] == CHANNELS_PID for e in channels)
        # Every span sits inside the run's simulated time range.
        end = max(r.deliver_time for r in run.log)
        assert all(0 <= e["ts"] <= end for e in spans)

    def test_instrumentation_does_not_change_results(self):
        plain = run_dynamic(create_app("1d-fft", n=64))
        observed = run_dynamic(
            create_app("1d-fft", n=64),
            options=RunOptions(metrics=True, timeline=True),
        )
        assert len(plain.log) == len(observed.log)
        assert [r.deliver_time for r in plain.log] == [
            r.deliver_time for r in observed.log
        ]

    def test_network_inherits_simulator_registry(self):
        obs = MetricsRegistry()
        sim = Simulator(obs=obs)
        net = MeshNetwork(sim, MeshConfig("2x2"))
        assert net.obs is obs


class TestReportFromRun:
    def test_report_reflects_run(self):
        run = run_dynamic(
            create_app("1d-fft", n=64), options=RunOptions(metrics=True)
        )
        report = report_from_run(
            run, app_params={"n": 64}, wall_seconds=1.0, metrics=run.metrics
        )
        doc = report.as_dict()
        assert doc["app"] == "1d-fft"
        assert doc["strategy"] == "dynamic"
        assert doc["messages"] == len(run.log)
        assert doc["metrics"]["net.injected"]["value"] == len(run.log)
