"""Tests for live telemetry (repro.obs.live).

Covers the windowed LiveSeries container and its JSONL/OpenMetrics
exports, the LiveSampler's probe/window semantics on both schedulers,
the zero-cost null path when telemetry is off, online health verdicts
(including detection of a forced hot-spot saturation run), and the
pipeline/RunOptions wiring.
"""

import json
import os

import pytest

from repro import characterize_message_passing, characterize_shared_memory, create_app
from repro.core.options import RunOptions
from repro.core.synthetic import SyntheticTrafficGenerator
from repro.mesh import MeshConfig, MeshNetwork
from repro.mesh.packet import NetworkMessage
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.obs.live import (
    DEFAULT_SAMPLE_INTERVAL,
    LIVE_SCHEMA_VERSION,
    LiveSampler,
    LiveSeries,
    series_health,
    start_live_telemetry,
    window_health,
)
from repro.simkernel import Simulator, hold


class TestLiveSeries:
    def test_append_window_latest(self):
        s = LiveSeries()
        assert len(s) == 0
        assert s.latest() is None
        s.append(0.0, 10.0, 100.0, {"a": 1.0, "b": 2.0})
        s.append(10.0, 20.0, 101.0, {"a": 3.0, "b": 4.0})
        assert len(s) == 2
        row = s.window(0)
        assert row["schema"] == LIVE_SCHEMA_VERSION
        assert row["window"] == 0
        assert row["t_start"] == 0.0 and row["t_end"] == 10.0
        assert row["a"] == 1.0
        latest = s.latest()
        assert latest["window"] == 1 and latest["b"] == 4.0

    def test_column_set_fixed_by_first_window(self):
        s = LiveSeries()
        s.append(0.0, 1.0, 0.0, {"a": 1.0})
        with pytest.raises(ValueError, match="columns changed"):
            s.append(1.0, 2.0, 0.0, {"a": 1.0, "b": 2.0})

    def test_jsonl_roundtrip(self, tmp_path):
        s = LiveSeries()
        s.append(0.0, 5.0, 9.0, {"x.rate": 2.0})
        s.append(5.0, 10.0, 9.5, {"x.rate": 4.0})
        path = str(tmp_path / "live.jsonl")
        s.write_jsonl(path)
        with open(path) as handle:
            lines = [json.loads(l) for l in handle.read().splitlines()]
        assert [l["window"] for l in lines] == [0, 1]
        assert lines[1]["x.rate"] == 4.0
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_openmetrics_golden(self):
        s = LiveSeries()
        s.append(0.0, 50.0, 1.0, {"net.delivered.rate": 1.5, "sim.queue_depth": 3.0})
        expected = (
            "# TYPE repro_telemetry_windows counter\n"
            "repro_telemetry_windows_total 1\n"
            "# TYPE repro_telemetry_sim_time gauge\n"
            "repro_telemetry_sim_time 50\n"
            "# TYPE repro_net_delivered_rate gauge\n"
            "repro_net_delivered_rate 1.5\n"
            "# TYPE repro_sim_queue_depth gauge\n"
            "repro_sim_queue_depth 3\n"
            "# EOF\n"
        )
        assert s.to_openmetrics() == expected

    def test_openmetrics_empty_series(self):
        text = LiveSeries().to_openmetrics()
        assert "repro_telemetry_windows_total 0" in text
        assert text.endswith("# EOF\n")


def _drive(watchdog=None, interval=10.0, registry=None, messages=30):
    """A small mesh run with a sampler attached; returns the sampler.

    ``watchdog`` is ``run()``'s ``max_no_progress_events``; None
    leaves it unarmed."""
    sim = Simulator()
    net = MeshNetwork(sim, MeshConfig("2x2"))

    def source(src):
        for n in range(messages):
            yield hold(1.0 + (src + n) % 3)
            yield from net.transfer(
                NetworkMessage(src=src, dst=(src + 1) % 4, length_bytes=64)
            )

    for src in range(4):
        sim.process(source(src), name=f"src{src}")
    sampler = LiveSampler(interval, registry=registry, wall_clock=lambda: 0.0)
    net.attach_live(sampler)
    sampler.attach(sim)
    sim.run(max_no_progress_events=watchdog)
    return sampler


class TestLiveSampler:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            LiveSampler(0.0)

    def test_windows_are_deltas_not_cumulative(self):
        sampler = _drive()
        series = sampler.series
        assert len(series) >= 2
        delivered = series.columns["net.delivered.delta"]
        # Windowed: per-window deliveries sum to the run total, and no
        # window holds the whole (cumulative) count.
        assert sum(delivered) == 120
        assert max(delivered) < 120
        rates = series.columns["net.delivered.rate"]
        spans = [
            e - s for s, e in zip(series.t_start, series.t_end)
        ]
        for rate, delta, span in zip(rates, delivered, spans):
            assert rate == pytest.approx(delta / span)

    def test_expected_columns(self):
        series = _drive().series
        assert set(series.columns) == {
            "sim.events.delta", "sim.events.rate", "sim.queue_depth",
            "net.injected.delta", "net.injected.rate",
            "net.delivered.delta", "net.delivered.rate",
            "net.in_flight", "net.channel_utilization", "net.queue_depth",
        }
        # Utilization is a mean over channels: bounded to [0, 1].
        for u in series.columns["net.channel_utilization"]:
            assert 0.0 <= u <= 1.0

    def test_sampler_drains_with_simulation(self):
        # The run above terminates -- the sampler must not keep the
        # event list alive past the last model event + one interval.
        sampler = _drive(interval=5.0)
        sim_end = sampler.series.t_end[-1]
        assert sampler.ticks == len(sampler.series)
        assert sim_end % 5.0 == 0.0

    def test_identical_windows_on_both_clock_loops(self):
        # The clock loop tallies ``events_fired`` in a local and flushes
        # it before each callback; armed or not, the sampler's tick must
        # read the same count.
        a = _drive().series.as_dict()
        b = _drive(watchdog=10**9).series.as_dict()
        a.pop("wall"), b.pop("wall")
        assert a == b

    def test_registry_mirror(self):
        reg = MetricsRegistry()
        sampler = _drive(registry=reg)
        ts = reg.time_series("live.net.delivered.delta")
        assert ts.values == sampler.series.columns["net.delivered.delta"]
        assert ts.latest() == (
            sampler.series.t_end[-1],
            sampler.series.columns["net.delivered.delta"][-1],
        )

    def test_attach_twice_rejected(self):
        sampler = LiveSampler(1.0)
        sim = Simulator()

        def body():
            yield hold(1.0)

        sim.process(body(), name="p")
        sampler.attach(sim)
        with pytest.raises(ValueError, match="already attached"):
            sampler.attach(sim)
        sim.run()


class TestNullPath:
    def test_start_live_telemetry_off_returns_none(self):
        sim = Simulator()
        assert start_live_telemetry(None, sim) is None
        assert start_live_telemetry(RunOptions(), sim) is None
        # Nothing scheduled: the queue stays empty.
        assert sim.queue_depth == 0

    def test_default_options_do_not_perturb_results(self):
        run = characterize_shared_memory(create_app("1d-fft", n=64))
        assert run.live is None
        sampled = characterize_shared_memory(
            create_app("1d-fft", n=64),
            options=RunOptions(sample_interval=25.0),
        )
        assert len(sampled.live) >= 1
        # msg_id is a process-global counter, so it drifts between
        # back-to-back runs; everything else must be identical.
        from dataclasses import replace

        assert [replace(r, msg_id=0) for r in sampled.log.records] == [
            replace(r, msg_id=0) for r in run.log.records
        ]

    def test_null_registry_time_series_latest_is_none(self):
        ts = NULL_REGISTRY.time_series("anything")
        ts.sample(1.0, 2.0)
        assert ts.latest() is None


class TestRunOptionsWiring:
    def test_unset_fields_stay_out_of_cache_key(self):
        # as_dict is the sweep cache-key input: adding the telemetry
        # fields must not invalidate every pre-PR cache entry.
        assert "sample_interval" not in RunOptions().as_dict()
        assert "heartbeat" not in RunOptions().as_dict()
        d = RunOptions(sample_interval=5.0).as_dict()
        assert d["sample_interval"] == 5.0
        assert RunOptions.from_dict(d).sample_interval == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RunOptions(sample_interval=0.0)
        assert RunOptions(heartbeat="hb.jsonl").live_enabled
        assert not RunOptions().live_enabled

    def test_heartbeat_defaults_sample_interval(self, tmp_path):
        path = str(tmp_path / "hb.jsonl")
        sim = Simulator()

        def body():
            yield hold(DEFAULT_SAMPLE_INTERVAL * 3)

        sim.process(body(), name="p")
        live = start_live_telemetry(
            RunOptions(heartbeat=path), sim, wall_clock=lambda: 0.0
        )
        assert live.sampler.interval == DEFAULT_SAMPLE_INTERVAL
        sim.run()
        live.finish("done")
        assert os.path.exists(path)


class TestPipelineIntegration:
    def test_static_strategy_samples_replay(self):
        run = characterize_message_passing(
            create_app("3d-fft", n=8), options=RunOptions(sample_interval=50.0)
        )
        assert len(run.live) >= 1
        assert "net.delivered.delta" in run.live.columns

    def test_synthetic_generator_samples_drive(self):
        base = characterize_shared_memory(create_app("1d-fft", n=64))
        gen = SyntheticTrafficGenerator(
            base.characterization,
            mesh_config=MeshConfig("4x2"),
            options=RunOptions(sample_interval=100.0),
        )
        gen.generate(messages_per_source=40)
        assert gen.live_series is not None
        assert len(gen.live_series) >= 1


class TestOnlineHealth:
    def test_window_verdicts(self):
        ok = {"net.injected.delta": 5.0, "net.delivered.delta": 5.0,
              "net.in_flight": 0.0, "net.channel_utilization": 0.2}
        assert window_health(ok)[0] == "ok"
        idle = {"net.injected.delta": 0.0, "net.delivered.delta": 0.0,
                "net.in_flight": 0.0, "net.channel_utilization": 0.0}
        assert window_health(idle)[0] == "idle"
        hot = dict(ok, **{"net.channel_utilization": 0.9})
        assert window_health(hot)[0] == "saturating"
        backlog = {"net.injected.delta": 10.0, "net.delivered.delta": 2.0,
                   "net.in_flight": 8.0, "net.channel_utilization": 0.4}
        assert window_health(backlog)[0] == "saturating"
        stalled = {"net.injected.delta": 3.0, "net.delivered.delta": 0.0,
                   "net.in_flight": 12.0, "net.channel_utilization": 1.0}
        verdict, notes = window_health(stalled)
        assert verdict == "stalled"
        assert notes

    def test_kernel_only_fallback(self):
        assert window_health({"sim.events.delta": 10.0})[0] == "ok"
        assert window_health({"sim.events.delta": 0.0})[0] == "idle"

    def test_series_health_flags_peak_collapse(self):
        s = LiveSeries()
        for i, rate in enumerate((10.0, 12.0, 1.0)):
            s.append(i * 5.0, (i + 1) * 5.0, 0.0, {
                "net.injected.delta": rate * 5.0,
                "net.delivered.delta": rate * 5.0,
                "net.delivered.rate": rate,
                "net.in_flight": 0.0,
                "net.channel_utilization": 0.1,
            })
        verdict, notes = series_health(s)
        assert verdict == "saturating"
        assert any("below half the peak" in n for n in notes)

    def test_detects_forced_saturation_live(self):
        # Hot-spot overload: every node floods node 0 faster than one
        # ejection channel can drain. The backlog grows, and the live
        # verdicts must flag it before the run ends.
        sim = Simulator()
        net = MeshNetwork(sim, MeshConfig("4x4"))

        def source(src):
            for _ in range(40):
                yield hold(0.25)
                yield from net.transfer(
                    NetworkMessage(src=src, dst=0, length_bytes=256)
                )

        for src in range(1, 16):
            sim.process(source(src), name=f"src{src}")
        sampler = LiveSampler(20.0, wall_clock=lambda: 0.0)
        net.attach_live(sampler)
        sampler.attach(sim)
        sim.run()
        verdicts = [
            window_health({k: col[i] for k, col in sampler.series.columns.items()})[0]
            for i in range(len(sampler.series))
        ]
        assert {"saturating", "stalled"} & set(verdicts)
