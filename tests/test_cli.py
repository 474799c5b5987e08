"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _parse_mesh, _parse_params, main


class TestParamParsing:
    def test_types_inferred(self):
        params = _parse_params(["n=256", "density=0.2", "mode=fast"])
        assert params == {"n": 256, "density": 0.2, "mode": "fast"}

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            _parse_params(["n256"])


class TestMeshParsing:
    def test_simple(self):
        config = _parse_mesh("4x2")
        assert (config.spec.dims, config.spec.kind) == ((4, 2), "mesh")

    def test_with_topology(self):
        config = _parse_mesh("4x2:torus")
        assert config.spec.kind == "torus"
        assert config.virtual_channels == 2

    def test_malformed(self):
        with pytest.raises(ValueError):
            _parse_mesh("4by2")

    def test_nonpositive_dimensions_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            _parse_mesh("0x4")
        with pytest.raises(ValueError, match="positive"):
            _parse_mesh("4x0")
        with pytest.raises(ValueError, match="positive"):
            _parse_mesh("-2x4")

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            _parse_mesh("4x2:ring")
        with pytest.raises(ValueError, match="unknown topology"):
            _parse_mesh("4x2:taurus")

    def test_bad_mesh_reported_as_cli_error(self, capsys):
        code = main(["characterize", "1d-fft", "--param", "n=64", "--mesh", "0x4"])
        assert code == 2
        assert "positive" in capsys.readouterr().err

    def test_drive_rejections_list_the_kinds_and_patterns(self, capsys):
        assert main(["drive", "--mesh", "4x4:klein"]) == 2
        assert "known kinds: chiplet, hypercube, mesh, torus" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["drive", "--pattern", "zipf"])
        err = capsys.readouterr().err
        for name in ("bit-complement", "bit-reversal", "hotspot", "neighbor",
                     "shuffle", "tornado", "transpose", "uniform"):
            assert name in err


class TestCommands:
    def test_apps_lists_suite(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for name in ("1d-fft", "is", "cholesky", "nbody", "maxflow", "3d-fft", "mg"):
            assert name in out

    def test_characterize_shared_memory(self, capsys, tmp_path):
        log_path = str(tmp_path / "log.csv")
        npz_stem = str(tmp_path / "log")
        code = main(
            ["characterize", "1d-fft", "--param", "n=64", "--log-csv", log_path,
             "--log-npz", npz_stem]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "=== 1d-fft (dynamic, 8 nodes) ===" in out
        assert "spatial:" in out
        with open(log_path) as handle:
            assert "msg_id" in handle.readline()
        # The npz path printed is the one written (NumPy's suffix rule).
        assert f"activity log written to {npz_stem}.npz (columnar npz)" in out
        assert main(["doctor", npz_stem + ".npz"]) == 0

    def test_characterize_message_passing(self, capsys):
        assert main(["characterize", "3d-fft", "--param", "n=8"]) == 0
        out = capsys.readouterr().out
        assert "static" in out

    def test_characterize_on_torus(self, capsys):
        assert main(
            ["characterize", "1d-fft", "--param", "n=64", "--mesh", "4x2:torus"]
        ) == 0

    def test_validate(self, capsys):
        code = main(
            ["validate", "1d-fft", "--param", "n=64", "--messages", "60", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert "acceptable:" in out
        assert code in (0, 1)

    def test_sp2_model(self, capsys):
        assert main(["sp2-model", "0", "1024"]) == 0
        out = capsys.readouterr().out
        assert "73.42" in out

    def test_unknown_app_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["characterize", "quicksort"])

    def test_bad_param_reports_error(self, capsys):
        code = main(["characterize", "1d-fft", "--param", "oops"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_app_param_reports_error(self, capsys):
        # Valid syntax, invalid value for the app (not power of two).
        code = main(["characterize", "1d-fft", "--param", "n=100"])
        assert code == 2

    def test_watchdog_trip_reports_error(self, capsys):
        # A kernel error (here StallError) is a CLI error, not a traceback.
        code = main(["characterize", "1d-fft", "--param", "n=64", "--max-no-progress", "1"])
        assert code == 2
        first_line = capsys.readouterr().err.splitlines()[0]
        assert first_line == "error: no simulated-time progress after 1 events at t=0"


class TestObservabilityCommands:
    def test_metrics_flag_roundtrip(self, capsys, tmp_path):
        path = str(tmp_path / "m.json")
        assert main(
            ["characterize", "1d-fft", "--param", "n=64", "--metrics", path]
        ) == 0
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["app"] == "1d-fft"
        metrics = doc["metrics"]
        assert metrics["sim.event_queue_depth"]["samples"] > 0
        assert any(k.startswith("net.channel[") for k in metrics)
        assert any(k.startswith("coherence.msg.") for k in metrics)
        # The metrics subcommand summarises what characterize wrote.
        capsys.readouterr()
        assert main(["metrics", path]) == 0
        out = capsys.readouterr().out
        assert "net.injected" in out

    def test_metrics_flag_static_strategy(self, tmp_path):
        path = str(tmp_path / "m.json")
        assert main(
            ["characterize", "3d-fft", "--param", "n=8", "--metrics", path]
        ) == 0
        with open(path) as handle:
            metrics = json.load(handle)["metrics"]
        assert metrics["mp.messages"]["value"] > 0
        assert metrics["replay.stall"]["count"] > 0

    def test_timeline_flag_writes_chrome_trace(self, tmp_path):
        path = str(tmp_path / "t.json")
        assert main(
            ["characterize", "1d-fft", "--param", "n=64", "--timeline", path]
        ) == 0
        with open(path) as handle:
            doc = json.load(handle)
        events = doc["traceEvents"]
        assert events
        assert all({"ph", "pid", "name"} <= set(e) for e in events)
        assert any(e["ph"] == "X" for e in events)

    def test_report_flag(self, tmp_path):
        path = str(tmp_path / "report.json")
        assert main(
            ["characterize", "1d-fft", "--param", "n=64", "--report", path]
        ) == 0
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["schema"] == 1
        assert doc["strategy"] == "dynamic"
        assert doc["messages"] > 0
        assert doc["wall_seconds"] > 0
        assert "net.injected" in doc["metrics"]

    def test_metrics_subcommand_rejects_bad_file(self, capsys, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            json.dump({"not": "metrics"}, handle)
        assert main(["metrics", path]) == 2
        assert "error:" in capsys.readouterr().err
