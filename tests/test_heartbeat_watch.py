"""Tests for heartbeat streams and the watch surface.

Covers the HeartbeatWriter/read_heartbeats round-trip (including the
truncated-final-line reader contract), fleet scanning and rendering,
the heartbeat doctor check, the `repro watch` CLI, and the sweep
runner's per-cell heartbeat files.
"""

import json
import os

import pytest

from repro.cli import main
from repro.obs.heartbeat import (
    HEARTBEAT_SCHEMA_VERSION,
    HeartbeatFollower,
    HeartbeatWriter,
    heartbeat_rows,
    last_heartbeat,
    read_heartbeats,
    render_fleet,
    safe_label,
    scan_heartbeat_dir,
    write_status_record,
)
from repro.obs.report import heartbeat_health
from repro.sweep import ResultCache, make_grid, run_sweep


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now


class TestHeartbeatWriter:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        clock = FakeClock()
        writer = HeartbeatWriter(path, label="cell-a", wall_clock=clock)
        clock.now += 2.0
        writer.write_window(
            sim_time=50.0, events=1000, window={"net.delivered.rate": 3.0},
            health="ok",
        )
        clock.now += 2.0
        writer.finish("done", sim_time=100.0, events=2000)
        records = read_heartbeats(path)
        assert [r["status"] for r in records] == ["running", "running", "done"]
        assert [r["seq"] for r in records] == [0, 1, 2]
        assert all(r["schema"] == HEARTBEAT_SCHEMA_VERSION for r in records)
        assert all(r["label"] == "cell-a" for r in records)
        assert records[1]["events_per_sec"] == pytest.approx(1000 / 2.0)
        assert records[1]["window"]["net.delivered.rate"] == 3.0
        assert records[2]["sim_time"] == 100.0
        assert records[2]["events_per_sec"] == pytest.approx(2000 / 4.0)

    def test_finish_idempotent(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        writer = HeartbeatWriter(path, wall_clock=FakeClock())
        writer.finish("done")
        writer.finish("failed")  # no-op: stream already closed
        writer.write_window(sim_time=1.0, events=1)  # ditto
        assert [r["status"] for r in read_heartbeats(path)] == ["running", "done"]

    def test_context_manager_records_failure(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with pytest.raises(RuntimeError):
            with HeartbeatWriter(path, wall_clock=FakeClock()):
                raise RuntimeError("boom")
        final = last_heartbeat(path)
        assert final["status"] == "failed"
        assert final["error"] == "RuntimeError: boom"

    def test_truncating_previous_stream(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        HeartbeatWriter(path, wall_clock=FakeClock()).finish("failed")
        HeartbeatWriter(path, wall_clock=FakeClock()).finish("done")
        assert [r["status"] for r in read_heartbeats(path)] == ["running", "done"]


class TestReader:
    def test_truncated_final_line_dropped(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        writer = HeartbeatWriter(path, wall_clock=FakeClock())
        writer.write_window(sim_time=5.0, events=10)
        with open(path, "a") as handle:
            handle.write('{"schema": 1, "label": "run", "st')  # cut mid-write
        records = read_heartbeats(path)
        assert len(records) == 2
        assert records[-1]["sim_time"] == 5.0
        writer.finish()

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w") as handle:
            handle.write('{"schema": 1, "status": "running"}\n')
            handle.write("not json at all\n")
            handle.write('{"schema": 1, "status": "done"}\n')
        with pytest.raises(ValueError, match=r":2: corrupt heartbeat record"):
            read_heartbeats(path)

    def test_empty_stream(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        open(path, "w").close()
        assert read_heartbeats(path) == []
        assert last_heartbeat(path) is None
        assert heartbeat_rows(path) == {}


class TestFleet:
    def test_safe_label(self):
        assert safe_label("1d-fft/4x2/invalidate rs=1.0") == "1d-fft_4x2_invalidate_rs=1.0"
        assert safe_label("...") == "run"

    def test_scan_dir_and_rows(self, tmp_path):
        write_status_record(str(tmp_path / "a.jsonl"), "a", "cached")
        HeartbeatWriter(str(tmp_path / "b.jsonl"), label="b",
                        wall_clock=FakeClock()).finish("done")
        open(str(tmp_path / "empty.jsonl"), "w").close()
        (tmp_path / "notes.txt").write_text("ignored")
        rows = scan_heartbeat_dir(str(tmp_path))
        assert sorted(rows) == ["a", "b"]
        assert rows["a"]["status"] == "cached"
        assert rows["b"]["status"] == "done"
        assert heartbeat_rows(str(tmp_path)) == rows
        single = heartbeat_rows(str(tmp_path / "b.jsonl"))
        assert list(single) == ["b"]

    def test_render_fleet_deterministic(self):
        rows = {
            "cell-b": {"status": "running", "health": "ok", "sim_time": 10.0,
                       "events": 123, "events_per_sec": 45.6},
            "cell-a": {"status": "done", "health": "ok", "sim_time": 99.0,
                       "events": 500, "events_per_sec": 10.0},
            "cell-c": {"status": "failed"},
        }
        text = render_fleet(rows)
        assert text == render_fleet(dict(reversed(list(rows.items()))))
        lines = text.splitlines()
        assert lines[0].split() == ["run", "status", "health", "sim-t",
                                    "events", "ev/s"]
        # Sorted by name, missing fields dashed, summary last.
        assert lines[2].startswith("cell-a")
        assert lines[4].split() == ["cell-c", "failed", "-", "-", "-", "-"]
        assert lines[-1] == "3 run(s): 1 done, 1 failed, 1 running"

    def test_render_fleet_age_column(self):
        rows = {"x": {"status": "running", "wall": 90.0}}
        text = render_fleet(rows, now=100.0)
        assert "age" in text.splitlines()[0]
        assert "10s" in text


class TestHeartbeatHealth:
    def _records(self, *statuses, health="ok"):
        records = [{"label": "r", "status": "running", "health": health,
                    "sim_time": 5.0, "events": 10}]
        records += [{"label": "r", "status": s} for s in statuses]
        return records

    def test_empty_stream_is_a_problem(self):
        lines, problems = heartbeat_health([])
        assert problems == 1
        assert "empty" in lines[0]

    def test_healthy_stream(self):
        lines, problems = heartbeat_health(self._records("done"))
        assert problems == 0
        assert any("done" in l for l in lines)

    def test_failed_and_unhealthy_windows_flagged(self):
        records = self._records("failed", health="saturating")
        records[1]["error"] = "StallError: no progress"
        lines, problems = heartbeat_health(records)
        assert problems >= 2
        joined = "\n".join(lines)
        assert "saturating" in joined and "StallError" in joined

    def test_flagged_windows_in_clean_run_are_notes_only(self):
        # A barrier storm can pin channels for one window; a run that
        # finished "done" recovered, so the flag must not fail doctor.
        lines, problems = heartbeat_health(
            self._records("done", health="saturating")
        )
        assert problems == 0
        assert any("saturating" in l and l.startswith("note:") for l in lines)

    def test_stream_ending_mid_run_flagged(self):
        lines, problems = heartbeat_health(self._records())
        assert problems == 1
        assert any("mid-run" in l for l in lines)


class TestWatchCli:
    def _finished_stream(self, tmp_path, status="done"):
        path = str(tmp_path / "run.jsonl")
        writer = HeartbeatWriter(path, label="run", wall_clock=FakeClock())
        writer.write_window(sim_time=10.0, events=100, health="ok")
        writer.finish(status, sim_time=20.0, events=200)
        return path

    def test_watch_once_renders_fleet(self, capsys, tmp_path):
        path = self._finished_stream(tmp_path)
        assert main(["watch", path, "--once"]) == 0
        out = capsys.readouterr().out
        assert out == render_fleet(heartbeat_rows(path)) + "\n"
        assert "1 run(s): 1 done" in out

    def test_watch_once_failed_run_exits_1(self, capsys, tmp_path):
        path = self._finished_stream(tmp_path, status="failed")
        assert main(["watch", path, "--once"]) == 1
        assert "failed" in capsys.readouterr().out

    def test_watch_loop_exits_when_fleet_settles(self, capsys, tmp_path):
        self._finished_stream(tmp_path)
        write_status_record(str(tmp_path / "other.jsonl"), "other", "cached")
        assert main(["watch", str(tmp_path), "--interval", "0.01"]) == 0
        assert "2 run(s)" in capsys.readouterr().out

    def test_watch_missing_path_is_cli_error(self, capsys, tmp_path):
        code = main(["watch", str(tmp_path / "nope.jsonl"), "--once"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_doctor_reads_heartbeat_stream(self, capsys, tmp_path):
        path = self._finished_stream(tmp_path)
        assert main(["doctor", path]) == 0
        out = capsys.readouterr().out
        assert "heartbeat stream" in out and "healthy" in out
        failed = self._finished_stream(tmp_path, status="failed")
        assert main(["doctor", failed]) == 1


class TestHeartbeatFollower:
    def test_incremental_poll_single_file(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        follower = HeartbeatFollower(path)
        assert follower.poll() == []  # not created yet
        writer = HeartbeatWriter(path, label="r", wall_clock=FakeClock())
        first = follower.poll()
        assert [r["status"] for r in first] == ["running"]
        writer.write_window(sim_time=5.0, events=10)
        writer.finish("done", sim_time=9.0, events=20)
        second = follower.poll()
        assert [r["status"] for r in second] == ["running", "done"]
        assert follower.poll() == []  # fully drained

    def test_follows_files_appearing_in_directory(self, tmp_path):
        follower = HeartbeatFollower(str(tmp_path))
        assert follower.poll() == []
        write_status_record(str(tmp_path / "a.jsonl"), "a", "cached")
        assert [r["label"] for r in follower.poll()] == ["a"]
        write_status_record(str(tmp_path / "b.jsonl"), "b", "cached")
        assert [r["label"] for r in follower.poll()] == ["b"]

    def test_partial_line_held_until_complete(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        follower = HeartbeatFollower(path)
        with open(path, "w") as handle:
            handle.write('{"label": "r", "status": "running"}\n')
            handle.write('{"label": "r", "sta')  # writer mid-record
            handle.flush()
        assert [r["status"] for r in follower.poll()] == ["running"]
        with open(path, "a") as handle:
            handle.write('tus": "done"}\n')
        assert [r["status"] for r in follower.poll()] == ["done"]

    def test_truncated_restart_resets_offset(self, tmp_path):
        # A retried cell reopens its stream with truncation; the
        # follower must notice the shrink and re-read from the start.
        path = str(tmp_path / "run.jsonl")
        follower = HeartbeatFollower(path)
        writer = HeartbeatWriter(path, label="attempt1", wall_clock=FakeClock())
        writer.write_window(sim_time=5.0, events=10)
        writer.write_window(sim_time=6.0, events=20)
        assert len(follower.poll()) == 3
        restarted = HeartbeatWriter(path, label="attempt2", wall_clock=FakeClock())
        records = follower.poll()
        assert [r["label"] for r in records] == ["attempt2"]
        restarted.finish()
        writer.finish()

    def test_same_size_restart_is_detected(self, tmp_path):
        # Regression: a restarted stream whose rewritten file is the
        # same size as (or larger than) the stored offset used to slip
        # past the shrink check, so the follower never re-read it.  The
        # first-line fingerprint catches the rewrite even when sizes
        # line up exactly.
        path = str(tmp_path / "run.jsonl")
        first = '{"schema": 1, "label": "attempt-A", "status": "running"}\n'
        second = '{"schema": 1, "label": "attempt-B", "status": "running"}\n'
        assert len(first) == len(second)  # byte-identical sizes
        follower = HeartbeatFollower(path)
        with open(path, "w") as handle:
            handle.write(first)
        assert [r["label"] for r in follower.poll()] == ["attempt-A"]
        with open(path, "w") as handle:
            handle.write(second)  # same size: offset == new size
        assert [r["label"] for r in follower.poll()] == ["attempt-B"]

    def test_larger_restart_is_detected(self, tmp_path):
        # Same regression, growth flavor: the restarted stream is
        # already *longer* than the stored offset, so the old
        # size-shrunk check saw ordinary growth and resumed mid-record.
        path = str(tmp_path / "run.jsonl")
        follower = HeartbeatFollower(path)
        with open(path, "w") as handle:
            handle.write('{"label": "a", "status": "running"}\n')
        assert [r["label"] for r in follower.poll()] == ["a"]
        with open(path, "w") as handle:
            handle.write('{"label": "b-restarted", "status": "running"}\n')
            handle.write('{"label": "b-restarted", "status": "done"}\n')
        records = follower.poll()
        assert [r["label"] for r in records] == ["b-restarted", "b-restarted"]
        assert [r["status"] for r in records] == ["running", "done"]

    def test_fingerprint_survives_plain_append(self, tmp_path):
        # Appends to an unchanged stream must not be mistaken for
        # restarts (the fingerprint only covers the first line).
        path = str(tmp_path / "run.jsonl")
        follower = HeartbeatFollower(path)
        writer = HeartbeatWriter(path, label="r", wall_clock=FakeClock())
        assert len(follower.poll()) == 1
        writer.write_window(sim_time=1.0, events=5)
        writer.write_window(sim_time=2.0, events=9)
        assert len(follower.poll()) == 2  # only the new records
        writer.finish()

    def test_unparseable_lines_skipped(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w") as handle:
            handle.write('{"status": "running"}\n')
            handle.write("garbage\n")
            handle.write('{"status": "done"}\n')
        records = HeartbeatFollower(path).poll()
        assert [r["status"] for r in records] == ["running", "done"]


class TestWatchLatePath:
    def test_live_watch_waits_for_directory(self, capsys, tmp_path):
        # `repro serve` creates a job's heartbeat dir only once the job
        # starts; watch must poll for the path instead of erroring.
        import threading
        import time as time_module

        hb = tmp_path / "hb-not-yet"

        def populate():
            time_module.sleep(0.2)
            HeartbeatWriter(
                str(hb / "cell.jsonl"), label="late", wall_clock=FakeClock()
            ).finish("done", sim_time=1.0, events=2)

        thread = threading.Thread(target=populate)
        thread.start()
        try:
            code = main(["watch", str(hb), "--interval", "0.05"])
        finally:
            thread.join()
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"waiting for {hb} to appear...")
        assert "1 run(s): 1 done" in out

    def test_once_still_errors_on_missing_path(self, capsys, tmp_path):
        assert main(["watch", str(tmp_path / "nope"), "--once"]) == 2
        assert "no such heartbeat" in capsys.readouterr().err


class TestWatchUrl:
    def _service(self, tmp_path):
        from repro.serve import BackgroundService, JobManager, ServiceConfig
        from repro.sweep import ResultCache

        def cell(spec_doc, heartbeat=None):
            if heartbeat is not None:
                writer = HeartbeatWriter(heartbeat, label=spec_doc["app"])
                writer.finish("done", sim_time=1.0, events=10)
            return {"schema": 1, "app": spec_doc["app"], "messages": 3}

        manager = JobManager(
            str(tmp_path / "state"),
            ResultCache(str(tmp_path / "cache")),
            cell_fn=cell,
        )
        config = ServiceConfig(
            port=0,
            state_dir=str(tmp_path / "state"),
            cache_dir=str(tmp_path / "cache"),
            rate=0.0,
            poll_interval=0.02,
        )
        return BackgroundService(config, manager=manager)

    def _submit(self, service):
        import json as json_module
        import urllib.request

        body = json_module.dumps(
            {
                "grid": {
                    "apps": ["1d-fft"],
                    "app_params": {"1d-fft": {"n": 32}},
                    "meshes": ["2x2"],
                    "messages_per_source": 10,
                }
            }
        ).encode()
        request = urllib.request.Request(
            service.base_url + "/v1/jobs",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            return json_module.loads(response.read())["id"]

    def test_watch_url_follows_job_to_done(self, capsys, tmp_path):
        with self._service(tmp_path) as service:
            job_id = self._submit(service)
            code = main(
                ["watch", "--url", f"{service.base_url}/v1/jobs/{job_id}/events"]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert f"job {job_id}" in out
        assert "1d-fft: done" in out
        assert "job ended: done" in out

    def test_watch_url_scheme_optional(self, capsys, tmp_path):
        with self._service(tmp_path) as service:
            job_id = self._submit(service)
            bare = f"{service.service.config.host}:{service.port}"
            code = main(["watch", "--url", f"{bare}/v1/jobs/{job_id}/events"])
        assert code == 0

    def test_watch_url_and_path_conflict(self, capsys, tmp_path):
        code = main(["watch", str(tmp_path), "--url", "http://x/v1"])
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_watch_neither_path_nor_url(self, capsys):
        assert main(["watch"]) == 2
        assert "PATH or --url" in capsys.readouterr().err

    def test_watch_url_unreachable(self, capsys):
        code = main(["watch", "--url", "http://127.0.0.1:9/v1/jobs/x/events"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSweepHeartbeats:
    def _grid(self):
        return make_grid(
            apps=("1d-fft",),
            app_params={"1d-fft": {"n": 32}},
            meshes=("2x2",),
            rate_scales=(1.0, 2.0),
            messages_per_source=20,
        )

    def test_per_cell_streams_written(self, tmp_path):
        hb = str(tmp_path / "hb")
        result = run_sweep(self._grid(), jobs=1, heartbeat_dir=hb)
        assert not result.failures
        rows = scan_heartbeat_dir(hb)
        assert len(rows) == 2
        assert all(r["status"] == "done" for r in rows.values())
        # Workers stream real progress records, not just the terminal.
        stems = sorted(rows)
        records = read_heartbeats(os.path.join(hb, stems[0] + ".jsonl"))
        assert records[0]["status"] == "running"
        assert records[-1]["events"] > 0

    def test_cached_cells_marked(self, tmp_path):
        hb = str(tmp_path / "hb")
        cache = ResultCache(str(tmp_path / "cache"))
        run_sweep(self._grid(), jobs=1, cache=cache)
        result = run_sweep(
            self._grid(), jobs=1, cache=cache, heartbeat_dir=hb
        )
        assert result.cache_hits == 2
        rows = scan_heartbeat_dir(hb)
        assert [r["status"] for r in rows.values()] == ["cached", "cached"]

    def test_heartbeat_dir_does_not_change_cache_key(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_sweep(self._grid(), jobs=1, cache=ResultCache(cache_dir),
                  heartbeat_dir=str(tmp_path / "hb"))
        rerun = run_sweep(self._grid(), jobs=1, cache=ResultCache(cache_dir))
        assert rerun.cache_hits == 2 and rerun.cache_misses == 0

    def test_pool_workers_write_heartbeats(self, tmp_path):
        hb = str(tmp_path / "hb")
        result = run_sweep(self._grid(), jobs=2, heartbeat_dir=hb)
        assert not result.failures
        rows = scan_heartbeat_dir(hb)
        assert len(rows) == 2
        assert all(r["status"] == "done" for r in rows.values())

    def test_sweep_cli_heartbeat_dir_and_progress(self, capsys, tmp_path):
        hb = str(tmp_path / "hb")
        code = main([
            "sweep", "run", "--app", "1d-fft", "--param", "n=32",
            "--mesh", "2x2", "--messages", "20", "--no-cache",
            "--heartbeat-dir", hb,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "computed" in out and "cells/s" in out
        assert len(scan_heartbeat_dir(hb)) == 1
        capsys.readouterr()
        assert main(["watch", hb, "--once"]) == 0
        assert "1 run(s): 1 done" in capsys.readouterr().out
