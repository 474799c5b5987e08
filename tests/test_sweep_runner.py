"""Tests for the sweep runner: pool execution, cache resume, failure
isolation (raise + timeout), retries, and the sweep CLI."""

import json
import os
import time

import pytest

from repro.cli import main
from repro.core.options import RunOptions
from repro.sweep import (
    ResultCache,
    SweepResult,
    make_grid,
    run_sweep,
)

# --- injectable cell functions (module-level: picklable into workers) ---


def _mini_report(doc):
    return {
        "app": doc["app"],
        "mesh": doc["mesh"],
        "mean_latency": 1.0 + doc["rate_scale"],
        "wall_seconds": 0.0,
        "extra": {"rate_scale": doc["rate_scale"]},
    }


def _ok_cell(doc):
    return _mini_report(doc)


def _raise_on_is(doc):
    if doc["app"] == "is":
        raise RuntimeError("boom")
    return _mini_report(doc)


def _hang_on_heavy(doc):
    if doc["rate_scale"] > 1.5:
        time.sleep(30.0)
    return _mini_report(doc)


def _fails_once(doc):
    marker = os.path.join(doc["params"]["marker"], f"{doc['rate_scale']}.attempted")
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("x")
        raise RuntimeError("transient")
    return _mini_report(doc)


def _sleep_cell(doc):
    time.sleep(0.4)
    return _mini_report(doc)


def tiny_grid(**overrides):
    kwargs = dict(
        apps=("1d-fft",),
        app_params={"1d-fft": {"n": 32}},
        meshes=("2x2",),
        rate_scales=(1.0, 2.0),
        messages_per_source=20,
    )
    kwargs.update(overrides)
    return make_grid(**kwargs)


class TestRunSweepRealCells:
    def test_end_to_end_inline_with_cache_resume(self, tmp_path):
        grid = tiny_grid()
        first = run_sweep(grid, jobs=1, cache=ResultCache(str(tmp_path)))
        assert len(first.rows) == 2
        assert not first.failures
        assert first.executed == 2
        assert first.cache_misses == 2 and first.cache_hits == 0
        report = first.ok_rows[0]["report"]
        # Cells report in the versioned run-report schema.
        assert report["schema"] == 1
        assert report["app"] == "1d-fft"
        assert report["strategy"] == "dynamic"
        assert report["messages"] > 0
        assert report["extra"]["rate_scale"] == 1.0
        assert report["extra"]["achieved_rate"] > 0

        second = run_sweep(grid, jobs=1, cache=ResultCache(str(tmp_path)))
        assert second.executed == 0
        assert second.cache_hits == 2 and second.cache_misses == 0
        assert all(row["cached"] for row in second.rows)
        # Cached reports are byte-identical to the originals.
        assert [r["report"] for r in second.rows] == [
            r["report"] for r in first.rows
        ]

    def test_pool_matches_inline(self, tmp_path):
        grid = tiny_grid()
        inline = run_sweep(grid, jobs=1)
        pooled = run_sweep(grid, jobs=2)
        key = lambda row: (row["cell"]["app"], row["cell"]["rate_scale"])
        for a, b in zip(
            sorted(inline.rows, key=key), sorted(pooled.rows, key=key)
        ):
            # Deterministic per-cell seeding: identical results modulo
            # wall clock, regardless of worker scheduling.
            ra = {k: v for k, v in a["report"].items() if k != "wall_seconds"}
            rb = {k: v for k, v in b["report"].items() if k != "wall_seconds"}
            ra["extra"] = {k: v for k, v in ra["extra"].items()}
            assert ra == rb

    def test_mp_app_cell(self):
        grid = make_grid(
            apps=("3d-fft",), app_params={"3d-fft": {"n": 8}},
            meshes=("2x2",), messages_per_source=15,
        )
        result = run_sweep(grid, jobs=1)
        assert not result.failures
        assert result.ok_rows[0]["report"]["strategy"] == "static"


class TestFailureIsolation:
    def test_raising_cell_becomes_failure_row(self, tmp_path):
        grid = tiny_grid(apps=("1d-fft", "is"))
        cache = ResultCache(str(tmp_path))
        result = run_sweep(grid, jobs=2, cache=cache, retries=1, backoff=0.01,
                           cell_fn=_raise_on_is)
        assert len(result.rows) == 4
        failures = result.failures
        assert len(failures) == 2
        for row in failures:
            assert row["cell"]["app"] == "is"
            assert row["status"] == "error"
            assert "RuntimeError: boom" in row["error"]
            assert row["attempts"] == 2  # initial + 1 retry
        assert len(result.ok_rows) == 2  # the sweep continued

        # Failures are never cached: a rerun re-executes only them.
        rerun = run_sweep(grid, jobs=1, cache=ResultCache(str(tmp_path)),
                          cell_fn=_ok_cell)
        assert rerun.executed == 2
        assert rerun.cache_hits == 2
        assert not rerun.failures

    def test_hung_cell_times_out_inline(self):
        grid = tiny_grid()
        started = time.perf_counter()
        result = run_sweep(grid, jobs=1, timeout=0.3, retries=0,
                           cell_fn=_hang_on_heavy)
        assert time.perf_counter() - started < 10.0
        timeouts = [r for r in result.rows if r["status"] == "timeout"]
        assert len(timeouts) == 1
        assert timeouts[0]["cell"]["rate_scale"] == 2.0
        assert "0.3" in timeouts[0]["error"]
        assert len(result.ok_rows) == 1

    def test_hung_cell_times_out_in_pool(self, tmp_path):
        grid = tiny_grid()
        cache = ResultCache(str(tmp_path))
        started = time.perf_counter()
        result = run_sweep(grid, jobs=2, cache=cache, timeout=0.3, retries=0,
                           cell_fn=_hang_on_heavy)
        assert time.perf_counter() - started < 10.0
        assert [r["status"] for r in result.rows] == ["ok", "timeout"]
        # Rerun executes only the timed-out cell.
        rerun = run_sweep(grid, jobs=1, cache=ResultCache(str(tmp_path)),
                          cell_fn=_ok_cell)
        assert rerun.executed == 1 and rerun.cache_hits == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_transient_failure_retried(self, tmp_path, jobs):
        grid = tiny_grid(
            app_params={"1d-fft": {"n": 32, "marker": str(tmp_path)}}
        )
        result = run_sweep(grid, jobs=jobs, retries=1, backoff=0.01,
                           cell_fn=_fails_once)
        assert not result.failures
        assert all(row["attempts"] == 2 for row in result.rows)

    def test_retries_bounded(self, tmp_path):
        grid = tiny_grid(apps=("is",), app_params={"is": {"n": 64}})
        result = run_sweep(grid, jobs=1, retries=2, backoff=0.01,
                           cell_fn=_raise_on_is)
        assert all(row["attempts"] == 3 for row in result.failures)

    def test_pattern_cells_apply_their_run_options(self):
        # A one-event no-progress watchdog stalls every simulating cell
        # at t=0, whether an application or a pattern drives the mesh.
        grid = tiny_grid(
            rate_scales=(1.0,),
            patterns=("uniform",),
            options=RunOptions(max_no_progress_events=1),
        )
        result = run_sweep(grid, jobs=1, retries=0)
        statuses = {row["cell"]["app"]: row["status"] for row in result.rows}
        assert statuses == {"1d-fft": "stall", "uniform": "stall"}

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            run_sweep(tiny_grid(), jobs=0)
        with pytest.raises(ValueError):
            run_sweep(tiny_grid(), retries=-1)


class TestParallelism:
    def test_pool_overlaps_cells(self):
        # Sleep-based cells: wall clock shows overlap independent of
        # how many physical cores the host has.
        grid = tiny_grid(rate_scales=(1.0, 2.0, 3.0, 4.0))
        started = time.perf_counter()
        result = run_sweep(grid, jobs=4, cell_fn=_sleep_cell)
        wall = time.perf_counter() - started
        assert not result.failures
        assert wall < 4 * 0.4  # serial would be >= 1.6s


class TestSweepResult:
    def test_json_roundtrip(self, tmp_path):
        result = run_sweep(tiny_grid(), jobs=1, cell_fn=_ok_cell)
        path = str(tmp_path / "sweep.json")
        result.write_json(path)
        back = SweepResult.read_json(path)
        assert back.rows == result.rows
        assert back.jobs == result.jobs
        assert back.as_dict()["schema"] == 1
        assert "mean_latency" in back.describe()

    def test_describe_mentions_failures(self):
        grid = tiny_grid(apps=("1d-fft", "is"))
        result = run_sweep(grid, jobs=1, retries=0, cell_fn=_raise_on_is)
        text = result.describe()
        assert "2 failed" in text
        assert "RuntimeError: boom" in text


class TestSweepCLI:
    ARGS = [
        "--app", "1d-fft", "--param", "n=32", "--mesh", "2x2",
        "--rate-scale", "1.0", "--rate-scale", "2.0", "--messages", "20",
    ]

    def test_run_status_and_resume(self, capsys, tmp_path):
        cache = ["--cache-dir", str(tmp_path / "cache")]
        assert main(["sweep", "run", *self.ARGS, *cache, "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "2 cells: 2 ok" in out
        assert "2 executed" in out
        assert "mean_latency" in out

        assert main(["sweep", "status", *self.ARGS, *cache]) == 0
        assert "2/2 cells cached" in capsys.readouterr().out

        assert main(["sweep", "run", *self.ARGS, *cache, "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out
        assert "2 hits" in out

    def test_run_writes_report(self, capsys, tmp_path):
        report = str(tmp_path / "sweep.json")
        code = main([
            "sweep", "run", *self.ARGS, "--no-cache", "--jobs", "1",
            "--report", report,
        ])
        assert code == 0
        with open(report) as handle:
            doc = json.load(handle)
        assert doc["schema"] == 1
        assert len(doc["cells"]) == 2
        assert doc["cache"]["enabled"] is False
        capsys.readouterr()
        assert main(["sweep", "report", report, "--value", "efficiency"]) == 0
        assert "efficiency" in capsys.readouterr().out

    def test_grid_file(self, capsys, tmp_path):
        grid = tiny_grid()
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid.as_dict()))
        code = main([
            "sweep", "run", "--grid", str(grid_path), "--no-cache",
            "--cache-dir", str(tmp_path / "cache"), "--jobs", "1",
        ])
        assert code == 0
        assert "2 cells: 2 ok" in capsys.readouterr().out

    def test_needs_app_or_grid(self, capsys):
        assert main(["sweep", "run"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_scoped_param_rejects_unknown_scope(self, capsys):
        code = main([
            "sweep", "run", "--app", "1d-fft", "--param", "mg:n=8",
        ])
        assert code == 2


class TestInvoke:
    """The per-cell SIGALRM timeout seam (``runner._invoke``)."""

    def test_timeout_raises_cell_timeout(self):
        from repro.sweep.runner import CellTimeoutError, _invoke

        def slow(doc):
            time.sleep(5.0)
            return doc

        with pytest.raises(CellTimeoutError):
            _invoke(slow, {"cell": 1}, timeout=0.05)

    def test_no_timeout_runs_plain(self):
        from repro.sweep.runner import _invoke

        assert _invoke(_ok_cell, tiny_grid().expand()[0].as_dict(), None)

    def test_off_main_thread_falls_back_to_no_enforcement(self):
        # Regression: signal.signal/setitimer raise ValueError off the
        # main thread, so embedders running cells on worker threads
        # crashed instead of deferring to the supervisor deadline.
        import threading

        from repro.sweep.runner import _invoke

        doc = tiny_grid().expand()[0].as_dict()
        results = {}

        def target():
            try:
                results["report"] = _invoke(_ok_cell, doc, timeout=0.001)
            except BaseException as error:  # pragma: no cover
                results["error"] = error

        worker = threading.Thread(target=target)
        worker.start()
        worker.join()
        assert "error" not in results
        assert results["report"]["app"] == doc["app"]

    def test_restores_the_callers_itimer(self):
        # Regression: _invoke used to zero ITIMER_REAL on exit, silently
        # disarming any timeout the *caller* had running.
        import signal

        from repro.sweep.runner import _invoke

        fired = []
        previous = signal.signal(signal.SIGALRM, lambda s, f: fired.append(s))
        signal.setitimer(signal.ITIMER_REAL, 60.0)
        try:
            _invoke(_ok_cell, tiny_grid().expand()[0].as_dict(), timeout=30.0)
            remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0.0)
            assert 0.0 < remaining <= 60.0
            assert signal.getsignal(signal.SIGALRM) is not signal.SIG_DFL
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert fired == []
