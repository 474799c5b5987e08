"""The unified RunOptions API."""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps import create_app
from repro.core import (
    RunOptions,
    measure_load_point,
    run_dynamic,
    run_static,
    run_synthetic,
)
from repro.obs import MetricsRegistry, TimelineRecorder
from repro.simkernel import SCHEDULER_ENV
from repro.simkernel.engine_calendar import CalendarScheduler
from repro.simkernel.engine_heap import HeapScheduler


def _normalized(log):
    """Activity-log records with the process-global msg_id zeroed, so
    two runs in the same process compare equal."""
    return [dataclasses.replace(r, msg_id=0) for r in log.records]


# ----------------------------------------------------------------------
# the bundle itself
# ----------------------------------------------------------------------
def test_defaults_and_validation():
    options = RunOptions()
    assert not options.metrics and not options.timeline
    assert options.check_leaks and options.check_stall
    assert options.max_no_progress_events is None
    assert options.scheduler is None
    with pytest.raises(ValueError, match="scheduler"):
        RunOptions(scheduler="fifo")
    with pytest.raises(ValueError, match="max_no_progress_events"):
        RunOptions(max_no_progress_events=0)
    with pytest.raises(ValueError, match="scheduler"):
        RunOptions().with_(scheduler="bogus")


def test_round_trip_and_unknown_fields():
    options = RunOptions(metrics=True, scheduler="heap", max_no_progress_events=5)
    assert RunOptions.from_dict(options.as_dict()) == options
    with pytest.raises(ValueError, match="unknown RunOptions field"):
        RunOptions.from_dict({"metrics": True, "turbo": 11})


def test_factories(monkeypatch):
    monkeypatch.delenv(SCHEDULER_ENV, raising=False)
    quiet = RunOptions()
    assert quiet.make_registry() is None
    assert quiet.make_timeline() is None
    assert isinstance(quiet.make_simulator()._sched, CalendarScheduler)
    monkeypatch.setenv(SCHEDULER_ENV, "heap")
    assert isinstance(quiet.make_simulator()._sched, HeapScheduler)
    assert isinstance(
        RunOptions(scheduler="calendar").make_simulator()._sched, CalendarScheduler
    )
    loud = RunOptions(metrics=True, timeline=True, scheduler="heap")
    assert isinstance(loud.make_registry(), MetricsRegistry)
    assert isinstance(loud.make_timeline(), TimelineRecorder)
    assert isinstance(loud.make_simulator()._sched, HeapScheduler)


def test_run_kwargs_gates_stall_check_on_truncation():
    options = RunOptions(max_no_progress_events=100)
    assert options.run_kwargs() == {
        "until": None,
        "check_stall": True,
        "max_no_progress_events": 100,
    }
    assert options.run_kwargs(until=5.0)["check_stall"] is False
    assert RunOptions(check_stall=False).run_kwargs()["check_stall"] is False


# ----------------------------------------------------------------------
# the unified entry points
# ----------------------------------------------------------------------
def test_run_dynamic_by_name_and_scheduler_equivalence():
    cal = run_dynamic("1d-fft", params={"n": 16})
    heap = run_dynamic("1d-fft", params={"n": 16}, options=RunOptions(scheduler="heap"))
    assert _normalized(cal.log) == _normalized(heap.log)
    assert cal.characterization.strategy == "dynamic"


def test_run_static_by_name():
    run = run_static("3d-fft", params={"n": 8}, options=RunOptions(timeline=True))
    assert run.characterization.strategy == "static"
    assert run.trace is not None
    assert run.timeline is not None


def test_run_rejects_wrong_category():
    with pytest.raises(TypeError, match="run_"):
        run_static("1d-fft", params={"n": 16})
    with pytest.raises(ValueError, match="params"):
        run_dynamic(create_app("1d-fft", n=16), params={"n": 32})


def test_run_synthetic_and_measure_load_point_honor_scheduler():
    run = run_dynamic("1d-fft", params={"n": 16})
    logs = {
        scheduler: run_synthetic(
            run.characterization,
            messages_per_source=10,
            options=RunOptions(scheduler=scheduler),
        )
        for scheduler in ("calendar", "heap")
    }
    assert _normalized(logs["calendar"]) == _normalized(logs["heap"])
    points = {
        scheduler: measure_load_point(
            run.characterization,
            messages_per_source=10,
            options=RunOptions(scheduler=scheduler),
        ).point
        for scheduler in ("calendar", "heap")
    }
    assert points["calendar"] == points["heap"]


# ----------------------------------------------------------------------
# sweep cells and the CLI flag group
# ----------------------------------------------------------------------
def test_cell_spec_carries_options_without_breaking_flagless_keys():
    from repro.sweep.grid import CellSpec, make_grid

    flagless = make_grid(apps=["1d-fft"]).expand()[0]
    assert flagless.options is None
    assert '"options"' not in flagless.canonical_json()
    assert CellSpec.from_dict(flagless.as_dict()) == flagless

    pinned = make_grid(
        apps=["1d-fft"], options=RunOptions(scheduler="heap")
    ).expand()[0]
    assert pinned.options == RunOptions(scheduler="heap")
    assert '"options"' in pinned.canonical_json()
    assert CellSpec.from_dict(pinned.as_dict()) == pinned
    # Different kernel knobs must never alias in the result cache.
    assert pinned.canonical_json() != flagless.canonical_json()


def test_cli_instrumentation_flags_shared_across_subcommands():
    from repro.cli import build_parser

    parser = build_parser()
    for argv in (
        ["characterize", "1d-fft", "--scheduler", "heap", "--max-no-progress", "9"],
        ["validate", "1d-fft", "--scheduler", "heap", "--max-no-progress", "9"],
        ["sweep", "run", "--app", "1d-fft", "--scheduler", "heap",
         "--max-no-progress", "9"],
        ["sweep", "status", "--app", "1d-fft", "--scheduler", "heap",
         "--max-no-progress", "9"],
    ):
        args = parser.parse_args(argv)
        assert args.scheduler == "heap"
        assert args.max_no_progress == 9
    with pytest.raises(SystemExit):
        parser.parse_args(["characterize", "1d-fft", "--scheduler", "fifo"])


def test_cli_flags_reach_the_grid_cells():
    from repro.cli import _grid_from_args, build_parser

    parser = build_parser()
    args = parser.parse_args(
        ["sweep", "status", "--app", "1d-fft", "--scheduler", "heap"]
    )
    cell = _grid_from_args(args).expand()[0]
    assert cell.options is not None and cell.options.scheduler == "heap"
