"""The unified RunOptions API."""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps import create_app
from repro.core import (
    RunOptions,
    measure_load_point,
    run_dynamic,
    run_pattern,
    run_static,
    run_synthetic,
)
from repro.core.synthetic import PhaseCoupledTrafficGenerator
from repro.mesh import MeshConfig, MeshNetwork
from repro.obs import MetricsRegistry, TimelineRecorder
from repro.simkernel import Simulator, StallError
from repro.trace import replay_trace


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
    assert len(dataclasses.fields(RunOptions)) == 9
    with pytest.raises(ValueError, match="max_no_progress_events"):
        RunOptions(max_no_progress_events=0)
    # The kernel has one event list, so a bundle has no kernel to pick.
    with pytest.raises(TypeError, match="scheduler"):
        RunOptions(scheduler="calendar")
    with pytest.raises(TypeError, match="scheduler"):
        RunOptions().with_(scheduler="calendar")
    # A stored bundle naming an event list the kernel does not have is
    # rejected by name, not silently run on another kernel; one naming
    # the calendar kernel, or none, loads as the default bundle.
    for gone in ("heap", "parallel"):
        with pytest.raises(ValueError, match=f"scheduler '{gone}' no longer exists"):
            RunOptions.from_dict({"scheduler": gone})
    for kept in (None, "calendar"):
        assert RunOptions.from_dict({"scheduler": kept}) == RunOptions()
    with pytest.raises(
        ValueError, match=r"unknown RunOptions field\(s\) \['parallel_regions'\]"
    ):
        RunOptions.from_dict({"parallel_regions": 2})


def test_paired_fields_need_their_partner(tmp_path):
    with pytest.raises(ValueError, match="log_spill_window needs log_spill"):
        RunOptions(log_spill_window=10)
    RunOptions(log_spill=str(tmp_path), log_spill_window=10)


def test_round_trip_and_unknown_fields():
    options = RunOptions(metrics=True, max_no_progress_events=5)
    assert RunOptions.from_dict(options.as_dict()) == options
    with pytest.raises(ValueError, match="unknown RunOptions field"):
        RunOptions.from_dict({"metrics": True, "turbo": 11})


def test_factories():
    quiet = RunOptions()
    assert quiet.make_registry() is None
    assert quiet.make_timeline() is None
    loud = RunOptions(metrics=True, timeline=True, max_no_progress_events=5)
    assert isinstance(loud.make_registry(), MetricsRegistry)
    assert isinstance(loud.make_timeline(), TimelineRecorder)


# ----------------------------------------------------------------------
# the unified entry points
# ----------------------------------------------------------------------
def test_run_dynamic_by_name():
    run = run_dynamic("1d-fft", params={"n": 16})
    assert run.characterization.strategy == "dynamic"


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


def test_run_synthetic_and_measure_load_point_honor_options():
    run = run_dynamic("1d-fft", params={"n": 16})
    trace = run_static("3d-fft", params={"n": 8}).trace
    # Every mesh driver, each taking the bundle to the one run tail.
    drives = {
        "synthetic": lambda options: run_synthetic(
            run.characterization, messages_per_source=10, options=options
        ),
        "load point": lambda options: measure_load_point(
            run.characterization, messages_per_source=10, options=options
        ).log,
        "pattern": lambda options: run_pattern(
            messages_per_source=10, options=options
        ).log,
        "burst": lambda options: PhaseCoupledTrafficGenerator(
            run.characterization, source_log=run.log, options=options
        ).generate(80),
        "replay": lambda options: replay_trace(
            trace, MeshNetwork(Simulator(), MeshConfig()), options=options
        ),
    }
    # A watchdog that never trips must reproduce the default run
    # exactly ...
    armed = RunOptions(max_no_progress_events=10**9)
    for name, drive in drives.items():
        assert _normalized(drive(None)) == _normalized(drive(armed)), name
    points = [
        measure_load_point(
            run.characterization, messages_per_source=10, options=options
        ).point
        for options in (None, armed)
    ]
    assert points[0] == points[1]
    # ... and a one-event watchdog must reach the kernel and trip on
    # the sources' simultaneous t=0 starts.
    tripwire = RunOptions(max_no_progress_events=1)
    for name, drive in drives.items():
        with pytest.raises(StallError, match="no simulated-time progress"):
            drive(tripwire)


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
        apps=["1d-fft"], options=RunOptions(max_no_progress_events=5)
    ).expand()[0]
    assert pinned.options == RunOptions(max_no_progress_events=5)
    assert '"options"' in pinned.canonical_json()
    assert CellSpec.from_dict(pinned.as_dict()) == pinned
    # Different kernel knobs must never alias in the result cache.
    assert pinned.canonical_json() != flagless.canonical_json()
    # Cache keys hash these documents: pinned byte for byte as sweep
    # caches already hold them.
    assert flagless.canonical_json() == (
        '{"app":"1d-fft","mesh":"4x2","messages_per_source":120,'
        '"params":{"n":64},"protocol":"invalidate","rate_scale":1.0,"seed":0}'
    )
    # A bundle's document lost its "scheduler" key with the kernel
    # choice, so a cell with options was re-keyed once.
    default = make_grid(apps=["1d-fft"], options=RunOptions()).expand()[0]
    assert default.canonical_json() == (
        '{"app":"1d-fft","mesh":"4x2","messages_per_source":120,'
        '"options":{"check_leaks":true,"check_stall":true,'
        '"max_no_progress_events":null,"metrics":false,"timeline":false},'
        '"params":{"n":64},"protocol":"invalidate","rate_scale":1.0,"seed":0}'
    )


def test_cli_instrumentation_flags_shared_across_subcommands():
    from repro.cli import build_parser

    parser = build_parser()
    for argv in (
        ["characterize", "1d-fft", "--max-no-progress", "9"],
        ["validate", "1d-fft", "--max-no-progress", "9"],
        ["sweep", "run", "--app", "1d-fft", "--max-no-progress", "9"],
        ["sweep", "status", "--app", "1d-fft", "--max-no-progress", "9"],
    ):
        args = parser.parse_args(argv)
        assert args.max_no_progress == 9
        # The kernel has one event list, so there is nothing to select.
        with pytest.raises(SystemExit):
            parser.parse_args(argv + ["--scheduler", "calendar"])


def test_cli_flags_reach_the_grid_cells():
    from repro.cli import _grid_from_args, build_parser

    parser = build_parser()
    args = parser.parse_args(
        ["sweep", "status", "--app", "1d-fft", "--max-no-progress", "9"]
    )
    cell = _grid_from_args(args).expand()[0]
    assert cell.options == RunOptions(max_no_progress_events=9)


def test_cli_flags_override_only_what_they_set_in_a_grid_file(tmp_path):
    import json

    from repro.cli import _grid_from_args, build_parser
    from repro.sweep.grid import make_grid

    stored = RunOptions(max_no_progress_events=1000)
    doc = make_grid(apps=["1d-fft"], options=stored).as_dict()
    # A grid file saved while bundles named their kernel loads without it.
    doc["options"]["scheduler"] = "calendar"
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    parser = build_parser()

    def cell(*flags):
        args = parser.parse_args(["sweep", "status", "--grid", str(path), *flags])
        return _grid_from_args(args).expand()[0]

    assert cell().options == stored
    assert cell("--sample-interval", "5").options == stored.with_(sample_interval=5.0)
    assert cell("--max-no-progress", "7").options == stored.with_(
        max_no_progress_events=7
    )
    # Restating the file's own value keeps every cell's cache key.
    assert cell("--max-no-progress", "1000").canonical_json() == (
        cell().canonical_json()
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["characterize", "1d-fft", "--param", "n=64", "--log-spill-window", "10"],
            "log_spill_window needs log_spill",
        ),
        (
            ["drive", "--mesh", "4x4", "--log-spill-window", "10"],
            "log_spill_window needs log_spill",
        ),
    ],
    ids=["log-spill-window", "drive-log-spill-window"],
)
def test_cli_rejects_a_flag_without_its_partner(argv, message, capsys):
    from repro.cli import main

    assert main(argv) == 2
    assert message in capsys.readouterr().err
