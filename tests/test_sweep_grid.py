"""Tests for grid expansion, the result cache and aggregation tables."""

import json

import pytest

from repro.sweep import (
    CellSpec,
    GridSpec,
    NO_PROTOCOL,
    ResultCache,
    canonical_json,
    comparison_table,
    describe_status,
    failure_table,
    make_grid,
    sweep_status,
)


def small_grid(**overrides):
    kwargs = dict(
        apps=("1d-fft", "is"),
        meshes=("2x2", "4x2"),
        rate_scales=(1.0, 2.0),
        messages_per_source=20,
    )
    kwargs.update(overrides)
    return make_grid(**kwargs)


class TestGridExpansion:
    def test_cell_count_is_axis_product(self):
        cells = small_grid().expand()
        assert len(cells) == 2 * 2 * 2  # apps x meshes x scales

    def test_expansion_is_deterministic(self):
        assert small_grid().expand() == small_grid().expand()

    def test_seed_axis_multiplies(self):
        cells = small_grid(seeds=(0, 1, 2)).expand()
        assert len(cells) == 8 * 3

    def test_mp_apps_collapse_protocol_axis(self):
        # Coherence protocols do not apply to the static strategy; one
        # cell per MP configuration, not one per protocol.
        grid = make_grid(
            apps=("1d-fft", "mg"),
            meshes=("2x2",),
            protocols=("invalidate", "update"),
            messages_per_source=20,
        )
        cells = grid.expand()
        shared = [c for c in cells if c.app == "1d-fft"]
        mp = [c for c in cells if c.app == "mg"]
        assert {c.protocol for c in shared} == {"invalidate", "update"}
        assert [c.protocol for c in mp] == [NO_PROTOCOL]

    def test_default_params_filled(self):
        cells = make_grid(apps=("1d-fft",), messages_per_source=20).expand()
        assert cells[0].params_dict == {"n": 64}

    def test_param_overrides(self):
        grid = make_grid(
            apps=("1d-fft",), app_params={"1d-fft": {"n": 128}},
            messages_per_source=20,
        )
        assert grid.expand()[0].params_dict == {"n": 128}

    def test_grid_dict_roundtrip(self):
        grid = small_grid(seeds=(3, 4), protocols=("update",))
        assert GridSpec.from_dict(grid.as_dict()) == grid

    def test_grid_json_file_roundtrip(self, tmp_path):
        grid = small_grid()
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid.as_dict()))
        assert GridSpec.from_json_file(str(path)) == grid

    def test_validation(self):
        with pytest.raises(ValueError):
            make_grid(apps=())
        with pytest.raises(ValueError):
            make_grid(apps=("quicksort",))
        with pytest.raises(ValueError):
            make_grid(apps=("1d-fft",), meshes=("0x4",))
        with pytest.raises(ValueError):
            make_grid(apps=("1d-fft",), protocols=("mesi",))
        with pytest.raises(ValueError):
            make_grid(apps=("1d-fft",), rate_scales=(0.0,))
        with pytest.raises(ValueError):
            make_grid(apps=("1d-fft",), messages_per_source=0)
        with pytest.raises(ValueError):
            make_grid(apps=("1d-fft",), app_params={"mg": {"n": 8}})


class TestCellSpec:
    def test_canonical_json_is_stable_and_sorted(self):
        cell = small_grid().expand()[0]
        text = cell.canonical_json()
        assert text == cell.canonical_json()
        assert json.loads(text) == cell.as_dict()
        assert text == canonical_json(json.loads(text))

    def test_dict_roundtrip(self):
        cell = small_grid().expand()[3]
        assert CellSpec.from_dict(cell.as_dict()) == cell

    def test_cell_id_readable(self):
        cell = small_grid().expand()[0]
        assert "1d-fft" in cell.cell_id
        assert "2x2" in cell.cell_id

    def test_seed_sequences_deterministic_and_distinct(self):
        cells = small_grid().expand()
        states = [c.seed_sequence().generate_state(2).tolist() for c in cells]
        again = [c.seed_sequence().generate_state(2).tolist() for c in cells]
        assert states == again
        # Same grid seed, different coordinates -> decorrelated roots.
        assert len({tuple(s) for s in states}) == len(states)


class TestResultCache:
    def test_roundtrip_and_counters(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        key = cache.key_for_doc({"x": 1})
        assert cache.get(key) is None
        assert cache.misses == 1
        cache.put(key, {"value": 42})
        assert cache.get(key) == {"value": 42}
        assert cache.stats() == {"hits": 1, "misses": 1}
        assert cache.has(key)

    def test_key_depends_on_spec_and_fingerprint(self, tmp_path):
        c1 = ResultCache(str(tmp_path), fingerprint="f1")
        c2 = ResultCache(str(tmp_path), fingerprint="f2")
        assert c1.key_for_doc({"x": 1}) != c1.key_for_doc({"x": 2})
        # Code change -> every key changes -> full recompute.
        assert c1.key_for_doc({"x": 1}) != c2.key_for_doc({"x": 1})

    def test_code_change_invalidates(self, tmp_path):
        before = ResultCache(str(tmp_path), fingerprint="rev-a")
        key = before.key_for_doc({"x": 1})
        before.put(key, {"value": 1})
        after = ResultCache(str(tmp_path), fingerprint="rev-b")
        assert after.get(after.key_for_doc({"x": 1})) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        key = cache.key_for_doc({"x": 1})
        cache.put(key, {"value": 1})
        path = tmp_path / key[:2] / (key + ".json")
        path.write_text("{not json")
        assert cache.get(key) is None

    def test_pickle_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        key = cache.key_for_doc({"kind": "blob"})
        assert cache.get_pickle(key) is None
        assert cache.put_pickle(key, {"a": [1, 2, 3]})
        assert cache.get_pickle(key) == {"a": [1, 2, 3]}

    def test_unpicklable_is_best_effort(self, tmp_path):
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        key = cache.key_for_doc({"kind": "blob"})
        assert not cache.put_pickle(key, lambda: None)
        assert cache.get_pickle(key) is None


def _ok_row(app, mesh, protocol, scale, latency, seed=0):
    return {
        "status": "ok",
        "cached": False,
        "attempts": 1,
        "cell": {
            "app": app, "params": {}, "mesh": mesh, "protocol": protocol,
            "rate_scale": scale, "seed": seed, "messages_per_source": 10,
        },
        "key": None,
        "report": {"mean_latency": latency, "extra": {"efficiency": 0.9}},
    }


def _failure_row(app, status="timeout"):
    return {
        "status": status,
        "cached": False,
        "attempts": 2,
        "cell": {
            "app": app, "params": {}, "mesh": "2x2", "protocol": "invalidate",
            "rate_scale": 1.0, "seed": 0, "messages_per_source": 10,
        },
        "key": None,
        "error": "cell exceeded 1s",
    }


class TestAggregation:
    def test_comparison_table_pivots_by_scale(self):
        rows = [
            _ok_row("1d-fft", "2x2", "invalidate", 1.0, 5.0),
            _ok_row("1d-fft", "2x2", "invalidate", 2.0, 7.0),
            _ok_row("is", "2x2", "invalidate", 1.0, 6.0),
        ]
        table = comparison_table(rows)
        assert "x1" in table and "x2" in table
        assert "1d-fft@2x2/invalidate" in table
        assert "5.000" in table and "7.000" in table
        # is has no x2 cell -> dash placeholder.
        assert "-" in table

    def test_comparison_table_averages_seeds(self):
        rows = [
            _ok_row("is", "2x2", "invalidate", 1.0, 4.0, seed=0),
            _ok_row("is", "2x2", "invalidate", 1.0, 8.0, seed=1),
        ]
        assert "6.000" in comparison_table(rows)

    def test_comparison_table_reads_extras(self):
        rows = [_ok_row("is", "2x2", "invalidate", 1.0, 4.0)]
        assert "0.900" in comparison_table(rows, value="efficiency")

    def test_comparison_table_empty(self):
        assert "no successful cells" in comparison_table([_failure_row("is")])

    def test_failure_table(self):
        # A stall row from a report saved while cell bundles still
        # carried "scheduler": null.
        stalled = _failure_row("1d-fft", status="stall")
        stalled["cell"]["options"] = {
            "check_leaks": True, "check_stall": True,
            "max_no_progress_events": 1, "metrics": False,
            "scheduler": None, "timeline": False,
        }
        stalled["error"] = "StallError: no simulated-time progress"
        table = failure_table(
            [_failure_row("is"), _ok_row("is", "2x2", "invalidate", 1.0, 4.0), stalled]
        )
        assert "timeout after 2 attempt(s)" in table
        assert "cell exceeded 1s" in table
        assert "stall after 2 attempt(s): StallError" in table
        assert failure_table([]) == "no failures"

    def test_sweep_status_counts_cached_cells(self, tmp_path):
        grid = small_grid()
        cache = ResultCache(str(tmp_path), fingerprint="f1")
        cells = grid.expand()
        cache.put(cache.key_for(cells[0].canonical_json()), {"mean_latency": 1.0})
        status = sweep_status(grid, cache)
        assert status["total"] == len(cells)
        assert status["cached"] == 1
        assert status["pending"] == len(cells) - 1
        text = describe_status(status)
        assert "1/8 cells cached" in text
        assert "pending" in text


class TestPatternCells:
    def test_pattern_axis_expands_after_apps(self):
        grid = make_grid(
            apps=("1d-fft",),
            meshes=("4x2",),
            protocols=("invalidate",),
            patterns=("tornado", "uniform"),
        )
        cells = grid.expand()
        app_cells = [c for c in cells if c.pattern is None]
        pattern_cells = [c for c in cells if c.pattern is not None]
        assert len(app_cells) == 1
        assert [c.app for c in pattern_cells] == ["tornado", "uniform"]
        for cell in pattern_cells:
            assert cell.protocol == NO_PROTOCOL
            assert cell.params == ()
        # Pattern cells come after every app cell, so pre-existing
        # sweeps keep their cell ordering.
        assert cells[: len(app_cells)] == app_cells

    def test_pattern_only_grid(self):
        grid = make_grid(apps=(), patterns=("tornado",), meshes=("4x4x2:torus",))
        cells = grid.expand()
        assert len(cells) == 1
        assert cells[0].pattern == "tornado"

    def test_grid_needs_an_app_or_pattern(self):
        with pytest.raises(ValueError, match="app or pattern"):
            make_grid(apps=())

    def test_unknown_pattern_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            make_grid(apps=(), patterns=("zipf",))

    def test_incompatible_pattern_mesh_rejected_eagerly(self):
        # transpose cannot target a 4x2 grid (non-palindromic dims).
        with pytest.raises(ValueError, match="transpose"):
            make_grid(apps=(), patterns=("transpose",), meshes=("4x2",))

    def test_grid_round_trips_patterns(self):
        grid = make_grid(apps=(), patterns=("tornado",), meshes=("4x4:torus",))
        doc = json.loads(json.dumps(grid.as_dict()))
        assert GridSpec.from_dict(doc) == grid
        assert doc["patterns"] == ["tornado"]

    def test_cache_keys_stable_without_pattern(self):
        # Pre-existing app cells must not grow a "pattern" key: that
        # would re-key (and thus invalidate) every cached sweep result.
        grid = small_grid()
        for cell in grid.expand():
            assert "pattern" not in cell.as_dict()
            assert "pattern" not in cell.canonical_json()
        assert "patterns" not in grid.as_dict()

    def test_pattern_cell_round_trip(self):
        grid = make_grid(apps=(), patterns=("hotspot",), meshes=("4x2",))
        cell = grid.expand()[0]
        assert CellSpec.from_dict(json.loads(cell.canonical_json())) == cell
