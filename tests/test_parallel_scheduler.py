"""Tests for the parallel region-replay mesh scheduler.

Checks the ``parallel`` scheduler against the serial calendar kernel
(whose own order ``test_scheduler_equivalence.py`` pins): the merged
per-region netlog must be bit-identical to the serial run for
region-local traffic (within one row, or between the rows of
one band), and a schedule with any message crossing a region boundary
must be rejected before a worker starts.  Also covers the partition
geometry, a region worker's death, the options/CLI seam, and the
merged-manifest contract every existing spill consumer relies on.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RunOptions, run_pattern
from repro.core.options import PARALLEL_SCHEDULER, RUN_SCHEDULERS
from repro.mesh.config import MeshConfig
from repro.mesh.netlog import LogSummary, NetworkLog
from repro.mesh.netlog_stream import (
    materialize_manifest,
    read_manifest,
    summary_from_manifest,
)
from repro.mesh.partition import MeshPartition, slice_partition
from repro.simkernel import engine_parallel
from repro.simkernel.engine_parallel import (
    ParallelRunResult,
    ParallelSimulationError,
    ScheduleTraffic,
    SerialRunResult,
    logs_bit_identical,
    run_parallel_mesh,
    run_serial_schedule,
)
from repro.simkernel.engine_parallel import (
    PARALLEL_SCHEDULER as ENGINE_PARALLEL_SCHEDULER,
)


def local_traffic(config, messages=10, seed=7):
    return ScheduleTraffic.compile_pattern(
        config, pattern="local", messages_per_source=messages, seed=seed
    )


def uniform_traffic(config, messages=8, seed=7):
    return ScheduleTraffic.compile_pattern(
        config, pattern="uniform", messages_per_source=messages, seed=seed
    )


def band_traffic(config, messages=10, seed=7):
    """Every message goes to the other row of its source's two-row
    band (rows 0 <-> 1, 2 <-> 3, ...): it crosses a row but never a
    2-region band boundary of a 4-row mesh."""
    width = config.spec.dims[0]
    rng = np.random.default_rng(seed)
    per_source = {}
    for src in range(config.num_nodes):
        y = src // width
        other_row = y + 1 if y % 2 == 0 else y - 1
        per_source[src] = [
            (float(rng.exponential(10.0)),
             other_row * width + int(rng.integers(width)),
             64,
             src * 1_000_000 + i)
            for i in range(messages)
        ]
    return ScheduleTraffic(config.num_nodes, per_source)


SCHEDULES = {"rows": local_traffic, "band": band_traffic}


# ----------------------------------------------------------------------
# partition geometry
# ----------------------------------------------------------------------
class TestSlicePartition:
    def test_even_split(self):
        part = slice_partition(MeshConfig("4x4"), 2)
        assert part.bounds == ((0, 2), (2, 4))
        assert part.num_regions == 2
        assert not any(part.is_empty(r) for r in range(2))

    def test_remainder_rows_go_to_the_first_bands(self):
        part = slice_partition(MeshConfig("4x5"), 2)
        assert part.bounds == ((0, 3), (3, 5))

    def test_more_regions_than_rows_leaves_empty_tail_bands(self):
        part = slice_partition(MeshConfig("4x2"), 4)
        assert part.bounds == ((0, 1), (1, 2), (2, 2), (2, 2))
        assert part.is_empty(2) and part.is_empty(3)
        with pytest.raises(ValueError, match="empty"):
            part.region_config(2)

    def test_rejects_non_positive_region_count(self):
        with pytest.raises(ValueError, match="regions must be >= 1"):
            slice_partition(MeshConfig("4x4"), 0)


class TestPartitionValidation:
    def test_rejects_torus(self):
        with pytest.raises(ValueError, match="mesh topology"):
            slice_partition(MeshConfig.parse("4x4:torus"), 2)

    def test_rejects_adaptive_routing(self):
        config = MeshConfig("4x4", routing="adaptive", virtual_channels=2)
        with pytest.raises(ValueError, match="deterministic"):
            slice_partition(config, 2)

    def test_rejects_gapped_bounds(self):
        with pytest.raises(ValueError, match="contiguously"):
            MeshPartition(
                config=MeshConfig("4x4"), bounds=((0, 1), (2, 4))
            )

    def test_rejects_short_coverage(self):
        with pytest.raises(ValueError, match="mesh has 4"):
            MeshPartition(config=MeshConfig("4x4"), bounds=((0, 3),))


class TestIdAlgebra:
    def test_region_of_and_local_roundtrip(self):
        part = slice_partition(MeshConfig("4x4"), 2)
        for node in range(16):
            region = part.region_of(node)
            assert node in part.nodes(region)
            local = part.to_local(region, node)
            assert part.to_global(region, local) == node

    def test_to_local_rejects_foreign_nodes(self):
        part = slice_partition(MeshConfig("4x4"), 2)
        with pytest.raises(ValueError, match="not in region"):
            part.to_local(0, 15)

    def test_region_config_keeps_width_and_timing(self):
        config = MeshConfig("4x4", channel_time=2.5)
        sub = slice_partition(config, 2).region_config(1)
        assert sub.spec.dims == (4, 2)
        assert sub.channel_time == 2.5


# ----------------------------------------------------------------------
# pre-drawn traffic
# ----------------------------------------------------------------------
class TestScheduleTraffic:
    def test_local_pattern_stays_in_the_source_row(self):
        config = MeshConfig("4x4")
        traffic = local_traffic(config)
        for src, entries in traffic.per_source.items():
            for _, dst, _, _ in entries:
                assert dst // 4 == src // 4 and dst != src

    def test_local_pattern_never_crosses_a_row_sliced_boundary(self):
        config = MeshConfig("4x4")
        part = slice_partition(config, 4)
        assert local_traffic(config).crossings(part) == []

    def test_uniform_pattern_crosses_boundaries(self):
        config = MeshConfig("4x4")
        part = slice_partition(config, 2)
        crossings = uniform_traffic(config).crossings(part)
        assert crossings
        for src, dst in crossings:
            assert part.region_of(src) != part.region_of(dst)

    def test_compile_is_deterministic_per_seed(self):
        config = MeshConfig("4x4")
        a, b = uniform_traffic(config, seed=5), uniform_traffic(config, seed=5)
        assert a.per_source == b.per_source
        assert a.per_source != uniform_traffic(config, seed=6).per_source

    def test_rejections(self):
        config = MeshConfig("4x4")
        with pytest.raises(ValueError, match="unknown pattern"):
            ScheduleTraffic.compile_pattern(config, pattern="zipf")
        with pytest.raises(ValueError, match="mean_gap"):
            ScheduleTraffic.compile_pattern(config, mean_gap=0.0)
        with pytest.raises(ValueError, match="msg_id blocks"):
            ScheduleTraffic.compile_pattern(config, messages_per_source=1_000_000)
        with pytest.raises(ValueError, match="duplicate msg_id"):
            ScheduleTraffic(4, {0: [(1.0, 1, 64, 9), (1.0, 2, 64, 9)]})
        with pytest.raises(ValueError, match="destination 9"):
            ScheduleTraffic(4, {0: [(1.0, 9, 64, 0)]})
        with pytest.raises(ValueError, match="negative gap"):
            ScheduleTraffic(4, {0: [(-1.0, 1, 64, 0)]})


# ----------------------------------------------------------------------
# serial vs parallel equivalence
# ----------------------------------------------------------------------
class TestParallelBitIdentity:
    @pytest.mark.parametrize(
        "schedule, regions", [("rows", 2), ("rows", 4), ("band", 2)]
    )
    def test_local_traffic_is_bit_identical(self, tmp_path, schedule, regions):
        config = MeshConfig("4x4")
        traffic = SCHEDULES[schedule](config)
        serial = run_serial_schedule(config, traffic)
        parallel = run_parallel_mesh(
            config,
            traffic,
            regions=regions,
            directory=str(tmp_path / f"{schedule}{regions}"),
        )
        assert parallel.records == len(serial.log)
        assert logs_bit_identical(serial.log, parallel.merged_log())

    def test_empty_regions_idle_without_breaking_identity(self, tmp_path):
        config = MeshConfig("4x2")
        traffic = local_traffic(config)
        serial = run_serial_schedule(config, traffic)
        parallel = run_parallel_mesh(
            config, traffic, regions=4, directory=str(tmp_path)
        )
        assert parallel.regions == 4
        assert parallel.active_regions == (0, 1)
        assert logs_bit_identical(serial.log, parallel.merged_log())

    def test_single_region_degenerates_to_serial(self, tmp_path):
        config = MeshConfig("4x2")
        traffic = uniform_traffic(config)
        serial = run_serial_schedule(config, traffic)
        parallel = run_parallel_mesh(
            config, traffic, regions=1, directory=str(tmp_path)
        )
        assert logs_bit_identical(serial.log, parallel.merged_log())


class TestCrossingSchedulesRejected:
    def test_uniform_traffic_is_rejected_before_forking(
        self, tmp_path, monkeypatch
    ):
        config = MeshConfig("4x4")
        traffic = uniform_traffic(config)
        crossings = traffic.crossings(slice_partition(config, 2))

        def no_workers(*args, **kwargs):
            raise AssertionError("a region worker was started")

        monkeypatch.setattr(multiprocessing, "get_context", no_workers)
        spill = tmp_path / "never"
        src, dst = crossings[0]
        with pytest.raises(ValueError) as caught:
            run_parallel_mesh(config, traffic, regions=2, directory=str(spill))
        message = str(caught.value)
        assert (
            f"{len(crossings)} of {traffic.message_count} scheduled messages "
            f"cross a region boundary (first: node {src} in region 0 -> "
            f"node {dst} in region 1)"
        ) in message
        assert "serial calendar scheduler" in message
        assert not spill.exists()

    def test_drive_exits_2_on_a_crossing_pattern(self, tmp_path, capsys):
        from repro.cli import main

        spill = tmp_path / "pmesh"
        rc = main(
            [
                "drive", "--mesh", "4x4", "--pattern", "uniform",
                "--messages", "4", "--scheduler", "parallel",
                "--regions", "2", "--log-spill", str(spill),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "cross a region boundary" in err
        assert "serial calendar scheduler" in err
        assert not spill.exists()


class TestParallelValidation:
    def test_traffic_mesh_size_mismatch(self, tmp_path):
        traffic = local_traffic(MeshConfig("4x4"))
        with pytest.raises(ValueError, match="traffic drawn for 16 nodes"):
            run_parallel_mesh(
                MeshConfig("4x2"), traffic, directory=str(tmp_path)
            )

    def test_serial_replay_accepts_only_the_calendar_kernel(self):
        config = MeshConfig("4x2")
        traffic = local_traffic(config)
        for scheduler in ("heap", "parallel"):
            with pytest.raises(ValueError, match=f"scheduler={scheduler!r}"):
                run_serial_schedule(config, traffic, scheduler=scheduler)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched replay reaches the worker only through fork",
)
class TestRegionWorkerDeath:
    def test_killed_worker_is_named_promptly(self, tmp_path, monkeypatch):
        replay = engine_parallel._replay_region

        def replay_or_die(partition, region, *args):
            if region == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return replay(partition, region, *args)

        monkeypatch.setattr(engine_parallel, "_replay_region", replay_or_die)
        config = MeshConfig("4x4")
        started = time.monotonic()
        with pytest.raises(
            ParallelSimulationError,
            match=r"region 1 worker exited without a reply \(exit code -9\)",
        ):
            run_parallel_mesh(
                config, local_traffic(config), regions=2, directory=str(tmp_path)
            )
        assert time.monotonic() - started < 10.0
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "netlog.manifest.json").exists()


# ----------------------------------------------------------------------
# merged manifest contract
# ----------------------------------------------------------------------
class TestMergedManifest:
    def test_manifest_readable_by_every_spill_consumer(self, tmp_path):
        config = MeshConfig("4x4")
        traffic = local_traffic(config)
        parallel = run_parallel_mesh(
            config, traffic, regions=2, directory=str(tmp_path)
        )
        doc = read_manifest(parallel.manifest_path)
        assert doc["records"] == traffic.message_count
        assert doc["parallel"] == {
            "regions": 2,
            "active_regions": [0, 1],
            "partitioner": "slice",
            "region_manifests": [
                os.path.basename(p) for p in parallel.region_manifests
            ],
        }
        assert len(doc["parallel"]["region_manifests"]) == 2

        assert len(materialize_manifest(parallel.manifest_path)) == doc["records"]
        summary = summary_from_manifest(parallel.manifest_path)
        assert summary.messages == doc["records"]

    def test_doctor_accepts_the_merged_manifest(self, tmp_path, capsys):
        from repro.cli import main

        config = MeshConfig("4x2")
        parallel = run_parallel_mesh(
            config, local_traffic(config), directory=str(tmp_path)
        )
        assert main(["doctor", parallel.manifest_path]) == 0
        assert "healthy" in capsys.readouterr().out


# ----------------------------------------------------------------------
# options / run_pattern / CLI seam
# ----------------------------------------------------------------------
class TestParallelOptions:
    def test_constants_agree_across_layers(self):
        assert PARALLEL_SCHEDULER == ENGINE_PARALLEL_SCHEDULER
        assert RUN_SCHEDULERS == ("calendar", PARALLEL_SCHEDULER)

    def test_parallel_scheduler_is_accepted(self):
        options = RunOptions(scheduler="parallel", parallel_regions=4)
        assert options.scheduler == "parallel"
        assert options.parallel_regions == 4

    def test_parallel_knobs_are_validated(self):
        with pytest.raises(ValueError, match="parallel_regions"):
            RunOptions(scheduler="parallel", parallel_regions=0)

    def test_unset_parallel_fields_keep_cache_keys_stable(self):
        doc = RunOptions().as_dict()
        assert "parallel_regions" not in doc
        doc = RunOptions(scheduler="parallel", parallel_regions=2).as_dict()
        assert doc["parallel_regions"] == 2

    def test_run_pattern_dispatches_on_the_scheduler(self, tmp_path):
        config = MeshConfig("4x2")
        serial = run_pattern(
            config, pattern="local", messages_per_source=6,
            options=RunOptions(scheduler="calendar"),
        )
        assert isinstance(serial, SerialRunResult)
        parallel = run_pattern(
            config, pattern="local", messages_per_source=6,
            options=RunOptions(
                scheduler="parallel", parallel_regions=2,
                log_spill=str(tmp_path),
            ),
        )
        assert isinstance(parallel, ParallelRunResult)
        assert logs_bit_identical(serial.log, parallel.merged_log())

    def test_drive_cli_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        spill = str(tmp_path / "pmesh")
        rc = main(
            [
                "drive", "--mesh", "4x4", "--pattern", "local",
                "--messages", "6", "--scheduler", "parallel",
                "--regions", "2", "--log-spill", spill,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "scheduler parallel" in out
        rc = main(["doctor", f"{spill}/netlog.manifest.json"])
        assert rc == 0


# ----------------------------------------------------------------------
# region-partial summary folds
# ----------------------------------------------------------------------
def _fill_log(log, rows):
    for i, (src, dst, length, latency) in enumerate(rows):
        inject = float(i)
        log.append(i, src, dst, length, "p2p", inject, inject + 0.5,
                   inject + 0.5 + latency, 0.25, abs(src - dst) + 1)


record_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),      # src
        st.integers(min_value=0, max_value=7),      # dst
        st.sampled_from([16, 64, 256]),             # length_bytes
        st.floats(min_value=0.5, max_value=50.0,    # latency
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=40, deadline=None)
@given(rows=record_rows, regions=st.integers(min_value=1, max_value=4))
def test_region_partial_summaries_fold_to_the_single_stream_summary(
    rows, regions
):
    """The parallel merge contract: per-region partial summaries folded
    in region order must equal one summary over the whole stream —
    integer tallies exactly, float moments to accumulation round-off."""
    whole_log = NetworkLog()
    _fill_log(whole_log, rows)
    whole = whole_log.summary()

    shards = [NetworkLog() for _ in range(regions)]
    for i, (src, dst, length, latency) in enumerate(rows):
        inject = float(i)
        shards[src % regions].append(
            i, src, dst, length, "p2p", inject, inject + 0.5,
            inject + 0.5 + latency, 0.25, abs(src - dst) + 1,
        )
    folded = LogSummary.merged([shard.summary() for shard in shards])

    assert folded.messages == whole.messages
    assert folded.total_bytes == whole.total_bytes
    assert folded.length_counts == whole.length_counts
    assert folded.kind_counts == whole.kind_counts
    assert np.array_equal(folded.pairs, whole.pairs)
    assert folded.first_inject == whole.first_inject
    assert folded.last_deliver == whole.last_deliver
    assert folded.latency.count == whole.latency.count
    assert folded.latency.min_value == whole.latency.min_value
    assert folded.latency.max_value == whole.latency.max_value
    assert folded.latency.mean == pytest.approx(whole.latency.mean, rel=1e-9)
