"""Tests for the conservative parallel mesh scheduler.

Extends the cross-scheduler equivalence suite (calendar vs heap in
``test_scheduler_equivalence.py``) to the ``parallel`` scheduler: the
merged per-region netlog must be bit-identical to the serial calendar
run for boundary-free traffic, and exactly conservative (counts,
bytes, routes) for traffic that crosses regions.  Also covers the
partition geometry, the options/CLI seam, and the merged-manifest
contract every existing spill consumer relies on.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RunOptions, run_pattern
from repro.core.options import (
    PARALLEL_SCHEDULER,
    PARALLEL_SYNC_MODES,
    RUN_SCHEDULERS,
)
from repro.mesh.config import MeshConfig
from repro.mesh.netlog import NetworkLog
from repro.mesh.netlog_stream import (
    StreamingSummary,
    materialize_manifest,
    read_manifest,
    summary_from_manifest,
)
from repro.mesh.partition import MeshPartition, slice_partition
from repro.simkernel import SCHEDULERS
from repro.simkernel.engine_parallel import (
    SYNC_MODES,
    ParallelRunResult,
    ScheduleTraffic,
    SerialRunResult,
    canonical_order,
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


class TestRouteLegs:
    def test_same_region_is_one_leg(self):
        part = slice_partition(MeshConfig("4x4"), 2)
        assert part.route_legs(0, 5) == [(0, 0, 5)]

    def test_crossing_exits_on_the_destination_column(self):
        part = slice_partition(MeshConfig("4x4"), 2)
        # 1 (row 0) -> 14 (row 3, column 2): XY corrects X in row 0,
        # so region 0's leg ends at row 1 column 2 (node 6).
        assert part.route_legs(1, 14) == [(0, 1, 6), (1, 10, 14)]

    def test_upward_route_reverses_the_chain(self):
        part = slice_partition(MeshConfig("4x4"), 2)
        assert part.route_legs(14, 1) == [(1, 14, 9), (0, 5, 1)]

    def test_three_region_chain(self):
        part = slice_partition(MeshConfig("2x6"), 3)
        legs = part.route_legs(0, 11)  # row 0 -> row 5, column 1
        assert [leg[0] for leg in legs] == [0, 1, 2]
        assert part.region_chain(0, 11) == (0, 1, 2)
        # Legs chain across adjacent rows of the destination column,
        # and the omitted boundary channels make up the hop difference.
        leg_hops = sum(
            abs(a % 2 - b % 2) + abs(a // 2 - b // 2) for _, a, b in legs
        )
        manhattan = 1 + 5
        assert leg_hops + (len(legs) - 1) == manhattan

    def test_lookahead_is_the_boundary_channel_latency(self):
        config = MeshConfig("4x4", routing_time=1.5, channel_time=0.5)
        assert slice_partition(config, 2).lookahead() == 2.0

    def test_zero_lookahead_is_rejected(self):
        config = MeshConfig("4x4", routing_time=0.0, channel_time=0.0)
        with pytest.raises(ValueError, match="positive inter-region"):
            slice_partition(config, 2).lookahead()


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
        assert local_traffic(config).crossing_pairs(part) == set()

    def test_uniform_pattern_crosses_boundaries(self):
        config = MeshConfig("4x4")
        part = slice_partition(config, 2)
        assert uniform_traffic(config).crossing_pairs(part)

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
    @pytest.mark.parametrize("regions", [2, 4])
    @pytest.mark.parametrize("sync", SYNC_MODES)
    def test_row_local_traffic_is_bit_identical(self, tmp_path, regions, sync):
        config = MeshConfig("4x4")
        traffic = local_traffic(config)
        serial = run_serial_schedule(config, traffic, scheduler="calendar")
        parallel = run_parallel_mesh(
            config,
            traffic,
            regions=regions,
            sync=sync,
            directory=str(tmp_path / f"{sync}{regions}"),
        )
        assert parallel.records == len(serial.log)
        assert logs_bit_identical(serial.log, parallel.merged_log())
        # No scheduled message crosses a region boundary, so every
        # worker drains its whole queue in the first round.
        assert parallel.rounds == 1

    def test_empty_regions_idle_without_breaking_identity(self, tmp_path):
        config = MeshConfig("4x2")
        traffic = local_traffic(config)
        serial = run_serial_schedule(config, traffic, scheduler="calendar")
        parallel = run_parallel_mesh(
            config, traffic, regions=4, directory=str(tmp_path)
        )
        assert parallel.regions == 4
        assert parallel.active_regions == (0, 1)
        assert logs_bit_identical(serial.log, parallel.merged_log())

    def test_single_region_degenerates_to_serial(self, tmp_path):
        config = MeshConfig("4x2")
        traffic = uniform_traffic(config)
        serial = run_serial_schedule(config, traffic, scheduler="calendar")
        parallel = run_parallel_mesh(
            config, traffic, regions=1, directory=str(tmp_path)
        )
        assert logs_bit_identical(serial.log, parallel.merged_log())

    def test_matches_the_heap_oracle_too(self, tmp_path):
        # Transitivity check on the whole equivalence suite: parallel
        # == calendar == heap on boundary-free traffic.
        config = MeshConfig("4x4")
        traffic = local_traffic(config)
        heap = run_serial_schedule(config, traffic, scheduler="heap")
        parallel = run_parallel_mesh(config, traffic, directory=str(tmp_path))
        assert logs_bit_identical(heap.log, parallel.merged_log())


class TestCrossRegionConservation:
    @pytest.mark.parametrize("sync", SYNC_MODES)
    def test_uniform_traffic_is_exactly_conserved(self, tmp_path, sync):
        config = MeshConfig("4x4")
        traffic = uniform_traffic(config)
        serial = run_serial_schedule(config, traffic, scheduler="calendar")
        parallel = run_parallel_mesh(
            config, traffic, regions=2, sync=sync, directory=str(tmp_path)
        )
        merged = parallel.merged_log()
        assert len(merged) == len(serial.log) == traffic.message_count

        scols, _ = canonical_order(serial.log).columns()
        pcols, _ = merged.columns()
        serial_by_id = dict(zip(scols["msg_id"], zip(scols["src"], scols["dst"],
                                                     scols["length_bytes"],
                                                     scols["hops"])))
        parallel_by_id = dict(zip(pcols["msg_id"], zip(pcols["src"], pcols["dst"],
                                                       pcols["length_bytes"],
                                                       pcols["hops"])))
        # Same messages, same endpoints, same payloads, same route
        # lengths (each omitted boundary channel is charged one hop).
        assert serial_by_id == parallel_by_id
        assert np.all(pcols["deliver_time"] >= pcols["inject_time"])
        assert np.all(pcols["start_time"] >= pcols["inject_time"])

        serial_summary = StreamingSummary.from_log(serial.log)
        assert np.array_equal(parallel.summary.count_matrix,
                              serial_summary.count_matrix)
        assert np.array_equal(parallel.summary.volume_matrix,
                              serial_summary.volume_matrix)
        assert parallel.summary.total_bytes == serial_summary.total_bytes

    def test_null_mode_outpaces_the_barrier(self, tmp_path):
        # Per-region null-message horizons must never need *more*
        # rounds than the single global barrier horizon.
        config = MeshConfig("4x4")
        traffic = uniform_traffic(config)
        barrier = run_parallel_mesh(
            config, traffic, regions=2, sync="barrier",
            directory=str(tmp_path / "b"),
        )
        null = run_parallel_mesh(
            config, traffic, regions=2, sync="null",
            directory=str(tmp_path / "n"),
        )
        assert null.rounds <= barrier.rounds
        assert logs_bit_identical(barrier.merged_log(), null.merged_log())


class TestParallelValidation:
    def test_unknown_sync_mode(self, tmp_path):
        config = MeshConfig("4x2")
        with pytest.raises(ValueError, match="unknown sync mode"):
            run_parallel_mesh(
                config, local_traffic(config), sync="optimistic",
                directory=str(tmp_path),
            )

    def test_traffic_mesh_size_mismatch(self, tmp_path):
        traffic = local_traffic(MeshConfig("4x4"))
        with pytest.raises(ValueError, match="traffic drawn for 16 nodes"):
            run_parallel_mesh(
                MeshConfig("4x2"), traffic, directory=str(tmp_path)
            )

    def test_zero_lookahead_is_rejected_up_front(self, tmp_path):
        config = MeshConfig("4x2", routing_time=0.0, channel_time=0.0)
        with pytest.raises(ValueError, match="positive inter-region"):
            run_parallel_mesh(
                config, local_traffic(config), directory=str(tmp_path)
            )


# ----------------------------------------------------------------------
# merged manifest contract
# ----------------------------------------------------------------------
class TestMergedManifest:
    def test_manifest_readable_by_every_spill_consumer(self, tmp_path):
        config = MeshConfig("4x4")
        traffic = uniform_traffic(config)
        parallel = run_parallel_mesh(
            config, traffic, regions=2, directory=str(tmp_path)
        )
        doc = read_manifest(parallel.manifest_path)
        assert doc["records"] == traffic.message_count
        assert doc["parallel"]["active_regions"] == [0, 1]
        assert doc["parallel"]["lookahead"] == parallel.lookahead
        assert doc["parallel"]["rounds"] == parallel.rounds
        assert len(doc["parallel"]["region_manifests"]) == 2

        assert len(materialize_manifest(parallel.manifest_path)) == doc["records"]
        summary = summary_from_manifest(parallel.manifest_path)
        assert summary.messages == doc["records"]

    def test_doctor_accepts_the_merged_manifest(self, tmp_path, capsys):
        from repro.cli import main

        config = MeshConfig("4x2")
        parallel = run_parallel_mesh(
            config, uniform_traffic(config), directory=str(tmp_path)
        )
        assert main(["doctor", parallel.manifest_path]) == 0
        assert "healthy" in capsys.readouterr().out


# ----------------------------------------------------------------------
# options / run_pattern / CLI seam
# ----------------------------------------------------------------------
class TestParallelOptions:
    def test_constants_agree_across_layers(self):
        assert PARALLEL_SCHEDULER == ENGINE_PARALLEL_SCHEDULER
        assert PARALLEL_SYNC_MODES == SYNC_MODES
        assert RUN_SCHEDULERS == SCHEDULERS + (PARALLEL_SCHEDULER,)

    def test_parallel_scheduler_is_accepted(self):
        options = RunOptions(scheduler="parallel", parallel_regions=4,
                             parallel_sync="null")
        assert options.kernel_scheduler == "calendar"
        assert RunOptions(scheduler="heap").kernel_scheduler == "heap"

    def test_parallel_knobs_are_validated(self):
        with pytest.raises(ValueError, match="parallel_regions"):
            RunOptions(scheduler="parallel", parallel_regions=0)
        with pytest.raises(ValueError, match="parallel_sync"):
            RunOptions(scheduler="parallel", parallel_sync="optimistic")

    def test_unset_parallel_fields_keep_cache_keys_stable(self):
        doc = RunOptions().as_dict()
        assert "parallel_regions" not in doc and "parallel_sync" not in doc
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
    whole = StreamingSummary.from_log(whole_log)

    shards = [NetworkLog() for _ in range(regions)]
    for i, (src, dst, length, latency) in enumerate(rows):
        inject = float(i)
        shards[src % regions].append(
            i, src, dst, length, "p2p", inject, inject + 0.5,
            inject + 0.5 + latency, 0.25, abs(src - dst) + 1,
        )
    folded = StreamingSummary.merged(
        [StreamingSummary.from_log(shard) for shard in shards]
    )

    assert folded.messages == whole.messages
    assert folded.total_bytes == whole.total_bytes
    assert folded.length_counts == whole.length_counts
    assert folded.kind_counts == whole.kind_counts
    assert np.array_equal(folded.count_matrix, whole.count_matrix)
    assert np.array_equal(folded.volume_matrix, whole.volume_matrix)
    assert folded.first_inject == whole.first_inject
    assert folded.last_deliver == whole.last_deliver
    assert folded.latency.count == whole.latency.count
    assert folded.latency.min_value == whole.latency.min_value
    assert folded.latency.max_value == whole.latency.max_value
    assert folded.latency.mean == pytest.approx(whole.latency.mean, rel=1e-9)
