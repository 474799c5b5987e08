"""Pre-drawn schedule replay: ``ScheduleTraffic``, ``run_serial_schedule``
and ``repro drive``.

The golden digests in ``test_golden_netlogs.py`` pin what a replay
logs; these tests cover the schedule's compile and validation rules,
the replay's own argument checks, the drive CLI end to end, and the
summary fold that spilled logs merge their segments with.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh.config import MeshConfig
from repro.mesh.netlog import LogSummary, NetworkLog
from repro.simkernel.engine_parallel import ScheduleTraffic, run_serial_schedule


def uniform_traffic(config, messages=8, seed=7):
    return ScheduleTraffic.compile_pattern(
        config, pattern="uniform", messages_per_source=messages, seed=seed
    )


class TestScheduleTraffic:
    def test_compile_is_deterministic_per_seed(self):
        config = MeshConfig("4x4")
        a, b = uniform_traffic(config, seed=5), uniform_traffic(config, seed=5)
        assert a.per_source == b.per_source
        assert a.per_source != uniform_traffic(config, seed=6).per_source

    def test_rejections(self):
        config = MeshConfig("4x4")
        with pytest.raises(ValueError, match="unknown pattern"):
            ScheduleTraffic.compile_pattern(config, pattern="zipf")
        # "local" kept traffic inside a region of the deleted parallel
        # replay; it is not a registered pattern.
        with pytest.raises(ValueError, match="unknown pattern 'local'"):
            ScheduleTraffic.compile_pattern(config, pattern="local")
        for mean_gap in (0.0, float("nan")):
            with pytest.raises(ValueError, match=f"positive, got {mean_gap}"):
                ScheduleTraffic.compile_pattern(config, mean_gap=mean_gap)
        with pytest.raises(ValueError, match="msg_id blocks"):
            ScheduleTraffic.compile_pattern(config, messages_per_source=1_000_000)
        with pytest.raises(ValueError, match="duplicate msg_id"):
            ScheduleTraffic(4, {0: [(1.0, 1, 64, 9), (1.0, 2, 64, 9)]})
        with pytest.raises(ValueError, match="destination 9"):
            ScheduleTraffic(4, {0: [(1.0, 9, 64, 0)]})
        with pytest.raises(ValueError, match="gap must be >= 0, got -1.0"):
            ScheduleTraffic(4, {0: [(-1.0, 1, 64, 0)]})
        # A NaN gap fails every comparison, so it must not slip past a
        # "gap < 0" test and put the replay's clock at NaN.
        with pytest.raises(ValueError, match="gap must be >= 0, got nan"):
            ScheduleTraffic(4, {0: [(float("nan"), 1, 64, 0)]})
        endless = ScheduleTraffic(4, {0: [(float("inf"), 1, 64, 0)]})
        assert endless.message_count == 1


class TestReplayValidation:
    def test_traffic_mesh_size_mismatch(self):
        traffic = uniform_traffic(MeshConfig("4x4"))
        with pytest.raises(ValueError, match="traffic drawn for 16 nodes"):
            run_serial_schedule(MeshConfig("4x2"), traffic)

    def test_serial_replay_accepts_only_the_calendar_kernel(self):
        config = MeshConfig("4x2")
        traffic = uniform_traffic(config)
        for scheduler in ("heap", "parallel"):
            with pytest.raises(ValueError, match=f"scheduler={scheduler!r}"):
                run_serial_schedule(config, traffic, scheduler=scheduler)


class TestDrive:
    def test_drive_cli_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        spill = str(tmp_path / "drive")
        rc = main(
            [
                "drive", "--mesh", "4x4x2:torus", "--pattern", "tornado",
                "--messages", "6", "--log-spill", spill,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("mesh 4x4x2:torus, pattern tornado\n")
        assert f"manifest {spill}/netlog.manifest.json" in out
        assert main(["doctor", f"{spill}/netlog.manifest.json"]) == 0
        assert "healthy" in capsys.readouterr().out
        # The region-local pattern and the kernel/region knobs are gone.
        for flags in (
            ["--pattern", "local"],
            ["--scheduler", "parallel"],
            ["--regions", "2"],
        ):
            with pytest.raises(SystemExit) as exited:
                main(["drive", "--mesh", "4x4", "--messages", "2", *flags])
            assert exited.value.code == 2, flags
        err = capsys.readouterr().err
        assert "invalid choice: 'local'" in err
        assert "unrecognized arguments: --scheduler parallel" in err
        assert "unrecognized arguments: --regions 2" in err


# ----------------------------------------------------------------------
# partial summary folds
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
@given(rows=record_rows, parts=st.integers(min_value=1, max_value=4))
def test_partial_summaries_fold_to_the_single_stream_summary(rows, parts):
    """The merge contract spilled logs rely on: partial summaries of a
    split record stream, folded in order, must equal one summary over
    the whole stream -- integer tallies exactly, float moments to
    accumulation round-off."""
    whole_log = NetworkLog()
    _fill_log(whole_log, rows)
    whole = whole_log.summary()

    shards = [NetworkLog() for _ in range(parts)]
    for i, (src, dst, length, latency) in enumerate(rows):
        inject = float(i)
        shards[src % parts].append(
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
