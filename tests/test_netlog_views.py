"""Tests for NetworkLog's cached per-source index and gzip persistence."""

import gzip

import numpy as np

from repro.mesh.netlog import NetLogRecord, NetworkLog


def make_record(msg_id, src, dst, nbytes=8, inject=0.0):
    return NetLogRecord(
        msg_id=msg_id,
        src=src,
        dst=dst,
        length_bytes=nbytes,
        kind="p2p",
        inject_time=inject,
        start_time=inject + 1.0,
        deliver_time=inject + 5.0,
        contention=0.5,
        hops=2,
    )


def sample_log():
    log = NetworkLog()
    log.add(make_record(0, src=0, dst=1, nbytes=8, inject=3.0))
    log.add(make_record(1, src=0, dst=2, nbytes=32, inject=1.0))
    log.add(make_record(2, src=1, dst=0, nbytes=16, inject=2.0))
    return log


class TestSourceIndex:
    def test_by_source_sorted_by_injection(self):
        log = sample_log()
        records = log.by_source(0)
        assert [r.msg_id for r in records] == [1, 0]  # inject order 1.0, 3.0

    def test_index_reused_across_views(self):
        log = sample_log()
        log.by_source(0)
        views = log._views
        assert views is not None
        log.destination_counts(0, 4)
        log.volume_matrix(4)
        assert log._views is views  # view snapshot not rebuilt

    def test_by_source_tuple_cached_until_mutation(self):
        log = sample_log()
        first = log.by_source(0)
        assert isinstance(first, tuple)
        assert log.by_source(0) is first  # sorted once, cached
        log.add(make_record(7, src=0, dst=3, inject=0.5))
        rebuilt = log.by_source(0)
        assert rebuilt is not first
        assert [r.msg_id for r in rebuilt] == [7, 1, 0]

    def test_add_invalidates_index(self):
        log = sample_log()
        assert log.destination_counts(0, 4)[1] == 1
        log.add(make_record(3, src=0, dst=1, inject=4.0))
        assert log.destination_counts(0, 4)[1] == 2
        assert len(log.by_source(0)) == 3

    def test_extend_invalidates_index(self):
        log = sample_log()
        assert log.sources() == [0, 1]
        log.extend([make_record(4, src=3, dst=0, inject=9.0)])
        assert log.sources() == [0, 1, 3]
        assert log.volume_matrix(4)[3, 0] == 8

    def test_views_match_bruteforce(self):
        log = sample_log()
        counts = log.destination_counts(0, 4)
        assert list(counts) == [0, 1, 1, 0]
        volume = log.volume_matrix(4)[0]
        assert list(volume) == [0, 8, 32, 0]
        np.testing.assert_allclose(log.injection_times(0), [1.0, 3.0])
        np.testing.assert_allclose(sorted(log.message_lengths(0)), [8.0, 32.0])

    def test_unknown_source_is_empty(self):
        log = sample_log()
        assert log.by_source(9) == ()
        assert log.destination_counts(9, 4).sum() == 0


class TestGzipPersistence:
    def test_roundtrip_gz(self, tmp_path):
        log = sample_log()
        path = str(tmp_path / "log.csv.gz")
        log.write_csv(path)
        # Really gzipped on disk.
        with open(path, "rb") as handle:
            assert handle.read(2) == b"\x1f\x8b"
        loaded = NetworkLog.read_csv(path)
        assert len(loaded) == len(log)
        assert [r.msg_id for r in loaded] == [r.msg_id for r in log]
        assert loaded.records[1].length_bytes == 32
        assert loaded.records[0].contention == 0.5

    def test_plain_csv_still_works(self, tmp_path):
        log = sample_log()
        path = str(tmp_path / "log.csv")
        log.write_csv(path)
        with open(path) as handle:
            assert handle.readline().startswith("msg_id")
        loaded = NetworkLog.read_csv(path)
        assert len(loaded) == 3

    def test_gz_smaller_than_plain_for_big_logs(self, tmp_path):
        log = NetworkLog()
        for i in range(2000):
            log.add(make_record(i, src=i % 8, dst=(i + 1) % 8, inject=float(i)))
        plain = tmp_path / "big.csv"
        packed = tmp_path / "big.csv.gz"
        log.write_csv(str(plain))
        log.write_csv(str(packed))
        assert packed.stat().st_size < plain.stat().st_size / 2
        assert len(NetworkLog.read_csv(str(packed))) == 2000

    def test_gzip_readable_by_stdlib(self, tmp_path):
        log = sample_log()
        path = str(tmp_path / "log.csv.gz")
        log.write_csv(path)
        with gzip.open(path, "rt") as handle:
            assert handle.readline().startswith("msg_id")
