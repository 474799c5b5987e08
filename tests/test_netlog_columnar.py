"""Columnar NetworkLog equivalence, persistence, and validation tests.

Every derived view of the columnar log must be *bit-identical* to what
plain loops over its records give (the row-at-a-time log it replaced,
kept here as :func:`assert_views_identical`) -- the hypothesis property
below drives it with randomized logs, and explicit cases cover empty,
single-record, and single-source logs.  Persistence tests assert CSV <-> npz round
trips reproduce the exact records and views, and that the npz writer
produces what ``np.savez_compressed`` would; validation tests cover the
endpoint checks and the CSV/npz format diagnostics.  The record
factory must build records indistinguishable from constructed ones.
"""

import collections
import dataclasses
import pathlib
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh import netlog
from repro.mesh.netlog import (
    LogSummary,
    NetLogFormatError,
    NetLogRecord,
    NetworkLog,
)

NUM_NODES = 8
KINDS = ("p2p", "coherence", "reply")


def make_record(msg_id, src, dst, nbytes=8, kind="p2p", inject=0.0, latency=5.0,
                contention=0.5, hops=2):
    return NetLogRecord(
        msg_id=msg_id,
        src=src,
        dst=dst,
        length_bytes=nbytes,
        kind=kind,
        inject_time=inject,
        start_time=inject + 1.0,
        deliver_time=inject + latency,
        contention=contention,
        hops=hops,
    )


record_tuples = st.tuples(
    st.integers(0, NUM_NODES - 1),                      # src
    st.integers(0, NUM_NODES - 1),                      # dst
    st.sampled_from((8, 16, 64, 256)),                  # length
    st.sampled_from(KINDS),                             # kind
    st.floats(0.0, 1e6, allow_nan=False),               # inject
    st.floats(0.0, 1e4, allow_nan=False),               # latency
    st.floats(0.0, 1e3, allow_nan=False),               # contention
)


def build_log(rows):
    """A columnar log of the records ``rows`` describe, and the records."""
    log = NetworkLog()
    records = [
        make_record(i, src, dst, nbytes=nbytes, kind=kind, inject=inject,
                    latency=latency, contention=contention)
        for i, (src, dst, nbytes, kind, inject, latency, contention) in enumerate(rows)
    ]
    for record in records:
        log.add(record)
    return log, records


def same(got, want):
    """Equal values; arrays equal in dtype, shape and every element."""
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    else:
        assert got == want


def assert_views_identical(log, records):
    """Every derived view of ``log`` must equal, bit for bit, what plain
    loops over ``records`` in arrival order give."""

    def times(rs):
        return np.sort(np.asarray([r.inject_time for r in rs], dtype=float))

    def gaps(rs):
        series = times(rs)
        return np.diff(series) if series.size >= 2 else np.empty(0, dtype=float)

    def lengths(rs):
        return np.asarray([r.length_bytes for r in rs], dtype=float)

    def tally(rs, weight):
        row = np.zeros(NUM_NODES, dtype=float)
        for r in rs:
            row[r.dst] += weight(r)
        return row

    def share(row):
        total = row.sum()
        return row / total if total > 0 else row

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    def rate(duration):
        return len(records) / duration if duration > 0 else 0.0

    by_src = {}
    for r in records:
        by_src.setdefault(r.src, []).append(r)
    sources = sorted(by_src)
    injects = [r.inject_time for r in records]
    span = max(r.deliver_time for r in records) - min(injects) if records else 0.0
    injection_span = max(injects) - min(injects) if records else 0.0
    rows = {
        "destination_counts": lambda rs: tally(rs, lambda r: 1),
        "destination_fractions": lambda rs: share(tally(rs, lambda r: 1)),
    }
    matrices = {
        "destination_count_matrix": rows["destination_counts"],
        "destination_fraction_matrix": rows["destination_fractions"],
        "volume_matrix": lambda rs: tally(rs, lambda r: r.length_bytes),
        "volume_fraction_matrix": lambda rs: share(tally(rs, lambda r: r.length_bytes)),
    }

    same(len(log), len(records))
    same(log.records, tuple(records))
    same(tuple(log), tuple(records))
    same(log.sources(), sources)
    kinds = collections.Counter(r.kind for r in records)
    lengths_seen = collections.Counter(int(r.length_bytes) for r in records)
    same(list(log.kinds().items()), list(kinds.items()))
    same(list(log.length_counts().items()), sorted(lengths_seen.items()))
    same(log.total_bytes(), int(sum(r.length_bytes for r in records)))
    same(log.span(), span)
    same(log.injection_span(), injection_span)
    same(log.mean_latency(), mean([r.latency for r in records]))
    same(log.mean_contention(), mean([r.contention for r in records]))
    same(log.offered_rate(), rate(injection_span))
    same(log.throughput(), rate(span))
    same(log.injection_times(), times(records))
    same(log.interarrival_times(), gaps(records))
    same(log.message_lengths(), lengths(records))
    for view, row in matrices.items():
        matrix = np.zeros((NUM_NODES, NUM_NODES))
        for src in sources:
            matrix[src] = row(by_src[src])
        same(getattr(log, view)(NUM_NODES), matrix)
    for src in sources + [NUM_NODES + 3]:
        rs = by_src.get(src, [])
        same(log.by_source(src), tuple(sorted(rs, key=lambda r: r.inject_time)))
        same(log.injection_times(src), times(rs))
        same(log.interarrival_times(src), gaps(rs))
        same(log.message_lengths(src), lengths(rs))
        for view, row in rows.items():
            same(getattr(log, view)(src, NUM_NODES), row(rs))
    by_source = log.interarrivals_by_source()
    same(list(by_source), sources)
    for src, series in by_source.items():
        same(series, gaps(by_src[src]))


class TestRowEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(record_tuples, min_size=0, max_size=60))
    def test_every_view_matches_row_oracle(self, rows):
        assert_views_identical(*build_log(rows))

    def test_empty_log(self):
        columnar, records = build_log([])
        assert_views_identical(columnar, records)
        assert columnar.summary() == LogSummary()

    def test_single_record_log(self):
        assert_views_identical(*build_log([(2, 5, 64, "p2p", 3.0, 4.0, 0.25)]))

    def test_single_source_log(self):
        rows = [(4, dst, 16, "reply", float(t), 2.0, 0.0)
                for t, dst in enumerate([0, 3, 3, 7, 1])]
        assert_views_identical(*build_log(rows))

    @settings(max_examples=20, deadline=None)
    @given(rows=st.lists(record_tuples, min_size=1, max_size=40))
    def test_summary_matches_individual_metrics(self, rows):
        columnar, _ = build_log(rows)
        stats = columnar.summary()
        assert stats.messages == len(columnar)
        assert stats.total_bytes == columnar.total_bytes()
        assert stats.span == columnar.span()
        assert stats.injection_span == columnar.injection_span()
        assert stats.mean_latency == columnar.mean_latency()
        assert stats.mean_contention == columnar.mean_contention()
        assert stats.offered_rate == columnar.offered_rate()
        assert stats.throughput == columnar.throughput()

    def test_interleaved_mutation_and_views(self):
        # Views rebuilt after every append must match a log built in
        # one shot (exercises the seal/invalidate cycle).
        rows = [(i % 3, (i + 1) % NUM_NODES, 16, "p2p", float(i), 1.0, 0.0)
                for i in range(10)]
        incremental = NetworkLog()
        for i, (src, dst, nbytes, kind, inject, latency, contention) in enumerate(rows):
            incremental.add(make_record(i, src, dst, nbytes=nbytes, kind=kind,
                                        inject=inject, latency=latency,
                                        contention=contention))
            incremental.interarrival_times()  # force a view mid-collection
        oneshot, _ = build_log(rows)
        assert incremental.records == oneshot.records
        assert np.array_equal(
            incremental.destination_count_matrix(NUM_NODES),
            oneshot.destination_count_matrix(NUM_NODES),
        )


class TestEndpointValidation:
    def test_negative_destination_rejected(self):
        log = NetworkLog()
        log.add(make_record(3, src=1, dst=-2))
        with pytest.raises(ValueError, match=r"msg_id=3.*dst=-2"):
            log.destination_counts(1, NUM_NODES)

    def test_too_large_destination_rejected_with_clear_error(self):
        log = NetworkLog()
        log.add(make_record(0, src=0, dst=1))
        log.add(make_record(9, src=0, dst=NUM_NODES))
        with pytest.raises(ValueError, match=rf"msg_id=9.*dst={NUM_NODES}"):
            log.destination_fractions(0, NUM_NODES)

    def test_matrix_validates_sources_too(self):
        log = NetworkLog()
        log.add(make_record(5, src=NUM_NODES + 1, dst=0))
        with pytest.raises(ValueError, match=r"msg_id=5.*src"):
            log.destination_count_matrix(NUM_NODES)

    def test_valid_log_passes(self):
        log = NetworkLog()
        log.add(make_record(0, src=0, dst=NUM_NODES - 1))
        counts = log.destination_counts(0, NUM_NODES)
        assert counts[NUM_NODES - 1] == 1


class TestNegativeEndpoint:
    """Every aggregate view reads the summary fold, which rejects a
    negative endpoint naming the record -- the scalar views included."""

    def negative_log(self):
        log = NetworkLog()
        log.add(make_record(0, src=0, dst=1))
        log.add(make_record(4, src=-1, dst=2))
        return log

    def test_mean_latency_names_the_record(self):
        with pytest.raises(
            ValueError, match=r"msg_id=4 has negative endpoint \(src=-1, dst=2\)"
        ):
            self.negative_log().mean_latency()

    def test_doctor_exits_2_on_such_a_csv(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "negative.csv")
        self.negative_log().write_csv(path)
        assert main(["doctor", path]) == 2
        assert "msg_id=4 has negative endpoint" in capsys.readouterr().err


class TestSparsePairTallies:
    """The fold keeps one message and byte tally per distinct (src, dst)
    pair, so its size follows the records, not the square of the
    largest endpoint id: a trace naming node 10**5 costs what one
    naming node 5 does."""

    HUGE = 10**5

    endpoint = st.one_of(st.integers(0, 7), st.integers(0, 10**12))

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(endpoint, endpoint, st.sampled_from((0, 8, 64))),
            max_size=40,
        ),
        cut=st.integers(1, 40),
    )
    def test_tallies_match_a_counter_at_any_chunking(self, rows, cut):
        whole = NetworkLog()
        chunks = [NetworkLog() for _ in range(0, len(rows), cut)]
        messages, volumes = collections.Counter(), collections.Counter()
        for i, (src, dst, nbytes) in enumerate(rows):
            record = make_record(i, src, dst, nbytes=nbytes)
            whole.add(record)
            chunks[i // cut].add(record)
            messages[src, dst] += 1
            volumes[src, dst] += nbytes
        keys = sorted(messages)
        expected = np.array(
            [
                [src for src, _ in keys],
                [dst for _, dst in keys],
                [messages[key] for key in keys],
                [volumes[key] for key in keys],
            ],
            dtype=np.int64,
        ).reshape(4, len(keys))
        folded = LogSummary.merged(chunk.summary() for chunk in chunks)
        assert np.array_equal(whole.summary().pairs, expected)
        assert np.array_equal(folded.pairs, expected)
        assert whole.sources() == sorted({src for src, _ in keys})

    def test_views_of_a_log_naming_a_huge_node(self):
        log = NetworkLog()
        log.add(make_record(0, src=0, dst=self.HUGE, nbytes=8))
        log.add(make_record(1, src=self.HUGE, dst=3, nbytes=16))
        log.add(make_record(2, src=0, dst=self.HUGE, nbytes=64))
        assert log.sources() == [0, self.HUGE]
        assert log.summary().node_bound == self.HUGE + 1
        row = log.destination_counts(0, self.HUGE + 1)
        assert row[self.HUGE] == 2 and row.sum() == 2
        with pytest.raises(
            ValueError, match=rf"msg_id=1 .*has src={self.HUGE} outside the 8-node"
        ):
            log.destination_counts(0, NUM_NODES)

    def test_doctor_on_a_one_row_trace_stays_small(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "far.csv")
        log = NetworkLog()
        log.add(make_record(0, src=0, dst=self.HUGE))
        log.write_csv(path)
        assert main(["doctor", path]) == 0  # imports everything doctor needs
        tracemalloc.start()
        try:
            code = main(["doctor", path])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "1 messages over span" in capsys.readouterr().out
        # A dense (src, dst) table would need 8 * (10**5 + 1)**2 bytes.
        assert peak < 8 * 2**20


class TestPersistence:
    @settings(max_examples=15, deadline=None)
    @given(rows=st.lists(record_tuples, min_size=0, max_size=30))
    def test_csv_npz_round_trip_equality(self, rows, tmp_path_factory):
        columnar, _ = build_log(rows)
        tmp_path = tmp_path_factory.mktemp("netlog")
        csv_path = str(tmp_path / "log.csv")
        npz_path = str(tmp_path / "log.npz")
        columnar.write_csv(csv_path)
        columnar.write_npz(npz_path)
        from_csv = NetworkLog.read_csv(csv_path)
        from_npz = NetworkLog.read_npz(npz_path)
        assert from_csv.records == columnar.records
        assert from_npz.records == columnar.records
        assert from_npz.kinds() == columnar.kinds()
        assert np.array_equal(
            from_npz.injection_times(), columnar.injection_times()
        )
        assert np.array_equal(
            from_npz.destination_count_matrix(NUM_NODES),
            from_csv.destination_count_matrix(NUM_NODES),
        )
        assert from_npz.summary() == columnar.summary()

    def test_npz_is_binary_and_loadable_by_numpy(self, tmp_path):
        columnar, _ = build_log([(0, 1, 64, "p2p", 1.0, 2.0, 0.5)])
        path = str(tmp_path / "log.npz")
        columnar.write_npz(path)
        with np.load(path) as data:
            assert set(data.files) >= {"msg_id", "src", "dst", "kind_vocab"}
            assert data["src"].tolist() == [0]

    def test_npz_missing_column_rejected(self, tmp_path):
        path = str(tmp_path / "broken.npz")
        np.savez_compressed(path, msg_id=np.array([1]))
        with pytest.raises(NetLogFormatError, match=r"broken\.npz.*missing"):
            NetworkLog.read_npz(path)

    def test_npz_length_mismatch_rejected(self, tmp_path):
        columnar, _ = build_log([(0, 1, 8, "p2p", 0.0, 1.0, 0.0)] * 3)
        path = str(tmp_path / "log.npz")
        columnar.write_npz(path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["src"] = arrays["src"][:1]
        np.savez_compressed(path, **arrays)
        with pytest.raises(NetLogFormatError, match=r"'src' has 1 rows"):
            NetworkLog.read_npz(path)

    def test_npz_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip archive")
        with pytest.raises(NetLogFormatError, match="junk"):
            NetworkLog.read_npz(str(path))

    @pytest.mark.parametrize(
        "member, value, message",
        [
            ("schema", np.empty(0, dtype=np.int64), "'schema' must hold one integer"),
            ("kind_vocab", np.array([["p2p"]]), "'kind_vocab' must be a 1-D array"),
        ],
        ids=["empty-schema", "2-D-kind-vocab"],
    )
    def test_npz_malformed_member_rejected(self, member, value, message, tmp_path, capsys):
        from repro.cli import main

        columnar, _ = build_log([(0, 1, 8, "p2p", 0.0, 1.0, 0.0)])
        path = columnar.write_npz(str(tmp_path / "bad.npz"))
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        arrays[member] = value
        np.savez_compressed(path, **arrays)
        with pytest.raises(NetLogFormatError, match=rf"bad\.npz: {message}"):
            NetworkLog.read_npz(path)
        assert main(["doctor", path]) == 2
        assert "bad.npz" in capsys.readouterr().err


def _columns_as_written(log):
    """The members ``np.savez_compressed`` writes for a log: the
    reference for the npz writer's member names, dtypes and values."""
    cols, vocab = log.columns()
    members = {
        "schema": np.array([NetworkLog.NPZ_SCHEMA_VERSION], dtype=np.int64),
        "kind_vocab": (
            np.asarray(vocab, dtype=np.str_) if vocab else np.empty(0, dtype="U1")
        ),
    }
    members.update(cols)
    return members


class TestNpzWriter:
    def empty_with_vocabulary(self):
        log = NetworkLog()
        log.extend_columns(
            msg_id=[], src=[], dst=[], length_bytes=[], kind="p2p",
            inject_time=[], start_time=[], deliver_time=[], contention=[], hops=[],
        )
        return log

    def many_kinds(self):
        rows = [
            (i % NUM_NODES, (3 * i) % NUM_NODES, 8 << (i % 4), KINDS[i % 3],
             0.25 * i, 1.0 + i % 7, 0.125 * (i % 5))
            for i in range(300)
        ]
        return build_log(rows)[0]

    @pytest.mark.parametrize("case", ["empty", "empty-with-vocabulary", "many-kinds"])
    def test_round_trip_is_bit_identical(self, case, tmp_path):
        log = {
            "empty": NetworkLog,
            "empty-with-vocabulary": self.empty_with_vocabulary,
            "many-kinds": self.many_kinds,
        }[case]()
        path = log.write_npz(str(tmp_path / "log.npz"))
        back = NetworkLog.read_npz(path)
        cols, vocab = log.columns()
        back_cols, back_vocab = back.columns()
        assert back_vocab == vocab
        for name, column in cols.items():
            assert back_cols[name].dtype == column.dtype
            assert back_cols[name].tobytes() == column.tobytes()
        assert back.records == log.records

        # Plain np.load sees the members, dtypes and values that
        # np.savez_compressed would have written.
        expected = _columns_as_written(log)
        with np.load(path, allow_pickle=False) as data:
            assert data.files == list(expected)
            for name, array in expected.items():
                assert data[name].dtype == array.dtype, name
                assert data[name].shape == array.shape, name
                assert data[name].tobytes() == array.tobytes(), name

    @pytest.mark.parametrize("as_path", [str, pathlib.Path])
    def test_returns_the_path_written(self, as_path, tmp_path):
        log = self.many_kinds()
        bare = log.write_npz(as_path(tmp_path / "bare"))
        assert bare == str(tmp_path / "bare.npz")
        assert NetworkLog.read_npz(bare).records == log.records
        suffixed = log.write_npz(as_path(tmp_path / "kept.npz"))
        assert suffixed == str(tmp_path / "kept.npz")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bare.npz", "kept.npz"]


record_fields = st.tuples(
    st.integers(),                                       # msg_id
    st.integers(-1, 4096),                               # src
    st.integers(-1, 4096),                               # dst
    st.integers(0, 1 << 20),                             # length_bytes
    st.text(max_size=12),                                # kind
    st.floats(allow_nan=False),                          # inject_time
    st.floats(allow_nan=False),                          # start_time
    st.floats(allow_nan=False),                          # deliver_time
    st.floats(allow_nan=False),                          # contention
    st.integers(0, 64),                                  # hops
)


class TestRecordFactory:
    @settings(max_examples=200, deadline=None)
    @given(values=record_fields)
    def test_indistinguishable_from_constructed(self, values):
        made = netlog.make_record(*values)
        built = NetLogRecord(*values)
        assert type(made) is NetLogRecord
        assert made == built and built == made
        assert hash(made) == hash(built)
        assert repr(made) == repr(built)
        assert list(vars(made).items()) == list(vars(built).items())
        assert dataclasses.astuple(made) == dataclasses.astuple(built)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(made, protocol) == pickle.dumps(built, protocol)
        assert pickle.loads(pickle.dumps(made)) == built
        assert dataclasses.replace(made, hops=7) == dataclasses.replace(built, hops=7)
        assert dataclasses.fields(made) == dataclasses.fields(built)

    def test_frozen(self):
        made = netlog.make_record(1, 0, 1, 8, "p2p", 0.0, 1.0, 5.0, 0.5, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            made.hops = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            del made.kind


class TestCsvFormatErrors:
    def write_lines(self, tmp_path, lines, name="log.csv"):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def header(self):
        log, _ = build_log([(0, 1, 8, "p2p", 0.0, 1.0, 0.0)])
        return "msg_id,src,dst,length_bytes,kind,inject_time,start_time,deliver_time,contention,hops"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(NetLogFormatError, match="empty file"):
            NetworkLog.read_csv(str(path))

    def test_missing_column_named(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            ["msg_id,src,dst,length_bytes,kind", "0,1,2,8,p2p"],
        )
        with pytest.raises(NetLogFormatError, match="missing column"):
            NetworkLog.read_csv(path)

    def test_extra_column_named(self, tmp_path):
        path = self.write_lines(tmp_path, [self.header() + ",bogus"])
        with pytest.raises(NetLogFormatError, match=r"unexpected column\(s\) \['bogus'\]"):
            NetworkLog.read_csv(path)

    def test_truncated_row_names_row_number(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [
                self.header(),
                "0,1,2,8,p2p,0.0,1.0,5.0,0.5,2",
                "1,1,2,8",  # truncated mid-row
            ],
        )
        with pytest.raises(NetLogFormatError, match="row 3.*truncated"):
            NetworkLog.read_csv(path)

    def test_unparsable_value_names_row_number(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [
                self.header(),
                "0,1,2,8,p2p,0.0,1.0,5.0,0.5,2",
                "nope,1,2,8,p2p,0.0,1.0,5.0,0.5,2",
            ],
        )
        with pytest.raises(NetLogFormatError, match="row 3"):
            NetworkLog.read_csv(path)

    def test_format_error_is_a_value_error(self, tmp_path):
        # The CLI catches ValueError; the format error must stay inside
        # that hierarchy so `repro doctor broken.csv` exits 2, not a
        # traceback.
        assert issubclass(NetLogFormatError, ValueError)

    def test_clean_round_trip_still_works(self, tmp_path):
        columnar, _ = build_log(
            [(0, 1, 8, "p2p", 0.25, 1.5, 0.125), (3, 0, 16, "reply", 2.0, 1.0, 0.0)]
        )
        path = str(tmp_path / "log.csv")
        columnar.write_csv(path)
        assert NetworkLog.read_csv(path).records == columnar.records
