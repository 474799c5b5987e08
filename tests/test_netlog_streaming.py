"""Out-of-core streaming NetworkLog: equivalence, determinism, edges.

The in-memory :class:`NetworkLog` is the correctness oracle.  The
hypothesis property drives a :class:`StreamingNetworkLog` (with a
small window forcing multiple spilled segments) and the oracle with
the same records and asserts every integer-valued derived view is
*exact* (counts, matrices, tallies, kinds, sources) and every float
summary agrees to documented round-off (the streaming side folds
per-chunk partial sums; the oracle uses numpy's pairwise summation).

Determinism is the second contract: the same records through the live
spill path, ``summarize_csv``, ``summarize_npz``, the manifest's
stored summary, and a re-fold of the manifest's per-segment partials
must all produce *bit-identical* ``as_dict()`` documents whenever the
window boundaries align.

Edge cases from the issue checklist: empty spills, window boundaries
landing exactly on the record count, single-record segments, merges of
zero partials, and truncated/missing segment shards raising
:class:`NetLogFormatError` naming the offending shard.
"""

import gc
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.options import RunOptions
from repro.mesh.netlog import (
    LogSummary,
    NetLogFormatError,
    NetLogRecord,
    NetworkLog,
)
from repro.mesh.netlog_stream import (
    DEFAULT_WINDOW,
    StreamingNetworkLog,
    iter_segments,
    materialize_manifest,
    merge_manifest_partials,
    read_manifest,
    summarize_csv,
    summarize_npz,
    summary_from_manifest,
)
from repro.stats.streaming import QuantileDigest, StreamingMoments

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


def fill(log, n, seed=7, nodes=NUM_NODES):
    """Deterministic pseudo-random records into any log-like sink."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        log.add(
            make_record(
                i,
                int(rng.integers(0, nodes)),
                int(rng.integers(0, nodes)),
                nbytes=int(rng.choice((8, 64, 256))),
                kind=KINDS[int(rng.integers(0, len(KINDS)))],
                inject=float(rng.uniform(0.0, 1000.0)),
                latency=float(rng.uniform(0.1, 50.0)),
                contention=float(rng.uniform(0.0, 5.0)),
            )
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


def build_pair(rows, tmp_path, window):
    """The same records into a streaming log and the in-memory oracle."""
    streaming = StreamingNetworkLog(str(tmp_path / "spill"), window=window)
    oracle = NetworkLog()
    for i, (src, dst, nbytes, kind, inject, latency, contention) in enumerate(rows):
        record = make_record(
            i, src, dst, nbytes=nbytes, kind=kind, inject=inject,
            latency=latency, contention=contention,
        )
        streaming.add(record)
        oracle.add(record)
    return streaming, oracle


def assert_matches_oracle(streaming, oracle):
    """Integer views exact; float summaries to fold round-off."""
    assert len(streaming) == len(oracle)
    assert streaming.sources() == oracle.sources()
    assert streaming.kinds() == oracle.kinds()
    assert streaming.length_counts() == oracle.length_counts()
    assert streaming.total_bytes() == oracle.total_bytes()
    np.testing.assert_array_equal(
        streaming.destination_count_matrix(NUM_NODES),
        oracle.destination_count_matrix(NUM_NODES),
    )
    np.testing.assert_array_equal(
        streaming.volume_matrix(NUM_NODES),
        oracle.volume_matrix(NUM_NODES),
    )
    np.testing.assert_allclose(
        streaming.destination_fraction_matrix(NUM_NODES),
        oracle.destination_fraction_matrix(NUM_NODES),
        rtol=1e-12,
    )
    # Per-source rows, including sources outside the network (zeros).
    for src in streaming.sources() + [-1, NUM_NODES + 3]:
        for view in (
            "destination_counts",
            "destination_fractions",
            "volume_by_destination",
            "volume_fractions",
        ):
            np.testing.assert_array_equal(
                getattr(streaming, view)(src, NUM_NODES),
                getattr(oracle, view)(src, NUM_NODES),
                err_msg=f"{view}({src})",
            )
    s, o = streaming.summary(), oracle.summary()
    assert s.messages == o.messages
    assert s.total_bytes == o.total_bytes
    assert s.span == o.span  # min/max folds are exact
    assert s.injection_span == o.injection_span
    assert s.mean_latency == pytest.approx(o.mean_latency, rel=1e-9)
    assert s.mean_contention == pytest.approx(o.mean_contention, rel=1e-9)
    assert s.offered_rate == pytest.approx(o.offered_rate, rel=1e-9)
    assert s.throughput == pytest.approx(o.throughput, rel=1e-9)
    # Exact escape hatches read the segments back.
    np.testing.assert_array_equal(
        streaming.interarrival_times(), oracle.interarrival_times()
    )
    theirs = oracle.interarrivals_by_source()
    ours = streaming.interarrivals_by_source()
    assert sorted(ours) == sorted(theirs)
    for src in ours:
        np.testing.assert_array_equal(ours[src], theirs[src])


class TestOracleEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(rows=st.lists(record_tuples, min_size=0, max_size=60))
    def test_streaming_matches_in_memory(self, rows, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("stream")
        # window=7 forces multiple segments plus a partial live window
        # for most generated sizes.
        streaming, oracle = build_pair(rows, tmp_path, window=7)
        assert_matches_oracle(streaming, oracle)

    def test_materialize_round_trips_records(self, tmp_path):
        streaming = StreamingNetworkLog(str(tmp_path), window=11)
        oracle = NetworkLog()
        fill(streaming, 100)
        fill(oracle, 100)
        materialized = streaming.materialize()
        assert materialized.records == oracle.records

    def test_extend_columns_splits_at_window(self, tmp_path):
        oracle = NetworkLog()
        fill(oracle, 50)
        cols, vocab = oracle.columns()
        tags = np.asarray(vocab, dtype=np.str_)[cols["kind"]]
        streaming = StreamingNetworkLog(str(tmp_path), window=8)
        streaming.extend_columns(
            msg_id=cols["msg_id"],
            src=cols["src"],
            dst=cols["dst"],
            length_bytes=cols["length_bytes"],
            kind=tags,
            inject_time=cols["inject_time"],
            start_time=cols["start_time"],
            deliver_time=cols["deliver_time"],
            contention=cols["contention"],
            hops=cols["hops"],
        )
        assert len(streaming) == 50
        assert streaming.segment_count == 50 // 8
        assert_matches_oracle(streaming, oracle)

    def test_single_kind_string_broadcast(self, tmp_path):
        streaming = StreamingNetworkLog(str(tmp_path), window=3)
        streaming.extend_columns(
            msg_id=np.arange(7),
            src=np.zeros(7, dtype=np.int64),
            dst=np.ones(7, dtype=np.int64),
            length_bytes=np.full(7, 64),
            kind="p2p",
            inject_time=np.linspace(0, 6, 7),
            start_time=np.linspace(1, 7, 7),
            deliver_time=np.linspace(2, 8, 7),
            contention=np.zeros(7),
            hops=np.full(7, 2),
        )
        assert streaming.kinds() == {"p2p": 7}
        assert streaming.segment_count == 2


class TestDeterminism:
    def test_all_paths_bit_identical(self, tmp_path):
        window = 13
        streaming = StreamingNetworkLog(str(tmp_path / "spill"), window=window)
        oracle = NetworkLog()
        fill(streaming, 90)
        fill(oracle, 90)
        manifest = streaming.finalize()
        csv_path = str(tmp_path / "log.csv")
        npz_path = str(tmp_path / "log.npz")
        oracle.write_csv(csv_path)
        oracle.write_npz(npz_path)

        live = streaming.summary().as_dict()
        stored = summary_from_manifest(manifest).as_dict()
        refolded = merge_manifest_partials(manifest).as_dict()
        from_csv = summarize_csv(csv_path, window=window).as_dict()
        from_npz = summarize_npz(npz_path, window=window).as_dict()
        assert live == stored == refolded == from_csv == from_npz

    def test_merge_is_deterministic(self, tmp_path):
        def partials():
            parts = []
            for seed in (1, 2, 3):
                log = NetworkLog()
                fill(log, 20, seed=seed)
                parts.append(log.summary())
            return parts

        merged_a = LogSummary.merged(partials())
        merged_b = LogSummary.merged(partials())
        assert merged_a.as_dict() == merged_b.as_dict()

    def test_dict_round_trip_bit_exact(self, tmp_path):
        log = NetworkLog()
        fill(log, 40)
        summary = log.summary()
        doc = json.loads(json.dumps(summary.as_dict()))
        restored = LogSummary.from_dict(doc)
        assert restored.as_dict() == summary.as_dict()
        assert restored == summary

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(ValueError):
            LogSummary.from_dict({"messages": 3})


class TestEdgeCases:
    def test_empty_log_spill_and_merge(self, tmp_path):
        streaming = StreamingNetworkLog(str(tmp_path), window=4)
        manifest = streaming.finalize()
        assert streaming.segment_count == 0
        doc = read_manifest(manifest)
        assert doc["segments"] == []
        assert doc["records"] == 0
        summary = summary_from_manifest(manifest)
        assert summary.messages == 0
        assert summary == NetworkLog().summary()
        assert list(iter_segments(manifest)) == []
        assert len(materialize_manifest(manifest)) == 0

    def test_merge_of_zero_partials(self):
        merged = LogSummary.merged([])
        assert merged.messages == 0
        assert merged == NetworkLog().summary()

    def test_window_boundary_exactly_at_record_count(self, tmp_path):
        # records == k * window: the live window is empty at finalize;
        # no trailing zero-record segment may be written.
        streaming = StreamingNetworkLog(str(tmp_path), window=10)
        oracle = NetworkLog()
        fill(streaming, 30)
        fill(oracle, 30)
        assert streaming.segment_count == 3
        manifest = streaming.finalize()
        assert streaming.segment_count == 3  # finalize added nothing
        doc = read_manifest(manifest)
        assert [entry["records"] for entry in doc["segments"]] == [10, 10, 10]
        assert_matches_oracle(streaming, oracle)

    def test_single_record_segments(self, tmp_path):
        streaming = StreamingNetworkLog(str(tmp_path), window=1)
        oracle = NetworkLog()
        fill(streaming, 5)
        fill(oracle, 5)
        assert streaming.segment_count == 5
        assert len(streaming._window_log) == 0
        assert_matches_oracle(streaming, oracle)

    def test_window_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="window"):
            StreamingNetworkLog(str(tmp_path), window=0)

    def test_finalize_idempotent_and_extendable(self, tmp_path):
        streaming = StreamingNetworkLog(str(tmp_path), window=4)
        fill(streaming, 6)
        first = streaming.finalize()
        assert streaming.finalize() == first
        doc1 = read_manifest(first)
        fill(streaming, 3, seed=99)
        streaming.finalize()
        doc2 = read_manifest(first)
        assert doc2["records"] == 9
        assert len(doc2["segments"]) > len(doc1["segments"])

    def test_missing_shard_named_in_error(self, tmp_path):
        streaming = StreamingNetworkLog(str(tmp_path), window=3)
        fill(streaming, 9)
        manifest = streaming.finalize()
        victim = os.path.join(str(tmp_path), "netlog.part-001.npz")
        os.unlink(victim)
        with pytest.raises(NetLogFormatError, match="part-001"):
            list(iter_segments(manifest))

    def test_truncated_shard_rejected(self, tmp_path):
        streaming = StreamingNetworkLog(str(tmp_path), window=3)
        fill(streaming, 6)
        manifest = streaming.finalize()
        victim = os.path.join(str(tmp_path), "netlog.part-000.npz")
        with open(victim, "r+b") as handle:
            handle.truncate(20)  # torn write
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(NetLogFormatError, match="part-000"):
                list(iter_segments(manifest))
            gc.collect()
        # The rejected shard's file handle is closed, not left to the GC.
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_record_count_mismatch_rejected(self, tmp_path):
        streaming = StreamingNetworkLog(str(tmp_path), window=3)
        fill(streaming, 6)
        manifest = streaming.finalize()
        doc = read_manifest(manifest)
        doc["segments"][0]["records"] = 999
        with open(manifest, "w") as handle:
            json.dump(doc, handle)
        with pytest.raises(NetLogFormatError, match="999"):
            list(iter_segments(manifest))

    def test_not_a_manifest_rejected(self, tmp_path):
        path = str(tmp_path / "other.manifest.json")
        with open(path, "w") as handle:
            json.dump({"kind": "something-else"}, handle)
        with pytest.raises(NetLogFormatError, match="not a netlog spill manifest"):
            read_manifest(path)

    def test_unsupported_schema_rejected(self, tmp_path):
        path = str(tmp_path / "future.manifest.json")
        with open(path, "w") as handle:
            json.dump({"kind": "netlog-spill", "schema": 999, "segments": []}, handle)
        with pytest.raises(NetLogFormatError, match="999"):
            read_manifest(path)

    @pytest.mark.parametrize("field, value", [("window", None), ("records", "6")])
    def test_record_and_window_counts_must_be_integers(
        self, field, value, tmp_path, capsys
    ):
        from repro.cli import main

        streaming = StreamingNetworkLog(str(tmp_path), window=4)
        fill(streaming, 6)
        manifest = streaming.finalize()
        doc = read_manifest(manifest)
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        with open(manifest, "w") as handle:
            json.dump(doc, handle)
        message = rf"netlog\.manifest\.json: manifest '{field}' is not an integer"
        with pytest.raises(NetLogFormatError, match=message):
            read_manifest(manifest)
        assert main(["doctor", manifest]) == 2
        assert f"manifest '{field}' is not an integer" in capsys.readouterr().err

    def test_manifest_with_the_dropped_sketches_still_loads(self, tmp_path, capsys):
        # Summaries written before the fold lost its latency histogram,
        # inter-arrival digest and chunk count carry those keys; every
        # reader ignores them, so doctor prints the same lines.
        from repro.cli import main

        streaming = StreamingNetworkLog(str(tmp_path), window=13)
        fill(streaming, 40)
        manifest = streaming.finalize()
        assert main(["doctor", manifest]) == 0
        expected = capsys.readouterr().out

        doc = read_manifest(manifest)
        edges = np.geomspace(1e-3, 1e6, 181)
        for summary, chunks in [(e["summary"], 1) for e in doc["segments"]] + [
            (doc["summary"], len(doc["segments"]))
        ]:
            assert "latency_hist" not in summary
            gaps = QuantileDigest()
            gaps.observe(np.random.default_rng(chunks).exponential(1.0, 12))
            summary["chunks"] = chunks
            summary["latency_hist"] = {
                "edges": [float(edge) for edge in edges],
                "counts": [0] * 180,
                "underflow": 0,
                "overflow": summary["messages"],
            }
            summary["interarrival_digest"] = gaps.as_dict()
        with open(manifest, "w") as handle:
            json.dump(doc, handle, sort_keys=True)

        assert read_manifest(manifest) == doc
        assert summary_from_manifest(manifest) == streaming.summary()
        assert merge_manifest_partials(manifest) == streaming.summary()
        assert main(["doctor", manifest]) == 0
        assert capsys.readouterr().out == expected

    def test_csv_npz_segment_round_trip(self, tmp_path):
        # streaming -> CSV -> oracle -> npz -> oracle: the records
        # survive every export unchanged.
        streaming = StreamingNetworkLog(str(tmp_path / "spill"), window=7)
        fill(streaming, 40)
        csv_path = str(tmp_path / "out.csv")
        npz_path = str(tmp_path / "out.npz")
        streaming.write_csv(csv_path)
        from_csv = NetworkLog.read_csv(csv_path)
        from_csv.write_npz(npz_path)
        from_npz = NetworkLog.read_npz(npz_path)
        assert from_npz.records == streaming.materialize().records
        # And the O(window) summarizers over those exports agree with
        # the live fold bit-for-bit (same window).
        live = streaming.summary().as_dict()
        assert summarize_csv(csv_path, window=7).as_dict() == live
        assert summarize_npz(npz_path, window=7).as_dict() == live

    def test_per_source_lengths_need_materialize(self, tmp_path):
        streaming = StreamingNetworkLog(str(tmp_path), window=4)
        fill(streaming, 10)
        with pytest.raises(ValueError, match="materialize"):
            streaming.message_lengths(src=0)
        lengths = streaming.message_lengths()
        assert lengths.size == 10

    def test_matrix_too_small_for_endpoints(self, tmp_path):
        streaming = StreamingNetworkLog(str(tmp_path), window=4)
        streaming.add(make_record(0, 6, 7))
        with pytest.raises(ValueError, match="outside the 4-node network"):
            streaming.destination_count_matrix(4)


class TestRunOptionsSpill:
    def test_make_netlog_defaults_to_in_memory(self):
        assert isinstance(RunOptions().make_netlog(), NetworkLog)

    def test_make_netlog_spills_when_configured(self, tmp_path):
        options = RunOptions(log_spill=str(tmp_path), log_spill_window=5)
        log = options.make_netlog()
        assert isinstance(log, StreamingNetworkLog)
        assert log.window == 5
        assert log.directory == str(tmp_path)

    def test_default_window_when_unset(self, tmp_path):
        log = RunOptions(log_spill=str(tmp_path)).make_netlog()
        assert log.window == DEFAULT_WINDOW

    def test_window_validated(self, tmp_path):
        with pytest.raises(ValueError, match="log_spill_window"):
            RunOptions(log_spill=str(tmp_path), log_spill_window=0)

    def test_two_drives_in_one_spill_directory_keep_their_logs(self, tmp_path):
        # The app run spills under the stem netlog, the synthetic drive
        # under synthetic, so the second never overwrites the first.
        from repro.core.run import run_dynamic, run_synthetic

        options = RunOptions(log_spill=str(tmp_path), log_spill_window=16)
        run = run_dynamic("1d-fft", params={"n": 64}, options=options)
        synthetic = run_synthetic(
            run.characterization, messages_per_source=10, options=options
        )
        app_kinds = run.log.materialize().kinds()
        assert sum(app_kinds.values()) == 164
        assert "synthetic" not in app_kinds
        assert synthetic.materialize().kinds() == {"synthetic": 80}

    def test_cache_keys_stable_without_spill(self):
        # The new optional fields must not leak into default as_dict()
        # (sweep cache keys hash it).
        assert "log_spill" not in RunOptions().as_dict()
        assert "log_spill_window" not in RunOptions().as_dict()
        doc = RunOptions(log_spill="/tmp/x", log_spill_window=9).as_dict()
        assert doc["log_spill"] == "/tmp/x"
        assert doc["log_spill_window"] == 9


class TestStreamingMoments:
    def test_merge_equals_single_pass(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0.0, 10.0, 1000)
        whole = StreamingMoments()
        whole.observe(values)
        parts = []
        for chunk in np.array_split(values, 7):
            part = StreamingMoments()
            part.observe(chunk)
            parts.append(part)
        folded = StreamingMoments()
        for part in parts:
            folded.merge(part)
        assert folded.count == whole.count
        assert folded.min_value == whole.min_value
        assert folded.max_value == whole.max_value
        assert folded.mean == pytest.approx(whole.mean, rel=1e-12)

    def test_empty_mean_is_zero(self):
        assert StreamingMoments().mean == 0.0

    def test_round_trip(self):
        moments = StreamingMoments()
        moments.observe(np.array([1.0, 2.0, 3.0]))
        doc = json.loads(json.dumps(moments.as_dict()))
        assert StreamingMoments.from_dict(doc).as_dict() == moments.as_dict()


class TestQuantileDigest:
    def test_merged_digest_tracks_quantiles(self):
        rng = np.random.default_rng(17)
        values = rng.exponential(2.0, 30000)
        whole = QuantileDigest()
        whole.observe(values)
        parts = []
        for chunk in np.array_split(values, 13):
            digest = QuantileDigest()
            digest.observe(chunk)
            parts.append(digest)
        folded = QuantileDigest()
        for part in parts:
            folded.merge(part)
        for q in (0.5, 0.9, 0.99):
            true = float(np.quantile(values, q))
            assert whole.quantile(q) == pytest.approx(true, rel=0.05)
            assert folded.quantile(q) == pytest.approx(true, rel=0.05)

    def test_empty_quantile_is_nan(self):
        assert np.isnan(QuantileDigest().quantile(0.5))

    def test_round_trip(self):
        digest = QuantileDigest()
        digest.observe(np.random.default_rng(1).uniform(0, 1, 1000))
        doc = json.loads(json.dumps(digest.as_dict()))
        restored = QuantileDigest.from_dict(doc)
        assert restored.quantile(0.5) == digest.quantile(0.5)

    def test_summary_percentiles_reasonable(self, tmp_path):
        streaming = StreamingNetworkLog(str(tmp_path), window=50)
        oracle = NetworkLog()
        fill(streaming, 2000)
        fill(oracle, 2000)
        latencies = (
            np.asarray(oracle.columns()[0]["deliver_time"])
            - np.asarray(oracle.columns()[0]["inject_time"])
        )
        summary = streaming.summary()
        for q in (0.5, 0.9):
            true = float(np.quantile(latencies, q))
            assert summary.latency_percentile(q) == pytest.approx(true, rel=0.1)


class TestCliSpill:
    def test_characterize_spill_then_doctor(self, tmp_path, capsys):
        from repro.cli import main

        spill = str(tmp_path / "spill")
        rc = main(
            [
                "characterize",
                "1d-fft",
                "--param",
                "n=16",
                "--log-spill",
                spill,
                "--log-spill-window",
                "50",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "activity log spilled to" in out
        manifest = os.path.join(spill, "netlog.manifest.json")
        assert os.path.exists(manifest)
        rc = main(["doctor", manifest])
        out = capsys.readouterr().out
        assert rc == 0
        assert "spilled activity log" in out
        assert "healthy" in out
