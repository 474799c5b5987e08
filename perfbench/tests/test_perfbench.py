"""Tests for the pipeline benchmark, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
from repro.mesh.netlog import NetworkLog  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(tmp_path, workload, trace=0, seed=2, digests=None):
    command = [
        sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
        "--size", "tiny", "--out", str(tmp_path / "out"),
        "--digests", str(digests or tmp_path / "no-digests.json"),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    report = json.loads(next(l for l in lines if l.startswith("report "))[len("report "):])
    return json.loads(lines[-1]), report, done.stderr


def assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(tmp_path, workload):
    result, report, _ = run_bench(tmp_path, workload, trace=0)
    assert_metrics(result, SPEC["end_to_end"])
    for name in ("wall_s", "events_per_s", "msgs_per_s", "setup_s", "peak_rss_mib"):
        assert result["metrics"][name]["value"] > 0
    assert set(report["machine"]) == {"nproc", "cpu_model", "python", "numpy"}
    assert report["seed"] == 2 and report["sizes"]
    out = tmp_path / "out"
    assert not out.exists() or not os.listdir(out)  # spill segments removed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted(tmp_path, workload):
    result, report, _ = run_bench(tmp_path, workload, trace=1)
    assert_metrics(result, SPEC["per_layer"])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["simkernel.events"] > 0 and metrics["mesh.route_calls"] > 0
    assert metrics["trace_overhead"] > 0
    if workload == "torus-spill":
        assert metrics["netlog_stream.segments"] > 0 and metrics["netlog_stream.bytes"] > 0
    if workload == "characterize":
        assert metrics["stats.fit_calls"] > 0 and metrics["coherence.loads"] > 0
    with open(os.path.join(ROOT, report["chrome_trace"]), encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    assert events and all(event["ph"] == "X" for event in events)


def test_recorded_digest_mismatch_fails(tmp_path):
    result, report, _ = run_bench(tmp_path, "torus-spill")
    digest = report["digests"]["pattern"]
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"seed": 2, "tiny": {"torus-spill": {"pattern": digest}}}))
    result, _, _ = run_bench(tmp_path, "torus-spill", digests=good)
    assert result["correct"] is True

    tampered = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": 2, "tiny": {"torus-spill": {"pattern": tampered}}}))
    result, _, stderr = run_bench(tmp_path, "torus-spill", digests=bad)
    assert result["correct"] is False and result["failed"] == 1
    assert "recorded digest" in stderr


def small_log(contention=0.0):
    log = NetworkLog()
    log.append(7, 0, 1, 64, "pattern", 0.0, 1.0, 5.0, contention, 1)
    log.append(8, 1, 0, 64, "pattern", 2.0, 2.0, 9.0, 0.0, 1)
    return log


def test_tampered_log_changes_digest():
    digest = checks.log_digest(small_log())
    assert checks.log_digest(small_log()) == digest
    tampered = checks.log_digest(small_log(contention=0.5))
    assert tampered != digest
    assert checks.compare_digests({"pattern": tampered}, {"pattern": digest})
    assert not checks.compare_digests({"pattern": digest}, {"pattern": digest})


def test_check_log_flags_bad_records():
    from repro.mesh.config import MeshConfig

    config = MeshConfig.parse("2x1")
    table = checks.HopTable()
    assert checks.check_log(small_log(), config, table) == []
    bad = NetworkLog()
    bad.append(1, 0, 1, 64, "pattern", 5.0, 5.0, 4.0, 0.0, 3)
    bad.append(1, 0, 1, 64, "pattern", 0.0, 0.0, 4.0, 0.0, 1)
    problems = checks.check_log(bad, config, table, scheduled_ids=[1, 2])
    assert len(problems) == 4
