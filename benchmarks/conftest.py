"""Shared fixtures for the experiment benchmarks.

Each experiment (one per paper table/figure; see DESIGN.md section 4)
needs one or more application characterizations.  Runs are cached at
session scope so the suite executes every pipeline exactly once and the
benchmarks time the interesting stages.
"""

from __future__ import annotations

import os
import time
from typing import Dict

import pytest

from repro import create_app, run_dynamic, run_static
from repro.core.methodology import CharacterizationRun
from repro.obs.report import report_from_run

#: Problem sizes used by every experiment (paper-scale shapes,
#: laptop-scale sizes; see EXPERIMENTS.md for the mapping).
BENCH_PROBLEMS = {
    "1d-fft": {"n": 256},
    "is": {"n": 1024, "buckets": 64},
    "cholesky": {"n": 32, "density": 0.15},
    "nbody": {"n": 48, "steps": 2},
    "maxflow": {"n": 20, "extra_edges": 32},
    "3d-fft": {"n": 16},
    "mg": {"n": 32, "cycles": 2},
}

SHARED_MEMORY = ("1d-fft", "is", "cholesky", "nbody", "maxflow")
MESSAGE_PASSING = ("3d-fft", "mg")


class RunCache:
    """Lazily characterizes applications, once per session.

    Each pipeline run's wall time is kept; if the environment variable
    ``REPRO_RUN_REPORT`` names a file, one run report per application is
    appended there as JSONL -- the perf trajectory future PRs diff
    against (see :mod:`repro.obs.report`).

    If ``REPRO_SWEEP_CACHE`` names a directory, whole characterization
    runs are additionally persisted there through the sweep subsystem's
    content-addressed cache (:mod:`repro.sweep.cache`), keyed by app,
    problem size and code fingerprint -- so repeated benchmark sessions
    on unchanged code skip the pipelines entirely.
    """

    def __init__(self) -> None:
        self._runs: Dict[str, CharacterizationRun] = {}
        self.wall_seconds: Dict[str, float] = {}
        self.disk_hits = 0
        cache_dir = os.environ.get("REPRO_SWEEP_CACHE")
        if cache_dir:
            from repro.sweep.cache import ResultCache

            self._disk: "ResultCache | None" = ResultCache(cache_dir)
        else:
            self._disk = None

    def _disk_key(self, name: str) -> str:
        spec = {
            "kind": "benchmark-characterization",
            "app": name,
            "params": BENCH_PROBLEMS[name],
        }
        return self._disk.key_for_doc(spec)

    def run(self, name: str) -> CharacterizationRun:
        cached = self._runs.get(name)
        if cached is None and self._disk is not None:
            from_disk = self._disk.get_pickle(self._disk_key(name))
            if isinstance(from_disk, CharacterizationRun):
                self._runs[name] = from_disk
                self.wall_seconds[name] = 0.0
                self.disk_hits += 1
                return from_disk
        if cached is None:
            app = create_app(name, **BENCH_PROBLEMS[name])
            started = time.perf_counter()
            if name in SHARED_MEMORY:
                cached = run_dynamic(app)
            else:
                cached = run_static(app)
            self.wall_seconds[name] = time.perf_counter() - started
            self._runs[name] = cached
            if self._disk is not None:
                self._disk.put_pickle(self._disk_key(name), cached)
            trajectory = os.environ.get("REPRO_RUN_REPORT")
            if trajectory:
                report_from_run(
                    cached,
                    app_params=BENCH_PROBLEMS[name],
                    wall_seconds=self.wall_seconds[name],
                ).append_jsonl(trajectory)
        return cached


@pytest.fixture(scope="session")
def runs() -> RunCache:
    """Session-wide cache of characterization runs."""
    return RunCache()
