"""Golden netlog digests: one small run per routing discipline.

Each run's activity log is hashed column by column (SHA-256 with
``msg_id`` rebased to the log's smallest id, as
``perfbench/checks.log_digest`` does) and compared with a digest pinned
here.  Anything that changes what the simulator computes -- a route, a
lane, a wait, a float duration -- changes a digest; a pure speed-up of
the routing or transfer path must not.  Every case runs with the
kernel's no-progress watchdog unarmed and armed (never tripping), and
the event count is pinned alongside the digest.  One
case also replays with its log spilled to 64-record segments and reads
the digest back from the manifest, so the segment writer and reader are
held to the same pin.

The coherence cases run shared-memory apps on machines that take the
protocol paths the default 1d-fft run does not: a 4-line direct-mapped
cache (upgrades, invalidations, dirty writebacks, queued block locks,
``SyncLock``), the write-update protocol and release consistency.

The synthetic cases drive a mesh from a fitted 1d-fft model through
both generators.  Their message ids are drawn from the process-global
counter after each source's hold, so on two virtual channels the
digest also pins which lane each message takes.

The pinned values were recorded before route tables and compiled
transfer plans replaced per-message route construction; the 2-D torus
case was recorded while 2-D tori still had a topology class of their
own, before they became wrapped ``NDMeshTopology`` instances.  The
coherence cases were recorded while the coherence machine still built
a fresh command for every protocol step.
"""

import hashlib

import numpy as np
import pytest

from repro.apps import create_app
from repro.coherence.config import CoherenceConfig
from repro.core.options import RunOptions
from repro.core.run import run_dynamic, run_synthetic
from repro.core.synthetic import PhaseCoupledTrafficGenerator
from repro.mesh import MeshConfig, MeshNetwork, NetworkMessage, materialize_manifest
from repro.simkernel import Simulator, hold
from repro.simkernel.engine_parallel import ScheduleTraffic

DIGEST_COLUMNS = (
    "msg_id", "src", "dst", "length_bytes", "inject_time", "start_time",
    "deliver_time", "contention", "hops",
)

#: The no-progress watchdog as ``run(max_no_progress_events=...)``:
#: ``calendar`` runs the kernel's clock loop unarmed, ``watchdog`` armed
#: (never tripped here).  Arming must not perturb a run.
CLOCKS = {"calendar": None, "watchdog": 10**9}

#: name -> (config, pattern, messages per source, mean gap)
SCHEDULE_CASES = {
    "adaptive-4x4-2vc": (
        lambda: MeshConfig(spec="4x4", virtual_channels=2, routing="adaptive"),
        "uniform", 40, 2.0,
    ),
    # Tornado on rings of 4 is a conflict-free permutation, so it pins
    # wrapped routes and timing but never contends; the uniform run
    # makes the dateline lanes matter.
    "torus-4x4-uniform": (lambda: MeshConfig.parse("4x4:torus"), "uniform", 30, 2.0),
    "torus-4x4x2-tornado": (lambda: MeshConfig.parse("4x4x2:torus"), "tornado", 30, 2.0),
    "torus-4x4x2-uniform": (lambda: MeshConfig.parse("4x4x2:torus"), "uniform", 30, 2.0),
    "mesh-4x4x2-z4": (lambda: MeshConfig.parse("4x4x2:mesh:z=4.0"), "uniform", 30, 4.0),
    "chiplet-2x2-hubs2": (lambda: MeshConfig.parse("chiplet(2x2,hubs=2)"), "uniform", 40, 2.0),
    "hypercube-8": (lambda: MeshConfig.parse("4x2:hypercube"), "uniform", 40, 2.0),
}

SMALL_CACHE = CoherenceConfig(cache_lines=4, associativity=1)

#: name -> (app, its parameters, the machine); every case runs on 4x2.
COHERENCE_CASES = {
    # 36 upgrades, 59 invalidations, 33 dirty writebacks, queued block locks.
    "app-maxflow-4x2-small-cache": (
        "maxflow", {"n": 8, "extra_edges": 4, "seed": 2}, SMALL_CACHE,
    ),
    # A SyncLock task queue, 87 dirty writebacks.
    "app-cholesky-4x2-small-cache": ("cholesky", {"n": 16, "density": 0.2}, SMALL_CACHE),
    # Write-update stores fanned out to the sharers.
    "app-1d-fft-4x2-update": ("1d-fft", {"n": 64}, CoherenceConfig(protocol="update")),
    # Buffered stores, drained at each barrier's fence.
    "app-1d-fft-4x2-release": ("1d-fft", {"n": 64}, CoherenceConfig(consistency="release")),
}

#: name -> (node count of the 1d-fft fit, config, extra ``run_synthetic``
#: arguments); every case draws 30 messages per source from seed 7.
SYNTHETIC_CASES = {
    "synthetic-4x2": (8, lambda: MeshConfig.parse("4x2"), {}),
    "synthetic-4x4-2vc": (16, lambda: MeshConfig("4x4", virtual_channels=2), {}),
    "synthetic-4x2-torus": (8, lambda: MeshConfig.parse("4x2:torus"), {}),
    "synthetic-4x2-until": (8, lambda: MeshConfig.parse("4x2"), {"until": 400.0}),
}

#: name -> (sha256 of the log, kernel events fired); the app and
#: synthetic cases pin their record count instead of events.
GOLDEN = {
    "adaptive-4x4-2vc": (
        "1c73d6f38b5f874f07ddd427c6ee11e879c0c79e8cd3f303a91f964bd82be04f",
        10308,
    ),
    "app-1d-fft-4x2": (
        "452806044ce6186e6607ab81ca3f968d35c657ebec230882615fc72c9b968739",
        164,
    ),
    "app-1d-fft-4x2-release": (
        "1faf6101b451bac55686f2b4aea7f75a0bf9c924959cd56972bac36aaab4c5b6",
        164,
    ),
    "app-1d-fft-4x2-update": (
        "baf0676bb5d7586879fc92f22497cdf51119da9c823f764385db8195e0fa36e3",
        388,
    ),
    "app-cholesky-4x2-small-cache": (
        "3b0dae4d48fa6d928c8309c8e2b25f5caadacdf74ff1b17046549db25edc4e75",
        1401,
    ),
    "app-maxflow-4x2-small-cache": (
        "06002414715f677e2f8410c1ce98186039113e65a90f0cd498a68edfdd895b9f",
        1748,
    ),
    "chiplet-2x2-hubs2": (
        "f76995d47161b851e323a210c61b7f0e653078eb3d3cb77df3fb7ef27a865554",
        4773,
    ),
    "hypercube-8": (
        "7599ae6d9f127077535cbc8833df6ccdf2b1f5ba5a5dba665e50080e5f927000",
        4197,
    ),
    "mesh-4x4x2-z4": (
        "8cb45d36e5178c7ea3ab2dfca8e37c80c8a3c725a1ba06580a26e7beac09b9ad",
        16349,
    ),
    "torus-4x4-uniform": (
        "c87c1b2d8886f321d8b1d8cba4c97f2028d8be98c63185d57b1f566d20483822",
        7036,
    ),
    "torus-4x4x2-tornado": (
        "be6c183984b95f3fe816031a2c894d40875e58d8f33ad314db9300be12478905",
        13472,
    ),
    "torus-4x4x2-uniform": (
        "fa04c9360033c1e1ce35b023439bb81b4163d6041c61393910c494119a198981",
        14927,
    ),
    "synthetic-4x2": (
        "0cf8393491180a4488da4b7c924f4c2eb5c0096067156495792cb3ba4dc8dbc8",
        240,
    ),
    "synthetic-4x4-2vc": (
        "d3438b44859256a1d643b59969f405988a2b6a8161c7750197bacba8ea4cb0da",
        480,
    ),
    "synthetic-4x2-torus": (
        "7771e4d765993ee77f28237e278a21d05217eeab74065fb5353925b82ef4043f",
        240,
    ),
    "synthetic-4x2-until": (
        "4450a91cc72293082646c6adf49220b9e4014f4de1d32af30a5d1213b3f435a8",
        67,
    ),
    "burst-4x2": (
        "f3fc18f76cb9f95176731a4538220807ae4e17daa92a56dd1de9f23b00092403",
        300,
    ),
}


def log_digest(log) -> str:
    cols, vocab = log.columns()
    digest = hashlib.sha256()
    for name in DIGEST_COLUMNS:
        values = cols[name]
        if name == "msg_id" and values.size:
            values = values - values.min()
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(values).tobytes())
    kinds = [vocab[code] for code in cols["kind"]] if vocab else []
    digest.update("\x00".join(kinds).encode())
    return digest.hexdigest()


def replay(config, traffic, clock, log=None):
    """Closed-loop replay of a pre-drawn schedule; returns the network
    (so adaptive cases can show the YX order was taken) and simulator."""
    sim = Simulator()
    net = MeshNetwork(sim, config, log=log)

    def source(src, entries):
        for gap, dst, length_bytes, msg_id in entries:
            yield hold(gap)
            yield from net.transfer(
                NetworkMessage(src=src, dst=dst, length_bytes=length_bytes,
                               kind="pattern", msg_id=msg_id)
            )

    for src in sorted(traffic.per_source):
        sim.process(source(src, traffic.per_source[src]), name=f"source-{src}")
    sim.run(check_stall=True, max_no_progress_events=CLOCKS[clock])
    net.log.seal()
    return net, sim


def schedule(name):
    """A case's config and its pre-drawn schedule."""
    make_config, pattern, messages, gap = SCHEDULE_CASES[name]
    config = make_config()
    traffic = ScheduleTraffic.compile_pattern(
        config, pattern=pattern, messages_per_source=messages, seed=11, mean_gap=gap
    )
    return config, traffic


def run_schedule_case(name, clock):
    net, sim = replay(*schedule(name), clock)
    return net, log_digest(net.log), sim.events_fired


def run_app_case(clock):
    run = run_dynamic(
        create_app("1d-fft", n=64, seed=1),
        mesh_config=MeshConfig.parse("4x2"),
        options=RunOptions(max_no_progress_events=CLOCKS[clock]),
    )
    return log_digest(run.log), len(run.log)


@pytest.mark.parametrize("clock", sorted(CLOCKS))
@pytest.mark.parametrize("name", sorted(SCHEDULE_CASES))
def test_schedule_digest(name, clock):
    net, digest, events = run_schedule_case(name, clock)
    assert (digest, events) == GOLDEN[name]
    assert net.total_injected == net.total_delivered == len(net.log)
    if net.config.routing == "adaptive":
        assert net.adaptive_yx_taken > 0


@pytest.mark.parametrize("clock", sorted(CLOCKS))
def test_spilled_schedule_digest(clock, tmp_path):
    # The same replay collected through RunOptions' out-of-core log and
    # read back from the manifest's segments.
    name = "torus-4x4x2-uniform"
    options = RunOptions(log_spill=str(tmp_path), log_spill_window=64)
    net, sim = replay(*schedule(name), clock, log=options.make_netlog())
    spilled = materialize_manifest(net.log.finalize())
    assert (log_digest(spilled), sim.events_fired) == GOLDEN[name]
    # 960 records (30 from each of 32 sources) in 15 segments of 64.
    assert net.log.segment_count == 15
    assert net.total_delivered == len(spilled) == 960


@pytest.mark.parametrize("clock", sorted(CLOCKS))
def test_app_digest(clock):
    assert run_app_case(clock) == GOLDEN["app-1d-fft-4x2"]


@pytest.mark.parametrize("clock", sorted(CLOCKS))
@pytest.mark.parametrize("name", sorted(COHERENCE_CASES))
def test_coherence_digest(name, clock):
    app, params, machine = COHERENCE_CASES[name]
    sim = create_app(app, **params).run(
        mesh_config=MeshConfig.parse("4x2"),
        coherence_config=machine,
        options=RunOptions(max_no_progress_events=CLOCKS[clock]),
    )
    assert (log_digest(sim.log), len(sim.log)) == GOLDEN[name]


@pytest.fixture(scope="module")
def fits():
    """The 1d-fft (n=64) fits the synthetic cases draw from, by node count."""
    return {
        8: run_dynamic(
            create_app("1d-fft", n=64, seed=1), mesh_config=MeshConfig.parse("4x2")
        ),
        16: run_dynamic(
            create_app("1d-fft", n=64, seed=1),
            mesh_config=MeshConfig("4x4", virtual_channels=2),
        ),
    }


@pytest.mark.parametrize("clock", sorted(CLOCKS))
@pytest.mark.parametrize("name", sorted(SYNTHETIC_CASES))
def test_synthetic_digest(name, clock, fits):
    nodes, make_config, extra = SYNTHETIC_CASES[name]
    log = run_synthetic(
        fits[nodes].characterization,
        mesh_config=make_config(),
        seed=7,
        messages_per_source=30,
        options=RunOptions(max_no_progress_events=CLOCKS[clock]),
        **extra,
    )
    assert (log_digest(log), len(log)) == GOLDEN[name]


@pytest.mark.parametrize("clock", sorted(CLOCKS))
def test_burst_digest(clock, fits):
    generator = PhaseCoupledTrafficGenerator(
        fits[8].characterization,
        source_log=fits[8].log,
        mesh_config=MeshConfig.parse("4x2"),
        seed=7,
        options=RunOptions(max_no_progress_events=CLOCKS[clock]),
    )
    log = generator.generate(300)
    assert (log_digest(log), len(log)) == GOLDEN["burst-4x2"]
