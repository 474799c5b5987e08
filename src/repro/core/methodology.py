"""End-to-end characterization pipelines (the two strategies).

Dynamic strategy (shared memory)::

    app -> execution-driven CC-NUMA simulation -> network activity log
        -> temporal/spatial/volume analysis -> characterization

Static strategy (message passing)::

    app -> simulated SP2 run -> application-level trace
        -> dependency-preserving replay into the mesh -> activity log
        -> temporal/spatial/volume analysis -> characterization

Both strategies drive the *same* 2-D mesh simulator, as the paper
stresses ("for both application categories, we intentionally use the
same 2-D network topology and log the network events").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.apps.base import MessagePassingApplication, SharedMemoryApplication
from repro.coherence.config import CoherenceConfig
from repro.core.attributes import CommunicationCharacterization
from repro.core.options import RunOptions
from repro.core.spatial import analyze_spatial
from repro.core.temporal import analyze_temporal
from repro.core.volume import analyze_volume
from repro.mesh.config import MeshConfig
from repro.mesh.netlog import NetworkLog
from repro.mesh.network import MeshNetwork
from repro.mp.sp2 import SP2Config
from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import TimelineRecorder
from repro.simkernel import Simulator
from repro.trace.log import TraceLog
from repro.trace.replay import replay_trace


@dataclass(frozen=True)
class CharacterizationRun:
    """Everything one pipeline run produces.

    Attributes
    ----------
    characterization:
        The fitted three-attribute model.
    log:
        The network activity log it was derived from.
    trace:
        The application-level trace (static strategy only).
    metrics:
        Snapshot of the metrics registry (only when the pipeline ran
        with observability enabled).
    registry:
        The live metrics registry that observed the run (when
        ``options.metrics`` was on).
    timeline:
        The timeline recorder that observed the run, ready to
        ``write()`` (when ``options.timeline`` was on).
    live:
        The windowed live-telemetry series
        (:class:`~repro.obs.live.LiveSeries`) sampled during the run
        (when ``options.sample_interval``/``heartbeat`` was set).
    """

    characterization: CommunicationCharacterization
    log: NetworkLog
    trace: Optional[TraceLog] = None
    metrics: Optional[Dict[str, Dict[str, object]]] = None
    registry: Optional[MetricsRegistry] = None
    timeline: Optional[TimelineRecorder] = None
    live: Optional[object] = None


def characterize_log(
    log: NetworkLog,
    mesh_config: MeshConfig,
    app_name: str = "workload",
    strategy: str = "log",
    per_source_temporal: bool = False,
) -> CommunicationCharacterization:
    """Analyze an existing network activity log into the three attributes."""
    # Flush staged records into the columnar buffers once, up front, so
    # the three analyses below run on sealed columns.
    log.seal()
    return CommunicationCharacterization(
        app_name=app_name,
        strategy=strategy,
        num_nodes=mesh_config.num_nodes,
        temporal=analyze_temporal(log, per_source=per_source_temporal),
        spatial=analyze_spatial(log, mesh_config.make_topology()),
        volume=analyze_volume(log, mesh_config.num_nodes),
    )


def characterize_shared_memory(
    app: SharedMemoryApplication,
    mesh_config: Optional[MeshConfig] = None,
    coherence_config: Optional[CoherenceConfig] = None,
    per_source_temporal: bool = False,
    options: Optional[RunOptions] = None,
) -> CharacterizationRun:
    """Run the dynamic strategy on a shared-memory application.

    Pass ``options`` (a :class:`~repro.core.options.RunOptions`) to
    configure instrumentation and kernel knobs; the returned run then
    carries the materialized ``registry``/``timeline`` and a
    ``metrics`` snapshot.
    """
    options = options or RunOptions()
    registry = options.make_registry()
    recorder = options.make_timeline()
    mesh_config = mesh_config or MeshConfig()
    sim = app.run(
        mesh_config=mesh_config,
        coherence_config=coherence_config,
        obs=registry,
        timeline=recorder,
        options=options,
    )
    characterization = characterize_log(
        sim.log,
        mesh_config,
        app_name=app.name,
        strategy="dynamic",
        per_source_temporal=per_source_temporal,
    )
    return CharacterizationRun(
        characterization=characterization,
        log=sim.log,
        metrics=registry.as_dict() if registry is not None and registry.enabled else None,
        registry=registry,
        timeline=recorder,
        live=sim.network.live_series,
    )


def characterize_message_passing(
    app: MessagePassingApplication,
    mesh_config: Optional[MeshConfig] = None,
    sp2: Optional[SP2Config] = None,
    replay_mode: str = "dependency",
    time_scale: float = 1.0,
    per_source_temporal: bool = False,
    options: Optional[RunOptions] = None,
) -> CharacterizationRun:
    """Run the static strategy on a message-passing application.

    The rank count equals the mesh's node count (each SP2 rank maps
    onto one mesh node for the replay).  ``options`` configures both
    the SP2 run and the replay (the registry observes both, the
    timeline records the replay's network activity).
    """
    options = options or RunOptions()
    registry = options.make_registry()
    recorder = options.make_timeline()
    mesh_config = mesh_config or MeshConfig()
    runtime = app.run(
        num_ranks=mesh_config.num_nodes, sp2=sp2, obs=registry, options=options
    )
    network = MeshNetwork(
        Simulator(obs=registry), mesh_config, timeline=recorder, log=options.make_netlog()
    )
    # Telemetry covers the mesh replay (the phase producing the activity
    # log the methodology analyzes), not the SP2 front half.
    log = replay_trace(
        runtime.trace, network, mode=replay_mode, time_scale=time_scale, options=options
    )
    characterization = characterize_log(
        log,
        mesh_config,
        app_name=app.name,
        strategy="static",
        per_source_temporal=per_source_temporal,
    )
    return CharacterizationRun(
        characterization=characterization,
        log=log,
        trace=runtime.trace,
        metrics=registry.as_dict() if registry is not None and registry.enabled else None,
        registry=registry,
        timeline=recorder,
        live=network.live_series,
    )
