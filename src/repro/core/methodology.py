"""What one characterization run produces, and the analysis it ends in.

:func:`characterize_log` quantifies the three attributes of a network
activity log; :class:`CharacterizationRun` bundles the fitted model
with the log (and trace, metrics, timeline, live series) it came from.
Both strategies' pipelines, :func:`~repro.core.run.run_dynamic` and
:func:`~repro.core.run.run_static`, end in :func:`characterize_log`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.attributes import CommunicationCharacterization
from repro.core.spatial import analyze_spatial
from repro.core.temporal import analyze_temporal
from repro.core.volume import analyze_volume
from repro.mesh.config import MeshConfig
from repro.mesh.netlog import NetworkLog
from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import TimelineRecorder
from repro.trace.log import TraceLog


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
