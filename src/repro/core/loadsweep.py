"""Load-sweep harness: the classic latency-vs-offered-load ICN figure.

Given a characterized workload and a network configuration, sweep the
injection-rate multiplier and record the latency curve up to (and
detecting) saturation -- the figure every interconnection-network study
of the era reports, here driven by *application* traffic instead of a
synthetic assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.attributes import CommunicationCharacterization
from repro.core.options import RunOptions
from repro.core.synthetic import SyntheticTrafficGenerator
from repro.mesh.config import MeshConfig
from repro.mesh.netlog import NetworkLog


@dataclass(frozen=True)
class LoadPoint:
    """One point of the load sweep.

    Attributes
    ----------
    rate_scale:
        Injection multiplier relative to the characterized rate.
    requested_rate:
        Characterized rate times the multiplier (what the sources try
        to inject).
    achieved_rate:
        Measured deliveries per unit time over the full run span
        (:meth:`~repro.mesh.netlog.NetworkLog.throughput`), i.e. the
        rate the network actually sustained.  Sources are closed-loop
        (they block while their message drains), so past saturation
        the achieved rate plateaus at the network's capacity instead
        of latency diverging -- the knee ``sweep_load`` detects via
        ``efficiency_threshold``.  The offered load over the injection
        window is the log's ``offered_rate()``.
    mean_latency, mean_contention:
        Network-level outcomes at this load.
    """

    rate_scale: float
    requested_rate: float
    achieved_rate: float
    mean_latency: float
    mean_contention: float

    @property
    def efficiency(self) -> float:
        """Achieved / requested rate (1.0 = network keeps up)."""
        if self.requested_rate <= 0:
            return 1.0
        return self.achieved_rate / self.requested_rate


@dataclass(frozen=True)
class LoadSweep:
    """A latency-vs-load curve with a saturation estimate.

    Attributes
    ----------
    points:
        Measured points in increasing load order.
    saturation_scale:
        First rate multiplier whose achieved throughput fell below the
        efficiency threshold of the requested load (None when the
        sweep never saturated).
    zero_load_latency:
        The curve's latency floor (its first, lightest point).
    """

    points: List[LoadPoint]
    saturation_scale: Optional[float]
    zero_load_latency: float

    def describe(self) -> str:
        """Text rendering of the curve."""
        lines = [
            f"{'scale':>8} {'requested':>10} {'achieved':>10} "
            f"{'eff':>6} {'latency':>9} {'contention':>11}"
        ]
        for point in self.points:
            lines.append(
                f"{point.rate_scale:>8.2f} {point.requested_rate:>10.4f} "
                f"{point.achieved_rate:>10.4f} {point.efficiency:>6.2f} "
                f"{point.mean_latency:>9.2f} {point.mean_contention:>11.2f}"
            )
        if self.saturation_scale is not None:
            lines.append(f"saturates near {self.saturation_scale:.2f}x")
        else:
            lines.append("no saturation within the swept range")
        return "\n".join(lines)


@dataclass(frozen=True)
class LoadMeasurement:
    """One measured load point together with the activity log behind it.

    :func:`sweep_load` keeps only the :class:`LoadPoint`; the sweep
    subsystem (:mod:`repro.sweep`) also wants the log so each grid cell
    can emit a full run report.
    """

    point: LoadPoint
    log: NetworkLog


def measure_load_point(
    characterization: CommunicationCharacterization,
    mesh_config: Optional[MeshConfig] = None,
    rate_scale: float = 1.0,
    messages_per_source: int = 120,
    seed: int = 99,
    options: Optional[RunOptions] = None,
) -> LoadMeasurement:
    """Drive one synthetic run at ``rate_scale`` and measure it.

    The single-point building block of :func:`sweep_load`, exposed so
    grid sweeps can execute points independently (and in parallel).
    ``options`` configures the synthetic drive's kernel (stall/leak
    checks, no-progress watchdog).
    """
    generator = SyntheticTrafficGenerator(
        characterization,
        mesh_config=mesh_config,
        seed=seed,
        rate_scale=rate_scale,
        options=options,
    )
    log = generator.generate(messages_per_source=messages_per_source)
    stats = log.summary()
    point = LoadPoint(
        rate_scale=rate_scale,
        requested_rate=characterization.temporal.rate * rate_scale,
        achieved_rate=stats.throughput,
        mean_latency=stats.mean_latency,
        mean_contention=stats.mean_contention,
    )
    return LoadMeasurement(point=point, log=log)


def sweep_load(
    characterization: CommunicationCharacterization,
    mesh_config: Optional[MeshConfig] = None,
    rate_scales: Sequence[float] = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
    messages_per_source: int = 120,
    efficiency_threshold: float = 0.5,
    seed: int = 99,
    options: Optional[RunOptions] = None,
) -> LoadSweep:
    """Sweep injection load for a characterized workload.

    Parameters
    ----------
    characterization:
        The fitted workload model.
    mesh_config:
        Network to drive (defaults to the paper's 4x2 mesh).
    rate_scales:
        Increasing injection multipliers to measure.
    messages_per_source:
        Messages each source injects per point.
    efficiency_threshold:
        A point achieving less than this fraction of its requested
        rate marks saturation.
    options:
        Kernel/instrumentation knobs for every point's synthetic run.
    """
    scales = [float(s) for s in rate_scales]
    if not scales or any(s <= 0 for s in scales):
        raise ValueError(f"rate_scales must be positive, got {rate_scales}")
    if sorted(scales) != scales:
        raise ValueError("rate_scales must be increasing")
    if not (0.0 < efficiency_threshold < 1.0):
        raise ValueError(
            f"efficiency_threshold must be in (0,1), got {efficiency_threshold}"
        )

    points: List[LoadPoint] = []
    saturation_scale: Optional[float] = None
    floor: Optional[float] = None
    for scale in scales:
        point = measure_load_point(
            characterization,
            mesh_config=mesh_config,
            rate_scale=scale,
            messages_per_source=messages_per_source,
            seed=seed,
            options=options,
        ).point
        points.append(point)
        if floor is None:
            floor = point.mean_latency
        if saturation_scale is None and point.efficiency < efficiency_threshold:
            saturation_scale = scale
    return LoadSweep(
        points=points,
        saturation_scale=saturation_scale,
        zero_load_latency=floor if floor is not None else 0.0,
    )
