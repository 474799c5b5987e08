"""Unified pipeline entry points: one options bundle, three verbs.

:func:`run_dynamic`, :func:`run_static` and :func:`run_synthetic` are
the front door to the methodology: each takes the workload (an
application instance or registry name, or a fitted characterization)
plus a single :class:`~repro.core.options.RunOptions` bundle, instead
of the per-function instrumentation kwargs the lower-level
``characterize_*`` pipelines accumulated.

::

    from repro.core import RunOptions, run_dynamic, run_synthetic

    run = run_dynamic("1d-fft", params={"n": 128},
                      options=RunOptions(metrics=True))
    log = run_synthetic(run.characterization,
                        options=RunOptions(max_no_progress_events=100_000))
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from repro.apps.base import MessagePassingApplication, SharedMemoryApplication
from repro.coherence.config import CoherenceConfig
from repro.core.attributes import CommunicationCharacterization
from repro.core.methodology import (
    CharacterizationRun,
    characterize_message_passing,
    characterize_shared_memory,
)
from repro.core.options import RunOptions
from repro.core.synthetic import SyntheticTrafficGenerator
from repro.mesh.config import MeshConfig
from repro.mesh.netlog import NetworkLog
from repro.mp.sp2 import SP2Config


def _resolve_app(app, params: Optional[Mapping[str, object]], expected: type):
    """An application instance from an instance or a registry name."""
    if isinstance(app, str):
        from repro.apps import create_app

        app = create_app(app, **dict(params or {}))
    elif params:
        raise ValueError(
            "params= only applies when the application is given by name"
        )
    if not isinstance(app, expected):
        raise TypeError(
            f"{app.name!r} is a {type(app).__name__}, not a {expected.__name__}; "
            f"use the other run_* entry point for it"
        )
    return app


def run_dynamic(
    app: Union[str, SharedMemoryApplication],
    params: Optional[Mapping[str, object]] = None,
    mesh_config: Optional[MeshConfig] = None,
    coherence_config: Optional[CoherenceConfig] = None,
    per_source_temporal: bool = False,
    options: Optional[RunOptions] = None,
) -> CharacterizationRun:
    """Dynamic strategy: execution-driven CC-NUMA characterization.

    ``app`` is a :class:`SharedMemoryApplication` instance or a
    registry name (with ``params`` as its constructor arguments).
    """
    app = _resolve_app(app, params, SharedMemoryApplication)
    return characterize_shared_memory(
        app,
        mesh_config=mesh_config,
        coherence_config=coherence_config,
        per_source_temporal=per_source_temporal,
        options=options,
    )


def run_static(
    app: Union[str, MessagePassingApplication],
    params: Optional[Mapping[str, object]] = None,
    mesh_config: Optional[MeshConfig] = None,
    sp2: Optional[SP2Config] = None,
    replay_mode: str = "dependency",
    time_scale: float = 1.0,
    per_source_temporal: bool = False,
    options: Optional[RunOptions] = None,
) -> CharacterizationRun:
    """Static strategy: traced SP2 run replayed into the mesh.

    ``app`` is a :class:`MessagePassingApplication` instance or a
    registry name (with ``params`` as its constructor arguments).
    """
    app = _resolve_app(app, params, MessagePassingApplication)
    return characterize_message_passing(
        app,
        mesh_config=mesh_config,
        sp2=sp2,
        replay_mode=replay_mode,
        time_scale=time_scale,
        per_source_temporal=per_source_temporal,
        options=options,
    )


def run_synthetic(
    characterization: CommunicationCharacterization,
    mesh_config: Optional[MeshConfig] = None,
    seed: int = 1234,
    rate_scale: float = 1.0,
    messages_per_source: int = 200,
    until: Optional[float] = None,
    options: Optional[RunOptions] = None,
) -> NetworkLog:
    """Drive a mesh with synthetic traffic from a fitted model.

    Builds a :class:`SyntheticTrafficGenerator` and returns the sealed
    activity log of one ``generate`` run.
    """
    generator = SyntheticTrafficGenerator(
        characterization,
        mesh_config=mesh_config,
        seed=seed,
        rate_scale=rate_scale,
        options=options,
    )
    return generator.generate(messages_per_source=messages_per_source, until=until)


def run_pattern(
    mesh_config: Optional[MeshConfig] = None,
    pattern: str = "uniform",
    messages_per_source: int = 100,
    seed: int = 1234,
    mean_gap: float = 10.0,
    length_bytes: int = 64,
    options: Optional[RunOptions] = None,
    stem: str = "netlog",
):
    """Replay a pre-drawn pattern workload under the bundle's scheduler.

    The one entry point that dispatches on ``options.scheduler ==
    "parallel"``: the same compiled schedule
    (:class:`~repro.simkernel.engine_parallel.ScheduleTraffic`) runs
    either on one serial simulator or sharded across
    ``parallel_regions`` region workers, so the two paths are directly
    comparable.  The parallel path accepts only region-local schedules
    and raises ``ValueError`` for any other before a worker starts.
    The serial replay runs under the whole bundle (stall check,
    watchdog, leak audit, telemetry); region workers run with the
    default checks.  Returns a
    :class:`~repro.simkernel.engine_parallel.SerialRunResult` or
    :class:`~repro.simkernel.engine_parallel.ParallelRunResult`; with
    ``log_spill`` set, both write a ``netlog-spill`` manifest there.
    """
    from repro.core.options import PARALLEL_SCHEDULER
    from repro.simkernel.engine_parallel import (
        ScheduleTraffic,
        run_parallel_mesh,
        run_serial_schedule,
    )

    config = mesh_config if mesh_config is not None else MeshConfig()
    options = options if options is not None else RunOptions()
    traffic = ScheduleTraffic.compile_pattern(
        config,
        pattern=pattern,
        messages_per_source=messages_per_source,
        seed=seed,
        mean_gap=mean_gap,
        length_bytes=length_bytes,
    )
    if options.scheduler == PARALLEL_SCHEDULER:
        from repro.mesh.netlog_stream import DEFAULT_WINDOW

        return run_parallel_mesh(
            config,
            traffic,
            regions=options.parallel_regions or 2,
            directory=options.log_spill,
            stem=stem,
            window=(
                options.log_spill_window
                if options.log_spill_window is not None
                else DEFAULT_WINDOW
            ),
        )
    return run_serial_schedule(
        config, traffic, log=options.make_netlog(stem), options=options
    )
