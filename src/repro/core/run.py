"""The characterization pipelines: one function per strategy.

Dynamic strategy (shared memory), :func:`run_dynamic`::

    app -> execution-driven CC-NUMA simulation -> network activity log
        -> temporal/spatial/volume analysis -> characterization

Static strategy (message passing), :func:`run_static`::

    app -> simulated SP2 run -> application-level trace
        -> dependency-preserving replay into the mesh -> activity log
        -> temporal/spatial/volume analysis -> characterization

Both strategies drive the *same* 2-D mesh simulator, as the paper
stresses ("for both application categories, we intentionally use the
same 2-D network topology and log the network events"), and both end
in :func:`~repro.core.methodology.characterize_log`.  Each takes the
application (an instance, or a registry name plus ``params``) and one
:class:`~repro.core.options.RunOptions` bundle.  :func:`run_pattern`
replays a pre-drawn pattern workload on the mesh; traffic regenerated
from a fitted model comes from
:class:`~repro.core.synthetic.SyntheticTrafficGenerator`.

::

    from repro.core import RunOptions, SyntheticTrafficGenerator, run_dynamic

    run = run_dynamic("1d-fft", params={"n": 128},
                      options=RunOptions(metrics=True))
    log = SyntheticTrafficGenerator(run.characterization).generate()
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from repro.apps.base import MessagePassingApplication, SharedMemoryApplication
from repro.coherence.config import CoherenceConfig
from repro.core.methodology import CharacterizationRun, characterize_log
from repro.core.options import RunOptions
from repro.mesh.config import MeshConfig
from repro.mesh.network import MeshNetwork
from repro.simkernel import Simulator
from repro.trace.replay import replay_trace


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
    ``options`` configures instrumentation and kernel knobs; the
    returned run then carries the materialized ``registry``/``timeline``
    and a ``metrics`` snapshot.
    """
    app = _resolve_app(app, params, SharedMemoryApplication)
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


def run_static(
    app: Union[str, MessagePassingApplication],
    params: Optional[Mapping[str, object]] = None,
    mesh_config: Optional[MeshConfig] = None,
    options: Optional[RunOptions] = None,
) -> CharacterizationRun:
    """Static strategy: traced SP2 run replayed into the mesh.

    ``app`` is a :class:`MessagePassingApplication` instance or a
    registry name (with ``params`` as its constructor arguments).  The
    rank count equals the mesh's node count (each SP2 rank maps onto
    one mesh node), and the replay preserves each source's order and
    traced gaps.  ``options`` configures both the SP2 run and the
    replay (the registry observes both, the timeline records the
    replay's network activity).  Per-source temporal fits of the log
    come from :func:`~repro.core.methodology.characterize_log`.
    """
    app = _resolve_app(app, params, MessagePassingApplication)
    options = options or RunOptions()
    registry = options.make_registry()
    recorder = options.make_timeline()
    mesh_config = mesh_config or MeshConfig()
    runtime = app.run(num_ranks=mesh_config.num_nodes, obs=registry, options=options)
    network = MeshNetwork(
        Simulator(obs=registry), mesh_config, timeline=recorder, log=options.make_netlog()
    )
    # Telemetry covers the mesh replay (the phase producing the activity
    # log the methodology analyzes), not the SP2 front half.
    log = replay_trace(runtime.trace, network, options=options)
    characterization = characterize_log(
        log, mesh_config, app_name=app.name, strategy="static"
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


def run_pattern(
    mesh_config: Optional[MeshConfig] = None,
    pattern: str = "uniform",
    messages_per_source: int = 100,
    seed: int = 1234,
    mean_gap: float = 10.0,
    length_bytes: int = 64,
    options: Optional[RunOptions] = None,
):
    """Replay a pre-drawn pattern workload on the mesh.

    Compiles the schedule once
    (:class:`~repro.simkernel.engine_parallel.ScheduleTraffic`) and
    replays it under the whole bundle (stall check, watchdog, leak
    audit, telemetry).  Returns a
    :class:`~repro.simkernel.engine_parallel.SerialRunResult`; with
    ``log_spill`` set, the log spills there and the result names its
    ``netlog-spill`` manifest.
    """
    from repro.simkernel.engine_parallel import ScheduleTraffic, run_serial_schedule

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
    return run_serial_schedule(
        config, traffic, log=options.make_netlog(), options=options
    )
