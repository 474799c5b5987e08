"""The execution-driven simulation harness.

Wires together the kernel, the mesh, the CC-NUMA machine and the
application threads, runs the simulation to completion and exposes the
network activity log -- the artifact the characterization methodology
analyzes.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional

from repro.coherence.config import CoherenceConfig
from repro.coherence.machine import CCNUMAMachine
from repro.exec_driven.sync import SyncBarrier, SyncLock
from repro.exec_driven.thread_api import SharedArray, ThreadContext
from repro.mesh.config import MeshConfig
from repro.mesh.netlog import NetworkLog
from repro.mesh.network import MeshNetwork
from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import TimelineRecorder
from repro.simkernel import DeadlockError, Simulator

ThreadBody = Callable[[ThreadContext], Generator]


class ExecutionDrivenSimulation:
    """One execution-driven run of a shared-memory application.

    Parameters
    ----------
    mesh_config:
        Mesh geometry/timing; the processor count is the mesh's node
        count (default 4x2 = 8 processors, the paper's configuration).
    coherence_config:
        Cache/protocol parameters.
    obs:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when
        given, the kernel, network and coherence engine all report
        into it (default: observability off).
    timeline:
        Optional :class:`~repro.obs.timeline.TimelineRecorder` for
        Chrome trace-event export of the run.
    options:
        Optional :class:`~repro.core.options.RunOptions` selecting the
        activity-log collector and the run tail's knobs (stall
        detection, leak audit, no-progress watchdog, live telemetry;
        see :meth:`MeshNetwork.run`).  Defaults: stall checking and
        leak audits on.

    Typical use::

        sim = ExecutionDrivenSimulation()
        data = sim.array("data", 1024)
        barrier = sim.barrier()

        def worker(ctx):
            value = yield from ctx.load(data, ctx.pid)
            yield from ctx.barrier(barrier)

        sim.run(worker)
        log = sim.log          # feed to the statistics package
    """

    def __init__(
        self,
        mesh_config: Optional[MeshConfig] = None,
        coherence_config: Optional[CoherenceConfig] = None,
        obs: Optional[MetricsRegistry] = None,
        timeline: Optional[TimelineRecorder] = None,
        options=None,
    ) -> None:
        self.mesh_config = mesh_config or MeshConfig()
        self.coherence_config = coherence_config or CoherenceConfig()
        # ``options`` is duck-typed (a RunOptions) rather than imported:
        # repro.core imports this module through the app base class.
        self.options = options
        self.simulator = Simulator(obs=obs)
        self.network = MeshNetwork(
            self.simulator,
            self.mesh_config,
            timeline=timeline,
            log=options.make_netlog() if options is not None else None,
        )
        self.machine = CCNUMAMachine(self.simulator, self.network, self.coherence_config)
        self.contexts = [
            ThreadContext(self.machine, pid)
            for pid in range(self.machine.num_processors)
        ]
        self._arrays: Dict[str, SharedArray] = {}
        self.finished = False

    @property
    def num_processors(self) -> int:
        """Processor (= mesh node) count."""
        return self.machine.num_processors

    @property
    def log(self) -> NetworkLog:
        """The network activity log produced by the run."""
        return self.network.log

    # ------------------------------------------------------------------
    # resource construction
    # ------------------------------------------------------------------
    def array(self, name: str, length: int, placement="interleaved") -> SharedArray:
        """Allocate a named shared array.

        ``placement`` is ``"interleaved"`` (default), ``"chunked"``
        (chunk p homed at node p) or an integer node id (whole array
        homed there); see :class:`SharedArray`.
        """
        if name in self._arrays:
            raise ValueError(f"array {name!r} already allocated")
        arr = SharedArray(self.machine, name, length, placement=placement)
        self._arrays[name] = arr
        return arr

    def get_array(self, name: str) -> SharedArray:
        """Look up a previously allocated array."""
        return self._arrays[name]

    def barrier(
        self,
        parties: Optional[int] = None,
        home: Optional[int] = None,
        rotating: bool = False,
    ) -> SyncBarrier:
        """Create a barrier (defaults to all processors).

        Pass ``rotating=True`` for barriers re-entered every phase so
        their home rotates per episode (see :class:`SyncBarrier`).
        """
        return SyncBarrier(self.machine, parties=parties, home=home, rotating=rotating)

    def lock(self, home: Optional[int] = None) -> SyncLock:
        """Create a lock."""
        return SyncLock(self.machine, home=home)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, thread_body: ThreadBody, until: Optional[float] = None) -> float:
        """Start one thread per processor and run to completion.

        Returns the final simulated time.  Raises if any thread fails;
        a thread that deadlocks leaves the simulator drained with
        unfinished processes, which is reported as an error.
        """
        if self.finished:
            raise RuntimeError("simulation already ran; build a new one per run")
        threads = [
            self.simulator.process(thread_body(ctx), name=f"thread[{ctx.pid}]")
            for ctx in self.contexts
        ]
        self.finished = True
        try:
            self.network.run(self.options, until=until, label="characterize")
        except DeadlockError as error:
            stuck = [t.name for t in threads if not t.finished]
            raise RuntimeError(
                f"threads never finished (deadlock or lost wakeup): {stuck}\n{error}"
            ) from error
        self.machine.finalize_metrics()
        stuck = [t.name for t in threads if not t.finished]
        if stuck and until is None:
            raise RuntimeError(
                f"threads never finished (deadlock or lost wakeup): {stuck}"
            )
        return self.simulator.now

    def machine_stats(self) -> Dict[str, float]:
        """Coherence-machine counters for the run."""
        return self.machine.stats()
