"""Common scaffolding for the characterized applications.

Applications are *real* algorithms: they compute genuine results
(verified against independent references) while every shared access or
message goes through the simulated machine.  The communication
structure the methodology characterizes is therefore a property of the
algorithm, exactly as in the paper's runs of the original codes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Generator, Optional

from repro.coherence.config import CoherenceConfig
from repro.exec_driven.runtime import ExecutionDrivenSimulation
from repro.exec_driven.thread_api import ThreadContext
from repro.mesh.config import MeshConfig
from repro.mesh.netlog import NetworkLog


def partition(length: int, parties: int, pid: int) -> range:
    """Processor ``pid``'s share of ``length`` items split equally
    and contiguously over ``parties`` processors."""
    if parties < 1:
        raise ValueError(f"parties must be >= 1, got {parties}")
    if not (0 <= pid < parties):
        raise ValueError(f"pid {pid} outside [0, {parties})")
    start = (pid * length) // parties
    end = ((pid + 1) * length) // parties
    return range(start, end)


class SharedMemoryApplication(ABC):
    """A shared-memory application for the dynamic strategy.

    Lifecycle: construct with problem parameters, then :meth:`run`,
    which builds a fresh simulation, executes every thread to
    completion, verifies the computed result against an independent
    reference, and returns the simulation (whose ``log`` feeds the
    characterization).
    """

    #: Short identifier used in tables and the registry.
    name: str = "app"
    #: One-line description for reports.
    description: str = ""

    @abstractmethod
    def build(self, sim: ExecutionDrivenSimulation) -> None:
        """Allocate shared arrays and initialize problem data."""

    @abstractmethod
    def thread_body(self, ctx: ThreadContext) -> Generator:
        """The per-processor program (a generator over ctx operations)."""

    @abstractmethod
    def verify(self) -> None:
        """Check the computed result; raise AssertionError on mismatch
        (explicitly: ``python -O`` strips ``assert`` statements)."""

    def run(
        self,
        mesh_config: Optional[MeshConfig] = None,
        coherence_config: Optional[CoherenceConfig] = None,
        obs=None,
        timeline=None,
        options=None,
    ) -> ExecutionDrivenSimulation:
        """Execute the application end to end on a fresh machine.

        ``obs``/``timeline`` are forwarded to
        :class:`ExecutionDrivenSimulation` (observability off when
        omitted); ``options`` (a
        :class:`~repro.core.options.RunOptions`) selects the run-safety
        knobs.
        """
        sim = ExecutionDrivenSimulation(
            mesh_config=mesh_config,
            coherence_config=coherence_config,
            obs=obs,
            timeline=timeline,
            options=options,
        )
        self.build(sim)
        sim.run(self.thread_body)
        self.verify()
        return sim


class MessagePassingApplication(ABC):
    """A message-passing application for the static strategy.

    Runs on the simulated SP2 (:mod:`repro.mp`), producing an
    application-level communication trace that the trace replayer feeds
    into the mesh simulator.
    """

    name: str = "mp-app"
    description: str = ""

    @abstractmethod
    def rank_body(self, comm) -> Generator:
        """Per-rank program over an :class:`repro.mp.api.MPIContext`."""

    @abstractmethod
    def verify(self) -> None:
        """Check the computed result; raise AssertionError on mismatch
        (explicitly: ``python -O`` strips ``assert`` statements)."""

    def run(self, num_ranks: int = 8, **runtime_kwargs):
        """Execute on the simulated SP2; returns the MP runtime
        (with ``trace`` attribute) after verification."""
        from repro.mp.runtime import MessagePassingRuntime

        runtime = MessagePassingRuntime(num_ranks=num_ranks, **runtime_kwargs)
        runtime.run(self.rank_body)
        self.verify()
        return runtime
