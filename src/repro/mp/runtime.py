"""The simulated SP2 runtime hosting message-passing applications.

One simulated process per rank; sends charge the SP2 sender overhead,
a detached "wire" process models switch transit, and receives charge
the receiver overhead on pickup.  Every send is recorded in an
application-level :class:`~repro.trace.log.TraceLog`, the artifact the
static strategy replays into the mesh simulator.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.mp.api import MPIContext
from repro.mp.sp2 import SP2Config
from repro.obs.registry import MetricsRegistry
from repro.simkernel import DeadlockError, Simulator, hold
from repro.trace.log import TraceLog

RankBody = Callable[[MPIContext], Generator]


class MessagePassingRuntime:
    """A simulated SP2 partition of ``num_ranks`` nodes.

    Typical use::

        runtime = MessagePassingRuntime(num_ranks=8)
        runtime.run(rank_body)        # rank_body(comm) is a generator
        trace = runtime.trace         # feed to the trace replayer
    """

    def __init__(
        self,
        num_ranks: int = 8,
        sp2: Optional[SP2Config] = None,
        obs: Optional[MetricsRegistry] = None,
        options=None,
    ) -> None:
        if num_ranks < 1:
            raise ValueError(f"num_ranks must be >= 1, got {num_ranks}")
        self.num_ranks = num_ranks
        self.sp2 = sp2 or SP2Config()
        # ``options`` is duck-typed (a RunOptions) rather than imported:
        # repro.core imports this module through the app base class.
        self.options = options
        self.simulator = Simulator(obs=obs)
        self.obs = self.simulator.obs
        self.trace = TraceLog()
        self.contexts = [MPIContext(self, rank) for rank in range(num_ranks)]
        self.finished = False
        self._observed = self.obs.enabled
        self._pending = 0  # delivered but not yet received (all ranks)
        if self._observed:
            self._m_messages = self.obs.counter("mp.messages")
            self._m_bytes = self.obs.counter("mp.bytes")
            self._m_pending = self.obs.gauge("mp.pending_messages")
            self._m_pending_series = self.obs.time_series("mp.pending_messages.series")

    def _pending_changed(self, delta: int) -> None:
        """Track the cross-rank count of delivered-but-unreceived
        messages (called by :class:`MPIContext` when observed)."""
        self._pending += delta
        self._m_pending.set(self._pending)
        self._m_pending_series.sample(self.simulator.now, self._pending)

    def _launch_wire(
        self, src: int, dst: int, payload: Any, nbytes: int, tag: int
    ) -> None:
        """Detached transit of one message through the SP2 switch."""
        if self._observed:
            self._m_messages.inc()
            self._m_bytes.inc(nbytes)

        def wire():
            yield hold(self.sp2.wire_time(nbytes))
            self.contexts[dst]._deliver(src, tag, payload, nbytes)

        self.simulator.process(wire(), name=f"wire[{src}->{dst}]")

    def run(self, rank_body: RankBody, until: Optional[float] = None) -> float:
        """Run one instance of ``rank_body`` per rank to completion."""
        if self.finished:
            raise RuntimeError("runtime already ran; build a new one per run")
        ranks = [
            self.simulator.process(rank_body(comm), name=f"rank[{comm.rank}]")
            for comm in self.contexts
        ]
        options = self.options
        try:
            end_time = self.simulator.run(
                until=until,
                check_stall=options is None or options.check_stall,
                max_no_progress_events=(
                    options.max_no_progress_events if options is not None else None
                ),
            )
        except DeadlockError as error:
            self.finished = True
            stuck = [r.name for r in ranks if not r.finished]
            raise RuntimeError(
                f"ranks never finished (unmatched recv or deadlock): {stuck}\n{error}"
            ) from error
        self.finished = True
        stuck = [r.name for r in ranks if not r.finished]
        if stuck and until is None:
            raise RuntimeError(
                f"ranks never finished (unmatched recv or deadlock): {stuck}"
            )
        return end_time
