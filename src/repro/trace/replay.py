"""Trace replay into the mesh network simulator.

The paper feeds SP2 traces to the same 2-D mesh simulator used by the
dynamic strategy, "intelligently ... avoiding the usual pitfalls of
trace-driven simulation": absolute trace timestamps embed the traced
machine's timing, so replaying them verbatim ignores the feedback
between network contention and message generation.  The
dependency-preserving mode therefore replays each source's messages in
order, separated by the *traced gaps* ("time since the last network
activity at the source"), letting the replayed timeline stretch when
the mesh is congested; it runs through
:meth:`~repro.mesh.network.MeshNetwork.start_sources`.  The open-loop
mode (absolute timestamps) is retained deliberately so the pitfall can
be demonstrated.
"""

from __future__ import annotations

from operator import itemgetter

from repro.mesh.netlog import NetworkLog
from repro.mesh.network import MeshNetwork
from repro.mesh.packet import NetworkMessage
from repro.trace.log import TraceLog

#: Replay modes accepted by :func:`replay_trace`.
REPLAY_MODES = ("dependency", "open-loop")


def replay_trace(
    trace: TraceLog,
    network: MeshNetwork,
    mode: str = "dependency",
    options=None,
) -> NetworkLog:
    """Feed ``trace`` through ``network``; returns the network's log.

    Parameters
    ----------
    trace:
        The application-level communication trace.
    network:
        A fresh mesh simulator (its node count must cover every rank
        in the trace).
    mode:
        ``"dependency"`` (default) preserves per-source ordering and
        gaps, one ``replay[src]`` source walk per rank; ``"open-loop"``
        injects at absolute trace timestamps.
    options:
        The :class:`~repro.core.options.RunOptions` the replay runs
        under (see :meth:`MeshNetwork.run`); its live series lands on
        ``network.live_series``.
    """
    if mode not in REPLAY_MODES:
        raise ValueError(f"unknown replay mode {mode!r}; choose from {REPLAY_MODES}")
    num_nodes = network.config.num_nodes
    ranks = trace.sources() + [e.dst for e in trace]
    if ranks and max(ranks) >= num_nodes:
        raise ValueError(
            f"trace touches rank {max(ranks)} but the mesh has {num_nodes} nodes"
        )

    simulator = network.simulator

    obs = network.obs
    observed = obs.enabled
    if observed:
        m_messages = obs.counter("replay.messages")
        m_stall = obs.histogram("replay.stall")
        m_stall_series = obs.time_series("replay.stall.series")

    if mode == "open-loop":
        for event in trace:
            message = NetworkMessage(event.src, event.dst, event.length_bytes, event.kind)

            def inject(message=message):
                if observed:
                    m_messages.inc()
                network.inject(message)

            simulator.schedule(event.post_time, inject)
        return network.run(options, label="replay")

    # (injection time, stall) per message: how far injection lags the
    # traced schedule (the stretch congestion causes).  The walk holds
    # exactly ``gap`` after pulling an entry, so the message leaves at
    # ``now + gap``, the float the kernel computes.
    stalls = []

    def entries(events):
        expected = 0.0
        for event in events:
            expected += event.gap
            if observed:
                injected = simulator.now + event.gap
                stalls.append((injected, max(injected - expected, 0.0)))
            yield event.gap, event.dst, event.length_bytes, None, event.kind

    network.start_sources(
        {src: entries(trace.by_source(src)) for src in trace.sources()}, "replay"
    )
    log = network.run(options, label="replay")
    # Holds that end at one instant resume in the order they were
    # pulled, so a stable sort by time observes in injection order.
    stalls.sort(key=itemgetter(0))
    for injected, stall in stalls:
        m_messages.inc()
        m_stall.observe(stall)
        m_stall_series.sample(injected, stall)
    return log
