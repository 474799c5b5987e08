"""Trace replay into the mesh network simulator.

The paper feeds SP2 traces to the same 2-D mesh simulator used by the
dynamic strategy, "intelligently ... avoiding the usual pitfalls of
trace-driven simulation": absolute trace timestamps embed the traced
machine's timing, so replaying them verbatim ignores the feedback
between network contention and message generation.  The
dependency-preserving mode therefore replays each source's messages in
order, separated by the *traced gaps* ("time since the last network
activity at the source"), letting the replayed timeline stretch when
the mesh is congested.  The open-loop mode (absolute timestamps) is
retained deliberately so the pitfall can be demonstrated.
"""

from __future__ import annotations

from repro.mesh.netlog import NetworkLog
from repro.mesh.network import MeshNetwork
from repro.mesh.packet import NetworkMessage
from repro.simkernel import hold
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
        gaps; ``"open-loop"`` injects at absolute trace timestamps.
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

    if mode == "dependency":
        for src in trace.sources():
            events = trace.by_source(src)

            def source_process(events=events):
                # The traced schedule for this source: cumulative gaps.
                # How far injection lags behind it is the replay stall
                # (the timeline stretch congestion causes).
                expected = 0.0
                for event in events:
                    yield hold(event.gap)
                    expected += event.gap
                    if observed:
                        stall = max(simulator.now - expected, 0.0)
                        m_messages.inc()
                        m_stall.observe(stall)
                        m_stall_series.sample(simulator.now, stall)
                    message = NetworkMessage(
                        src=event.src,
                        dst=event.dst,
                        length_bytes=event.length_bytes,
                        kind=event.kind,
                    )
                    yield from network.transfer(message)

            simulator.process(source_process(), name=f"replay[src={src}]")
    else:
        for event in trace:
            message = NetworkMessage(
                src=event.src,
                dst=event.dst,
                length_bytes=event.length_bytes,
                kind=event.kind,
            )

            def injector(message=message):
                if observed:
                    m_messages.inc()
                yield from network.transfer(message)

            simulator.schedule(
                event.post_time,
                lambda message=message: simulator.process(
                    injector(message), name=f"replay#{message.msg_id}"
                ),
            )

    return network.run(options, label="replay")
