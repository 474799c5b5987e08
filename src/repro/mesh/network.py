"""The 2-D mesh wormhole network simulator.

Every physical channel (plus each node's injection and ejection port)
is a single-server :class:`~repro.simkernel.facility.Facility`.  A
message transfer is a simulated process that walks the XY route as a
*pipelined circuit*: the head flit acquires channels hop by hop, the
body streams once the head reaches the destination, and the whole path
is released when the tail drains.  Time spent blocked on channel
acquisition is accumulated as the message's *contention*, exactly the
quantity the paper's simulator reports alongside latency and resource
utilization.

Routing is deterministic, so everything a transfer yields except its
body-flit hold is a function of ``(src, dst, lane)``.  The network
compiles that sequence once per key into a *transfer plan* (see
:meth:`MeshNetwork._compile_plan`) over the topology's route table, and
every later transfer with the same key walks the plan.  The body-flit
hold depends only on the payload length and is compiled once per
length.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.mesh.config import MeshConfig
from repro.mesh.netlog import NetLogRecord, NetworkLog, make_record
from repro.mesh.packet import NetworkMessage, next_message_id
from repro.mesh.topology import ROUTE_TABLE_CAP, Hop
from repro.obs.live import start_live_telemetry
from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import CHANNELS_PID, NULL_TIMELINE, TimelineRecorder
from repro.simkernel import Facility, Hold, Release, Request, SimEvent, Simulator, hold
from repro.simkernel.diagnosis import check_leaks

DeliveryHandler = Callable[[NetworkMessage, NetLogRecord], None]

#: A :meth:`MeshNetwork.start_sources` entry: gap, dst, length_bytes, msg_id, kind.
SourceEntry = Tuple[float, int, int, Optional[int], str]

#: A compiled transfer: source-NI request, per-hop ``(request, hold)``
#: steps, destination-NI request, every release in acquisition order,
#: and the route the steps walk.
Plan = Tuple[
    Request, Tuple[Tuple[Request, Hold], ...], Request, Tuple[Release, ...], Tuple[Hop, ...]
]


class MeshNetwork:
    """Process-oriented simulator of a wormhole-routed 2-D mesh.

    Parameters
    ----------
    simulator:
        The simulation kernel to run on.
    config:
        Mesh geometry and timing (see :class:`MeshConfig`).
    obs:
        Metrics registry; defaults to the simulator's own, so a
        registry passed to :class:`Simulator` observes the network too.
    timeline:
        Chrome trace-event recorder receiving per-node message spans
        and per-channel occupancy spans (default: disabled).
    log:
        Activity-log collector to append deliveries to; defaults to a
        fresh in-memory :class:`~repro.mesh.netlog.NetworkLog`.  Runs
        with out-of-core logging inject a
        :class:`~repro.mesh.netlog_stream.StreamingNetworkLog` here.

    Messages enter through :meth:`inject` (fire-and-forget, returns a
    completion :class:`SimEvent`), :meth:`transfer` (a sub-generator
    for blocking sends: ``yield from net.transfer(msg)``) or
    :meth:`start_sources` (closed-loop per-source processes, each one
    walk over its messages); drivers then finish with :meth:`run`.
    Deliveries append a row to :attr:`log` and call any handler
    registered for the destination node.
    """

    #: Sample per-channel utilization/queue series every this many
    #: deliveries (per-channel sampling is O(channels)).
    CHANNEL_SAMPLE_INTERVAL = 32

    def __init__(
        self,
        simulator: Simulator,
        config: MeshConfig,
        obs: Optional[MetricsRegistry] = None,
        timeline: Optional[TimelineRecorder] = None,
        log=None,
    ) -> None:
        self.simulator = simulator
        self.config = config
        self.topology = config.make_topology()
        self._num_nodes = config.num_nodes
        # ``log`` lets runs inject a collector with different storage
        # (e.g. a spilling StreamingNetworkLog); anything with the
        # NetworkLog append surface works.
        self.log = log if log is not None else NetworkLog()
        # One facility per (physical channel, virtual-channel lane).
        self._channels: Dict[Tuple[int, int, int], Facility] = {
            (u, v, lane): Facility(simulator, name=f"ch[{u}->{v}#{lane}]")
            for u, v in self.topology.channels()
            for lane in range(config.virtual_channels)
        }
        self._injection = [
            Facility(simulator, name=f"inj[{n}]") for n in range(self._num_nodes)
        ]
        self._ejection = [
            Facility(simulator, name=f"ej[{n}]") for n in range(self._num_nodes)
        ]
        # Commands are immutable, so each facility's request/release
        # and each fixed-duration hold is built once and yielded by
        # every transfer that needs it.
        self._channel_commands: Dict[Tuple[int, int, int], Tuple[Request, Release]] = {
            key: (Request(facility), Release(facility))
            for key, facility in self._channels.items()
        }
        self._injection_commands = [(Request(f), Release(f)) for f in self._injection]
        self._ejection_commands = [(Request(f), Release(f)) for f in self._ejection]
        self._injection_hold = Hold(float(config.injection_time))
        self._ejection_hold = Hold(float(config.ejection_time))
        self._hop_holds: Dict[float, Hold] = {}
        # Body-flit hold per payload length (None: a single-flit
        # message has no body); stops growing at the route table's cap.
        self._body_holds: Dict[int, Optional[Hold]] = {}
        self._lanes = config.virtual_channels
        self._adaptive = config.routing == "adaptive"
        # Compiled transfer plans keyed by (src, dst, free lane); under
        # adaptive routing, (src, dst) -> (XY plan, YX plan, first
        # channels to compare or None).  Both stop growing at the route
        # table's cap.
        self._plans: Dict[Tuple[int, int, int], Plan] = {}
        self._adaptive_plans: Dict[
            Tuple[int, int], Tuple[Plan, Plan, Optional[Tuple[Facility, Facility]]]
        ] = {}
        self._handlers: Dict[int, List[DeliveryHandler]] = {}
        self._in_flight = 0
        self.total_injected = 0
        self.total_delivered = 0
        self.adaptive_yx_taken = 0
        #: Windowed live-telemetry series of the last :meth:`run` (None
        #: unless its options requested sampling or a heartbeat).
        self.live_series = None
        self.obs = obs if obs is not None else simulator.obs
        self.timeline = timeline if timeline is not None else NULL_TIMELINE
        self._observed = self.obs.enabled
        if self._observed:
            self._m_injected = self.obs.counter("net.injected")
            self._m_delivered = self.obs.counter("net.delivered")
            self._m_in_flight = self.obs.gauge("net.in_flight")
            self._m_latency = self.obs.histogram("net.latency")
            self._m_contention = self.obs.histogram("net.contention")
            self._m_hops = self.obs.histogram("net.hops")
            self._m_hop_wait = self.obs.histogram("net.hop_wait")
            self._m_in_flight_series = self.obs.time_series("net.in_flight.series")
            self._m_mean_util = self.obs.time_series("net.mean_channel_utilization")
            self._m_max_util = self.obs.time_series("net.max_channel_utilization")
            self._deliveries_since_sample = 0
        if self.timeline.enabled:
            for node in range(config.num_nodes):
                self.timeline.name_process(node, f"node {node}")
            self.timeline.name_process(CHANNELS_PID, "network channels")
            # Stable thread id per directed physical channel.
            self._channel_tids: Dict[Tuple[int, int], int] = {}
            for tid, (u, v) in enumerate(sorted(self.topology.channels())):
                self._channel_tids[(u, v)] = tid
                self.timeline.name_thread(CHANNELS_PID, tid, f"ch {u}->{v}")

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def register_handler(self, node: int, handler: DeliveryHandler) -> None:
        """Invoke ``handler(message, record)`` on every delivery at
        ``node``; ``record`` is the :class:`NetLogRecord` of the row the
        delivery appended to :attr:`log`."""
        self._check_node(node)
        self._handlers.setdefault(node, []).append(handler)

    def channel(self, u: int, v: int, lane: int = 0) -> Facility:
        """The facility modeling lane ``lane`` of channel ``u -> v``."""
        try:
            return self._channels[(u, v, lane)]
        except KeyError:
            raise ValueError(f"no channel {u}->{v} lane {lane} in this network") from None

    # ------------------------------------------------------------------
    # injection APIs
    # ------------------------------------------------------------------
    def inject(self, message: NetworkMessage) -> SimEvent:
        """Start a transfer now; returns an event set at delivery.

        Callable from process or non-process code; the transfer runs as
        its own simulated process.  Endpoints are validated eagerly so
        a bad message fails at the call site, not inside the event loop.
        """
        self._check_node(message.src)
        self._check_node(message.dst)
        done = SimEvent(self.simulator, name=f"done#{message.msg_id}")

        def runner():
            yield from self.transfer(message)
            done.set()

        self.simulator.process(runner(), name=f"xfer#{message.msg_id}")
        return done

    def transfer(self, message: NetworkMessage):
        """Generator performing one wormhole transfer: the walk of
        :meth:`start_sources` over ``message`` alone, sent at once.

        Use from model code as ``yield from net.transfer(msg)``; the
        caller blocks until the tail flit is delivered and its row is in
        :attr:`log`, and the destination's handlers receive ``message``
        itself.  Nothing runs until the generator is iterated, and it
        returns None.

        Exception-safe: if the owning process fails or the run is
        truncated (the exception or ``GeneratorExit`` unwinds through
        this frame), every facility still held by this transfer is
        released synchronously and ``in_flight``/its gauge restored, so
        an aborted transfer cannot corrupt the contention and
        utilization accounting of the survivors.
        """
        return self._walk(
            message.src,
            ((None, message.dst, message.length_bytes, message.msg_id, message.kind),),
            message,
        )

    def _walk(
        self,
        src: int,
        entries: Iterable[SourceEntry],
        message: Optional[NetworkMessage] = None,
    ):
        """The wormhole walk, one message per entry, sent from ``src``;
        each entry carries its message's kind.

        A source loop (``message`` None) holds for each entry's gap,
        draws a None id after the hold, and rejects a negative length
        with :class:`NetworkMessage`'s error; a handler at the
        destination gets a :class:`NetworkMessage` built at delivery.
        :meth:`transfer` passes its one message, whose entry has no
        gap, and hands handlers that message.  The lookups every
        message makes are taken once per walk.
        """
        simulator = self.simulator
        observed = self._observed
        timeline_on = self.timeline.enabled
        owner = simulator.current_process
        plans = self._plans
        lanes = self._lanes
        body_holds = self._body_holds
        injection_hold = self._injection_hold
        ejection_hold = self._ejection_hold
        append = self.log.append
        handlers_at = self._handlers
        for gap, dst, length_bytes, msg_id, kind in entries:
            if message is None:
                yield hold(gap)
                if msg_id is None:
                    msg_id = next_message_id()
                if length_bytes < 0:
                    # Raises NetworkMessage's ValueError.
                    NetworkMessage(src, dst, length_bytes, kind, msg_id=msg_id)
            plan = plans.get((src, dst, msg_id % lanes))
            if plan is None:
                plan = self._plan_for(src, dst, msg_id)
            inj_request, steps, ej_request, releases, route = plan
            self._in_flight += 1
            self.total_injected += 1
            if observed:
                self._m_injected.inc()
                self._m_in_flight.set(self._in_flight)
            inject_time = simulator._now
            contention = 0.0
            # Facilities granted so far / released so far, both counted
            # in ``releases`` order (source NI, route channels,
            # destination NI).
            acquired = 0
            released = 0
            delivered = False
            # Channel acquire times for the timeline's per-channel
            # occupancy spans (wormhole: held until the tail drains).
            acquire_times: Optional[List[float]] = [] if timeline_on else None

            try:
                # Source NI: serializes messages leaving the same node.
                yield inj_request
                start_time = simulator._now
                contention += start_time - inject_time
                acquired = 1
                yield injection_hold

                # Head flit walks the compiled route, seizing each
                # channel lane in order and holding its routing +
                # (scaled) channel time.
                for request_cmd, hold_cmd in steps:
                    t0 = simulator._now
                    yield request_cmd
                    hop_wait = simulator._now - t0
                    contention += hop_wait
                    if observed:
                        self._m_hop_wait.observe(hop_wait)
                    if timeline_on:
                        acquire_times.append(simulator._now)
                    acquired += 1
                    yield hold_cmd

                # Destination NI.
                t0 = simulator._now
                yield ej_request
                contention += simulator._now - t0
                acquired += 1
                yield ejection_hold

                # Body flits stream over the held path (pipelined circuit).
                try:
                    body_hold = body_holds[length_bytes]
                except KeyError:
                    body_hold = self._body_hold(length_bytes)
                if body_hold is not None:
                    yield body_hold

                for release_cmd in releases:
                    yield release_cmd
                    released += 1

                # The log row and a handler's record take the same locals.
                deliver_time = simulator._now
                hops = len(route)
                append(
                    msg_id,
                    src,
                    dst,
                    length_bytes,
                    kind,
                    inject_time,
                    start_time,
                    deliver_time,
                    contention,
                    hops,
                )
                self._in_flight -= 1
                self.total_delivered += 1
                delivered = True
                if observed:
                    self._m_delivered.inc()
                    self._m_in_flight.set(self._in_flight)
                    self._m_latency.observe(deliver_time - inject_time)
                    self._m_contention.observe(contention)
                    self._m_hops.observe(hops)
                    self._deliveries_since_sample += 1
                    if self._deliveries_since_sample >= self.CHANNEL_SAMPLE_INTERVAL:
                        self._deliveries_since_sample = 0
                        self._sample_channels(simulator.now)
                if timeline_on:
                    now = simulator.now
                    self.timeline.complete(
                        name=f"{kind} -> {dst}",
                        category="message",
                        start=inject_time,
                        duration=now - inject_time,
                        pid=src,
                        tid=0,
                        args={
                            "msg_id": msg_id,
                            "bytes": length_bytes,
                            "contention": contention,
                            "hops": hops,
                        },
                    )
                    for hop, acquire_time in zip(route, acquire_times):
                        self.timeline.complete(
                            name=f"msg {msg_id}",
                            category="channel",
                            start=acquire_time,
                            duration=now - acquire_time,
                            pid=CHANNELS_PID,
                            tid=self._channel_tids[(hop.src, hop.dst)],
                            args={"src": src, "dst": dst},
                        )
                handlers = handlers_at.get(dst)
                if handlers:
                    record = make_record(
                        msg_id,
                        src,
                        dst,
                        length_bytes,
                        kind,
                        inject_time,
                        start_time,
                        deliver_time,
                        contention,
                        hops,
                    )
                    delivered_message = (
                        message
                        if message is not None
                        else NetworkMessage(src, dst, length_bytes, kind, msg_id=msg_id)
                    )
                    for handler in handlers:
                        handler(delivered_message, record)
            except BaseException:
                # The unwind may arrive via GeneratorExit (shutdown/GC),
                # so no yields here: facilities are released
                # synchronously.
                holder = owner if owner is not None else simulator.current_process
                if holder is not None:
                    for release_cmd in releases[released:acquired]:
                        release_cmd.facility._abandon(holder)
                if not delivered:
                    self._in_flight -= 1
                    if observed:
                        self._m_in_flight.set(self._in_flight)
                raise

    def _sample_channels(self, now: float) -> None:
        """Record the per-channel utilization/queue-depth time series
        plus the aggregate utilization series (obs enabled only)."""
        utils = self.channel_utilizations()
        if utils:
            values = utils.values()
            self._m_mean_util.sample(now, sum(values) / len(utils))
            self._m_max_util.sample(now, max(values))
        self._m_in_flight_series.sample(now, self._in_flight)
        queue_depths: Dict[Tuple[int, int], int] = {}
        for (u, v, _), facility in self._channels.items():
            queue_depths[(u, v)] = queue_depths.get((u, v), 0) + facility.queue_length
        for (u, v), util in utils.items():
            self.obs.time_series(f"net.channel[{u}->{v}].utilization").sample(now, util)
            self.obs.time_series(f"net.channel[{u}->{v}].queue_depth").sample(
                now, queue_depths[(u, v)]
            )

    def attach_live(self, sampler) -> None:
        """Register this network's probes on a live-telemetry sampler.

        Adds windowed injected/delivered counters, the in-flight gauge,
        and one multi-column window probe computing the window's mean
        channel utilization and mean queue depth from the facilities'
        busy/queue time integrals (deltas over the window, so the
        values are *windowed* -- saturation onset shows immediately
        instead of being averaged away by a long healthy prefix).
        Costs O(channels) once per sampling window and touches no model
        state, so sampled runs stay bit-identical to unsampled ones.
        """
        sampler.watch_counter("net.injected", lambda: float(self.total_injected))
        sampler.watch_counter("net.delivered", lambda: float(self.total_delivered))
        sampler.watch_gauge("net.in_flight", lambda: float(self._in_flight))
        facilities = list(self._channels.values())
        state = {"busy": 0.0, "queue": 0.0}

        def window(t_start: float, t_end: float) -> Dict[str, float]:
            busy = 0.0
            queue = 0.0
            # Facility._integrate inlined against t_end (== sim.now at
            # tick time): one attribute walk per channel instead of a
            # method call plus a simulator-clock property read.
            for facility in facilities:
                span = t_end - facility._last_change
                if span > 0:
                    facility._busy_integral += span * facility._busy
                    facility._queue_integral += span * len(facility._queue)
                    facility._last_change = t_end
                busy += facility._busy_integral
                queue += facility._queue_integral
            busy_delta = busy - state["busy"]
            queue_delta = queue - state["queue"]
            state["busy"] = busy
            state["queue"] = queue
            span = t_end - t_start
            denom = span * len(facilities)
            return {
                "net.channel_utilization": busy_delta / denom if denom > 0 else 0.0,
                "net.queue_depth": queue_delta / span if span > 0 else 0.0,
            }

        sampler.watch_window(window)

    # ------------------------------------------------------------------
    # drive harness
    # ------------------------------------------------------------------
    def start_sources(
        self, per_source: Mapping[int, Iterable[SourceEntry]], name: str
    ) -> None:
        """Start one closed-loop process per source, in source order,
        each named ``name[src]``.

        Each process takes its ``(gap, dst, length_bytes, msg_id,
        kind)`` entries in turn: it holds for ``gap`` ("time since the
        last network activity at the source"), sends a ``kind`` message
        and waits for its delivery.  A None ``msg_id`` is assigned after
        the hold, so ids follow event order.  Entries are taken lazily,
        just before the hold, so a generator drawing them costs O(1)
        memory per source and sees the clock the hold starts from.  The
        process body is the wormhole walk itself (:meth:`_walk`), with
        no per-message sub-generator.
        """
        for src in sorted(per_source):
            self.simulator.process(self._walk(src, per_source[src]), name=f"{name}[{src}]")

    def run(self, options=None, until: Optional[float] = None, label: str = "run"):
        """The run tail every driver shares; returns the sealed log.

        Under ``options`` (a :class:`~repro.core.options.RunOptions`,
        default options when omitted), in order: starts live telemetry
        mirrored into this network's registry; runs the kernel with the
        bundle's ``check_stall`` and ``max_no_progress_events``; unwinds
        a run truncated at ``until`` so held channels are released;
        records the final metrics sample; audits leaks when
        ``check_leaks`` is set; seals the log.  The windowed series
        lands on :attr:`live_series`.
        """
        if options is None:
            from repro.core.options import RunOptions

            options = RunOptions()
        simulator = self.simulator
        live = start_live_telemetry(
            options, simulator, network=self, registry=self.obs, label=label
        )
        try:
            simulator.run(
                until=until,
                check_stall=options.check_stall,
                max_no_progress_events=options.max_no_progress_events,
            )
        except BaseException as exc:
            if live is not None:
                live.finish("failed", error=exc)
            raise
        if live is not None:
            live.finish("done")
            self.live_series = live.series
        if until is not None:
            simulator.shutdown()
        self.finalize_metrics()
        if options.check_leaks:
            check_leaks(simulator)
        self.log.seal()
        return self.log

    # ------------------------------------------------------------------
    # transfer plans
    # ------------------------------------------------------------------
    def _plan_for(self, src: int, dst: int, msg_id: int) -> Plan:
        """The plan :meth:`_walk` takes when its key is not stored:
        validates the endpoints, then compiles (and, under the cap,
        stores) the deterministic plan or makes the adaptive choice."""
        self._check_node(src)
        self._check_node(dst)
        if self._adaptive:
            return self._adaptive_plan(src, dst)
        lane = msg_id % self._lanes
        plan = self._compile_plan(self.topology.routes.get(src, dst), src, dst, lane)
        if len(self._plans) < ROUTE_TABLE_CAP:
            self._plans[(src, dst, lane)] = plan
        return plan

    def _adaptive_plan(self, src: int, dst: int) -> Plan:
        """Adaptive routing (2-D mesh): XY on VC class 0, or YX on class
        1 when XY's first channel is busy and YX's -- a different
        channel -- is free."""
        choice = self._adaptive_plans.get((src, dst))
        if choice is None:
            xy = self.topology.routes.get(src, dst)
            yx = self.topology.routes_yx.get(src, dst)
            xy_plan = self._compile_plan(xy, src, dst, 0, pinned=True)
            yx_plan = self._compile_plan(yx, src, dst, 1, pinned=True)
            firsts = None
            if xy and yx and (xy[0].src, xy[0].dst) != (yx[0].src, yx[0].dst):
                firsts = (xy_plan[1][0][0].facility, yx_plan[1][0][0].facility)
            choice = (xy_plan, yx_plan, firsts)
            if len(self._adaptive_plans) < ROUTE_TABLE_CAP:
                self._adaptive_plans[(src, dst)] = choice
        xy_plan, yx_plan, firsts = choice
        if firsts is not None and not firsts[0].is_free and firsts[1].is_free:
            self.adaptive_yx_taken += 1
            return yx_plan
        return xy_plan

    def _compile_plan(
        self, route: Tuple[Hop, ...], src: int, dst: int, lane: int, pinned: bool = False
    ) -> Plan:
        """Everything a transfer over ``route`` yields, except the body hold.

        Each hop rides its pinned virtual-channel class (torus dateline,
        chiplet up/down phases), else ``lane``; ``pinned`` forces
        ``lane`` on every hop (the adaptive orders' classes).  A hop
        holds ``routing_time + channel_time * scale``: the same float
        expression, so the same durations, as building it per message.
        """
        cfg = self.config
        holds = self._hop_holds
        inj_request, inj_release = self._injection_commands[src]
        ej_request, ej_release = self._ejection_commands[dst]
        steps = []
        releases = [inj_release]
        for hop in route:
            hop_lane = lane if pinned or hop.vclass is None else hop.vclass
            request_cmd, release_cmd = self._channel_commands[(hop.src, hop.dst, hop_lane)]
            hold_cmd = holds.get(hop.scale)
            if hold_cmd is None:
                hold_cmd = holds[hop.scale] = Hold(
                    float(cfg.routing_time + cfg.channel_time * hop.scale)
                )
            steps.append((request_cmd, hold_cmd))
            releases.append(release_cmd)
        releases.append(ej_release)
        return (inj_request, tuple(steps), ej_request, tuple(releases), route)

    def _body_hold(self, length_bytes: int) -> Optional[Hold]:
        """The body-flit hold of a ``length_bytes`` message, or None for
        a single-flit one: ``(flits - 1) * channel_time``, the same float
        expression as building it per message.  Stored until the dict
        reaches the route table's cap."""
        cfg = self.config
        flits = cfg.flits_for(length_bytes)
        body_hold = Hold(float((flits - 1) * cfg.channel_time)) if flits > 1 else None
        if len(self._body_holds) < ROUTE_TABLE_CAP:
            self._body_holds[length_bytes] = body_hold
        return body_hold

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def finalize_metrics(self) -> None:
        """Record one final sample of every channel series.

        Called by :meth:`run` at end of simulation so short runs
        (fewer deliveries than the sampling interval) still export a
        per-channel utilization point.  Also records the end-of-run
        facility-leak audit so a leaky run is visible in its metrics.
        """
        if self._observed:
            self._sample_channels(self.simulator.now)
            self.obs.gauge("net.leaked_facilities").set(
                len(self.leaked_facilities())
            )

    def leaked_facilities(self, include_live: bool = False):
        """End-of-run audit restricted to this network's facilities.

        Returns ``(process, facility, count)`` for every injection,
        ejection, or channel server held by a finished/failed process
        (with ``include_live=True``: by any process -- useful after a
        truncated run).  A clean completed run returns ``[]``.
        """
        own = set(self._channels.values())
        own.update(self._injection)
        own.update(self._ejection)
        return [
            (proc, facility, count)
            for proc, facility, count in self.simulator.leaked_facilities(
                include_live=include_live
            )
            if facility in own
        ]

    @property
    def in_flight(self) -> int:
        """Messages injected but not yet delivered."""
        return self._in_flight

    def channel_utilizations(self) -> Dict[Tuple[int, int], float]:
        """Utilization of every directed physical channel (virtual
        lanes of the same physical channel are averaged)."""
        out: Dict[Tuple[int, int], float] = {}
        lanes = self.config.virtual_channels
        for (u, v, _), facility in self._channels.items():
            out[(u, v)] = out.get((u, v), 0.0) + facility.utilization() / lanes
        return out

    def mean_channel_utilization(self) -> float:
        """Average utilization across physical channels (the paper's
        "overall utilization of the different network resources")."""
        utils = list(self.channel_utilizations().values())
        return sum(utils) / len(utils) if utils else 0.0

    def max_channel_utilization(self) -> float:
        """Peak channel utilization (hot-spot indicator)."""
        utils = list(self.channel_utilizations().values())
        return max(utils) if utils else 0.0

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self._num_nodes):
            raise ValueError(f"node {node} outside mesh with {self._num_nodes} nodes")
