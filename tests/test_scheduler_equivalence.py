"""Property tests: the kernel's one clock loop keeps one order.

The kernel's observable order is the total order ``(time, seq)``:
simultaneous events fire in the order they were scheduled.  Four
checks hold ``steady_clock`` -- the only clock loop -- to a reference.

* Random interleavings of every calendar push, peek and ``len`` with
  runs that fire one event each are compared, operation by operation,
  with a plain ``heapq`` of ``(time, seq)`` entries -- the model of the
  ordering contract.  Every fired event stops the run, so each pop goes
  through the loop's inline now-FIFO pop and wave promotion.  Some
  fired events yield a hold, so the loop's inline hold push is held to
  the model too, and some pushes land on the time of the latest push,
  so a second step, callback, wave or hold joins a wave that holds one
  event: waves of both shapes, the bare record and the list.
* Each kind of second push turns a one-event wave, stored as the bare
  record, into a list, and both events fire in push order.
* Randomized process programs -- tie-prone quantized holds, contended
  facilities, paired mailbox handoffs, events -- run once with the
  stock commands, which the loop executes inline, and once with
  test-local subclasses of them, which it routes through the generic
  ``_dispatch``/``_execute`` handlers (``Facility._request``/
  ``_release``, the ``Mailbox`` methods, ``_schedule_step``).  Both
  must leave the same execution trail and channel statistics.
* A mesh run with the no-progress watchdog armed (never tripping) must
  write a bit-identical activity log and channel utilizations to an
  unarmed one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh.config import MeshConfig
from repro.mesh.network import MeshNetwork
from repro.mesh.packet import NetworkMessage
from repro.simkernel import (
    Facility,
    Hold,
    Mailbox,
    Passivate,
    Receive,
    Release,
    Request,
    Send,
    SimEvent,
    Simulator,
    Wait,
    hold,
)
from repro.simkernel.engine_calendar import EventRecord

#: Quantized delays (multiples of 0.25, including 0) make simultaneous
#: events the common case, which is exactly where an event list's
#: tie-break order can silently diverge.
gaps = st.integers(min_value=0, max_value=8).map(lambda k: k * 0.25)

#: Arms the watchdog without ever tripping it.
NEVER_STALLS = 10**9

operations = st.lists(
    st.one_of(
        st.tuples(st.just("step"), gaps),
        st.tuples(st.just("callback"), gaps),
        st.tuples(st.just("wave"), gaps, st.integers(min_value=0, max_value=4)),
        st.tuples(st.just("hold"), gaps, gaps),
        # Push again at the time of the latest push: onto a one-event
        # wave if that push opened one.
        st.tuples(
            st.just("again"),
            st.sampled_from(("step", "callback", "wave", "hold")),
            st.integers(min_value=1, max_value=3),
            gaps,
        ),
        st.just(("pop",)),
        st.just(("peek",)),
        st.just(("len",)),
    ),
    max_size=80,
)


class Probe:
    """Stands in for a process on a step record: firing it logs
    ``(now, label, value)`` and stops the run after that one event."""

    def __init__(self, sim, fired, label):
        self.sim = sim
        self.fired = fired
        self.label = label
        self.state = None

    def _send(self, value):
        self.fired.append((self.sim.now, self.label, value))
        self.sim.stop()
        return Passivate()


class HoldingProbe(Probe):
    """A probe that yields ``hold(delay)`` the first time it fires, so
    the loop's inline hold push reschedules it, and passivates after
    its second firing."""

    def __init__(self, sim, fired, label, delay):
        super().__init__(sim, fired, label)
        self.delay = delay
        self.waiting_on = None

    def _send(self, value):
        command = super()._send(value)
        if self.delay is None:
            return command
        delay, self.delay = self.delay, None
        self.label = ("held",) + self.label[1:]
        return hold(delay)


@settings(max_examples=300, deadline=None)
@given(ops=operations)
def test_calendar_matches_the_heapq_model(ops):
    """Every operation agrees with a ``heapq`` of ``(time, seq)``.

    Pushes land at or after the last fired time, as the kernel
    guarantees (delays are non-negative and the clock is the time of
    the last fired event).  The test drains both lists at the end.
    """
    sim = Simulator()
    sched = sim._sched
    model = []
    fired = []
    seq = itertools.count()
    # Label of each pushed holding probe -> the hold it yields when fired.
    holds = {}
    latest = 0.0

    def pop_and_compare():
        before = len(fired)
        sim.run()
        if not model:
            assert len(fired) == before
            return
        when, _, label, value = heappop(model)
        assert fired[before:] == [(when, label, value)]
        delay = holds.pop(label, None)
        if delay is not None:
            held = ("held",) + label[1:]
            heappush(model, (when + delay, next(seq), held, None))

    for n, op in enumerate(ops):
        kind = op[0]
        if kind == "again":
            # ``latest`` is still at or after the clock: a push may land
            # on it.
            when = max(latest, sim.now)
            kind, size, delay = op[1:]
        else:
            when = sim.now + op[1] if len(op) > 1 else None
            size = op[2] if kind == "wave" else None
            delay = op[2] if kind == "hold" else None
        if kind == "step":
            sched.push_step(when, Probe(sim, fired, ("step", n)), ("value", n))
            heappush(model, (when, next(seq), ("step", n), ("value", n)))
        elif kind == "hold":
            label = ("hold", n)
            sched.push_step(when, HoldingProbe(sim, fired, label, delay), ("value", n))
            heappush(model, (when, next(seq), label, ("value", n)))
            holds[label] = delay
        elif kind == "callback":

            def callback(label=("callback", n)):
                fired.append((sim.now, label, None))
                sim.stop()

            sched.push_callback(when, callback)
            heappush(model, (when, next(seq), ("callback", n), None))
        elif kind == "wave":
            labels = [("wave", n, i) for i in range(size)]
            probes = [Probe(sim, fired, label) for label in labels]
            sched.push_step_wave(when, probes, ("shared", n))
            for label in labels:
                heappush(model, (when, next(seq), label, ("shared", n)))
        elif kind == "pop":
            pop_and_compare()
        elif kind == "peek":
            assert sched.peek_time() == (model[0][0] if model else None)
        else:
            assert len(sched) == len(model)
            assert bool(sched) == bool(model)
        if when is not None:
            latest = when
    while model:
        pop_and_compare()
    pop_and_compare()
    assert sched.peek_time() is None
    assert len(sched) == 0


@pytest.mark.parametrize("second", ["step", "callback", "wave", "hold"])
def test_a_second_push_turns_a_bare_wave_into_a_list(second):
    """A wave holds its one event bare; the second push at that time,
    of any kind, makes it the list ``[first, second, ...]``, and both
    fire in push order."""
    sim = Simulator()
    sched = sim._sched
    fired = []
    sched.push_step(2.0, Probe(sim, fired, "first"), "v")
    assert type(sched._waves[2.0]) is EventRecord
    assert len(sched) == 1 and sched.peek_time() == 2.0
    if second == "step":
        sched.push_step(2.0, Probe(sim, fired, "second"), "w")
        expected = [(2.0, "second", "w")]
    elif second == "callback":

        def callback():
            fired.append((sim.now, "second", None))
            sim.stop()

        sched.push_callback(2.0, callback)
        expected = [(2.0, "second", None)]
    elif second == "wave":
        sched.push_step_wave(2.0, [Probe(sim, fired, i) for i in range(2)], "s")
        expected = [(2.0, 0, "s"), (2.0, 1, "s")]
    else:
        # The loop's inline hold push: a process at t=0 holding for 2.
        sched.push_step(0.0, HoldingProbe(sim, fired, ("hold", 0), 2.0), "h")
        sim.run()
        assert fired == [(0.0, ("hold", 0), "h")]
        fired.clear()
        expected = [(2.0, ("held", 0), None)]
    wave = sched._waves[2.0]
    assert type(wave) is list and len(wave) == 1 + len(expected)
    assert len(sched) == 1 + len(expected)
    while sched:
        sim.run()
    assert fired == [(2.0, "first", "v")] + expected


#: The commands ``steady_clock`` matches by exact type and runs inline.
STOCK = (Hold, Wait, Request, Release, Send, Receive)

#: Test-local subclasses of them.  The loop does not match these by
#: type, so it routes them through ``_dispatch`` or their ``_execute``
#: handlers: the reference its inline branches must agree with.
GENERIC = tuple(
    dataclass(frozen=True)(type(f"Generic{command.__name__}", (command,), {}))
    for command in STOCK
)


def _run_program(commands, num_pairs, extra_holds, sender_plans, walker_plans):
    """Execute one randomized program; returns its observable trail.

    ``commands`` is :data:`STOCK` or :data:`GENERIC`, the six command
    types the program yields.  ``sender_plans`` is one list of (gap,
    use_facility, service) per sender; each sender ships its plan
    through a mailbox its receiver drains (so every receive matches a
    send and the program always terminates).  ``walker_plans`` are
    standalone processes doing facility churn and holds.  The trail
    records every resume point: (clock, process name, step tag).
    """
    hold_, wait_, request_, release_, send_, receive_ = commands
    sim = Simulator()
    trail = []
    boxes = [Mailbox(sim, name=f"box{i}") for i in range(num_pairs)]
    channel = Facility(sim, name="channel")
    gate = SimEvent(sim, name="gate")

    def sender(idx, plan):
        box = boxes[idx]
        for n, (gap, use_facility, service) in enumerate(plan):
            yield hold_(gap)
            trail.append((sim.now, f"send{idx}", n))
            if use_facility:
                yield request_(channel)
                yield hold_(service)
                yield release_(channel)
            yield send_(box, (idx, n))

    def receiver(idx, count):
        box = boxes[idx]
        for n in range(count):
            message = yield receive_(box)
            trail.append((sim.now, f"recv{idx}", message))

    def walker(idx, plan):
        # The first walker opens the gate others may wait on.
        if idx == 0:
            yield hold_(0.5)
            gate.set()
        elif idx % 2 == 1:
            yield wait_(gate)
            trail.append((sim.now, f"walk{idx}", "gated"))
        for n, gap in enumerate(plan):
            yield hold_(gap)
            yield request_(channel)
            trail.append((sim.now, f"walk{idx}", n))
            yield release_(channel)

    for idx, plan in enumerate(sender_plans):
        sim.process(sender(idx, plan), name=f"send{idx}")
        sim.process(receiver(idx, len(plan)), name=f"recv{idx}")
    for idx, plan in enumerate(walker_plans):
        sim.process(walker(idx, plan), name=f"walk{idx}")
    for n, gap in enumerate(extra_holds):

        def lone(n=n, gap=gap):
            yield hold_(gap)
            trail.append((sim.now, "lone", n))

        sim.process(lone(), name=f"lone{n}")

    final = sim.run()
    states = sorted((p.name, p.state.name) for p in sim.processes)
    # The inline Request/Release branches integrate the channel in
    # place; the generic path calls Facility._integrate.  The floats
    # must agree exactly.
    channel_stats = (
        channel.utilization(),
        channel.mean_queue_length(),
        channel.mean_wait_time(),
        channel.total_requests,
        channel.total_queued,
    )
    return trail, final, sim.events_fired, states, channel_stats


@settings(max_examples=60, deadline=None)
@given(
    sender_plans=st.lists(
        st.lists(
            st.tuples(gaps, st.booleans(), gaps), min_size=1, max_size=6
        ),
        min_size=1,
        max_size=3,
    ),
    walker_plans=st.lists(
        st.lists(gaps, min_size=0, max_size=5), min_size=1, max_size=3
    ),
    extra_holds=st.lists(gaps, min_size=0, max_size=4),
)
def test_random_programs_identical_on_both_clock_loops(
    sender_plans, walker_plans, extra_holds
):
    """The inline dispatch and the generic one run each program alike."""
    inline, generic = (
        _run_program(
            commands, len(sender_plans), extra_holds, sender_plans, walker_plans
        )
        for commands in (STOCK, GENERIC)
    )
    assert inline == generic


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_mesh_netlog_bit_identical_on_both_clock_loops(seed):
    """Same seed, same mesh traffic, watchdog unarmed and armed: the
    activity logs must match record for record (fixed msg_ids keep the
    runs comparable), and the channel utilizations float for float."""

    def run(watchdog):
        sim = Simulator()
        net = MeshNetwork(sim, MeshConfig("3x3"))
        nodes = 9

        def source(src):
            for n in range(6):
                yield hold(((seed >> (n % 16)) & 7) * 0.25)
                yield from net.transfer(
                    NetworkMessage(
                        src=src,
                        dst=(src + 1 + (seed + n) % (nodes - 1)) % nodes,
                        length_bytes=(16, 64, 256)[(seed + src + n) % 3],
                        kind="p2p",
                        msg_id=src * 1000 + n,
                    )
                )

        for src in range(nodes):
            sim.process(source(src), name=f"src{src}")
        sim.run(check_stall=True, max_no_progress_events=watchdog)
        net.log.seal()
        return (
            net.log.records,
            sim.now,
            sim.events_fired,
            net.channel_utilizations(),
        )

    assert run(None) == run(NEVER_STALLS)
