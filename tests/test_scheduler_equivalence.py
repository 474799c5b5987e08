"""Property tests: the event list and both clock loops keep one order.

The kernel's observable order is the total order ``(time, seq)``:
simultaneous events fire in the order they were scheduled.  Two checks
hold it in place.

* ``CalendarScheduler`` is driven with random interleavings of every
  push, pop and peek and compared, operation by operation, with a
  plain ``heapq`` of ``(time, seq)`` entries -- the model of the
  ordering contract.
* The inlined dispatch of ``steady_clock`` (an unarmed ``run()``) is
  compared with the generic ``_step``/``_dispatch`` path the watchdog
  loop runs (``run(max_no_progress_events=...)``): randomized process
  programs -- tie-prone quantized holds, contended facilities, paired
  mailbox handoffs, events -- must leave the same execution trail and
  channel statistics, and a mesh run a bit-identical activity log and
  channel utilizations.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush

from hypothesis import given, settings, strategies as st

from repro.mesh.config import MeshConfig
from repro.mesh.network import MeshNetwork
from repro.mesh.packet import NetworkMessage
from repro.simkernel import (
    CalendarScheduler,
    Facility,
    Mailbox,
    SimEvent,
    Simulator,
    hold,
    receive,
    release,
    request,
    send,
    wait,
)

#: Quantized delays (multiples of 0.25, including 0) make simultaneous
#: events the common case, which is exactly where an event list's
#: tie-break order can silently diverge.
gaps = st.integers(min_value=0, max_value=8).map(lambda k: k * 0.25)

#: Arms the watchdog loop without ever tripping it.
NEVER_STALLS = 10**9

operations = st.lists(
    st.one_of(
        st.tuples(st.just("step"), gaps),
        st.tuples(st.just("callback"), gaps),
        st.tuples(st.just("wave"), gaps, st.integers(min_value=0, max_value=4)),
        st.tuples(st.just("pairs"), gaps, st.integers(min_value=0, max_value=4)),
        st.just(("pop",)),
        st.just(("peek",)),
        st.just(("len",)),
    ),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(ops=operations)
def test_calendar_matches_the_heapq_model(ops):
    """Every operation agrees with a ``heapq`` of ``(time, seq)``.

    Pushes land at or after the last popped time, as the kernel
    guarantees (delays are non-negative and the clock is the time of
    the last fired event).  The test drains both lists at the end.
    """
    sched = CalendarScheduler()
    model = []
    seq = itertools.count()
    now = 0.0

    def pop_and_compare():
        nonlocal now
        rec = sched.pop()
        if not model:
            assert rec is None
            return
        when, _, proc, value, callback = heappop(model)
        assert (rec.time, rec.proc, rec.value, rec.callback) == (
            when, proc, value, callback,
        )
        now = when
        sched.recycle(rec)

    for n, op in enumerate(ops):
        kind = op[0]
        if kind == "step":
            when = now + op[1]
            sched.push_step(when, ("step", n), ("value", n))
            heappush(model, (when, next(seq), ("step", n), ("value", n), None))
        elif kind == "callback":
            when = now + op[1]

            def callback():
                return None

            sched.push_callback(when, callback)
            heappush(model, (when, next(seq), None, None, callback))
        elif kind == "wave":
            when = now + op[1]
            procs = [("wave", n, i) for i in range(op[2])]
            sched.push_step_wave(when, procs, ("shared", n))
            for proc in procs:
                heappush(model, (when, next(seq), proc, ("shared", n), None))
        elif kind == "pairs":
            when = now + op[1]
            pairs = [(("pair", n, i), ("own", n, i)) for i in range(op[2])]
            sched.push_step_pairs(when, pairs)
            for proc, value in pairs:
                heappush(model, (when, next(seq), proc, value, None))
        elif kind == "pop":
            pop_and_compare()
        elif kind == "peek":
            assert sched.peek_time() == (model[0][0] if model else None)
        else:
            assert len(sched) == len(model)
            assert bool(sched) == bool(model)
    while model:
        pop_and_compare()
    assert sched.pop() is None
    assert sched.peek_time() is None
    assert len(sched) == 0


def _run_program(watchdog, num_pairs, extra_holds, sender_plans, walker_plans):
    """Execute one randomized program; returns its observable trail.

    ``watchdog`` is passed to ``run()`` as ``max_no_progress_events``:
    None takes ``steady_clock``, a number the generic watchdog loop.
    ``sender_plans`` is one list of (gap, use_facility, service) per
    sender; each sender ships its plan through a mailbox its receiver
    drains (so every receive matches a send and the program always
    terminates).  ``walker_plans`` are standalone processes doing
    facility churn and holds.  The trail records every resume point:
    (clock, process name, step tag).
    """
    sim = Simulator()
    trail = []
    boxes = [Mailbox(sim, name=f"box{i}") for i in range(num_pairs)]
    channel = Facility(sim, name="channel")
    gate = SimEvent(sim, name="gate")

    def sender(idx, plan):
        box = boxes[idx]
        for n, (gap, use_facility, service) in enumerate(plan):
            yield hold(gap)
            trail.append((sim.now, f"send{idx}", n))
            if use_facility:
                yield request(channel)
                yield hold(service)
                yield release(channel)
            yield send(box, (idx, n))

    def receiver(idx, count):
        box = boxes[idx]
        for n in range(count):
            message = yield receive(box)
            trail.append((sim.now, f"recv{idx}", message))

    def walker(idx, plan):
        # The first walker opens the gate others may wait on.
        if idx == 0:
            yield hold(0.5)
            gate.set()
        elif idx % 2 == 1:
            yield wait(gate)
            trail.append((sim.now, f"walk{idx}", "gated"))
        for n, gap in enumerate(plan):
            yield hold(gap)
            yield request(channel)
            trail.append((sim.now, f"walk{idx}", n))
            yield release(channel)

    for idx, plan in enumerate(sender_plans):
        sim.process(sender(idx, plan), name=f"send{idx}")
        sim.process(receiver(idx, len(plan)), name=f"recv{idx}")
    for idx, plan in enumerate(walker_plans):
        sim.process(walker(idx, plan), name=f"walk{idx}")
    for n, gap in enumerate(extra_holds):

        def lone(n=n, gap=gap):
            yield hold(gap)
            trail.append((sim.now, "lone", n))

        sim.process(lone(), name=f"lone{n}")

    final = sim.run(max_no_progress_events=watchdog)
    states = sorted((p.name, p.state.name) for p in sim.processes)
    # steady_clock integrates the channel inline; the watchdog loop
    # calls Facility._integrate.  The floats must agree exactly.
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
    steady, generic = (
        _run_program(
            watchdog, len(sender_plans), extra_holds, sender_plans, walker_plans
        )
        for watchdog in (None, NEVER_STALLS)
    )
    assert steady == generic


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_mesh_netlog_bit_identical_on_both_clock_loops(seed):
    """Same seed, same mesh traffic: the activity logs must match
    record for record (fixed msg_ids keep the runs comparable), and the
    channel utilizations float for float."""

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
