"""Property tests: the calendar fast path equals the heap oracle.

The fast kernel (``scheduler="calendar"`` plus the inlined
``steady_clock`` dispatch) must reproduce the legacy heap scheduler's
observable behaviour exactly: the same events fire in the same order
at the same times, processes end in the same states, and a mesh run
produces a bit-identical activity log.  Hypothesis drives randomized
process programs -- tie-prone quantized holds, contended facilities,
paired mailbox handoffs, events -- through both schedulers and compares
the full execution trails.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.mesh.config import MeshConfig
from repro.mesh.network import MeshNetwork
from repro.mesh.packet import NetworkMessage
from repro.simkernel import (
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
#: events the common case, which is exactly where a scheduler's
#: tie-break order can silently diverge.
gaps = st.integers(min_value=0, max_value=8).map(lambda k: k * 0.25)


def _run_program(scheduler, num_pairs, extra_holds, sender_plans, walker_plans):
    """Execute one randomized program; returns its observable trail.

    ``sender_plans`` is one list of (gap, use_facility, service) per
    sender; each sender ships its plan through a mailbox its receiver
    drains (so every receive matches a send and the program always
    terminates).  ``walker_plans`` are standalone processes doing
    facility churn and holds.  The trail records every resume point:
    (clock, process name, step tag).
    """
    sim = Simulator(scheduler=scheduler)
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

    final = sim.run()
    states = sorted((p.name, p.state.name) for p in sim.processes)
    return trail, final, sim.events_fired, states


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
def test_random_programs_identical_across_schedulers(
    sender_plans, walker_plans, extra_holds
):
    runs = {
        scheduler: _run_program(
            scheduler, len(sender_plans), extra_holds, sender_plans, walker_plans
        )
        for scheduler in ("calendar", "heap")
    }
    cal_trail, cal_final, cal_fired, cal_states = runs["calendar"]
    heap_trail, heap_final, heap_fired, heap_states = runs["heap"]
    assert cal_trail == heap_trail
    assert cal_final == heap_final
    assert cal_fired == heap_fired
    assert cal_states == heap_states


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_mesh_netlog_bit_identical_across_schedulers(seed):
    """Same seed, same mesh traffic: the activity logs must match
    record for record (fixed msg_ids keep the runs comparable)."""

    def run(scheduler):
        sim = Simulator(scheduler=scheduler)
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
        sim.run(check_stall=True)
        net.log.seal()
        return net.log.records, sim.now

    cal_records, cal_now = run("calendar")
    heap_records, heap_now = run("heap")
    assert cal_records == heap_records
    assert cal_now == heap_now


def test_env_var_selects_scheduler(monkeypatch):
    from repro.simkernel.engine_calendar import CalendarScheduler
    from repro.simkernel.engine_heap import HeapScheduler

    monkeypatch.setenv("REPRO_SCHEDULER", "heap")
    assert isinstance(Simulator()._sched, HeapScheduler)
    monkeypatch.setenv("REPRO_SCHEDULER", "calendar")
    assert isinstance(Simulator()._sched, CalendarScheduler)
    monkeypatch.delenv("REPRO_SCHEDULER")
    assert isinstance(Simulator()._sched, CalendarScheduler)
