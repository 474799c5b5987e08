"""Unit tests for the process-oriented simulation kernel."""

import collections.abc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.simkernel import (
    Facility,
    Mailbox,
    SimEvent,
    SimulationError,
    Simulator,
    hold,
    passivate,
    receive,
    release,
    request,
    send,
    wait,
)
from repro.simkernel.engine import ProcessState

#: The no-progress watchdog as ``run(max_no_progress_events=...)``:
#: ``calendar`` runs ``steady_clock`` unarmed, ``watchdog`` armed (it
#: never trips here).
CLOCKS = {"calendar": None, "watchdog": 10**9}


def test_hold_advances_clock():
    sim = Simulator()
    seen = []

    def proc():
        yield hold(5.0)
        seen.append(sim.now)
        yield hold(2.5)
        seen.append(sim.now)

    sim.process(proc(), name="p")
    sim.run()
    assert seen == [5.0, 7.5]


def test_negative_hold_rejected():
    with pytest.raises(SimulationError):
        hold(-1.0)
    # NaN fails every comparison, so "< 0" would let it through and
    # put the clock at NaN; infinity is a legal (endless) hold.
    with pytest.raises(SimulationError, match="got nan"):
        hold(float("nan"))
    assert hold(float("inf")).duration == float("inf")


def test_negative_schedule_delay_raises_valueerror_naming_delay():
    from repro.simkernel import InvalidDelayError

    sim = Simulator()
    with pytest.raises(InvalidDelayError, match=r"-0\.25"):
        sim.schedule(-0.25, lambda: None)
    # InvalidDelayError is both a kernel error and an invalid argument.
    with pytest.raises(ValueError, match=r"delay=-1\.5"):
        sim.schedule(-1.5, lambda: None)
    with pytest.raises(InvalidDelayError, match=r"delay=nan"):
        sim.schedule(float("nan"), lambda: None)
    sim.schedule(float("inf"), lambda: None)
    assert issubclass(InvalidDelayError, SimulationError)
    assert issubclass(InvalidDelayError, ValueError)


@pytest.mark.parametrize("clock", sorted(CLOCKS))
def test_negative_step_delay_rejected_inside_run(clock):
    from repro.simkernel import InvalidDelayError

    for delay, shown in ((-2.0, r"delay=-2\.0"), (float("nan"), r"delay=nan")):
        sim = Simulator()

        def proc():
            sim._schedule_step(sim.current_process, None, delay=delay)
            yield hold(1.0)

        sim.process(proc(), name="p")
        with pytest.raises(InvalidDelayError, match=shown):
            sim.run(max_no_progress_events=CLOCKS[clock])


def test_simultaneous_events_fifo_order():
    sim = Simulator()
    order = []

    def make(tag):
        def proc():
            yield hold(1.0)
            order.append(tag)
        return proc

    for tag in ("a", "b", "c"):
        sim.process(make(tag)(), name=tag)
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_clock_at_bound():
    sim = Simulator()

    def proc():
        yield hold(100.0)

    sim.process(proc(), name="p")
    final = sim.run(until=10.0)
    assert final == 10.0
    assert sim.now == 10.0


def test_run_until_with_empty_queue_advances_clock():
    sim = Simulator()
    final = sim.run(until=42.0)
    assert final == 42.0


def test_process_result_via_join():
    sim = Simulator()
    results = []

    def worker():
        yield hold(3.0)
        return 99

    def boss():
        w = sim.process(worker(), name="w")
        value = yield from w.join()
        results.append((sim.now, value))

    sim.process(boss(), name="boss")
    sim.run()
    assert results == [(3.0, 99)]


def test_join_on_finished_process_returns_immediately():
    sim = Simulator()
    results = []

    def worker():
        yield hold(1.0)
        return "done"

    def boss(w):
        yield hold(5.0)
        value = yield from w.join()
        results.append(value)

    w = sim.process(worker(), name="w")
    sim.process(boss(w), name="boss")
    sim.run()
    assert results == ["done"]


def test_yield_unknown_command_raises():
    sim = Simulator()

    def bad():
        yield "nonsense"

    sim.process(bad(), name="bad")
    with pytest.raises(SimulationError):
        sim.run()


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_process_rejects_an_iterator_without_send():
    """An iterator is not a generator: the clock resumes bodies with
    ``send``, so one must fail at ``process()``, with the kernel's own
    error, not as an ``AttributeError`` inside it."""
    sim = Simulator()
    with pytest.raises(
        SimulationError, match="process body must be a generator, got list_iterator"
    ):
        sim.process(iter([1, 2]))  # type: ignore[arg-type]
    assert sim.processes == ()


def test_process_accepts_any_generator_protocol_body():
    """A body that is not a Python generator but implements
    ``collections.abc.Generator`` runs like one."""
    sim = Simulator()
    trail = []

    class Steps(collections.abc.Generator):
        def __init__(self):
            self.left = [hold(2.0), hold(3.0)]

        def send(self, value):
            trail.append(sim.now)
            if not self.left:
                raise StopIteration("finished")
            return self.left.pop(0)

        def throw(self, *args):
            return super().throw(*args)

    proc = sim.process(Steps(), name="steps")
    sim.run()
    assert trail == [0.0, 2.0, 5.0]
    assert proc.state is ProcessState.FINISHED and proc.result == "finished"


def test_exception_in_process_propagates():
    sim = Simulator()

    def bad():
        yield hold(1.0)
        raise ValueError("boom")

    proc = sim.process(bad(), name="bad")
    with pytest.raises(ValueError):
        sim.run()
    assert proc.state is ProcessState.FAILED


def test_passivate_and_activate():
    sim = Simulator()
    seen = []

    def sleeper():
        value = yield passivate()
        seen.append((sim.now, value))

    def waker(target):
        yield hold(7.0)
        target.activate("wake")

    target = sim.process(sleeper(), name="sleeper")
    sim.process(waker(target), name="waker")
    sim.run()
    assert seen == [(7.0, "wake")]


def test_stop_halts_run():
    sim = Simulator()
    seen = []

    def proc():
        while True:
            yield hold(1.0)
            seen.append(sim.now)
            if sim.now >= 3.0:
                sim.stop()

    sim.process(proc(), name="p")
    sim.run()
    assert seen == [1.0, 2.0, 3.0]


def test_schedule_into_past_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_active_process_count():
    sim = Simulator()

    def proc():
        yield hold(1.0)

    sim.process(proc(), name="a")
    sim.process(proc(), name="b")
    assert sim.active_process_count == 2
    sim.run()
    assert sim.active_process_count == 0


class TestSimEvent:
    def test_wait_then_set(self):
        sim = Simulator()
        evt = SimEvent(sim, name="e")
        seen = []

        def waiter():
            value = yield wait(evt)
            seen.append((sim.now, value))

        def setter():
            yield hold(4.0)
            evt.set("hello")

        sim.process(waiter(), name="w")
        sim.process(setter(), name="s")
        sim.run()
        assert seen == [(4.0, "hello")]

    def test_wait_on_already_set_event_is_immediate(self):
        sim = Simulator()
        evt = SimEvent(sim, name="e")
        evt.set(7)
        seen = []

        def waiter():
            value = yield wait(evt)
            seen.append((sim.now, value))

        sim.process(waiter(), name="w")
        sim.run()
        assert seen == [(0.0, 7)]

    def test_clear_makes_waiters_block_again(self):
        sim = Simulator()
        evt = SimEvent(sim, name="e")
        evt.set()
        evt.clear()
        assert not evt.is_set

    def test_pulse_wakes_but_does_not_stick(self):
        sim = Simulator()
        evt = SimEvent(sim, name="e")
        seen = []

        def waiter():
            value = yield wait(evt)
            seen.append(value)

        def pulser():
            yield hold(1.0)
            evt.pulse("x")

        sim.process(waiter(), name="w")
        sim.process(pulser(), name="p")
        sim.run()
        assert seen == ["x"]
        assert not evt.is_set

    def test_waiter_count(self):
        sim = Simulator()
        evt = SimEvent(sim, name="e")

        def waiter():
            yield wait(evt)

        sim.process(waiter(), name="w1")
        sim.process(waiter(), name="w2")
        sim.run(until=0.5)
        assert evt.waiter_count == 2
        evt.set()
        sim.run()
        assert evt.waiter_count == 0


class TestFacility:
    def test_exclusive_use_serializes(self):
        sim = Simulator()
        fac = Facility(sim, name="f")
        spans = []
        sim.process(_facility_user(sim, fac, "a", spans), name="a")
        sim.process(_facility_user(sim, fac, "b", spans), name="b")
        sim.run()
        assert spans == [("a", 0.0, 10.0), ("b", 10.0, 20.0)]

    def test_multi_server(self):
        sim = Simulator()
        fac = Facility(sim, name="f", servers=2)
        spans = []
        for tag in ("a", "b", "c"):
            sim.process(_facility_user(sim, fac, tag, spans), name=tag)
        sim.run()
        # a and b run together; c waits for one of them.
        assert spans[0][1] == 0.0 and spans[1][1] == 0.0
        assert spans[2][1] == 10.0

    def test_utilization_accounting(self):
        sim = Simulator()
        fac = Facility(sim, name="f")

        def user():
            yield from fac.use(5.0)
            yield hold(5.0)

        sim.process(user(), name="u")
        sim.run()
        assert fac.utilization() == pytest.approx(0.5)

    def test_release_without_hold_raises(self):
        sim = Simulator()
        fac = Facility(sim, name="f")

        def bad():
            yield release(fac)

        sim.process(bad(), name="bad")
        with pytest.raises(SimulationError):
            sim.run()

    def test_zero_servers_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Facility(sim, servers=0)


def _facility_user(sim, fac, tag, spans):
    yield request(fac)
    start = sim.now
    yield hold(10.0)
    yield release(fac)
    spans.append((tag, start, sim.now))


class TestMailbox:
    def test_send_receive(self):
        sim = Simulator()
        box = Mailbox(sim, name="m")
        seen = []

        def producer():
            yield hold(2.0)
            yield send(box, "msg1")
            yield send(box, "msg2")

        def consumer():
            m1 = yield receive(box)
            m2 = yield receive(box)
            seen.append((sim.now, m1, m2))

        sim.process(consumer(), name="c")
        sim.process(producer(), name="p")
        sim.run()
        assert seen == [(2.0, "msg1", "msg2")]

    def test_receive_blocks_until_put(self):
        sim = Simulator()
        box = Mailbox(sim, name="m")
        seen = []

        def consumer():
            m = yield receive(box)
            seen.append((sim.now, m))

        sim.process(consumer(), name="c")
        sim.run(until=1.0)
        assert seen == []
        box.put("late")
        sim.run()
        assert seen == [(1.0, "late")]

    def test_fifo_order(self):
        sim = Simulator()
        box = Mailbox(sim, name="m")
        for i in range(5):
            box.put(i)
        got = []

        def consumer():
            for _ in range(5):
                got.append((yield receive(box)))

        sim.process(consumer(), name="c")
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_counters(self):
        sim = Simulator()
        box = Mailbox(sim, name="m")
        box.put(1)
        box.put(2)
        assert len(box) == 2


#: One short run in a fresh interpreter, with the watchdog given as
#: the script's argument, then how many of the clock loop's
#: instructions were specialized to the types seen (names that differ
#: from the plain bytecode, leaving out 3.11's not-yet-specialized
#: ``*_ADAPTIVE`` forms and its type-blind quickened and paired ones).
FIRST_RUN_SCRIPT = r"""
import dis
import json
import sys

from repro.simkernel import Facility, Simulator, hold, release, request
from repro.simkernel.engine import steady_clock


def simulate(watchdog):
    sim = Simulator()
    channel = Facility(sim, name="channel")

    def user(idx):
        for n in range(25):
            yield hold((idx + n) % 4 * 0.25)
            yield request(channel)
            yield hold(0.5)
            yield release(channel)

    for idx in range(4):
        sim.process(user(idx), name=f"user{idx}")
    sim.run(max_no_progress_events=watchdog)


def specialized(function):
    return sum(
        1
        for new, old in zip(
            dis.get_instructions(function, adaptive=True),
            dis.get_instructions(function),
        )
        if new.opname != old.opname
        and not new.opname.endswith(("_ADAPTIVE", "_QUICK"))
        and "__" not in new.opname
    )


simulate(json.loads(sys.argv[1]))
print(json.dumps(specialized(steady_clock)))
"""


@pytest.mark.skipif(
    sys.version_info < (3, 11), reason="no specializing interpreter before 3.11"
)
def test_both_clock_loops_specialize_in_their_first_run():
    """A run calls its clock loop once, so the loop must specialize
    within that call, or every one-shot CLI run pays unspecialized
    dispatch.  CPython 3.11 warms a code object up only on calls and
    unconditional backward jumps: a ``while not stopped:`` loop, whose
    backward jump is conditional, would stay unspecialized for a
    process's first seven runs.  Checked for a first run with the
    watchdog unarmed and for one with it armed."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for clock, watchdog in CLOCKS.items():
        result = subprocess.run(
            [sys.executable, "-c", FIRST_RUN_SCRIPT, json.dumps(watchdog)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        seen = json.loads(result.stdout.strip().splitlines()[-1])
        assert seen, f"steady_clock ran its first {clock} run unspecialized"
