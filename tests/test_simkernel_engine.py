"""Unit tests for the process-oriented simulation kernel."""

import pytest

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

#: The kernel's two clock loops, as ``run(max_no_progress_events=...)``:
#: ``calendar`` is the unarmed ``steady_clock`` with its inlined
#: dispatch; ``watchdog`` steps every event through the generic
#: ``_step``/``_dispatch`` path (and never trips here).
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

    def test_mean_wait_time(self):
        sim = Simulator()
        fac = Facility(sim, name="f")
        spans = []
        sim.process(_facility_user(sim, fac, "a", spans), name="a")
        sim.process(_facility_user(sim, fac, "b", spans), name="b")
        sim.run()
        # a waits 0, b waits 10.
        assert fac.mean_wait_time() == pytest.approx(5.0)

    @pytest.mark.parametrize("clock", sorted(CLOCKS))
    def test_wait_stats_keep_no_per_request_storage(self, clock):
        """10^5 grants leave O(1) wait state and the same mean wait,
        through the inlined and the generic facility paths alike."""
        sim = Simulator()
        fac = Facility(sim, name="f")
        waits = []

        def user(offset):
            yield hold(offset)
            for _ in range(50_000):
                t0 = sim.now
                yield request(fac)
                waits.append(sim.now - t0)
                yield hold(1.0)
                yield release(fac)

        sim.process(user(0.0), name="a")
        sim.process(user(0.25), name="b")
        sim.run(max_no_progress_events=CLOCKS[clock])
        assert fac.total_requests == len(waits) == 100_000
        assert fac.mean_wait_time() > 0
        assert fac.mean_wait_time() == pytest.approx(sum(waits) / len(waits))
        containers = [
            value for value in vars(fac).values()
            if hasattr(value, "__len__") and not isinstance(value, str)
        ]
        assert sum(len(value) for value in containers) == 0

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
        assert box.total_sent == 2
        assert box.pending == 2
        assert len(box) == 2


def test_random_streams_reproducible_and_independent():
    from repro.simkernel import RandomStreams

    a = RandomStreams(42)
    b = RandomStreams(42)
    assert a.stream("x").random() == b.stream("x").random()
    c = RandomStreams(42)
    assert c.stream("x").random() != c.stream("y").random()


def test_random_streams_reset():
    from repro.simkernel import RandomStreams

    streams = RandomStreams(7)
    first = streams.stream("s").random()
    streams.reset()
    assert streams.stream("s").random() == first
