"""Exactness oracles for the per-message fast paths.

``hold()`` builds its command without running the frozen dataclass's
``__init__``.  ``MeshNetwork.transfer`` appends its log row from its
own locals instead of calling ``add(record)``, and
``NetworkLog.append`` stages the values it is given without converting
them.  ``MeshNetwork.start_sources`` runs each source as one walk over
its messages instead of a loop delegating to ``transfer`` per message.
Each fast path must be indistinguishable from the code it replaced:

* ``hold(d)`` from ``Hold(float(d))`` on every observable of a command,
  the error raised for a negative or NaN ``d`` included;
* the rows ``transfer`` appends, in memory and spilled, from ``add()``
  of the records it hands the delivery handlers, and from
  :class:`ConvertingLog`, the reference kept here: the log whose
  ``append`` ran ``int()`` or ``float()`` on every field before staging
  it.  Messages carry Python or NumPy integers, in every mix;
* the source walk from :func:`reference_start_sources`, the per-source
  loop it replaced: the same rows, handler calls, id draws and errors.
  A source process's own generator yields every command, so none of
  them is left delegating to a sub-generator mid-message.
"""

import dataclasses
import itertools
import os
import pickle
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.mesh.config import MeshConfig
from repro.mesh.netlog import NetworkLog
from repro.mesh import packet
from repro.mesh.netlog_stream import StreamingNetworkLog, materialize_manifest
from repro.mesh.network import MeshNetwork
from repro.mesh.packet import NetworkMessage, next_message_id
from repro.simkernel import Hold, SimulationError, Simulator, hold


durations = st.one_of(
    st.floats(),
    st.integers(-(2**70), 2**70),
    st.floats(width=32).map(np.float32),
    st.integers(-1000, 1000).map(np.int64),
)


@settings(max_examples=300, deadline=None)
@given(duration=durations)
@example(duration=-1)
@example(duration=float("nan"))
@example(duration=np.float64(-2.0))
@example(duration=-0.0)
def test_hold_is_a_constructed_command(duration):
    try:
        built = Hold(float(duration))
    except SimulationError as error:
        with pytest.raises(SimulationError) as caught:
            hold(duration)
        assert str(caught.value) == str(error)
        return
    made = hold(duration)
    assert type(made) is Hold
    assert made == built and built == made
    assert hash(made) == hash(built)
    assert repr(made) == repr(built)
    assert list(vars(made).items()) == list(vars(built).items())
    assert type(made.duration) is float
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(made, protocol) == pickle.dumps(built, protocol)
    assert pickle.loads(pickle.dumps(made)) == built
    assert dataclasses.replace(made, duration=3.0) == dataclasses.replace(
        built, duration=3.0
    )
    assert dataclasses.fields(made) == dataclasses.fields(built)


def test_hold_is_frozen():
    made = hold(1.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        made.duration = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del made.duration


class ConvertingLog(NetworkLog):
    """The reference: ``append`` as it was, converting every field."""

    def append(self, msg_id, src, dst, length_bytes, kind, inject_time,
               start_time, deliver_time, contention, hops):
        code = self._intern_kind(kind)
        self._pending.append(
            (
                int(msg_id),
                int(src),
                int(dst),
                int(length_bytes),
                code,
                float(inject_time),
                float(start_time),
                float(deliver_time),
                float(contention),
                int(hops),
            )
        )
        self._views = None


def sealed(log):
    """Every column's dtype and bytes, and the kind vocabulary."""
    cols, vocab = log.columns()
    return {name: (col.dtype.str, col.tobytes()) for name, col in cols.items()}, vocab


def decoded(log):
    """Every column's dtype and bytes, with each row's kind tag in
    place of its code: a log read back from segments codes its kinds
    in its own vocabulary order."""
    cols, vocab = log.columns()
    out = {name: (col.dtype.str, col.tobytes()) for name, col in cols.items()}
    out["kind"] = [vocab[code] for code in cols["kind"].tolist()]
    return out


#: The integer types a message's fields may arrive as, unsigned ones
#: included: the route table and ``MeshConfig.flits_for`` take a NumPy
#: endpoint or length as the equal Python int.
INT_TYPES = (int, np.int64, np.int32, np.uint16)

messages = st.lists(
    st.tuples(
        st.integers(0, 8),                           # src
        st.integers(0, 8),                           # dst
        st.sampled_from((0, 8, 16, 64, 256)),        # length_bytes
        st.sampled_from(("p2p", "req", "reply")),    # kind
        st.integers(0, 8).map(lambda k: k * 0.25),   # gap before sending
        st.tuples(                                   # msg_id, src, dst, length types
            st.sampled_from(INT_TYPES),
            st.sampled_from(INT_TYPES),
            st.sampled_from(INT_TYPES),
            st.sampled_from(INT_TYPES),
        ),
    ),
    min_size=1,
    max_size=24,
)


def run_transfers(plan, log=None):
    """Send ``plan``'s messages on a 3x3 mesh (2 lanes), one process per
    message; returns the network and the records ``transfer`` handed
    the delivery handlers, one registered on every node, in delivery
    order."""
    sim = Simulator()
    net = MeshNetwork(sim, MeshConfig("3x3", virtual_channels=2), log=log)
    records = []
    for node in range(9):
        net.register_handler(node, lambda message, record: records.append(record))

    def sender(message, gap):
        yield hold(gap)
        yield from net.transfer(message)

    for n, (src, dst, length, kind, gap, types) in enumerate(plan):
        as_id, as_src, as_dst, as_length = types
        message = NetworkMessage(
            as_src(src), as_dst(dst), as_length(length), kind, msg_id=as_id(1000 + n)
        )
        sim.process(sender(message, gap), name=f"send{n}")
    net.run()
    return net, records


@settings(max_examples=40, deadline=None)
@given(plan=messages)
def test_transfer_rows_seal_like_the_records_its_handlers_receive(plan):
    net, records = run_transfers(plan)
    assert len(records) == len(plan) == len(net.log)
    by_add = NetworkLog()
    reference = ConvertingLog()
    for record in records:
        by_add.add(record)
        reference.add(record)
    assert sealed(net.log) == sealed(by_add) == sealed(reference)
    assert net.log.records == tuple(records)

    with tempfile.TemporaryDirectory() as directory:
        spilled, spilled_records = run_transfers(
            plan, log=StreamingNetworkLog(directory, window=5)
        )
        assert spilled_records == records
        manifest = spilled.log.finalize()
        assert decoded(materialize_manifest(manifest)) == decoded(reference)


def reference_start_sources(net, per_source, kind):
    """The per-source loop the source walk replaced, kept as the
    oracle: one process per source, in source order, each holding for
    an entry's gap, building its :class:`NetworkMessage` after the hold
    (a None id drawn there) and sending it with ``yield from
    net.transfer(message)``.  Returns the messages it built."""
    sent = []

    def source(src, entries):
        for gap, dst, length_bytes, msg_id in entries:
            yield hold(gap)
            if msg_id is None:
                message = NetworkMessage(src, dst, length_bytes, kind)
            else:
                message = NetworkMessage(src, dst, length_bytes, kind, msg_id=msg_id)
            sent.append(message)
            yield from net.transfer(message)

    for src in sorted(per_source):
        net.simulator.process(source(src, per_source[src]), name=f"{kind}[{src}]")
    return sent


WALK_CONFIGS = (
    MeshConfig("4x2"),
    MeshConfig("4x4x2:torus", virtual_channels=2),
    MeshConfig("4x4", virtual_channels=2, routing="adaptive"),
)

#: Payloads of no body flit, one flit and many flits (8-byte flits).
WALK_LENGTHS = (0, 8, 200)


@st.composite
def drives(draw):
    """A mesh, a schedule of ``(gap, dst, length_bytes, msg_id)`` entries
    per source (ids None or given), the nodes with handlers, where the
    id counter starts, and maybe one entry made negative in length."""
    config = draw(st.sampled_from(WALK_CONFIGS))
    n = config.num_nodes
    given_ids = itertools.count(10**9)
    per_source = {}
    for src in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6, unique=True)):
        entries = draw(
            st.lists(
                st.tuples(
                    st.integers(0, 8).map(lambda k: k * 0.5),
                    st.integers(0, n - 1),
                    st.sampled_from(WALK_LENGTHS),
                    st.booleans(),
                ),
                min_size=1,
                max_size=5,
            )
        )
        per_source[src] = [
            (gap, dst, length, next(given_ids) if given else None)
            for gap, dst, length, given in entries
        ]
    bad = draw(st.none() | st.tuples(st.sampled_from(sorted(per_source)), st.integers(0, 4)))
    if bad is not None:
        src, index = bad
        entries = per_source[src]
        gap, dst, _, msg_id = entries[index % len(entries)]
        entries[index % len(entries)] = (gap, dst, -8, msg_id)
    handler_nodes = draw(st.sets(st.integers(0, n - 1), max_size=4))
    first_id = draw(st.integers(0, 5))
    return config, per_source, handler_nodes, first_id


def drive(start, config, per_source, handler_nodes, first_id, directory=None):
    """Run ``start(net, per_source, kind)`` on a fresh network, with the
    id counter starting at ``first_id`` and two handlers on each of
    ``handler_nodes``; spills into ``directory`` when given.  Returns
    what the oracle compares, and what ``start`` returned."""
    sim = Simulator()
    log = None if directory is None else StreamingNetworkLog(directory, window=4)
    net = MeshNetwork(sim, config, log=log)
    calls = []
    for node in sorted(handler_nodes):
        for slot in range(2):
            net.register_handler(
                node,
                lambda message, record, at=(node, slot): calls.append((at, message, record)),
            )
    with mock.patch.object(packet, "_message_ids", itertools.count(first_id)):
        started = start(net, per_source, "walk")
        try:
            net.run()
            error = None
        except ValueError as caught:
            error = str(caught)
            sim.shutdown()
        drawn = next_message_id() - first_id
    rows = sealed(net.log if directory is None else materialize_manifest(net.log.finalize()))
    fields = [
        (at, type(m), m.src, m.dst, m.length_bytes, m.kind, m.payload, m.msg_id, record)
        for at, m, record in calls
    ]
    # Which earlier call got the same message object: every handler of
    # one delivery gets one message.
    messages = [m for _, m, _ in calls]
    shared = [next(i for i, m in enumerate(messages) if m is message) for message in messages]
    result = {
        "rows": rows,
        "calls": fields,
        "shared": shared,
        "drawn": drawn,
        "error": error,
        "now": sim.now,
        "in_flight": net.in_flight,
        "injected": net.total_injected,
        "delivered": net.total_delivered,
        "yx_taken": net.adaptive_yx_taken,
    }
    return result, messages, started


@settings(max_examples=30, deadline=None)
@given(case=drives())
def test_source_walk_matches_the_reference_loop(case):
    config, per_source, handler_nodes, first_id = case
    negative = any(length < 0 for entries in per_source.values() for _, _, length, _ in entries)
    walked, _, _ = drive(MeshNetwork.start_sources, config, per_source, handler_nodes, first_id)
    expected, received, sent = drive(
        reference_start_sources, config, per_source, handler_nodes, first_id
    )
    assert walked == expected
    # ``transfer`` hands the handlers the caller's own message.
    assert all(any(m is s for s in sent) for m in received)
    if negative:
        assert expected["error"] == "length_bytes must be >= 0, got -8"
        assert expected["in_flight"] == 0
    else:
        assert expected["error"] is None
        assert expected["delivered"] == sum(map(len, per_source.values()))

    with tempfile.TemporaryDirectory() as directory:
        spilled_walk, _, _ = drive(
            MeshNetwork.start_sources, config, per_source, handler_nodes, first_id,
            os.path.join(directory, "walk"),
        )
        spilled_reference, _, _ = drive(
            reference_start_sources, config, per_source, handler_nodes, first_id,
            os.path.join(directory, "reference"),
        )
    assert spilled_walk == spilled_reference
    assert spilled_walk["calls"] == walked["calls"]


def test_source_processes_walk_without_delegating():
    # Every unfinished source process yields its commands from its own
    # generator: none is suspended inside a per-message sub-generator,
    # also while its message is in flight.
    sim = Simulator()
    net = MeshNetwork(sim, MeshConfig("4x2"))
    per_source = {src: [(0.5, (src + 3) % 8, 64, None)] * 4 for src in range(8)}
    net.start_sources(per_source, "guard")
    seen = []

    def look():
        live = [proc for proc in sim.processes if not proc.finished]
        seen.append(
            (net.in_flight, len(live), [proc._body.gi_yieldfrom for proc in live])
        )

    for when in (2.0, 5.0, 9.0, 30.0):
        sim.schedule(when, look)
    net.run()
    assert net.total_delivered == 32
    assert len(seen) == 4
    for in_flight, live, delegates in seen:
        assert in_flight > 0 and live == 8
        assert delegates == [None] * live
