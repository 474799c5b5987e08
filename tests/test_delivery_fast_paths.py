"""Exactness oracles for the per-message fast paths.

``hold()`` builds its command without running the frozen dataclass's
``__init__``.  ``MeshNetwork.transfer`` appends its log row from its
own locals instead of calling ``add(record)``, and
``NetworkLog.append`` stages the values it is given without converting
them.  Each fast path must be indistinguishable from the code it
replaced:

* ``hold(d)`` from ``Hold(float(d))`` on every observable of a command,
  the error raised for a negative or NaN ``d`` included;
* the rows ``transfer`` appends, in memory and spilled, from ``add()``
  of the records it returns, and from :class:`ConvertingLog`, the
  reference kept here: the log whose ``append`` ran ``int()`` or
  ``float()`` on every field before staging it.  Messages carry
  Python or NumPy integers, in every mix.
"""

import dataclasses
import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.mesh.config import MeshConfig
from repro.mesh.netlog import NetworkLog
from repro.mesh.netlog_stream import StreamingNetworkLog, materialize_manifest
from repro.mesh.network import MeshNetwork
from repro.mesh.packet import NetworkMessage
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


#: The integer types a message's fields may arrive as.  Endpoints and
#: lengths are signed: the mesh's axis walkers step by ``dst - src``,
#: and ``MeshConfig.flits_for`` rounds up by negating the length.
INT_TYPES = (int, np.int64, np.int32, np.uint16)
SIGNED_TYPES = INT_TYPES[:3]

messages = st.lists(
    st.tuples(
        st.integers(0, 8),                           # src
        st.integers(0, 8),                           # dst
        st.sampled_from((0, 8, 16, 64, 256)),        # length_bytes
        st.sampled_from(("p2p", "req", "reply")),    # kind
        st.integers(0, 8).map(lambda k: k * 0.25),   # gap before sending
        st.tuples(                                   # msg_id, src, dst, length types
            st.sampled_from(INT_TYPES),
            st.sampled_from(SIGNED_TYPES),
            st.sampled_from(SIGNED_TYPES),
            st.sampled_from(SIGNED_TYPES),
        ),
    ),
    min_size=1,
    max_size=24,
)


def run_transfers(plan, log=None):
    """Send ``plan``'s messages on a 3x3 mesh (2 lanes), one process per
    message; returns the network and the records ``transfer`` returned,
    in delivery order."""
    sim = Simulator()
    net = MeshNetwork(sim, MeshConfig("3x3", virtual_channels=2), log=log)
    records = []

    def sender(message, gap):
        yield hold(gap)
        records.append((yield from net.transfer(message)))

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
def test_transfer_rows_seal_like_the_records_it_returns(plan):
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
