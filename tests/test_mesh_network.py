"""Integration tests for the wormhole mesh network simulator."""

import pytest

from repro.mesh import MeshConfig, MeshNetwork, NetworkMessage
from repro.simkernel import Simulator, hold


def make_net(spec="4x2", **kwargs):
    sim = Simulator()
    cfg = MeshConfig(spec, **kwargs)
    return sim, MeshNetwork(sim, cfg)


class TestSingleMessage:
    def test_zero_load_latency_matches_config(self):
        sim, net = make_net()
        msg = NetworkMessage(src=0, dst=7, length_bytes=16)
        done = net.inject(msg)
        sim.run()
        record = done.value
        hops = net.topology.hops(0, 7)
        assert record.hops == hops
        assert record.latency == pytest.approx(net.config.zero_load_latency(hops, 16))
        assert record.contention == 0.0

    def test_local_message_zero_hops(self):
        sim, net = make_net()
        done = net.inject(NetworkMessage(src=3, dst=3, length_bytes=8))
        sim.run()
        record = done.value
        assert record.hops == 0
        assert record.latency == pytest.approx(net.config.zero_load_latency(0, 8))

    def test_log_record_fields(self):
        sim, net = make_net()
        msg = NetworkMessage(src=1, dst=6, length_bytes=32, kind="test")
        net.inject(msg)
        sim.run()
        assert len(net.log) == 1
        rec = net.log.records[0]
        assert rec.src == 1 and rec.dst == 6
        assert rec.length_bytes == 32
        assert rec.kind == "test"
        assert rec.inject_time == 0.0
        assert rec.deliver_time > 0.0

    def test_invalid_node_rejected(self):
        sim, net = make_net()
        with pytest.raises(ValueError):
            net.inject(NetworkMessage(src=0, dst=99, length_bytes=8))
            sim.run()


class TestContention:
    def test_same_source_messages_serialize_at_injection(self):
        sim, net = make_net()
        done1 = net.inject(NetworkMessage(src=0, dst=1, length_bytes=8))
        done2 = net.inject(NetworkMessage(src=0, dst=1, length_bytes=8))
        sim.run()
        r1, r2 = done1.value, done2.value
        assert r2.contention > 0.0
        assert r2.deliver_time > r1.deliver_time

    def test_crossing_messages_on_shared_channel_contend(self):
        sim, net = make_net("4x1")
        # Both messages use channel (1->2).
        d1 = net.inject(NetworkMessage(src=0, dst=3, length_bytes=64))
        d2 = net.inject(NetworkMessage(src=1, dst=3, length_bytes=64))
        sim.run()
        total_contention = d1.value.contention + d2.value.contention
        assert total_contention > 0.0

    def test_disjoint_paths_no_contention(self):
        sim, net = make_net("4x2")
        d1 = net.inject(NetworkMessage(src=0, dst=1, length_bytes=8))
        d2 = net.inject(NetworkMessage(src=6, dst=7, length_bytes=8))
        sim.run()
        assert d1.value.contention == 0.0
        assert d2.value.contention == 0.0

    def test_contention_increases_latency(self):
        sim, net = make_net("4x1")
        d1 = net.inject(NetworkMessage(src=0, dst=3, length_bytes=256))
        d2 = net.inject(NetworkMessage(src=0, dst=3, length_bytes=256))
        sim.run()
        zero_load = net.config.zero_load_latency(3, 256)
        assert d1.value.latency == pytest.approx(zero_load)
        assert d2.value.latency > zero_load


class TestDelivery:
    def test_handler_invoked(self):
        sim, net = make_net()
        seen = []
        net.register_handler(5, lambda msg, rec: seen.append((msg.msg_id, rec.dst)))
        msg = NetworkMessage(src=0, dst=5, length_bytes=8)
        net.inject(msg)
        sim.run()
        assert seen == [(msg.msg_id, 5)]

    def test_delivery_mailbox(self):
        sim, net = make_net()
        box = net.delivery_mailbox(2)
        net.inject(NetworkMessage(src=0, dst=2, length_bytes=8, payload="hi"))
        sim.run()
        assert box.pending == 1
        message, record = box.peek_all()[0]
        assert message.payload == "hi"
        assert record.dst == 2

    def test_blocking_transfer_from_process(self):
        sim, net = make_net()
        results = []

        def sender():
            yield hold(5.0)
            record = yield from net.transfer(NetworkMessage(src=0, dst=7, length_bytes=8))
            results.append((record.inject_time, sim.now))

        sim.process(sender(), name="sender")
        sim.run()
        inject_time, end = results[0]
        assert inject_time == 5.0
        assert end > 5.0


class TestNetworkStats:
    def test_counters(self):
        sim, net = make_net()
        for dst in (1, 2, 3):
            net.inject(NetworkMessage(src=0, dst=dst, length_bytes=8))
        sim.run()
        assert net.total_injected == 3
        assert net.total_delivered == 3
        assert net.in_flight == 0

    def test_channel_utilization_nonzero_on_used_channel(self):
        sim, net = make_net("2x1")

        def traffic():
            for _ in range(10):
                yield from net.transfer(NetworkMessage(src=0, dst=1, length_bytes=64))

        sim.process(traffic(), name="t")
        sim.run()
        assert net.channel(0, 1).utilization() > 0.0
        assert net.mean_channel_utilization() > 0.0
        assert net.max_channel_utilization() >= net.mean_channel_utilization()

    def test_channel_lookup_invalid(self):
        sim, net = make_net()
        with pytest.raises(ValueError):
            net.channel(0, 5)  # not adjacent in 4x2 mesh


class TestNetworkLogViews:
    def test_interarrival_and_destination_views(self):
        sim, net = make_net()

        def traffic():
            for dst in (1, 2, 1):
                yield from net.transfer(NetworkMessage(src=0, dst=dst, length_bytes=8))
                yield hold(10.0)

        sim.process(traffic(), name="t")
        sim.run()
        log = net.log
        inter = log.interarrival_times(src=0)
        assert len(inter) == 2
        assert (inter > 0).all()
        counts = log.destination_counts(0, net.config.num_nodes)
        assert counts[1] == 2 and counts[2] == 1
        fracs = log.destination_fractions(0, net.config.num_nodes)
        assert fracs.sum() == pytest.approx(1.0)
        assert fracs[1] == pytest.approx(2 / 3)

    def test_log_csv_roundtrip(self, tmp_path):
        sim, net = make_net()
        net.inject(NetworkMessage(src=0, dst=7, length_bytes=16))
        sim.run()
        path = str(tmp_path / "log.csv")
        net.log.write_csv(path)
        from repro.mesh import NetworkLog

        loaded = NetworkLog.read_csv(path)
        assert len(loaded) == 1
        assert loaded.records[0] == net.log.records[0]
