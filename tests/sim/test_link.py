"""Tests for link serialization, queueing, propagation and failure."""

import pytest

from repro.sim import Link, Packet, Simulator
from repro.sim.node import Node


class Recorder(Node):
    """Test node that records arrivals."""

    def __init__(self, name, sim, num_ports=1):
        super().__init__(name, sim, num_ports)
        self.received = []

    def receive(self, packet, in_port):
        self.received.append((self.sim.now, packet, in_port))


@pytest.fixture
def pair():
    sim = Simulator()
    a = Recorder("A", sim)
    b = Recorder("B", sim)
    # 8 Mbit/s -> a 1000-byte packet serializes in 1 ms; 2 ms propagation.
    link = Link(sim, a, 0, b, 0, rate_mbps=8.0, delay_s=0.002, queue_packets=2)
    return sim, a, b, link


def _pkt(size=1000):
    return Packet(src_host="ha", dst_host="hb", size_bytes=size)


class TestDelivery:
    def test_serialization_plus_propagation(self, pair):
        sim, a, b, link = pair
        assert a.send(0, _pkt()) is True
        sim.run()
        assert len(b.received) == 1
        # 1 ms serialization + 2 ms propagation.
        assert b.received[0][0] == pytest.approx(0.003)
        assert b.received[0][2] == 0

    def test_bidirectional(self, pair):
        sim, a, b, link = pair
        a.send(0, _pkt())
        b.send(0, _pkt())
        sim.run()
        assert len(a.received) == 1 and len(b.received) == 1

    def test_back_to_back_serialize(self, pair):
        sim, a, b, link = pair
        a.send(0, _pkt())
        a.send(0, _pkt())
        sim.run()
        times = [t for t, _, _ in b.received]
        assert times == [pytest.approx(0.003), pytest.approx(0.004)]

    def test_pipelining_under_propagation(self, pair):
        # Propagation (2 ms) exceeds serialization (1 ms): packets overlap
        # on the wire and arrive 1 ms apart.
        sim, a, b, link = pair
        for _ in range(3):
            a.send(0, _pkt())
        sim.run()
        arrive = [t for t, _, _ in b.received]
        assert arrive == [pytest.approx(0.003), pytest.approx(0.004),
                          pytest.approx(0.005)]


class TestQueueing:
    def test_queue_overflow_drops(self, pair):
        sim, a, b, link = pair
        # 1 transmitting + 2 queued fit; the 4th and 5th drop.
        results = [a.send(0, _pkt()) for _ in range(5)]
        assert results == [True, True, True, False, False]
        sim.run()
        assert len(b.received) == 3
        assert link.stats_ab.queue_drops == 2

    def test_stats_counters(self, pair):
        sim, a, b, link = pair
        a.send(0, _pkt())
        sim.run()
        assert link.stats_ab.tx_packets == 1
        assert link.stats_ab.tx_bytes == 1000
        assert link.stats_ab.delivered_packets == 1
        assert link.stats_ba.tx_packets == 0


class TestFailure:
    def test_down_link_refuses_packets(self, pair):
        sim, a, b, link = pair
        link.set_up(False)
        assert a.send(0, _pkt()) is False
        sim.run()
        assert b.received == []
        assert link.stats_ab.failure_drops == 1

    def test_down_drops_queued_and_inflight(self, pair):
        sim, a, b, link = pair
        for _ in range(3):
            a.send(0, _pkt())
        # Fail mid-transfer: first packet is mid-flight at 1.5 ms.
        sim.schedule(0.0015, link.set_up, False)
        sim.run()
        assert b.received == []

    def test_repair_restores_service(self, pair):
        sim, a, b, link = pair
        link.set_up(False)
        link.set_up(True)
        a.send(0, _pkt())
        sim.run()
        assert len(b.received) == 1

    def test_endpoints_notified(self, pair):
        sim, a, b, link = pair
        events = []
        a.on_link_state = lambda port, up: events.append(("A", port, up))
        b.on_link_state = lambda port, up: events.append(("B", port, up))
        link.set_up(False)
        assert ("A", 0, False) in events and ("B", 0, False) in events

    def test_port_up_reflects_state(self, pair):
        sim, a, b, link = pair
        assert a.port_up(0)
        link.set_up(False)
        assert not a.port_up(0)
        assert a.healthy_ports() == ()

    def test_set_up_idempotent(self, pair):
        sim, a, b, link = pair
        link.set_up(True)  # already up: no-op
        link.set_up(False)
        link.set_up(False)
        assert not link.up


class TestNodeWiring:
    def test_double_attach_rejected(self, pair):
        sim, a, b, link = pair
        with pytest.raises(Exception, match="already attached"):
            Link(sim, a, 0, b, 0)

    def test_send_on_uncabled_port(self):
        sim = Simulator()
        lone = Recorder("L", sim, num_ports=2)
        assert lone.send(1, _pkt()) is False

    def test_peer_name(self, pair):
        sim, a, b, link = pair
        assert a.peer_name(0) == "B"
        assert b.peer_name(0) == "A"


class TestChannelEvents:
    def test_receive_is_looked_up_per_arrival(self, pair, monkeypatch):
        # Wrappers installed on the class after the link was built (the
        # way a tracer or profiler hooks a layer) still see every packet.
        sim, a, b, link = pair
        seen = []
        receive = Recorder.receive

        def wrapped(node, packet, in_port):
            seen.append((node.name, in_port))
            receive(node, packet, in_port)

        monkeypatch.setattr(Recorder, "receive", wrapped)
        a.send(0, _pkt())
        b.send(0, _pkt())
        sim.run()
        assert sorted(seen) == [("A", 0), ("B", 0)]
        assert len(a.received) == len(b.received) == 1
