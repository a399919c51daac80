"""Unit tests for the switch datapath's shortcuts: the residue cache,
encode-time hints, and the strategies' cached-tuple decisions."""

import random

import pytest

from repro.rns.encoder import Hop, RouteEncoder
from repro.sim import KarHeader, Link, Packet, Simulator
from repro.sim.node import Node
from repro.switches import KarSwitch, NoDeflection, NotInputPort
from repro.switches.core import RESIDUE_CACHE_SIZE
from repro.switches.deflection import (
    AnyValidPort,
    HotPotato,
    STRATEGY_NAMES,
    strategy_by_name,
)
from repro.verify.pseudocode import PSEUDOCODE


class Collector(Node):
    def __init__(self, name, sim):
        super().__init__(name, sim, 1)
        self.received = []

    def receive(self, packet, in_port):
        self.received.append(packet)


def build_switch(strategy=None, switch_id=7):
    sim = Simulator()
    sw = KarSwitch(
        "SW", sim, 3, switch_id,
        strategy or NoDeflection(), random.Random(1),
    )
    sinks = []
    for i, name in enumerate(("X", "Y", "Z")):
        sink = Collector(name, sim)
        Link(sim, sw, i, sink, 0, rate_mbps=100.0, delay_s=0.0001)
        sinks.append(sink)
    return sim, sw, sinks


def _pkt(route_id, residues=None, ttl=64):
    return Packet(src_host="s", dst_host="d", size_bytes=100,
                  kar=KarHeader(route_id=route_id, ttl=ttl,
                                residues=residues))


class TestResidueCache:
    def test_shared_route_id_object_hits(self):
        sim, sw, sinks = build_switch()
        rid = 7 * 10**20 + 2  # % 7 == 2, and big enough not to be interned
        sw.receive(_pkt(rid), in_port=0)
        sw.receive(_pkt(rid), in_port=0)
        sim.run()
        assert len(sinks[2].received) == 2
        assert sw.residue_misses == 1
        assert sw.residue_hits == 1

    def test_hint_bypasses_cache_and_modulo(self):
        sim, sw, sinks = build_switch()
        sw.receive(_pkt(7 * 10**20 + 2, residues={7: 2}), in_port=0)
        sim.run()
        assert len(sinks[2].received) == 1
        assert sw.residue_misses == 0 and sw.residue_hits == 0

    def test_off_hint_switch_falls_back_to_cache(self):
        # A hint for *other* switch IDs (a deflected packet visiting an
        # off-path switch) must not be trusted for this one.
        sim, sw, sinks = build_switch()
        sw.receive(_pkt(7 * 10**20 + 2, residues={11: 0}), in_port=0)
        sim.run()
        assert len(sinks[2].received) == 1
        assert sw.residue_misses == 1

    def test_cache_is_bounded(self):
        sim, sw, _ = build_switch()
        extra = 10
        for k in range(RESIDUE_CACHE_SIZE + extra):
            sw.receive(_pkt(7 * (10**6 + k) + 2), in_port=0)
        sim.run()
        assert len(sw._residue_cache) <= RESIDUE_CACHE_SIZE
        # Clear-on-overflow: the cache restarted once, then refilled.
        assert len(sw._residue_cache) == extra
        assert sw.residue_misses == RESIDUE_CACHE_SIZE + extra

    def test_stale_identity_is_rejected(self):
        # The cache key is id(route_id); CPython may reuse an id after
        # the original object dies, so a hit also requires the *stored*
        # object to be identical.  Forge a stale entry and check it is
        # recomputed, not trusted.
        sim, sw, sinks = build_switch()
        rid = 7 * 10**20 + 2
        other = 7 * 10**19 + 1
        sw._residue_cache[id(rid)] = (other, 0)  # wrong port on purpose
        sw.receive(_pkt(rid), in_port=0)
        sim.run()
        assert len(sinks[2].received) == 1  # recomputed: port 2, not 0
        assert sw.residue_misses == 1 and sw.residue_hits == 0


class TestEncoderResidueMap:
    def test_residue_map_matches_crt(self):
        hops = [Hop(11, 1), Hop(13, 0), Hop(17, 2)]
        route = RouteEncoder().encode(hops)
        residues = route.residue_map()
        assert residues == {11: 1, 13: 0, 17: 2}
        for sid, port in residues.items():
            assert route.route_id % sid == port

    def test_residue_map_is_memoized(self):
        route = RouteEncoder().encode([Hop(11, 1), Hop(13, 0)])
        assert route.residue_map() is route.residue_map()

    def test_with_hop_and_without_switch_keep_maps_consistent(self):
        encoder = RouteEncoder()
        route = encoder.encode([Hop(11, 1), Hop(13, 0)])
        grown = encoder.with_hop(route, Hop(17, 2))
        assert grown.residue_map() == {11: 1, 13: 0, 17: 2}
        shrunk = encoder.without_switch(grown, 13)
        assert 13 not in shrunk.residue_map()
        for sid, port in shrunk.residue_map().items():
            assert shrunk.route_id % sid == port


class _View:
    """Minimal PortView stub with some ports down."""

    def __init__(self, num_ports, down=()):
        self._num = num_ports
        self._down = set(down)

    @property
    def num_ports(self):
        return self._num

    def port_up(self, port):
        return port not in self._down

    def healthy_ports(self):
        return tuple(p for p in range(self._num) if p not in self._down)


class TestStrategySplitEquivalence:
    """select_port must equal Algorithm 1's pseudocode, draw for draw."""

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    @pytest.mark.parametrize("deflected", [False, True])
    def test_same_ports_flags_and_rng_consumption(self, name, deflected):
        strategy = strategy_by_name(name)
        view = _View(4, down={1})
        for computed in range(5):  # includes an out-of-range residue
            for in_port in range(4):
                packet = _pkt(44)
                packet.kar.deflected = deflected
                rng_spec = random.Random(901)
                rng_impl = random.Random(901)
                want = PSEUDOCODE[name](
                    4, {0, 2, 3}, in_port, computed, deflected, rng_spec
                )
                got = strategy.select_port(
                    view, packet, in_port, computed, rng_impl
                )
                case = f"{name} computed={computed} in={in_port}"
                assert got == want, case
                assert packet.kar.deflected is deflected  # never written
                assert rng_impl.getstate() == rng_spec.getstate(), case

    def test_all_ports_down_drops(self):
        strategy = AnyValidPort()
        view = _View(2, down={0, 1})
        assert strategy.select_port(
            view, _pkt(44), 0, 0, random.Random(1)
        ) == (None, False)

    def test_hot_potato_deflected_always_falls_back(self):
        packet = _pkt(44)
        packet.kar.deflected = True
        view = _View(3)
        # Computed port is healthy, but a deflected HP packet must
        # random-walk: the draw happens even on the happy path.
        rng = random.Random(5)
        before = rng.getstate()
        port, deflected = HotPotato().select_port(view, packet, 0, 2, rng)
        assert deflected and port in {0, 1, 2}
        assert rng.getstate() != before

    def test_nip_never_returns_input_port(self):
        view = _View(3)
        for seed in range(20):
            port, deflected = NotInputPort().select_port(
                view, _pkt(44), 2, 2, random.Random(seed)
            )
            assert port != 2 and deflected
