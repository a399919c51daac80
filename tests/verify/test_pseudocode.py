"""Pseudocode transcriptions vs the real strategy implementations.

The strategy oracle samples this space randomly; these tests sweep it
*exhaustively* for small switches — every up-set, input port, computed
port (including out-of-range) and deflected flag for 2..4 ports — so
any semantic gap between :mod:`repro.verify.pseudocode` and
:mod:`repro.switches.deflection` fails deterministically here.
"""

import itertools
import random

import pytest

from repro.sim import Link, Simulator
from repro.sim.node import Node
from repro.sim.packet import KarHeader, Packet
from repro.switches import KarSwitch
from repro.switches.deflection import STRATEGY_NAMES, strategy_by_name
from repro.verify.pseudocode import PSEUDOCODE


class PortView:
    def __init__(self, num_ports, up):
        self.num_ports = num_ports
        self._up = frozenset(up)

    def port_up(self, port):
        return port in self._up

    def healthy_ports(self):
        return tuple(p for p in range(self.num_ports) if p in self._up)


def _pkt(deflected, route_id=1, residues=None):
    return Packet(
        src_host="H-SRC", dst_host="H-DST", size_bytes=100,
        kar=KarHeader(route_id=route_id, deflected=deflected, ttl=32,
                      residues=residues),
    )


class Sink(Node):
    def __init__(self, sim):
        super().__init__("sink", sim, 1)
        self.received = 0

    def receive(self, packet, in_port):
        self.received += 1


def _switch_decision(name, num_ports, up, in_port, computed, deflected):
    """What a real KarSwitch does with one packet: ``(port, deflected,
    rng)``.  The packet carries a residue hint, so the switch decides
    on its shortcut path (hint, cached healthy tuple, copy-free draw)."""
    sim = Simulator()
    sid = 7  # above every computed port below
    sw = KarSwitch("SW", sim, num_ports, sid, strategy_by_name(name),
                   random.Random(7))
    sinks = [Sink(sim) for _ in range(num_ports)]
    for port, sink in enumerate(sinks):
        link = Link(sim, sw, port, sink, 0, rate_mbps=100.0, delay_s=0.0001)
        link.set_up(port in up)
    route_id = sid * 10**20 + computed
    sw.receive(_pkt(deflected, route_id, {sid: computed}), in_port)
    sim.run()
    got = [p for p, sink in enumerate(sinks) if sink.received]
    port = got[0] if got else None
    return port, sw.deflections == 1, sw._rng


def _small_states():
    """Every (num_ports, up, in_port, computed, deflected) for n<=4."""
    for num_ports in (2, 3, 4):
        ports = range(num_ports)
        for r in range(num_ports + 1):
            for up in itertools.combinations(ports, r):
                for in_port in ports:
                    for computed in range(num_ports + 2):
                        for deflected in (False, True):
                            yield num_ports, up, in_port, computed, deflected


class TestPseudocodeRegistry:
    def test_covers_every_strategy(self):
        assert tuple(sorted(PSEUDOCODE)) == tuple(sorted(STRATEGY_NAMES))


@pytest.mark.parametrize("name", STRATEGY_NAMES)
class TestExhaustiveAgreement:
    def test_select_port_matches_pseudocode(self, name):
        impl = strategy_by_name(name)
        spec = PSEUDOCODE[name]
        for num_ports, up, in_port, computed, deflected in _small_states():
            rng_spec = random.Random(99)
            want = spec(
                num_ports, frozenset(up), in_port, computed, deflected,
                rng_spec,
            )
            rng_impl = random.Random(99)
            got = impl.select_port(
                PortView(num_ports, up), _pkt(deflected), in_port,
                computed, rng_impl,
            )
            state = (num_ports, up, in_port, computed, deflected)
            assert got == want, state
            assert rng_impl.getstate() == rng_spec.getstate(), state


    def test_fast_split_matches_pseudocode(self, name):
        # The switch's shortcut path, split from the big-int modulo:
        # residue hint, cached healthy-ports tuple, one strategy call.
        spec = PSEUDOCODE[name]
        for num_ports, up, in_port, computed, deflected in _small_states():
            rng_spec = random.Random(7)
            want = spec(
                num_ports, frozenset(up), in_port, computed, deflected,
                rng_spec,
            )
            port, hop_deflected, rng = _switch_decision(
                name, num_ports, up, in_port, computed, deflected
            )
            state = (num_ports, up, in_port, computed, deflected)
            assert (port, hop_deflected) == want, state
            assert rng.getstate() == rng_spec.getstate(), state


class TestAlgorithmOneSpecifics:
    """Pin the Algorithm 1 lines the NIP transcription encodes."""

    def test_computed_equal_input_forces_repick(self):
        want = PSEUDOCODE["nip"](3, {0, 1, 2}, 2, 2, False, random.Random(1))
        assert want[1] is True and want[0] != 2

    def test_random_candidates_exclude_input(self):
        # Only non-input healthy port left: the draw is forced.
        port, deflected = PSEUDOCODE["nip"](
            3, {0, 2}, 0, 1, False, random.Random(1)
        )
        assert (port, deflected) == (2, True)

    def test_empty_candidate_set_drops(self):
        assert PSEUDOCODE["nip"](
            2, {1}, 1, 0, False, random.Random(1)
        ) == (None, False)
