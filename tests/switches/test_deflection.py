"""Unit tests for the deflection techniques (Section 2.1 / Algorithm 1)."""

import random

import pytest

from repro.sim.packet import KarHeader, Packet
from repro.switches.deflection import (
    STRATEGY_NAMES,
    AnyValidPort,
    HotPotato,
    NoDeflection,
    NotInputPort,
    strategy_by_name,
)


class FakeSwitch:
    """Minimal PortView: ports 0..n-1 with a configurable down-set."""

    def __init__(self, num_ports, down=()):
        self._n = num_ports
        self._down = set(down)

    @property
    def num_ports(self):
        return self._n

    def port_up(self, port):
        return 0 <= port < self._n and port not in self._down

    def healthy_ports(self):
        return [p for p in range(self._n) if self.port_up(p)]


def _pkt(route_id=44, deflected=False):
    return Packet(
        src_host="s", dst_host="d", size_bytes=100,
        kar=KarHeader(route_id=route_id, deflected=deflected),
    )


@pytest.fixture
def rng():
    return random.Random(7)


class TestNoDeflection:
    def test_forwards_computed(self, rng):
        got = NoDeflection().select_port(FakeSwitch(4), _pkt(), 0, 2, rng)
        assert got == (2, False)

    def test_drops_on_down_port(self, rng):
        sw = FakeSwitch(4, down={2})
        port, _ = NoDeflection().select_port(sw, _pkt(), 0, 2, rng)
        assert port is None

    def test_drops_on_invalid_port(self, rng):
        port, _ = NoDeflection().select_port(FakeSwitch(3), _pkt(), 0, 7, rng)
        assert port is None


class TestHotPotato:
    def test_undeflected_follows_route(self, rng):
        got = HotPotato().select_port(FakeSwitch(4), _pkt(), 0, 2, rng)
        assert got == (2, False)

    def test_first_deflection_random(self, rng):
        sw = FakeSwitch(4, down={2})
        port, deflected = HotPotato().select_port(sw, _pkt(), 0, 2, rng)
        assert deflected and port in {0, 1, 3}

    def test_flagged_packet_random_walks_even_on_valid_port(self):
        # Once deflected, HP ignores the computed port entirely.
        sw = FakeSwitch(4)
        seen = set()
        for seed in range(40):
            port, deflected = HotPotato().select_port(
                sw, _pkt(deflected=True), 0, 2, random.Random(seed)
            )
            assert deflected
            seen.add(port)
        assert seen == {0, 1, 2, 3}  # includes the input port

    def test_no_ports_drops(self, rng):
        sw = FakeSwitch(2, down={0, 1})
        port, _ = HotPotato().select_port(sw, _pkt(deflected=True), 0, 0, rng)
        assert port is None


class TestAnyValidPort:
    def test_computed_port_even_if_input(self, rng):
        # AVP may send a packet back out the port it came in on.
        got = AnyValidPort().select_port(FakeSwitch(4), _pkt(), 2, 2, rng)
        assert got == (2, False)

    def test_random_includes_input(self):
        sw = FakeSwitch(3, down={1})
        seen = set()
        for seed in range(40):
            port, deflected = AnyValidPort().select_port(
                sw, _pkt(), 0, 1, random.Random(seed)
            )
            assert deflected
            seen.add(port)
        assert seen == {0, 2}

    def test_deflected_flag_does_not_randomize(self, rng):
        # Unlike HP, AVP keeps using the modulo even after a deflection.
        got = AnyValidPort().select_port(
            FakeSwitch(4), _pkt(deflected=True), 0, 2, rng
        )
        assert got == (2, False)


class TestNotInputPort:
    def test_computed_equal_input_rejected(self):
        # Algorithm 1 line 4: output == in_port forces a re-pick.
        sw = FakeSwitch(3)
        seen = set()
        for seed in range(40):
            port, deflected = NotInputPort().select_port(
                sw, _pkt(), 2, 2, random.Random(seed)
            )
            assert deflected
            assert port != 2
            seen.add(port)
        assert seen == {0, 1}

    def test_random_excludes_input(self):
        sw = FakeSwitch(3, down={1})
        for seed in range(40):
            port, _ = NotInputPort().select_port(
                sw, _pkt(), 0, 1, random.Random(seed)
            )
            assert port == 2  # only non-input healthy port

    def test_no_candidates_drops(self, rng):
        sw = FakeSwitch(2, down={1})
        port, _ = NotInputPort().select_port(sw, _pkt(), 0, 1, rng)
        assert port is None

    def test_valid_non_input_forwarded(self, rng):
        got = NotInputPort().select_port(FakeSwitch(4), _pkt(), 0, 2, rng)
        assert got == (2, False)


class MinimalRng:
    """A random.Random stand-in exposing only the documented API.

    No ``_randbelow``: the strategies' indexing shortcut must detect
    its absence and fall back to ``choice(list(...))`` instead of
    raising AttributeError (regression test for exactly that bug).
    """

    def __init__(self, seed):
        self._inner = random.Random(seed)

    def choice(self, seq):
        return self._inner.choice(seq)

    def random(self):
        return self._inner.random()

    def getstate(self):
        return self._inner.getstate()


class TestRandomFromSeqFallback:
    def test_minimal_rng_uses_choice_fallback(self):
        sw = FakeSwitch(4, down={2})
        for seed in range(20):
            port, deflected = HotPotato().select_port(
                sw, _pkt(), 0, 2, MinimalRng(seed)
            )
            assert deflected and port in {0, 1, 3}

    def test_minimal_rng_is_stream_identical_to_random(self):
        # The fallback must make the same single draw from the same
        # candidate list, so a full Random and the minimal wrapper stay
        # in lockstep — the property the strategy oracle checks.
        sw = FakeSwitch(5, down={1})
        for seed in range(20):
            minimal = MinimalRng(seed)
            full = random.Random(seed)
            got = NotInputPort().select_port(sw, _pkt(), 0, 1, minimal)
            want = NotInputPort().select_port(sw, _pkt(), 0, 1, full)
            assert got == want
            assert minimal.getstate() == full.getstate()

    def test_empty_candidates_never_touch_the_rng(self):
        class ExplodingRng:
            def __getattr__(self, name):
                raise AssertionError("RNG consulted for an empty draw")

        sw = FakeSwitch(2, down={0, 1})
        port, deflected = HotPotato().select_port(
            sw, _pkt(deflected=True), 0, 0, ExplodingRng()
        )
        assert (port, deflected) == (None, False)


class TestRegistry:
    def test_names(self):
        assert STRATEGY_NAMES == ("none", "hp", "avp", "nip")

    @pytest.mark.parametrize("name,cls", [
        ("none", NoDeflection), ("hp", HotPotato),
        ("avp", AnyValidPort), ("nip", NotInputPort),
        ("NIP", NotInputPort),
    ])
    def test_lookup(self, name, cls):
        assert isinstance(strategy_by_name(name), cls)

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown"):
            strategy_by_name("magic")
