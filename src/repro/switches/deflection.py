"""The paper's three deflection techniques, plus the no-deflection baseline.

A deflection strategy answers one question per packet: *given the
modulo-computed output port, which port does the switch actually use?*
(Section 2.1 of the paper).

* :class:`NoDeflection` — drop when the computed port is unusable (what
  a plain KeyFlow switch would do; the paper's "no deflection" curve).
* :class:`HotPotato` (HP) — once a packet has been deflected anywhere,
  it random-walks: every subsequent switch picks a uniformly random
  healthy port.  The paper's lower-bound reference.
* :class:`AnyValidPort` (AVP) — always trust the modulo result when it
  is a valid, healthy port (even the input port); otherwise pick a
  uniformly random healthy port, input port included.
* :class:`NotInputPort` (NIP, Algorithm 1) — like AVP but the input
  port is never used, neither as computed nor as random choice; this
  kills two-node ping-pong loops.

Strategies are stateless; randomness comes from the switch's named RNG
stream so runs are reproducible and techniques are comparable on
matched seeds.
"""

from __future__ import annotations

import random
from typing import Optional, Protocol, Sequence, Tuple

from repro.sim.packet import Packet

__all__ = [
    "PortView",
    "DeflectionStrategy",
    "NoDeflection",
    "HotPotato",
    "AnyValidPort",
    "NotInputPort",
    "strategy_by_name",
    "STRATEGY_NAMES",
]


def _randbelow_matches_choice() -> bool:
    """Import-time probe: is ``seq[rng._randbelow(len(seq))]`` the exact
    draw ``rng.choice(seq)`` would make?

    ``_randbelow`` is a private CPython detail — alternative
    ``random.Random`` implementations may not have it, and nothing
    guarantees ``choice()`` keeps delegating to it.  A strategy may
    only index through it when this probe confirms both the values and
    the stream positions agree; otherwise every caller falls back to
    the plain ``choice(list(...))`` form.
    """
    try:
        a = random.Random(0x5EED)
        b = random.Random(0x5EED)
        seq = tuple(range(1, 8))
        for _ in range(16):
            if seq[a._randbelow(len(seq))] != b.choice(list(seq)):
                return False
        return a.getstate() == b.getstate()
    except Exception:
        return False


#: True when indexing via ``rng._randbelow`` is provably equivalent to
#: ``rng.choice`` on this interpreter (always the case on CPython).
_RANDBELOW_IS_CHOICE = _randbelow_matches_choice()


class PortView(Protocol):
    """The slice of a switch a strategy may look at."""

    @property
    def num_ports(self) -> int: ...

    def port_up(self, port: int) -> bool: ...

    def healthy_ports(self) -> Sequence[int]: ...


class DeflectionStrategy:
    """Base class; subclasses implement :meth:`select_port`.

    One call per packet, returning a plain ``(port, deflected)`` pair
    (``port`` None to drop).  A tuple keeps the per-hop cost to one
    small allocation: HP random-walks decide on almost every hop.  The
    built-ins test membership in the switch's cached healthy-ports
    tuple (exactly the "exists, cabled, up" predicate) and draw with
    :meth:`_random_from_seq`; the ``datapath`` and ``strategy`` verify
    oracles check every decision, RNG stream position included,
    against the paper's pseudocode (:mod:`repro.verify.pseudocode`).
    """

    #: short name used in configs, reports and benchmark tables.
    name = "abstract"

    def select_port(
        self,
        switch: PortView,
        packet: Packet,
        in_port: int,
        computed_port: int,
        rng: random.Random,
    ) -> Tuple[Optional[int], bool]:
        raise NotImplementedError

    @staticmethod
    def _random_from_seq(
        candidates: Sequence[int], rng: random.Random
    ) -> Tuple[Optional[int], bool]:
        # Copy-free uniform draw: on CPython random.choice(seq) is
        # exactly seq[rng._randbelow(len(seq))], so indexing directly
        # makes the same draw (same RNG stream position) for a cached
        # tuple as choice() makes for a fresh list copy of the same
        # ports.  The indexing shortcut is gated on the import-time
        # equivalence probe AND on the rng actually exposing the private
        # API, so alternative Random implementations/subclasses get the
        # plain choice(list(...)) semantics instead of an AttributeError.
        if not candidates:
            return None, False
        if _RANDBELOW_IS_CHOICE:
            randbelow = getattr(rng, "_randbelow", None)
            if randbelow is not None:
                return candidates[randbelow(len(candidates))], True
        return rng.choice(list(candidates)), True

    def __repr__(self) -> str:
        return f"<{type(self).__name__} ({self.name})>"


class NoDeflection(DeflectionStrategy):
    """Forward on the computed port or drop — no failure reaction."""

    name = "none"

    def select_port(self, switch, packet, in_port, computed_port, rng):
        if computed_port in switch.healthy_ports():
            return computed_port, False
        return None, False


class HotPotato(DeflectionStrategy):
    """HP: after the first deflection the packet random-walks forever."""

    name = "hp"

    def select_port(self, switch, packet, in_port, computed_port, rng):
        healthy = switch.healthy_ports()
        kar = packet.kar
        if (kar is None or not kar.deflected) and computed_port in healthy:
            return computed_port, False
        # Deflected here or upstream: from now on "it follows a
        # complete random path in network".
        return self._random_from_seq(healthy, rng)


class AnyValidPort(DeflectionStrategy):
    """AVP: modulo result when usable, else a random healthy port."""

    name = "avp"

    def select_port(self, switch, packet, in_port, computed_port, rng):
        healthy = switch.healthy_ports()
        if computed_port in healthy:
            return computed_port, False
        return self._random_from_seq(healthy, rng)


class NotInputPort(DeflectionStrategy):
    """NIP (Algorithm 1): AVP, but never send a packet back where it came.

    The computed port is rejected when it equals the input port, and the
    input port is excluded from the random fallback set.
    """

    name = "nip"

    def select_port(self, switch, packet, in_port, computed_port, rng):
        healthy = switch.healthy_ports()
        if computed_port != in_port and computed_port in healthy:
            return computed_port, False
        return self._random_from_seq(
            [p for p in healthy if p != in_port], rng
        )


_REGISTRY = {
    cls.name: cls
    for cls in (NoDeflection, HotPotato, AnyValidPort, NotInputPort)
}

#: Names accepted by :func:`strategy_by_name`, in paper order.
STRATEGY_NAMES: Tuple[str, ...] = ("none", "hp", "avp", "nip")


def strategy_by_name(name: str) -> DeflectionStrategy:
    """Instantiate a strategy from its short name ('none'/'hp'/'avp'/'nip')."""
    try:
        return _REGISTRY[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown deflection strategy {name!r}; "
            f"choose from {sorted(_REGISTRY)}"
        ) from None
