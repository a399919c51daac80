"""The KAR core switch.

A core switch is deliberately tiny (the paper's whole point): it has no
forwarding table and no per-flow state.  Per packet it

1. checks/decrements the KAR TTL,
2. computes ``route_id mod switch_id`` (Eq. 3),
3. lets the configured deflection strategy turn that into an actual
   output port (or a drop),
4. flags the packet as deflected when the strategy departed from the
   computed port, and transmits.

Failure awareness is local only: the switch sees port carrier state
(``port_up``), never the topology.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.invariants import InvariantChecker
from repro.sim.node import Node
from repro.sim.packet import Packet
from repro.sim.trace import PacketTracer
from repro.switches.deflection import DeflectionStrategy

__all__ = ["KarSwitch", "RESIDUE_CACHE_SIZE"]

#: Bound on the per-switch residue cache (distinct route IDs seen).  A
#: switch on a steady path sees a handful of route IDs; the bound only
#: matters under heavy re-encode churn, where a full cache is simply
#: cleared (the next packet repopulates it).
RESIDUE_CACHE_SIZE = 256


class KarSwitch(Node):
    """A stateless KAR core switch.

    Args:
        name: node name (e.g. ``"SW13"``).
        sim: event engine.
        num_ports: number of ports (topology degree).
        switch_id: the KAR modulo; must exceed ``num_ports - 1``.
        strategy: deflection technique (HP/AVP/NIP/none).
        rng: this switch's private random stream (deflection choices).
        tracer: optional packet tracer.
        decode: optional encoding-backend decode ``(route_id, switch_id)
            -> port`` (e.g. the XSR carry-less remainder).  ``None``
            keeps the default integer ``route_id % switch_id`` datapath
            byte-identical to PR 3's — the hook costs one ``is None``
            test on the residue-cache miss path only.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        num_ports: int,
        switch_id: int,
        strategy: DeflectionStrategy,
        rng: random.Random,
        tracer: Optional[PacketTracer] = None,
        invariants: Optional[InvariantChecker] = None,
        decode: Optional[Callable[[int, int], int]] = None,
    ):
        super().__init__(name, sim, num_ports)
        if switch_id <= num_ports - 1:
            raise ValueError(
                f"{name}: switch ID {switch_id} cannot address "
                f"{num_ports} ports"
            )
        self.switch_id = switch_id
        self.strategy = strategy
        self._decode = decode
        self._rng = rng
        self.tracer = tracer
        self.invariants = invariants
        # Local counters (cheap; kept even without a tracer).
        self.forwarded = 0
        self.deflections = 0
        self.drops = 0
        # Residues of recently seen route IDs, keyed by id() of the
        # route-ID int.  Packets of a flow share the one int object
        # installed in the edge's ingress entry, so the key is stable —
        # and the cached entry holds a strong reference to that object,
        # so a key can never be silently reused while it is in the
        # cache.  Values are (route_id, residue) pairs; a hit requires
        # the stored object to be identical (`is`) to the packet's.
        self._residue_cache: dict = {}
        self.residue_hits = 0
        self.residue_misses = 0

    @property
    def strategy(self) -> DeflectionStrategy:
        return self._strategy

    @strategy.setter
    def strategy(self, strategy: DeflectionStrategy) -> None:
        # The strategy call is bound here, not per hop; replacing the
        # strategy (as the fast-failover baseline does) rebinds it.
        self._strategy = strategy
        self._select_port = strategy.select_port

    def receive(self, packet: Packet, in_port: int) -> None:
        kar = packet.kar
        if kar is None:
            self._drop(packet, "no-kar-header")
            return
        if kar.ttl <= 0:
            self._drop(packet, "ttl-expired")
            return
        kar.ttl -= 1
        packet.hops += 1

        # Residue lookup: encode-time hint, then per-switch cache, then
        # `R mod s` (or the backend's decode).  Each step is exact.
        sid = self.switch_id
        computed = None
        residues = kar.residues
        if residues is not None:
            computed = residues.get(sid)
        if computed is None:
            rid = kar.route_id
            cached = self._residue_cache.get(id(rid))
            if cached is not None and cached[0] is rid:
                computed = cached[1]
                self.residue_hits += 1
            else:
                if self._decode is None:
                    computed = rid % sid
                else:
                    computed = self._decode(rid, sid)
                cache = self._residue_cache
                if len(cache) >= RESIDUE_CACHE_SIZE:
                    cache.clear()
                cache[id(rid)] = (rid, computed)
                self.residue_misses += 1
        out_port, deflected = self._select_port(
            self, packet, in_port, computed, self._rng
        )
        if out_port is None:
            self._drop(packet, f"no-usable-port({self.strategy.name})")
            return
        if deflected:
            kar.deflected = True
            self.deflections += 1
        self.forwarded += 1
        if self.invariants is not None:
            # The decision and the transmission are one atomic event, so
            # the checker sees exactly the port state the strategy saw.
            self.invariants.on_switch_forward(
                self.sim.now, self, packet, in_port, out_port
            )
        if self.tracer is not None:
            self.tracer.on_forward(
                self.sim.now, self.name, packet, in_port,
                out_port, deflected,
            )
        # The strategy picked a healthy port, so it is cabled: send on
        # its channel directly, skipping Node.send's bounds checks.
        self._channels[out_port].send(packet)

    def _drop(self, packet: Packet, reason: str) -> None:
        self.drops += 1
        if self.tracer is not None:
            self.tracer.on_drop(self.sim.now, self.name, packet, reason)
        if self.invariants is not None:
            self.invariants.on_drop(self.sim.now, self.name, packet, reason)
