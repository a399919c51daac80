"""KAR edge nodes.

Edge nodes are where all the per-flow intelligence lives (the paper's
edge/core split):

* **ingress** — packets arriving from an attached host get the KAR
  header (route ID computed by the controller) and enter the core;
* **egress** — packets arriving from the core for a served host get the
  header stripped and are delivered;
* **misdelivery** — a deflected packet can surface at an edge that does
  not serve its destination.  The paper evaluates the second of its two
  options: the edge asks the controller for a fresh route ID from here
  to the destination and re-injects the packet (after a control-plane
  round-trip worth of delay).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Protocol

from repro.sim.engine import Simulator
from repro.sim.invariants import InvariantChecker
from repro.sim.node import Node
from repro.sim.packet import KarHeader, Packet
from repro.sim.trace import PacketTracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily at runtime: repro.controller.controller imports
    # this module, so a module-level import here would be circular.
    from repro.controller.retry import RetryPolicy

__all__ = ["EdgeNode", "IngressEntry", "ReencodeService"]


@dataclass(frozen=True)
class IngressEntry:
    """Forwarding state for one destination host at one edge.

    Attributes:
        route_id / modulus: the encoded route (modulus kept for header-
            size accounting only).
        out_port: this edge's port toward the route's first core switch.
        ttl: initial hop budget for packets on this route.
        residues: optional encode-time residue hint
            (``switch_id -> route_id % switch_id`` for every encoded
            switch), stamped into each packet's KAR header so core
            switches on the primary path skip the big-int modulo.
            Emulator-local; not part of the on-wire header.
    """

    route_id: int
    modulus: int
    out_port: int
    ttl: int = 64
    residues: Optional[Mapping[int, int]] = None


class ReencodeService(Protocol):
    """What an edge needs from the controller: route IDs on demand."""

    def reencode(self, edge_name: str, dst_host: str) -> Optional[IngressEntry]:
        """Route from *edge_name* to *dst_host*, or None if unknown."""
        ...

    @property
    def control_rtt_s(self) -> float:
        """One control-plane round-trip, in seconds."""
        ...

    @property
    def reachable(self) -> bool:
        """Whether the service currently answers (chaos may say no)."""
        ...


#: Misdelivery policies (Section 2.1 of the paper describes both): the
#: edge either bounces the stray packet back unchanged, or asks the
#: controller for a fresh route ID ("In all our tests, we considered
#: this second approach" — our default too).
BOUNCE = "bounce"
REENCODE = "reencode"
MISDELIVERY_POLICIES = (BOUNCE, REENCODE)


class EdgeNode(Node):
    """An edge node serving a set of directly attached hosts."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        num_ports: int,
        tracer: Optional[PacketTracer] = None,
        misdelivery_policy: str = REENCODE,
        retry_policy: Optional["RetryPolicy"] = None,
        rng: Optional[random.Random] = None,
        invariants: Optional[InvariantChecker] = None,
    ):
        super().__init__(name, sim, num_ports)
        if misdelivery_policy not in MISDELIVERY_POLICIES:
            raise ValueError(
                f"unknown misdelivery policy {misdelivery_policy!r}; "
                f"choose from {MISDELIVERY_POLICIES}"
            )
        if retry_policy is None:
            from repro.controller.retry import DEFAULT_RETRY_POLICY

            retry_policy = DEFAULT_RETRY_POLICY
        self.tracer = tracer
        self.misdelivery_policy = misdelivery_policy
        self.retry_policy = retry_policy
        self.invariants = invariants
        self._rng = rng if rng is not None else random.Random(0)
        self._host_ports: Dict[str, int] = {}
        self._ingress: Dict[str, IngressEntry] = {}
        self._controller: Optional[ReencodeService] = None
        # Counters.
        self.encapsulated = 0
        self.delivered = 0
        self.reencode_requests = 0
        self.reencode_timeouts = 0
        self.reencode_retries = 0
        self.reencode_giveups = 0
        self.bounces = 0
        self.drops = 0

    # -- provisioning (done by the network builder / controller) --------
    def serve_host(self, host_name: str, port: int) -> None:
        """Declare that *host_name* hangs off local *port*."""
        self._host_ports[host_name] = port

    def install_ingress(self, dst_host: str, entry: IngressEntry) -> None:
        """Install (or replace) the route-ID entry for *dst_host*."""
        self._ingress[dst_host] = entry

    def ingress_entry(self, dst_host: str) -> Optional[IngressEntry]:
        return self._ingress.get(dst_host)

    def set_controller(self, controller: ReencodeService) -> None:
        self._controller = controller

    def serves(self, host_name: str) -> bool:
        return host_name in self._host_ports

    # -- datapath --------------------------------------------------------
    # Sends on a port cabled by construction (an installed ingress port,
    # a served host's port, a healthy port) go to the port's channel
    # directly, skipping Node.send's bounds checks.  A re-encode answer
    # comes from the controller, so _reinject keeps Node.send.
    def receive(self, packet: Packet, in_port: int) -> None:
        if in_port == self._host_ports.get(packet.src_host) and packet.kar is None:
            self._ingress_packet(packet)
        else:
            self._core_packet(packet)

    def _ingress_packet(self, packet: Packet) -> None:
        entry = self._ingress.get(packet.dst_host)
        if entry is None:
            self._drop(packet, "no-ingress-route")
            return
        packet.kar = KarHeader(
            route_id=entry.route_id, modulus=entry.modulus, ttl=entry.ttl,
            residues=entry.residues,
        )
        self.encapsulated += 1
        if self.invariants is not None:
            self.invariants.on_encapsulate(self.sim.now, self.name, packet)
        self._channels[entry.out_port].send(packet)

    def _core_packet(self, packet: Packet) -> None:
        host_port = self._host_ports.get(packet.dst_host)
        if host_port is not None:
            # Egress: strip the KAR header, deliver to the host.
            packet.kar = None
            self.delivered += 1
            if self.tracer is not None:
                self.tracer.on_deliver(self.sim.now, packet.dst_host, packet)
            if self.invariants is not None:
                self.invariants.on_deliver(self.sim.now, self.name, packet)
            self._channels[host_port].send(packet)
            return
        self._misdelivered(packet)

    def _misdelivered(self, packet: Packet) -> None:
        """A deflected packet surfaced at the wrong edge.

        Under the default REENCODE policy (the paper's evaluated
        approach) the controller recomputes the route ID "based on the
        best path from the edge node to the destination" and the packet
        re-enters the core after one control RTT.  Under BOUNCE (the
        paper's first option) the edge "directly returns the packet to
        the network without any change" — zero latency, but the stale
        route ID means the packet resumes wandering.

        The re-encode RPC can fail: an unreachable controller never
        answers, so the request times out and the edge retries with
        exponential backoff + jitter per its :class:`RetryPolicy`,
        finally dropping with reason ``reencode-unreachable``.
        """
        if self.misdelivery_policy == BOUNCE:
            self._bounce(packet)
            return
        if self._controller is None:
            self._drop(packet, "misdelivered-no-controller")
            return
        self._reencode_attempt(packet, attempt=1)

    def _reencode_attempt(self, packet: Packet, attempt: int) -> None:
        """Issue re-encode request number *attempt* for *packet*."""
        ctrl = self._controller
        assert ctrl is not None
        self.reencode_requests += 1
        if getattr(ctrl, "reachable", True):
            # The request will be answered one control RTT from now.
            entry = ctrl.reencode(self.name, packet.dst_host)
            if entry is None:
                self._drop(packet, "misdelivered-no-route")
                return
            self.sim.schedule(ctrl.control_rtt_s, self._reinject, packet, entry)
            return
        # No answer is coming; the timeout fires, then we back off.
        self.sim.schedule(
            self.retry_policy.timeout_s, self._reencode_timed_out,
            packet, attempt,
        )

    def _reencode_timed_out(self, packet: Packet, attempt: int) -> None:
        self.reencode_timeouts += 1
        if attempt >= self.retry_policy.max_attempts:
            self.reencode_giveups += 1
            self._drop(packet, "reencode-unreachable")
            return
        self.reencode_retries += 1
        self.sim.schedule(
            self.retry_policy.backoff_s(attempt, self._rng),
            self._reencode_attempt, packet, attempt + 1,
        )

    def _bounce(self, packet: Packet) -> None:
        """Return a stray packet to the core unchanged (BOUNCE policy).

        The packet leaves on this edge's first healthy core-facing port;
        its TTL (still decremented by every switch) bounds the total
        excursion as usual.
        """
        if packet.kar is None or packet.kar.ttl <= 0:
            self._drop(packet, "ttl-expired")
            return
        for port in self.healthy_ports():
            if self._host_ports and port in self._host_ports.values():
                continue
            self.bounces += 1
            if self.invariants is not None:
                self.invariants.on_reencode(self.sim.now, self.name, packet)
            self._channels[port].send(packet)
            return
        self._drop(packet, "bounce-no-port")

    def _reinject(self, packet: Packet, entry: IngressEntry) -> None:
        if packet.kar is None or packet.kar.ttl <= 0:
            self._drop(packet, "ttl-expired")
            return
        # Fresh route, fresh deflected flag; TTL carries over so a packet
        # cannot bounce between edges forever.
        packet.kar = KarHeader(
            route_id=entry.route_id,
            modulus=entry.modulus,
            ttl=packet.kar.ttl,
            residues=entry.residues,
        )
        if self.invariants is not None:
            self.invariants.on_reencode(self.sim.now, self.name, packet)
        self.send(entry.out_port, packet)

    def _drop(self, packet: Packet, reason: str) -> None:
        self.drops += 1
        if self.tracer is not None:
            self.tracer.on_drop(self.sim.now, self.name, packet, reason)
        if self.invariants is not None:
            self.invariants.on_drop(self.sim.now, self.name, packet, reason)
