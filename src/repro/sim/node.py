"""Node base class: port bookkeeping and send/receive plumbing.

Concrete behaviours live elsewhere: KAR core switches and edge nodes in
:mod:`repro.switches`, hosts (transport endpoints) in
:mod:`repro.transport`.  This base class only knows about ports and the
links attached to them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.link import Channel, Link
from repro.sim.packet import Packet

__all__ = ["Node", "NodeError"]


class NodeError(RuntimeError):
    """Raised on node wiring/usage errors."""


class Node:
    """A network element with numbered ports.

    Subclasses override :meth:`receive` (packet arrived on a port) and
    may override :meth:`on_link_state` (attached link went up/down).
    """

    def __init__(self, name: str, sim: Simulator, num_ports: int):
        if num_ports < 0:
            raise NodeError(f"num_ports must be >= 0, got {num_ports}")
        self.name = name
        self.sim = sim
        self._links: List[Optional[Link]] = [None] * num_ports
        # Per-port outbound channel, resolved once at attach time so
        # the datapath send is a single table lookup.
        self._channels: List[Optional[Channel]] = [None] * num_ports
        # The healthy-ports tuple is cached and invalidated by
        # attach()/link flips (Link.set_up calls ports_changed()
        # directly, so instance-level on_link_state overrides cannot
        # break invalidation).
        self._healthy_cache: Optional[Tuple[int, ...]] = None

    # -- wiring ---------------------------------------------------------
    @property
    def num_ports(self) -> int:
        return len(self._links)

    def attach(self, port: int, link: Link) -> None:
        if not 0 <= port < self.num_ports:
            raise NodeError(
                f"{self.name}: port {port} out of range (has {self.num_ports})"
            )
        if self._links[port] is not None:
            raise NodeError(f"{self.name}: port {port} already attached")
        self._links[port] = link
        self._channels[port] = link.channel_from(self)
        self._healthy_cache = None

    def link_on(self, port: int) -> Optional[Link]:
        if not 0 <= port < self.num_ports:
            return None
        return self._links[port]

    def port_up(self, port: int) -> bool:
        """True when the port exists, is cabled, and its link is up.

        This is the switch-local "output port is under failure" check the
        paper's deflection techniques rely on — loss-of-carrier
        detection, available immediately without control-plane help.
        """
        link = self.link_on(port)
        return link is not None and link.up

    def healthy_ports(self) -> Tuple[int, ...]:
        """Ports that exist, are cabled, and whose link is up.

        The tuple is cached until a link attaches or flips state.
        """
        cached = self._healthy_cache
        if cached is None:
            cached = tuple(
                p for p in range(len(self._links)) if self.port_up(p)
            )
            self._healthy_cache = cached
        return cached

    def ports_changed(self) -> None:
        """Invalidate cached port state (called by the attached links)."""
        self._healthy_cache = None

    def peer_name(self, port: int) -> Optional[str]:
        link = self.link_on(port)
        if link is None:
            return None
        return link.peer_of(self).name

    # -- datapath --------------------------------------------------------
    def send(self, port: int, packet: Packet) -> bool:
        """Transmit *packet* out of *port*; False if unsendable/dropped."""
        if 0 <= port < len(self._channels):
            channel = self._channels[port]
            if channel is not None:
                return channel.send(packet)
        return False

    def receive(self, packet: Packet, in_port: int) -> None:
        raise NotImplementedError

    # -- events ----------------------------------------------------------
    def on_link_state(self, port: int, up: bool) -> None:
        """Hook: the link on *port* changed state.  Default: ignore."""
