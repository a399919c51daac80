"""OpenFlow-Fast-Failover-style baseline (Table 2 row [14]).

OF-FF precomputes, *per switch*, a backup action for each output port;
on port failure the switch locally flips to the backup without any
randomness — but it needs per-switch state (the fast-failover group
table), which is exactly the property KAR's stateless core removes.

:class:`FastFailoverSwitch` extends the KAR switch with such a backup
table; :func:`plan_backup_ports` computes backups for a primary route
(the alternative shortest path around each primary link).  Ablation
benchmarks compare KAR deflection against this stateful baseline.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence

from repro.sim.engine import Simulator
from repro.sim.trace import PacketTracer
from repro.switches.core import KarSwitch
from repro.switches.deflection import DeflectionStrategy
from repro.topology.graph import PortGraph, TopologyError
from repro.topology.paths import NoPathError, shortest_path

__all__ = [
    "FastFailoverStrategy",
    "FastFailoverSwitch",
    "plan_backup_ports",
    "plan_destination_tree",
]


class FastFailoverStrategy(DeflectionStrategy):
    """Deterministic backup-port fallback (stateful, per-switch).

    Two layers of state, both precomputed and stored in the switch (the
    "Statefull" property of Table 2's OF-FF row):

    * ``backups`` — per primary port, the fast-failover group's backup
      port (used when the KAR-computed port is down);
    * ``default_port`` — the destination-tree next hop (used when the
      computed port is invalid, i.e. on off-route switches a rerouted
      packet traverses — equivalent to a conventional routing table
      entry).

    Args:
        backups: primary port -> backup port for this switch.
        default_port: fallback next hop toward the destination.
    """

    name = "ff"

    def __init__(
        self,
        backups: Optional[Dict[int, int]] = None,
        default_port: Optional[int] = None,
    ):
        self.backups = dict(backups or {})
        self.default_port = default_port

    def select_port(self, switch, packet, in_port, computed_port, rng):
        if computed_port in switch.healthy_ports():
            return computed_port, False
        backup = self.backups.get(computed_port)
        if backup is not None and switch.port_up(backup):
            return backup, True
        if self.default_port is not None and switch.port_up(self.default_port):
            return self.default_port, True
        return None, False


class FastFailoverSwitch(KarSwitch):
    """A KAR switch with an OF-FF group table bolted on."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        num_ports: int,
        switch_id: int,
        rng: random.Random,
        backups: Optional[Dict[int, int]] = None,
        tracer: Optional[PacketTracer] = None,
    ):
        super().__init__(
            name, sim, num_ports, switch_id,
            FastFailoverStrategy(backups), rng, tracer=tracer,
        )

    def install_backup(self, primary_port: int, backup_port: int) -> None:
        assert isinstance(self.strategy, FastFailoverStrategy)
        self.strategy.backups[primary_port] = backup_port


def plan_backup_ports(
    graph: PortGraph,
    route: Sequence[str],
    dst_edge: str,
) -> Dict[str, Dict[int, int]]:
    """Backup table per route switch: around each primary link.

    For each switch S with primary next hop N, the backup port points
    toward S's first hop on a shortest path to the destination that
    avoids the S-N link.  Switches with no alternative (bridges) get no
    backup — OF-FF cannot help there either.

    Returns:
        switch name -> {primary_port: backup_port}.
    """
    plans: Dict[str, Dict[int, int]] = {}
    path = list(route) + [dst_edge]
    for current, nxt in zip(path, path[1:]):
        if current == dst_edge:
            continue
        primary_port = graph.port_of(current, nxt)
        try:
            alt = shortest_path(
                graph,
                current,
                dst_edge,
                forbidden_links=[
                    (current, nxt) if current <= nxt else (nxt, current)
                ],
                forbidden_nodes=[
                    n.name for n in graph.nodes()
                    if n.kind == "host"
                ],
            )
        except NoPathError:
            continue
        if len(alt) < 2:
            continue
        backup_port = graph.port_of(current, alt[1])
        plans.setdefault(current, {})[primary_port] = backup_port
    return plans


def plan_destination_tree(graph: PortGraph, dst_edge: str) -> Dict[str, int]:
    """Destination-rooted next-hop table: switch name -> port.

    The conventional per-switch routing state a rerouted packet needs at
    off-route switches (where the KAR residue is meaningless).  This is
    exactly the state KAR's route IDs eliminate — quantified by the
    ablation benchmark as |switches| table entries per destination.
    """
    table: Dict[str, int] = {}
    for node in graph.nodes():
        if node.kind != "core":
            continue
        try:
            path = shortest_path(
                graph, node.name, dst_edge,
                forbidden_nodes=[
                    n.name for n in graph.nodes() if n.kind == "host"
                ],
            )
        except NoPathError:
            continue
        if len(path) >= 2:
            table[node.name] = graph.port_of(node.name, path[1])
    return table
