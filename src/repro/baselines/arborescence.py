"""Arborescence-based fast failover (Chiesa et al.'s static baseline).

"Exploring the Limits of Static Failover Routing" builds failover
schemes from k edge-disjoint spanning arborescences rooted at the
destination: a packet rides tree 0 until it meets a dead link, then
*circularly hops* to tree 1, 2, ... — the current tree is recoverable
from the packet's in-port (each physical link belongs to at most one
tree), so the scheme needs no header bits and no per-packet state,
only per-switch tables.  Up to k-1 link failures are survived on
k-edge-connected graphs.

This module provides the decomposition
(:func:`arborescence_decomposition`, round-robin greedy BFS over the
core subgraph), the per-destination planning
(:func:`plan_arborescences`) and the dataplane pieces
(:class:`ArborescenceFailoverStrategy` /
:class:`ArborescenceFailoverSwitch`) that plug into the existing
switch stack exactly like :mod:`repro.baselines.fastfailover` — the
per-switch statefulness is the point of the comparison: KAR gets its
resilience from stateless deflection, this baseline from precomputed
trees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.trace import PacketTracer
from repro.switches.core import KarSwitch
from repro.switches.deflection import DeflectionStrategy
from repro.topology.graph import NodeKind, PortGraph, TopologyError

__all__ = [
    "ArborescencePlan",
    "ArborescenceFailoverStrategy",
    "ArborescenceFailoverSwitch",
    "arborescence_decomposition",
    "plan_arborescences",
]


def arborescence_decomposition(
    graph: PortGraph,
    root: str,
    k: Optional[int] = None,
) -> List[Dict[str, str]]:
    """Up to *k* edge-disjoint spanning arborescences rooted at *root*.

    Round-robin greedy construction over the core subgraph: all trees
    grow together, one link per tree per round, each tree claiming the
    unclaimed link closest to its root (BFS order, names as
    deterministic tie-break).  Growing in lockstep keeps the trees
    balanced and leaves later trees enough residual links to span —
    the standard greedy from the static-failover literature, not the
    optimal Edmonds/Tarjan construction, but deterministic and good
    enough that on k-edge-connected graphs all k trees usually span.

    Returns a list of next-hop maps (``node -> parent`` toward the
    root); trees that could not claim a single link are dropped, and a
    tree may be partial (missing nodes simply have no next hop in it).

    *k* defaults to the root's core degree — the hard upper bound,
    since every tree must enter the root over a distinct link.
    """
    if graph.node(root).kind != NodeKind.CORE:
        raise TopologyError(f"arborescence root {root!r} is not a core switch")
    adj = {
        n.name: sorted(graph.core_subgraph_neighbors(n.name))
        for n in graph.nodes(NodeKind.CORE)
    }
    if k is None:
        k = max(1, len(adj[root]))
    if k < 1:
        raise ValueError(f"need at least 1 arborescence, got {k}")

    used: set = set()
    trees: List[Dict[str, str]] = [{} for _ in range(k)]
    reached: List[Dict[str, int]] = [{root: 0} for _ in range(k)]  # node->depth
    grew = True
    while grew:
        grew = False
        for t in range(k):
            best: Optional[Tuple[str, str]] = None
            for u in sorted(reached[t], key=lambda n: (reached[t][n], n)):
                for v in adj[u]:
                    if v in reached[t]:
                        continue
                    if ((u, v) if u <= v else (v, u)) in used:
                        continue
                    best = (u, v)
                    break
                if best is not None:
                    break
            if best is None:
                continue
            u, v = best
            used.add((u, v) if u <= v else (v, u))
            trees[t][v] = u
            reached[t][v] = reached[t][u] + 1
            grew = True
    return [tree for tree in trees if tree]


@dataclass(frozen=True)
class ArborescencePlan:
    """One switch's share of the decomposition.

    Attributes:
        tree_ports: out-port toward the parent per tree index (None
            when this switch is not covered by that tree).
        in_port_tree: in-port -> tree index.  Well defined because the
            trees are edge-disjoint: the link a packet arrives on
            belongs to exactly one tree, which is the tree the packet
            is currently riding.
    """

    tree_ports: Tuple[Optional[int], ...] = ()
    in_port_tree: Mapping[int, int] = field(default_factory=dict)


def plan_arborescences(
    graph: PortGraph,
    dst_edge: str,
    k: Optional[int] = None,
) -> Dict[str, ArborescencePlan]:
    """Per-switch circular-hopping tables for one destination edge.

    The trees are rooted at the egress core switch (the one *dst_edge*
    hangs off): the final egress-switch -> edge hop is deliberately
    shared by all trees, exactly as every tree in the literature shares
    the destination node.  Every core switch gets a plan; switches no
    tree reaches get an empty one (their strategy drops, as a
    disconnected switch must).
    """
    cores = sorted(
        nb for nb in graph.neighbors(dst_edge)
        if graph.node(nb).kind == NodeKind.CORE
    )
    if not cores:
        raise TopologyError(f"{dst_edge!r} has no core neighbor to root at")
    root = cores[0]
    trees = arborescence_decomposition(graph, root, k)
    count = len(trees)
    edge_port = graph.port_of(root, dst_edge)

    names = [n.name for n in graph.nodes(NodeKind.CORE)]
    tree_ports: Dict[str, List[Optional[int]]] = {
        n: [None] * count for n in names
    }
    in_port_tree: Dict[str, Dict[int, int]] = {n: {} for n in names}
    for t, tree in enumerate(trees):
        tree_ports[root][t] = edge_port
        for child, parent in tree.items():
            tree_ports[child][t] = graph.port_of(child, parent)
            in_port_tree[parent][graph.port_of(parent, child)] = t
    return {
        n: ArborescencePlan(tuple(tree_ports[n]), in_port_tree[n])
        for n in names
    }


class ArborescenceFailoverStrategy(DeflectionStrategy):
    """Circular hopping between precomputed arborescences.

    Deterministic and RNG-free: the packet's current tree is derived
    from its in-port (ingress traffic starts on tree 0), and the first
    tree — scanning circularly from the current one — whose out-port is
    up wins.  Leaving the current tree sets the deflected flag, like
    every other failure reaction in the stack.  The KAR-computed port
    is ignored entirely: this baseline routes on per-switch state, not
    on the header.
    """

    name = "arb"

    def __init__(self, plan: Optional[ArborescencePlan] = None):
        plan = plan if plan is not None else ArborescencePlan()
        self.tree_ports = tuple(plan.tree_ports)
        self.in_port_tree = dict(plan.in_port_tree)

    def select_port(self, switch, packet, in_port, computed_port, rng):
        count = len(self.tree_ports)
        start = self.in_port_tree.get(in_port, 0)
        for offset in range(count):
            port = self.tree_ports[(start + offset) % count]
            if port is not None and switch.port_up(port):
                return port, offset > 0
        return None, False


class ArborescenceFailoverSwitch(KarSwitch):
    """A KAR switch forwarding on arborescence tables instead of residues."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        num_ports: int,
        switch_id: int,
        rng: random.Random,
        plan: Optional[ArborescencePlan] = None,
        tracer: Optional[PacketTracer] = None,
    ):
        super().__init__(
            name, sim, num_ports, switch_id,
            ArborescenceFailoverStrategy(plan), rng, tracer=tracer,
        )

    def install_plan(self, plan: ArborescencePlan) -> None:
        assert isinstance(self.strategy, ArborescenceFailoverStrategy)
        self.strategy.tree_ports = tuple(plan.tree_ports)
        self.strategy.in_port_tree = dict(plan.in_port_tree)
