"""Tests for the arborescence failover baseline."""

import random

import pytest

from repro.baselines import BASELINE_SCHEMES, plan_baseline_strategies
from repro.baselines.arborescence import (
    ArborescenceFailoverStrategy,
    ArborescenceFailoverSwitch,
    ArborescencePlan,
    arborescence_decomposition,
    plan_arborescences,
)
from repro.baselines.fastfailover import FastFailoverStrategy
from repro.sim import Simulator
from repro.topology import NodeKind, attach_host_pair, clique, torus
from repro.topology.graph import PortGraph, TopologyError


def _edges_of(tree):
    return {tuple(sorted((child, parent))) for child, parent in tree.items()}


def _assert_arborescence(tree, root):
    """Every node's parent chain must terminate at the root (no cycles)."""
    for start in tree:
        seen = {start}
        node = start
        while node != root:
            node = tree[node]
            assert node not in seen, f"cycle through {node}"
            seen.add(node)


class TestDecomposition:
    @pytest.mark.parametrize("graph,root,connectivity", [
        (clique(5), "SW0", 4),
        (torus(3, 3), "SW0-0", 4),
    ])
    def test_edge_disjoint_trees_cover_every_switch(self, graph, root,
                                                    connectivity):
        trees = arborescence_decomposition(graph, root)
        cores = {n.name for n in graph.nodes(NodeKind.CORE)}
        assert len(trees) == connectivity
        claimed = set()
        for tree in trees:
            _assert_arborescence(tree, root)
            edges = _edges_of(tree)
            assert not (claimed & edges), "trees share a link"
            claimed |= edges
        # Undirected link-disjointness caps total tree links at the
        # graph's link count, so trees are partial — but together they
        # must still reach every core switch.
        covered = set().union(*trees)
        assert covered == cores - {root}

    def test_k_defaults_to_root_core_degree(self):
        g = clique(4)
        assert len(arborescence_decomposition(g, "SW0")) == 3

    def test_explicit_k_limits_trees(self):
        trees = arborescence_decomposition(clique(5), "SW0", k=2)
        assert len(trees) == 2

    def test_disconnected_component_left_out(self):
        g = PortGraph()
        for name, sid in (("A", 5), ("B", 7), ("C", 11), ("D", 13)):
            g.add_node(name, kind=NodeKind.CORE, switch_id=sid)
        g.add_link("A", "B", rate_mbps=10.0, delay_s=0.001)
        g.add_link("C", "D", rate_mbps=10.0, delay_s=0.001)
        trees = arborescence_decomposition(g, "A")
        assert trees == [{"B": "A"}]

    def test_non_core_root_rejected(self):
        g = clique(4)
        attach_host_pair(g, "SW0", "SW3")
        with pytest.raises(TopologyError, match="core"):
            arborescence_decomposition(g, "E-SRC")

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError, match="arborescence"):
            arborescence_decomposition(clique(4), "SW0", k=0)


class TestPlanArborescences:
    def _planned(self):
        g = torus(3, 3)
        attach_host_pair(g, "SW0-0", "SW1-1")
        return g, plan_arborescences(g, "E-DST")

    def test_every_core_switch_gets_a_plan(self):
        g, plans = self._planned()
        assert set(plans) == {n.name for n in g.nodes(NodeKind.CORE)}

    def test_root_ports_all_point_at_the_edge(self):
        g, plans = self._planned()
        edge_port = g.port_of("SW1-1", "E-DST")
        root_plan = plans["SW1-1"]
        assert all(p == edge_port for p in root_plan.tree_ports)

    def test_tree_ports_follow_the_trees(self):
        g, plans = self._planned()
        trees = arborescence_decomposition(g, "SW1-1")
        for t, tree in enumerate(trees):
            for child, parent in tree.items():
                assert plans[child].tree_ports[t] == g.port_of(child, parent)
                in_port = g.port_of(parent, child)
                assert plans[parent].in_port_tree[in_port] == t

    def test_in_port_tree_well_defined_by_edge_disjointness(self):
        g, plans = self._planned()
        for name, plan in plans.items():
            # Each in-port maps to at most one tree: dict construction
            # would have silently overwritten on conflict, so recount
            # from the trees themselves.
            ports = list(plan.in_port_tree)
            assert len(ports) == len(set(ports))
            for port in ports:
                assert 0 <= port < g.degree(name)

    def test_edge_without_core_neighbor_rejected(self):
        g = PortGraph()
        g.add_node("E", kind=NodeKind.EDGE)
        g.add_node("H", kind=NodeKind.HOST)
        g.add_link("E", "H", rate_mbps=10.0, delay_s=0.001)
        with pytest.raises(TopologyError, match="core neighbor"):
            plan_arborescences(g, "E")


class FakeSwitch:
    def __init__(self, num_ports, down=()):
        self.num_ports, self._down = num_ports, set(down)

    def port_up(self, p):
        return 0 <= p < self.num_ports and p not in self._down

    def healthy_ports(self):
        return [p for p in range(self.num_ports) if self.port_up(p)]


class TestStrategy:
    def _strategy(self):
        return ArborescenceFailoverStrategy(ArborescencePlan(
            tree_ports=(1, 2, 3),
            in_port_tree={5: 1, 6: 2},
        ))

    def test_rides_tree_zero_from_ingress(self):
        got = self._strategy().select_port(FakeSwitch(8), None, 0, 7, None)
        assert got == (1, False)

    def test_in_port_selects_the_current_tree(self):
        got = self._strategy().select_port(FakeSwitch(8), None, 6, 7, None)
        assert got == (3, False)

    def test_circular_hop_on_dead_port(self):
        strat = self._strategy()
        got = strat.select_port(FakeSwitch(8, down={1}), None, 0, 7, None)
        assert got == (2, True)

    def test_hopping_wraps_around(self):
        strat = self._strategy()
        # Current tree 2 (port 3) dead, tree 0 (port 1) dead: wraps to
        # tree 1 (port 2).
        got = strat.select_port(FakeSwitch(8, down={3, 1}), None, 6, 7, None)
        assert got == (2, True)

    def test_none_slots_are_skipped(self):
        strat = ArborescenceFailoverStrategy(ArborescencePlan(
            tree_ports=(1, None, 3), in_port_tree={},
        ))
        got = strat.select_port(FakeSwitch(8, down={1}), None, 0, 7, None)
        assert got == (3, True)

    def test_drops_when_every_tree_is_dead(self):
        strat = self._strategy()
        port, _ = strat.select_port(
            FakeSwitch(8, down={1, 2, 3}), None, 0, 7, None
        )
        assert port is None

    def test_empty_plan_drops(self):
        strat = ArborescenceFailoverStrategy()
        port, _ = strat.select_port(FakeSwitch(4), None, 0, 1, None)
        assert port is None

    def test_fast_port_matches_select_on_happy_path(self):
        # The happy path: the current tree's port is up, so the packet
        # stays on it undeflected; once it dies the packet hops on.
        strat = self._strategy()
        assert strat.select_port(FakeSwitch(8), None, 6, 7, None) == (3, False)
        assert strat.select_port(
            FakeSwitch(8, down={3}), None, 6, 7, None
        ) == (1, True)

    def test_switch_wrapper_install_plan(self):
        sim = Simulator()
        sw = ArborescenceFailoverSwitch("S", sim, 4, 7, random.Random(0))
        sw.install_plan(ArborescencePlan((0, 2), {1: 1}))
        assert sw.strategy.tree_ports == (0, 2)
        assert sw.strategy.in_port_tree == {1: 1}


class TestPlanBaselineStrategies:
    def _scenario(self):
        g = torus(3, 3)
        attach_host_pair(g, "SW0-0", "SW2-2")
        route = ["SW0-0", "SW0-2", "SW2-2"]
        return g, route

    @pytest.mark.parametrize("scheme", BASELINE_SCHEMES)
    def test_covers_every_core_switch(self, scheme):
        g, route = self._scenario()
        strategies = plan_baseline_strategies(scheme, g, route, "E-DST")
        assert set(strategies) == {n.name for n in g.nodes(NodeKind.CORE)}
        expected = {
            "ff": FastFailoverStrategy,
            "arb": ArborescenceFailoverStrategy,
        }[scheme]
        assert all(isinstance(s, expected) for s in strategies.values())

    def test_instances_are_not_shared(self):
        g, route = self._scenario()
        strategies = plan_baseline_strategies("arb", g, route, "E-DST")
        assert len({id(s) for s in strategies.values()}) == len(strategies)

    def test_unknown_scheme_rejected(self):
        g, route = self._scenario()
        with pytest.raises(ValueError, match="unknown baseline scheme"):
            plan_baseline_strategies("teleport", g, route, "E-DST")
