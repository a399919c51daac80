"""The switch datapath vs Algorithm 1: bit-identical, property-style.

The datapath's shortcuts (residue hints and caching, cached
healthy-ports tuples, copy-free random draws) must not change a
single decision or RNG draw.  Each test here runs a seeded workload on
a random topology with a random failure schedule under the
``datapath`` oracle's :class:`~repro.verify.oracles.DecisionAudit`:
every switch decision must equal the paper's pseudocode fed the
big-int ``R mod s``, the healthy ports read from the links and a clone
of the switch's RNG — same port, same deflected flag, same RNG stream
position.  An unaudited rerun must reproduce the outcome (counters,
drop reasons, event count, final RNG states) and the hop-by-hop traces.
"""

import random

import pytest

from repro.controller.protection import ProtectionPlanner
from repro.runner import KarSimulation
from repro.switches.deflection import STRATEGY_NAMES
from repro.topology import (
    NodeKind,
    Scenario,
    attach_host_pair,
    random_connected,
    shortest_path,
)
from repro.verify.oracles import DecisionAudit, OracleResult, outcome_record

_TRAFFIC_S = 0.8


def _make_scenario(seed: int, num_switches: int, extra_links: int) -> Scenario:
    graph = random_connected(
        num_switches, extra_links=extra_links, seed=seed,
        min_switch_id=79, rate_mbps=50.0, delay_s=0.0002,
    )
    names = sorted(graph.node_names())
    src_sw, dst_sw = names[0], names[-1]
    src_host, dst_host = attach_host_pair(
        graph, src_sw, dst_sw, rate_mbps=50.0, delay_s=0.0002
    )
    route = shortest_path(graph, src_sw, dst_sw)
    plan = ProtectionPlanner(graph).full(route)
    return Scenario(
        name=f"fastpath-eq-{seed}",
        graph=graph,
        primary_route=tuple(route),
        src_host=src_host,
        dst_host=dst_host,
        protection={"full": tuple(plan.segments), "none": ()},
    )


def _random_failures(scenario: Scenario, seed: int, k: int = 3):
    """A random schedule of core-link failures (some repaired)."""
    rng = random.Random(seed * 9176 + 11)
    core = set(scenario.graph.node_names(NodeKind.CORE))
    candidates = [
        link for link in scenario.graph.links()
        if link.a in core and link.b in core
    ]
    rng.shuffle(candidates)
    events = []
    for link in candidates[:k]:
        at = round(rng.uniform(0.1, _TRAFFIC_S * 0.6), 4)
        repair = (
            round(at + rng.uniform(0.1, _TRAFFIC_S * 0.4), 4)
            if rng.random() < 0.7 else None
        )
        events.append((link.a, link.b, at, repair))
    return events


def _run(scenario: Scenario, strategy: str, seed: int, failures,
         audit=None):
    ks = KarSimulation(
        scenario, deflection=strategy, protection="none",
        seed=seed, ttl=64, trace_paths=True,
    )
    decisions = DecisionAudit(ks, audit) if audit is not None else None
    src, sink = ks.add_udp_probe(rate_pps=200, duration_s=_TRAFFIC_S)
    src.start(at=0.05)
    for a, b, at, repair in failures:
        ks.schedule_failure(a, b, at=at, repair_at=repair)
    ks.run(until=_TRAFFIC_S + 1.0)
    if decisions is not None:
        decisions.finish()
    return ks, src, sink


class TestFastPathEquivalence:
    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    @pytest.mark.parametrize("seed", [3, 23, 77])
    def test_bit_identical_on_random_topology(self, seed, strategy):
        scenario = _make_scenario(
            seed, num_switches=12, extra_links=2 + seed % 5
        )
        failures = _random_failures(scenario, seed)
        audit = OracleResult("datapath")
        ks_audited, src, sink = _run(
            scenario, strategy, seed, failures, audit
        )
        assert audit.ok, audit.divergences[:3]
        # Four checks per decision plus the coverage check.
        assert audit.checks > 4 * 100
        audited = outcome_record(ks_audited, src, sink)
        audited_paths = ks_audited.tracer._paths
        # The audit draws from a clone, never from the switch's RNG:
        # an unaudited rerun takes the same ports with the same flags
        # at the same times.  Packet uids are a process-global counter,
        # so compare traces in uid order, not by raw uid.
        ks_plain, src, sink = _run(scenario, strategy, seed, failures)
        assert outcome_record(ks_plain, src, sink) == audited
        plain_paths = ks_plain.tracer._paths
        assert [audited_paths[k] for k in sorted(audited_paths)] == [
            plain_paths[k] for k in sorted(plain_paths)
        ]

    def test_residue_machinery_engages_on_fast_runs(self):
        scenario = _make_scenario(11, num_switches=12, extra_links=4)
        ks, src, sink = _run(scenario, "nip", 11,
                             _random_failures(scenario, 11))
        hints = misses = 0
        for info in ks.scenario.graph.nodes(NodeKind.CORE):
            sw = ks.network.node(info.name)
            hints += sw.forwarded
            misses += sw.residue_misses
        # On-route forwarding resolves via encode-time hints, so cache
        # misses (which each pay one real modulo) are rare relative to
        # forwards even under deflection churn.
        assert hints > 0
        assert misses < hints
