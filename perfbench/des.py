"""The two event-driven-simulator workloads: paper_tcp and udp_deflect.

Both are a fixed list of *cells*, each one seeded simulation.  A run
first executes every cell once untimed and digests its simulated
outcome; then it cycles through the cells in the same fixed order until
``--seconds`` of timed work are done (paper_tcp: a fixed number of
cells sized from ``--seconds``), and every timed cell must reproduce
its digest.  In a traced run the timed cells run with the
layer wrappers installed, and the untimed pass is the untraced side of
``trace.overhead``.

Counters are read from the objects the run built: the benchmark hooks
:class:`~repro.runner.KarSimulation` construction (and ``add_iperf``)
to keep a reference to each simulation, which costs one call per
simulation and runs in untraced runs too.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from harness import (
    Cell,
    CellRun,
    Result,
    end_to_end,
    calibrated_s,
    rate_line,
    run_cells,
)
from layers import DES_LAYERS
from spans import SpanRecorder

from repro.experiments.common import run_failure_experiment, scenario_factory
from repro.runner import KarSimulation
from repro.switches.core import KarSwitch
from repro.switches.edge import EdgeNode
from repro.topology import (
    NodeKind,
    Scenario,
    random_connected,
    shortest_path,
)


class Capture:
    """Keeps a reference to every simulation and iperf flow built."""

    def __init__(self) -> None:
        self.sims: List[KarSimulation] = []
        self.flows: List[Any] = []
        init, add_iperf = KarSimulation.__init__, KarSimulation.add_iperf
        capture = self

        def captured_init(ks, *args, **kwargs):
            init(ks, *args, **kwargs)
            capture.sims.append(ks)

        def captured_add_iperf(ks, *args, **kwargs):
            flow = add_iperf(ks, *args, **kwargs)
            capture.flows.append(flow)
            return flow

        KarSimulation.__init__ = captured_init
        KarSimulation.add_iperf = captured_add_iperf

    def take(self) -> Tuple[List[KarSimulation], List[Any]]:
        sims, flows = self.sims, self.flows
        self.sims, self.flows = [], []
        return sims, flows


def outcome_record(ks: KarSimulation) -> Dict[str, Any]:
    """Simulated outcome of one run: per-switch counters, drop reasons
    and each switch's final deflection-RNG fingerprint.

    Only simulated quantities go in: a change that makes the program
    faster without changing what it simulates keeps every digest.
    """
    switches: Dict[str, List[int]] = {}
    rng = hashlib.sha256()
    for name in sorted(ks.network.nodes):
        node = ks.network.nodes[name]
        if isinstance(node, KarSwitch):
            switches[name] = [node.forwarded, node.deflections, node.drops]
            state = ks.rng.stream(f"deflect:{name}").getstate()
            rng.update(repr(state).encode("utf-8"))
    return {
        "switches": switches,
        "drop_reasons": dict(sorted(ks.tracer.drop_reasons.items())),
        "rng_fingerprint": rng.hexdigest()[:16],
    }


@dataclass
class LayerCounts:
    """Counters read from a cell's simulations right after it ran."""

    events: int = 0
    hops: int = 0
    deflections: int = 0
    switch_drops: int = 0
    residue_hits: int = 0
    residue_lookups: int = 0
    residue_measured: bool = True
    link_sends: int = 0
    queue_drops: int = 0
    failure_drops: int = 0
    encaps: int = 0
    reencodes: int = 0
    segments: int = 0
    retransmits: int = 0
    fast_retransmits: int = 0
    timeouts: int = 0

    @classmethod
    def of(cls, sims: Sequence[KarSimulation],
           flows: Sequence[Any] = ()) -> "LayerCounts":
        counts = cls()
        counts.add(sims, flows)
        return counts

    @classmethod
    def total(cls, parts: Iterable["LayerCounts"]) -> "LayerCounts":
        out = cls()
        for part in parts:
            for f in fields(cls):
                if f.name == "residue_measured":
                    out.residue_measured &= part.residue_measured
                else:
                    setattr(out, f.name,
                            getattr(out, f.name) + getattr(part, f.name))
        return out

    def add(self, sims: Sequence[KarSimulation], flows: Sequence[Any]) -> None:
        for ks in sims:
            self.events += ks.sim.events_processed
            for node in ks.network.nodes.values():
                if isinstance(node, KarSwitch):
                    self.hops += node.forwarded
                    self.deflections += node.deflections
                    self.switch_drops += node.drops
                    hits = getattr(node, "residue_hits", None)
                    misses = getattr(node, "residue_misses", None)
                    if hits is None or misses is None:
                        self.residue_measured = False
                    else:
                        self.residue_hits += hits
                        self.residue_lookups += hits + misses
                elif isinstance(node, EdgeNode):
                    self.encaps += node.encapsulated
                    self.reencodes += node.reencode_requests
            for link in ks.network.links().values():
                for stats in (link.stats_ab, link.stats_ba):
                    self.link_sends += stats.tx_packets
                    self.queue_drops += stats.queue_drops
                    self.failure_drops += stats.failure_drops
        for flow in flows:
            sender = flow.sender
            self.segments += sender.segments_sent
            self.retransmits += sender.retransmits
            self.fast_retransmits += sender.fast_retransmits
            self.timeouts += sender.timeouts


def des_layer_metrics(
    recorder: SpanRecorder,
    timed: Sequence[Tuple[int, CellRun]],
    reference: Sequence[CellRun],
) -> Tuple[Dict[str, float], LayerCounts]:
    """Per-layer metrics of a traced DES run, and the counts behind them."""
    counts = LayerCounts.total(run.counts for _, run in timed)
    spans = recorder.summary()

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def total_s(name: str) -> float:
        return spans.get(name, {}).get("total_s", 0.0)

    hops = counts.hops
    untraced = calibrated_s([reference[i] for i, _ in timed])
    traced = calibrated_s([run for _, run in timed])
    return {
        "engine.events": counts.events,
        "engine.self_s": self_s("engine"),
        "engine.events_per_hop": counts.events / hops if hops else 0.0,
        "link.sends": counts.link_sends,
        "link.self_s": self_s("link"),
        "link.queue_drops": counts.queue_drops,
        "link.failure_drops": counts.failure_drops,
        "switch.hops": hops,
        "switch.self_us_per_hop": self_s("switch") / hops * 1e6 if hops else 0.0,
        "switch.residue_cache_hit_share": (
            counts.residue_hits / counts.residue_lookups
            if counts.residue_lookups else 0.0
        ),
        "switch.drops": counts.switch_drops,
        "deflection.share": counts.deflections / hops if hops else 0.0,
        "deflection.calls": spans.get("deflection", {}).get("entries", 0),
        "deflection.self_s": self_s("deflection"),
        "edge.encaps": counts.encaps,
        "edge.reencodes": counts.reencodes,
        "edge.self_s": self_s("edge"),
        "controller.reencode_s": total_s("controller.reencode"),
        "controller.install_s": total_s("controller.install"),
        "transport.segments": counts.segments,
        "transport.retransmits": counts.retransmits,
        "transport.fast_retransmits": counts.fast_retransmits,
        "transport.timeouts": counts.timeouts,
        "transport.self_s": self_s("transport"),
        "trace.overhead": traced / untraced if untraced else 0.0,
    }, counts


def finish(
    result: Result,
    reference: Sequence[CellRun],
    timed: Sequence[Tuple[int, CellRun]],
    recorder: Optional[SpanRecorder],
    workload: str,
    out_dir: str,
) -> None:
    """Fill the end-to-end or per-layer metrics shared by both workloads."""
    result.report.append(
        f"timed cells: {len(timed)} "
        f"({sum(run.wall_s for _, run in timed):.3f} s)"
    )
    if recorder is None:
        return
    metrics, counts = des_layer_metrics(recorder, timed, reference)
    if not counts.residue_measured:
        recorder.unmeasured.add("switches.core residue cache")
    result.metrics.update(metrics)
    result.unmeasured.extend(sorted(recorder.unmeasured))
    recorder.write(f"{out_dir}/{workload}.spans.npz")


# ---------------------------------------------------------------------------
# paper_tcp
# ---------------------------------------------------------------------------

_FIG5_FAILURES = (("SW10", "SW7"), ("SW7", "SW13"), ("SW13", "SW29"))
_FIG5_PROTECTIONS = ("unprotected", "partial", "full")

#: Calibrated seconds one paper_tcp experiment takes, on average over
#: the cycle.  A run times ``seconds / PAPER_CELL_S`` experiments from
#: the start of the cycle, the same ones on every host: experiments
#: differ in cost by 2x, so a time-bounded loop would time a different
#: mix on a faster host.
PAPER_CELL_S = 1.1


def paper_cells() -> List[Tuple[str, str, Tuple[str, str]]]:
    """Fig. 5's 18 cells plus Fig. 4's hp and none curves.

    The order rotates technique, protection and failure link together,
    so the prefix a short timed window covers mixes all three.
    """
    fig5 = []
    for i in range(18):
        technique = ("avp", "nip")[i % 2]
        protection = _FIG5_PROTECTIONS[(i // 2) % 3]
        failure = _FIG5_FAILURES[((i // 2) + (i // 6)) % 3]
        fig5.append((technique, protection, failure))
    fig4_hp = ("hp", "partial", ("SW7", "SW13"))
    fig4_none = ("none", "partial", ("SW7", "SW13"))
    return fig5[:6] + [fig4_hp] + fig5[6:12] + [fig4_none] + fig5[12:]


def run_paper_tcp(seed: int, seconds: float, trace: bool, out_dir: str) -> Result:
    result = Result()
    capture = Capture()
    build = scenario_factory("fifteen_node")
    cells: List[Cell] = []

    for index, (technique, protection, failure) in enumerate(paper_cells()):
        cell_seed = seed * 1000 + index

        def run(index=index, technique=technique, protection=protection,
                failure=failure, cell_seed=cell_seed) -> CellRun:
            capture.take()
            start = time.perf_counter()
            # backend=None pins the integer datapath: the default
            # ("env") would let REPRO_BACKEND change the workload.
            outcome = run_failure_experiment(
                build(), technique, protection, failure, seed=cell_seed,
                backend=None,
            )
            wall = time.perf_counter() - start
            sims, flows = capture.take()
            record = outcome_record(sims[0])
            record["intervals"] = outcome.iperf.intervals
            return CellRun(wall, record, LayerCounts.of(sims, flows),
                           outcome=(outcome.ratio, 1.0))

        def setup(technique=technique, protection=protection,
                  cell_seed=cell_seed) -> float:
            start = time.perf_counter()
            KarSimulation(build(), deflection=technique,
                          protection=protection, seed=cell_seed)
            elapsed = time.perf_counter() - start
            capture.take()
            return elapsed

        label = f"{technique}/{protection}/{failure[0]}-{failure[1]}"
        cells.append(Cell(label, run, setup))

    reference, timed, recorder = run_cells(
        cells, seconds, DES_LAYERS if trace else None, result,
        count=max(1, round(seconds / PAPER_CELL_S)),
    )
    # The untimed pass ran the same cells the timed one did.
    deflecting = [
        run.outcome[0]
        for run, (technique, _, _) in zip(reference, paper_cells())
        if technique != "none"
    ]
    goodput = sum(deflecting) / len(deflecting)
    runs = [run for _, run in timed]
    hops = sum(run.counts.hops for run in runs)
    if recorder is None:
        end_to_end(result, runs, hops, reference)
    result.report += [
        rate_line("experiments_per_s", len(runs), runs, "1/s"),
        f"failure_goodput_ratio = {goodput:.4f} ratio "
        f"(mean of the {len(deflecting)} deflecting cells run, simulated)",
        rate_line("kar_hops_per_s", hops, runs, "hops/s"),
    ]
    finish(result, reference, timed, recorder, "paper_tcp", out_dir)
    return result


# ---------------------------------------------------------------------------
# udp_deflect
# ---------------------------------------------------------------------------

#: Core size and switch-ID floor: IDs >= 557 make 64-switch route IDs
#: about 100 bits wide, so the per-hop ``R mod s`` is a real big-int op.
#: The core is one fixed random graph; ``--seed`` draws the host pairs,
#: the failed links and the deflection RNG streams.  (Letting the seed
#: pick the graph too moves the hop rate by 30 % between seeds, which
#: would hide the changes the benchmark exists to show.)
UDP_TOPOLOGY_SEED = 1
UDP_SWITCHES = 64
UDP_EXTRA_LINKS = 16
UDP_MIN_SWITCH_ID = 557
UDP_PAIRS = 4
UDP_RATE_PPS = 400
UDP_TRAFFIC_S = 1.6
UDP_DRAIN_S = 1.0
UDP_TTL = 96
UDP_STRATEGIES = ("hp", "avp", "nip")


def _core_graph():
    return random_connected(
        UDP_SWITCHES, extra_links=UDP_EXTRA_LINKS, seed=UDP_TOPOLOGY_SEED,
        min_switch_id=UDP_MIN_SWITCH_ID, rate_mbps=100.0, delay_s=0.0002,
    )


def far_pairs(seed: int) -> List[List[str]]:
    """Core paths between far-apart switch pairs with distinct endpoints."""
    graph = _core_graph()
    core = sorted(graph.node_names(NodeKind.CORE))
    rng = random.Random(f"udp_deflect:{seed}")
    used: set = set()
    paths: List[List[str]] = []
    while len(paths) < UDP_PAIRS:
        best: List[str] = []
        for _ in range(32):
            a, b = rng.sample(core, 2)
            if a in used or b in used:
                continue
            path = shortest_path(graph, a, b)
            if len(path) > len(best):
                best = path
        if best:
            used.update((best[0], best[-1]))
            paths.append(best)
    return paths


def udp_scenario(paths: Sequence[Sequence[str]]) -> Scenario:
    """The 64-switch core with one host pair per path."""
    graph = _core_graph()
    for i, path in enumerate(paths):
        for side, switch in (("S", path[0]), ("D", path[-1])):
            edge, host = f"E{i}{side}", f"H{i}{side}"
            graph.add_node(edge, kind=NodeKind.EDGE)
            graph.add_node(host, kind=NodeKind.HOST)
            graph.add_link(switch, edge, rate_mbps=100.0, delay_s=0.0002)
            graph.add_link(edge, host, rate_mbps=100.0, delay_s=0.0002)
    return Scenario(
        name="udp_deflect",
        graph=graph,
        primary_route=tuple(paths[0]),
        src_host="H0S",
        dst_host="H0D",
        protection={"none": ()},
    )


def mid_links(paths: Sequence[Sequence[str]]) -> List[Tuple[str, str]]:
    """One link in the middle of each path, without repeats."""
    links: List[Tuple[str, str]] = []
    for path in paths:
        mid = len(path) // 2
        key = tuple(sorted((path[mid - 1], path[mid])))
        if key not in links:
            links.append(key)
    return links


def run_udp_deflect(seed: int, seconds: float, trace: bool, out_dir: str) -> Result:
    result = Result()
    capture = Capture()
    paths = far_pairs(seed)
    failures = mid_links(paths)

    def build(strategy: str, cell_seed: int):
        ks = KarSimulation(
            udp_scenario(paths), deflection=strategy,
            protection="none", seed=cell_seed, ttl=UDP_TTL,
        )
        probes = [
            ks.add_udp_probe(
                rate_pps=UDP_RATE_PPS, duration_s=UDP_TRAFFIC_S,
                src_host=f"H{i}S", dst_host=f"H{i}D", flow_id=f"probe{i}",
            )
            for i in range(len(paths))
        ]
        for i, (source, _) in enumerate(probes):
            source.start(at=0.05 + 0.001 * i)
        for a, b in failures:
            ks.schedule_failure(
                a, b, at=UDP_TRAFFIC_S / 3, repair_at=2 * UDP_TRAFFIC_S / 3
            )
        return ks, probes

    cells: List[Cell] = []
    for index, strategy in enumerate(UDP_STRATEGIES):
        cell_seed = seed * 1000 + index

        def run(strategy=strategy, cell_seed=cell_seed) -> CellRun:
            capture.take()
            start = time.perf_counter()
            ks, probes = build(strategy, cell_seed)
            setup = time.perf_counter() - start
            start = time.perf_counter()
            ks.run(until=UDP_TRAFFIC_S + UDP_DRAIN_S)
            wall = time.perf_counter() - start
            sims, _ = capture.take()
            record = outcome_record(ks)
            record["probes"] = [[src.sent, sink.received] for src, sink in probes]
            delivered = sum(sink.received for _, sink in probes)
            injected = sum(src.sent for src, _ in probes)
            return CellRun(wall, record, LayerCounts.of(sims),
                           setup_s=setup, outcome=(delivered, injected))

        cells.append(Cell(strategy, run))

    reference, timed, recorder = run_cells(
        cells, seconds, DES_LAYERS if trace else None, result
    )
    delivery = (sum(run.outcome[0] for run in reference)
                / sum(run.outcome[1] for run in reference))
    runs = [run for _, run in timed]
    hops = sum(run.counts.hops for run in runs)
    if recorder is None:
        end_to_end(result, runs, hops, reference)
    result.report += [
        rate_line("kar_hops_per_s", hops, runs, "hops/s"),
        f"delivery_ratio = {delivery:.4f} ratio (simulated, untimed pass)",
        f"paths: " + ", ".join(f"{p[0]}->{p[-1]} ({len(p) - 1} hops)"
                               for p in paths),
    ]
    finish(result, reference, timed, recorder, "udp_deflect", out_dir)
    return result
