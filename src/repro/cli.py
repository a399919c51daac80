"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the paper's artifacts plus a free-form
runner:

* ``table1`` / ``table2`` — print the tables.
* ``fig4`` / ``fig5`` / ``fig7`` / ``fig8`` — run and print a figure.
* ``report [PATH]`` — regenerate EXPERIMENTS.md.
* ``topo SCENARIO [--dot]`` — describe (or DOT-dump) a topology.
* ``run`` — one custom iperf-under-failure run with full knobs.
* ``chaos`` — seeded generative fault injection with runtime invariant
  checking; ``--sweep`` maps delivery ratio vs. failure rate.
* ``frontier`` — the resilience frontier: max tolerated failures vs.
  stretch vs. header bits, KAR deflection vs. the stateful failover
  baselines, static failure sets and the dynamic link adversary.
* ``verify`` — differential cross-oracle fuzzing: datapaths,
  strategies vs paper pseudocode, wire codec, and the graph walk
  model; ``--shrink`` minimizes divergent cases, ``--replay`` reruns
  a saved divergence artifact.
* ``farm bench`` — measure the farm's parallel/cache speedups.
* ``bench sim`` — datapath benchmark (packets/sec, events/sec), every
  DES cell's switch decisions checked against Algorithm 1 and every
  epoch cell's digest against the scalar engine before timing.
* ``bench crt`` — control-plane encoder benchmark: naive vs pooled vs
  incremental re-encode, every cell verified bit-identical to the
  reference ``crt()`` solver.
* ``bench provision`` — all-pairs provisioning benchmark over real ISP
  topologies: per-flow naive vs vectorized CSR bulk path, every route
  ID verified bit-identical to the per-flow reference before timing,
  with a farm shard gate on destination-block digests.
* ``bench service`` — controller-service benchmark: provision req/sec,
  reroute req/sec, p50/p99 latency and admission accept/reject counts,
  with route-ID bit-identity to the offline engine asserted first.
* ``bench encoding`` — encoding-backend benchmark over the Topology
  Zoo corpus: bits/route, encode+decode ops/sec per backend (integer
  CRT, pooled CRT, XSR), and the weighted assigner's % header-bit
  reduction vs greedy — every backend driven through the verify
  oracles before any timing.
* ``serve`` — run the controller service: the HTTP/JSON multi-tenant
  provisioning API with QoS admission control and topology events.
* ``loadgen`` — farm-driven churn against a live service
  (arrive/depart/reroute/port-flap), auditing admission invariants and
  re-deriving every served route ID offline.

The global ``--profile N`` flag (before the subcommand: ``repro
--profile 25 fig4``) wraps any command in :mod:`cProfile` and dumps the
top N functions by cumulative time to stderr.

The experiment commands (``fig4``/``fig5``/``fig7``/``fig8``/
``report``/``chaos``) all run on the job farm (:mod:`repro.farm`) and
share its flags: ``--jobs N`` for worker processes, ``--cache-dir``
(on by default at ``.repro-cache``; results are content-addressed, so
a rerun is free), ``--no-cache``/``--refresh`` escape hatches,
``--resume`` to pick up a killed sweep, and ``--progress`` /
``--no-progress`` to force the live reporter on or off.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.switches.deflection import STRATEGY_NAMES

__all__ = ["main", "build_parser"]

_SCENARIOS = ("six_node", "fifteen_node", "rnp28", "redundant_path")

#: Kept in sync with repro.sim.chaos.CHAOS_MODES (asserted by tests);
#: listed literally so the parser builds without importing the sim.
_CHAOS_MODES = ("adversarial", "dynamic", "flap", "mtbf", "regional",
                "srlg")

#: Kept in sync with repro.experiments.frontier (asserted by tests);
#: listed literally so the parser builds without importing the sim.
_FRONTIER_TOPOLOGIES = ("abilene", "clique", "torus")
_FRONTIER_SCHEMES = ("hp", "avp", "nip", "ff", "arb")

#: Default on-disk result cache for the experiment commands.
_DEFAULT_CACHE_DIR = ".repro-cache"

#: Kept in sync with repro.bench.simbench.SIZES (asserted by tests);
#: listed literally so the parser builds without importing the bench.
_BENCH_SIZES = ("small", "medium", "large")

#: Kept in sync with repro.verify.oracles.ORACLE_NAMES (asserted by
#: tests); listed literally so the parser builds without importing the
#: verifier (which pulls in the whole sim stack).
_ORACLE_NAMES = ("backend", "datapath", "encoder", "strategy", "vector",
                 "walk", "wire")

#: Kept in sync with repro.bench.simbench.MODES (asserted by tests);
#: listed literally so the parser builds without importing the bench
#: (whose epoch mode imports numpy).
_BENCH_SIM_MODES = ("des", "epoch")

#: Kept in sync with repro.bench.crtbench.POOLS (asserted by tests);
#: listed literally so the parser builds without importing the bench.
_BENCH_POOLS = ("small", "medium", "large")

#: Kept in sync with repro.bench.provisionbench.CELLS (asserted by
#: tests); listed literally so the parser builds without importing the
#: bench (which imports numpy).
_BENCH_PROVISION_CELLS = (
    "abilene", "fat_tree4", "fat_tree8", "synthwan754",
)

#: Kept in sync with repro.bench.encodingbench.CELLS (asserted by
#: tests); listed literally so the parser builds without importing the
#: bench (which pulls in the verify stack).
_BENCH_ENCODING_CELLS = ("abilene", "synthwan754")

#: Kept in sync with repro.rns.backends.BACKEND_NAMES (asserted by
#: tests); listed literally so the parser builds without importing the
#: rns stack.
_BACKEND_NAMES = ("crt", "pooled", "xsr")

#: Kept in sync with repro.service.topology.SERVICE_TOPOLOGIES
#: (asserted by tests); listed literally so the parser builds without
#: importing the service stack.
_SERVICE_TOPOLOGIES = ("abilene", "clique6", "fifteen_node", "six_node",
                       "torus33")


def _add_farm_args(
    parser: argparse.ArgumentParser,
    cache_default: Optional[str] = _DEFAULT_CACHE_DIR,
) -> None:
    """The shared farm flags (--jobs/--cache-dir/--resume/...).

    ``cache_default=None`` disables the result cache unless the user
    opts in — the verify command uses this, since a cache key covers
    the spec but not the code under test, and a stale "no divergence"
    would defeat the whole point.
    """
    group = parser.add_argument_group("farm")
    group.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (default: %(default)s; >1 "
                            "uses a spawn-context process pool)")
    group.add_argument("--cache-dir", default=cache_default,
                       metavar="DIR",
                       help="content-addressed result cache "
                            "(default: %(default)s)")
    group.add_argument("--no-cache", action="store_true",
                       help="neither read nor write the result cache")
    group.add_argument("--refresh", action="store_true",
                       help="re-run every job and overwrite cached results")
    group.add_argument("--resume", action="store_true",
                       help="resume a partially completed sweep from the "
                            "cache checkpoint")
    group.add_argument("--progress", action=argparse.BooleanOptionalAction,
                       default=None,
                       help="live progress on stderr (default: auto when "
                            "stderr is a terminal)")


def _farm_options(args: argparse.Namespace, label: str):
    from repro.farm.executor import FarmOptions

    return FarmOptions(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        refresh=args.refresh,
        resume=args.resume,
        progress=args.progress,
        label=label,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="KAR (Key-for-Any-Route) reproduction toolkit",
    )
    parser.add_argument(
        "--profile", type=int, default=None, metavar="N",
        help="run the command under cProfile and print the top N "
             "functions by cumulative time to stderr; goes before the "
             "subcommand: repro --profile 25 fig4",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="route-ID bit lengths (Table 1)")
    sub.add_parser("table2", help="related-work feature matrix (Table 2)")
    fig4 = sub.add_parser("fig4", help="throughput time series by technique")
    fig4.add_argument("--seed", type=int, default=1)
    fig4.add_argument("--export", metavar="PATH.csv|PATH.json",
                      help="also write the raw series")
    _add_farm_args(fig4)
    fig5 = sub.add_parser("fig5", help="protection/technique/location grid")
    fig5.add_argument("--export", metavar="PATH.csv|PATH.json")
    _add_farm_args(fig5)
    fig7 = sub.add_parser("fig7", help="RNP backbone failures")
    fig7.add_argument("--export", metavar="PATH.csv|PATH.json")
    _add_farm_args(fig7)
    fig8 = sub.add_parser("fig8", help="redundant-path worst case")
    _add_farm_args(fig8)

    report = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    report.add_argument("path", nargs="?", default="EXPERIMENTS.md")
    _add_farm_args(report)

    topo = sub.add_parser("topo", help="describe a scenario topology")
    topo.add_argument("scenario", choices=_SCENARIOS)
    topo.add_argument("--dot", action="store_true",
                      help="emit Graphviz DOT instead of a summary")

    run = sub.add_parser("run", help="one custom iperf-under-failure run")
    run.add_argument("--scenario", choices=_SCENARIOS[1:],
                     default="fifteen_node")
    run.add_argument("--deflection", choices=STRATEGY_NAMES, default="nip")
    run.add_argument("--protection", default="partial")
    run.add_argument("--failure", metavar="A-B", default=None,
                     help="link to fail, e.g. SW7-SW13 (default: the "
                          "scenario's first failure case)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--duration", type=float, default=12.0,
                     help="total simulated seconds")

    chaos = sub.add_parser(
        "chaos",
        help="generative fault injection with invariant checking",
    )
    chaos.add_argument("--scenario", choices=_SCENARIOS[1:],
                       default="fifteen_node")
    chaos.add_argument("--deflection", choices=STRATEGY_NAMES, default="nip")
    chaos.add_argument("--mode", choices=sorted(_CHAOS_MODES),
                       default="mtbf",
                       help="failure process (default: %(default)s)")
    chaos.add_argument("--seed", type=int, default=42)
    chaos.add_argument("--duration", type=float, default=4.0,
                       help="simulated seconds of probe traffic")
    chaos.add_argument("--mtbf", type=float, default=2.0,
                       help="per-link mean time between failures (mtbf mode)")
    chaos.add_argument("--mttr", type=float, default=0.5,
                       help="mean time to repair (mtbf/srlg/regional modes)")
    chaos.add_argument("--ctrl-outage", action="store_true",
                       help="also inject controller outages (exercises the "
                            "re-encode retry/backoff path)")
    chaos.add_argument("--sweep", action="store_true",
                       help="run the full delivery-ratio vs. failure-rate "
                            "sweep (HP/AVP/NIP) instead of a single run")
    chaos.add_argument("--export", metavar="PATH.csv|PATH.json",
                       help="also write the sweep/run rows")
    _add_farm_args(chaos)

    frontier = sub.add_parser(
        "frontier",
        help="resilience frontier: tolerated failures vs. stretch vs. "
             "header bits, KAR vs. stateful failover baselines",
    )
    frontier.add_argument("--topologies", nargs="+",
                          choices=_FRONTIER_TOPOLOGIES,
                          default=list(_FRONTIER_TOPOLOGIES),
                          help="topology families (default: all)")
    frontier.add_argument("--schemes", nargs="+",
                          choices=_FRONTIER_SCHEMES,
                          default=list(_FRONTIER_SCHEMES),
                          help="forwarding schemes (default: all)")
    frontier.add_argument("--max-failures", type=int, default=3,
                          metavar="K",
                          help="largest failure count per cell "
                               "(default: %(default)s)")
    frontier.add_argument("--seeds", nargs="+", type=int, default=[42],
                          help="root seeds (default: %(default)s)")
    frontier.add_argument("--dynamic", action="store_true",
                          help="also run the dynamic link-failure "
                               "adversary at every budget level")
    frontier.add_argument("--export", metavar="PATH.csv|PATH.json",
                          help="also write the per-cell rows")
    _add_farm_args(frontier)

    verify = sub.add_parser(
        "verify",
        help="differential cross-oracle fuzzing (datapaths, strategies, "
             "wire codec, walk model)",
    )
    verify.add_argument("--trials", type=int, default=50, metavar="N",
                        help="fuzz cases to run (default: %(default)s)")
    verify.add_argument("--seed", type=int, default=0,
                        help="root seed; trial i uses a seed derived "
                             "from (seed, i) (default: %(default)s)")
    verify.add_argument("--oracles", nargs="+", choices=_ORACLE_NAMES,
                        default=None, metavar="ORACLE",
                        help="oracle subset to run "
                             f"(choices: {', '.join(_ORACLE_NAMES)}; "
                             "default: all)")
    verify.add_argument("--shrink", action="store_true",
                        help="shrink each divergent case to a minimal "
                             "repro before writing its artifact")
    verify.add_argument("--artifact-dir", default="verify-artifacts",
                        metavar="DIR",
                        help="where divergence repros are written "
                             "(default: %(default)s; only created on "
                             "divergence)")
    verify.add_argument("--replay", metavar="PATH", default=None,
                        help="re-run one saved divergence artifact "
                             "instead of fuzzing")
    _add_farm_args(verify, cache_default=None)

    farm = sub.add_parser(
        "farm",
        help="the experiment job farm (parallel runs + result cache)",
    )
    farm_sub = farm.add_subparsers(dest="farm_command", required=True)
    bench = farm_sub.add_parser(
        "bench",
        help="measure sequential vs parallel vs warm-cache wall clock",
    )
    bench.add_argument("--jobs", type=int, default=4, metavar="N",
                       help="worker processes for the parallel phase "
                            "(default: %(default)s)")
    bench.add_argument("--seeds", type=int, default=4, metavar="K",
                       help="seeds per technique (default: %(default)s; "
                            "2 techniques => 2*K jobs)")
    bench.add_argument("--out", default="BENCH_farm.json",
                       help="result file (default: %(default)s)")
    bench.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache for the parallel/warm phases "
                            "(default: a fresh temp dir)")
    bench.add_argument("--progress", action=argparse.BooleanOptionalAction,
                       default=None)

    perf = sub.add_parser(
        "bench",
        help="performance benchmarks, verified before timing",
    )
    perf_sub = perf.add_subparsers(dest="bench_command", required=True)
    sim = perf_sub.add_parser(
        "sim",
        help="packets/sec + events/sec of the DES and epoch "
             "datapaths, verified before timing",
    )
    sim.add_argument("--quick", action="store_true",
                     help="CI smoke matrix (small+medium, fewer repeats)")
    sim.add_argument("--sizes", nargs="+", choices=_BENCH_SIZES,
                     default=None, metavar="SIZE",
                     help="topology sizes to run "
                          f"(choices: {', '.join(_BENCH_SIZES)})")
    sim.add_argument("--strategies", nargs="+", choices=STRATEGY_NAMES,
                     default=None, metavar="STRAT",
                     help="deflection strategies "
                          f"(choices: {', '.join(STRATEGY_NAMES)})")
    sim.add_argument("--modes", nargs="+", choices=_BENCH_SIM_MODES,
                     default=None, metavar="MODE",
                     help="datapath families to benchmark: des (event "
                          "loop) and/or epoch "
                          "(vectorized + sharded batch engines) "
                          f"(choices: {', '.join(_BENCH_SIM_MODES)}; "
                          "default: both)")
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--repeats", type=int, default=None, metavar="K",
                     help="timing repeats per mode, min is reported "
                          "(default: 2 quick, 3 full)")
    sim.add_argument("--out", default="BENCH_sim.json",
                     help="result file (default: %(default)s)")
    crt = perf_sub.add_parser(
        "crt",
        help="control-plane encodes/sec + re-encodes/sec: naive vs "
             "pooled vs incremental, bit-identical to reference crt()",
    )
    crt.add_argument("--quick", action="store_true",
                     help="CI smoke run (fewer iterations; bit-identity "
                          "checks run at full strength)")
    crt.add_argument("--pools", nargs="+", choices=_BENCH_POOLS,
                     default=None, metavar="POOL",
                     help="pool sizes to run "
                          f"(choices: {', '.join(_BENCH_POOLS)})")
    crt.add_argument("--seed", type=int, default=1)
    crt.add_argument("--repeats", type=int, default=None, metavar="K",
                     help="timing repeats per mode, min is reported "
                          "(default: 2 quick, 3 full)")
    crt.add_argument("--iters", type=int, default=None, metavar="N",
                     help="batch passes per timing repeat "
                          "(default: 2 quick, 20 full)")
    crt.add_argument("--out", default="BENCH_crt.json",
                     help="result file (default: %(default)s)")
    provision = perf_sub.add_parser(
        "provision",
        help="all-pairs provisioning benchmark: per-flow naive vs "
             "vectorized CSR bulk path, every route ID verified "
             "bit-identical before timing",
    )
    provision.add_argument("--quick", action="store_true",
                           help="CI smoke matrix (small cells only; "
                                "identity checks still cover every "
                                "pair that runs)")
    provision.add_argument("--cells", nargs="+",
                           choices=_BENCH_PROVISION_CELLS,
                           default=None, metavar="CELL",
                           help="topology cells to run (choices: "
                                f"{', '.join(_BENCH_PROVISION_CELLS)})")
    provision.add_argument("--seed", type=int, default=1)
    provision.add_argument("--repeats", type=int, default=None,
                           metavar="K",
                           help="timing repeats per mode, min is "
                                "reported (default: 2 quick, 3 full)")
    provision.add_argument("--shards",
                           action=argparse.BooleanOptionalAction,
                           default=True,
                           help="run the farm shard gate (worker "
                                "processes + block digest equality)")
    provision.add_argument("--out", default="BENCH_provision.json",
                           help="result file (default: %(default)s)")
    service = perf_sub.add_parser(
        "service",
        help="controller-service benchmark: provision req/sec, p50/p99 "
             "latency, admission accept/reject — bit-identity to the "
             "offline engine asserted before any timing",
    )
    service.add_argument("--quick", action="store_true",
                         help="CI smoke run (fewer iterations; identity "
                              "checks run at full strength)")
    service.add_argument("--seed", type=int, default=1)
    service.add_argument("--repeats", type=int, default=None, metavar="K",
                         help="timing repeats per cell, min is reported "
                              "(default: 2 quick, 3 full)")
    service.add_argument("--out", default="BENCH_service.json",
                         help="result file (default: %(default)s)")
    encoding = perf_sub.add_parser(
        "encoding",
        help="encoding-backend benchmark over the zoo corpus: bits/route "
             "and encode+decode ops/sec per backend, weighted-assigner "
             "% reduction vs greedy — backends driven through the "
             "verify oracles before any timing",
    )
    encoding.add_argument("--quick", action="store_true",
                          help="CI smoke run (fewer iterations and oracle "
                               "cases; per-route decode-back checks still "
                               "cover every timed route)")
    encoding.add_argument("--cells", nargs="+",
                          choices=_BENCH_ENCODING_CELLS,
                          default=None, metavar="CELL",
                          help="topology cells to run (choices: "
                               f"{', '.join(_BENCH_ENCODING_CELLS)})")
    encoding.add_argument("--seed", type=int, default=1)
    encoding.add_argument("--repeats", type=int, default=None, metavar="K",
                          help="timing repeats per cell, min is reported "
                               "(default: 2 quick, 3 full)")
    encoding.add_argument("--iters", type=int, default=None, metavar="N",
                          help="batch passes per timing repeat "
                               "(default: 2 quick, 10 full)")
    encoding.add_argument("--out", default="BENCH_encoding.json",
                          help="result file (default: %(default)s)")

    serve = sub.add_parser(
        "serve",
        help="run the controller service (HTTP/JSON provisioning API)",
    )
    serve.add_argument("--topology", choices=_SERVICE_TOPOLOGIES,
                       default="torus33",
                       help="domain to serve (default: %(default)s)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8423,
                       help="listen port; 0 picks an ephemeral one "
                            "(default: %(default)s)")

    loadgen = sub.add_parser(
        "loadgen",
        help="farm-driven churn against a live controller service: "
             "arrive/depart/reroute/port-flap with admission audits and "
             "offline route-ID re-derivation",
    )
    loadgen.add_argument("--topology", choices=_SERVICE_TOPOLOGIES,
                         default="torus33",
                         help="domain to churn (default: %(default)s)")
    loadgen.add_argument("--seeds", nargs="+", type=int, default=[0, 1],
                         help="one churn shard per seed "
                              "(default: %(default)s)")
    loadgen.add_argument("--users", type=int, default=2000, metavar="N",
                         help="concurrent-flow population bound "
                              "(default: %(default)s)")
    loadgen.add_argument("--ops", type=int, default=4000, metavar="N",
                         help="API operations per shard "
                              "(default: %(default)s)")
    loadgen.add_argument("--qos", type=float, default=0.3, metavar="FRAC",
                         help="fraction of arrivals carrying QoS "
                              "constraints (default: %(default)s)")
    loadgen.add_argument("--transport", choices=("direct", "http"),
                         default="http",
                         help="drive dispatch() in-process or a live "
                              "asyncio HTTP server (default: %(default)s)")
    loadgen.add_argument("--export", metavar="PATH.csv|PATH.json",
                         help="also write per-shard rows")
    _add_farm_args(loadgen)
    return parser


def _cmd_table1() -> int:
    from repro.experiments.table1 import render_table1

    print(render_table1())
    return 0


def _cmd_table2() -> int:
    from repro.experiments.table2 import render_table2

    print(render_table2())
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    from repro.experiments.export import figure4_rows, write_rows
    from repro.experiments.figure4 import render_figure4, run_figure4

    series = run_figure4(seed=args.seed, farm=_farm_options(args, "fig4"))
    print(render_figure4(series))
    if args.export:
        write_rows(figure4_rows(series), args.export)
        print(f"wrote {args.export}")
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from repro.experiments.export import figure5_rows, write_rows
    from repro.experiments.figure5 import render_figure5, run_figure5

    cells = run_figure5(farm=_farm_options(args, "fig5"))
    print(render_figure5(cells))
    if args.export:
        write_rows(figure5_rows(cells), args.export)
        print(f"wrote {args.export}")
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    from repro.experiments.export import figure7_rows, write_rows
    from repro.experiments.figure7 import render_figure7, run_figure7

    points = run_figure7(farm=_farm_options(args, "fig7"))
    print(render_figure7(points))
    if args.export:
        write_rows(figure7_rows(points), args.export)
        print(f"wrote {args.export}")
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    from repro.experiments.figure8 import render_figure8, run_figure8

    print(render_figure8(run_figure8(farm=_farm_options(args, "fig8"))))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import build_report

    report = build_report(farm=_farm_options(args, "report"))
    with open(args.path, "w", encoding="utf-8") as f:
        f.write(report)
    print(f"wrote {args.path}")
    return 0


def _cmd_topo(name: str, dot: bool) -> int:
    from repro.experiments.common import scenario_factory
    from repro.topology.topologies import six_node

    scenario = six_node() if name == "six_node" else scenario_factory(name)()
    if dot:
        print(scenario.graph.to_dot())
        return 0
    g = scenario.graph
    cores = g.nodes("core")
    print(f"scenario {scenario.name}: {len(cores)} core switches, "
          f"{len(g.links())} links")
    print(f"primary route: {' -> '.join(scenario.primary_route)}")
    for level in scenario.protection_levels():
        segs = scenario.segments(level)
        rendered = ", ".join(f"{s.at}->{s.to}" for s in segs) or "(none)"
        print(f"protection[{level}]: {rendered}")
    print(f"failure cases: " + ", ".join(
        f"{a}-{b}" for a, b in scenario.failure_links))
    if scenario.notes:
        print(f"notes: {scenario.notes}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.common import (
        Timeline,
        run_failure_experiment,
        scenario_factory,
    )

    scenario = scenario_factory(args.scenario)()
    if args.failure:
        a, _, b = args.failure.partition("-")
        failure: Optional[tuple] = (a, b)
    else:
        failure = scenario.failure_links[0] if scenario.failure_links else None
    end = args.duration
    timeline = Timeline(
        flow_start=0.2,
        fail_at=end / 3,
        repair_at=2 * end / 3,
        end=end,
        baseline_window=(end / 6, end / 3),
        failure_window=(end / 3 + 0.5, 2 * end / 3),
        sample_interval_s=max(end / 24, 0.25),
    )
    outcome = run_failure_experiment(
        scenario, args.deflection, args.protection, failure,
        args.seed, timeline,
    )
    fail_label = f"{failure[0]}-{failure[1]}" if failure else "none"
    print(f"scenario={args.scenario} deflection={args.deflection} "
          f"protection={args.protection} failure={fail_label} "
          f"seed={args.seed}")
    print(outcome.iperf.describe())
    print(f"baseline {outcome.baseline_mbps:.2f} Mbit/s, during failure "
          f"{outcome.failure_mbps:.2f} Mbit/s "
          f"({100 * outcome.ratio:.1f}% of baseline)")
    return 0


def _chaos_kwargs(args: argparse.Namespace) -> dict:
    if args.mode == "mtbf":
        return {"mtbf_s": args.mtbf, "mttr_s": args.mttr}
    if args.mode in ("srlg", "regional"):
        return {"mttr_s": args.mttr}
    return {}


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.chaos_sweep import (
        render_chaos_run,
        render_chaos_sweep,
        run_chaos_sweep,
    )
    from repro.farm.jobs import chaos_spec
    from repro.farm.sweep import run_chaos_specs

    if args.sweep:
        runs = run_chaos_sweep(
            scenario_name=args.scenario,
            seed=args.seed,
            farm=_farm_options(args, "chaos-sweep"),
        )
        print(render_chaos_sweep(runs))
    else:
        spec = chaos_spec(
            args.scenario,
            args.deflection,
            args.mode,
            args.seed,
            chaos_kwargs=_chaos_kwargs(args),
            ctrl_outage=args.ctrl_outage,
            traffic_s=args.duration,
        )
        runs = run_chaos_specs(
            [spec], _farm_options(args, "chaos"), label="chaos"
        )
        print(render_chaos_run(runs[0]))
    if args.export:
        from repro.experiments.export import chaos_rows, write_rows

        write_rows(chaos_rows(runs), args.export)
        print(f"wrote {args.export}")
    return 0


def _cmd_frontier(args: argparse.Namespace) -> int:
    from repro.experiments.frontier import (
        frontier_rows,
        render_frontier,
        run_frontier,
    )

    cells = run_frontier(
        topologies=args.topologies,
        schemes=args.schemes,
        max_failures=args.max_failures,
        seeds=args.seeds,
        dynamic=args.dynamic,
        farm=_farm_options(args, "frontier"),
    )
    print(render_frontier(cells))
    if args.export:
        from repro.experiments.export import write_rows

        write_rows(frontier_rows(cells), args.export)
        print(f"wrote {args.export}")
    violations = sum(c.violation_count for c in cells)
    return 0 if violations == 0 else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify.artifact import load_artifact, replay_artifact
    from repro.verify.harness import render_verify, run_verify

    if args.replay:
        record = load_artifact(args.replay)
        result = replay_artifact(record)
        print(f"replayed [{record['oracle']}] on case seed "
              f"{record['case']['seed']}: {result.checks} checks, "
              f"{len(result.divergences)} divergences")
        for d in result.divergences[:5]:
            print(f"  {d.detail}")
        if result.ok:
            print("divergence no longer reproduces (fixed?)")
            return 0
        return 1
    outcome = run_verify(
        trials=args.trials,
        seed=args.seed,
        oracles=args.oracles,
        shrink=args.shrink,
        artifact_dir=args.artifact_dir,
        farm=_farm_options(args, "verify"),
    )
    print(render_verify(outcome))
    return 0 if outcome.ok else 1


def _cmd_farm(args: argparse.Namespace) -> int:
    from repro.farm.bench import render_bench, run_bench

    if args.farm_command == "bench":
        result = run_bench(
            jobs=args.jobs,
            seeds=list(range(1, args.seeds + 1)),
            out=args.out,
            cache_dir=args.cache_dir,
            progress=args.progress,
        )
        print(render_bench(result))
        print(f"wrote {args.out}")
        return 0
    raise AssertionError(f"unhandled farm command {args.farm_command!r}")


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.bench_command == "sim":
        from repro.bench.simbench import render_sim_bench, run_sim_bench

        result = run_sim_bench(
            sizes=args.sizes,
            strategies=args.strategies,
            seed=args.seed,
            quick=args.quick,
            repeats=args.repeats,
            out=args.out,
            modes=args.modes,
        )
        print(render_sim_bench(result))
        if args.out:
            print(f"wrote {args.out}")
        return 0 if result["digests_match_reference"] else 1
    if args.bench_command == "crt":
        from repro.bench.crtbench import render_crt_bench, run_crt_bench

        result = run_crt_bench(
            pools=args.pools,
            seed=args.seed,
            quick=args.quick,
            repeats=args.repeats,
            iters=args.iters,
            out=args.out,
        )
        print(render_crt_bench(result))
        if args.out:
            print(f"wrote {args.out}")
        return 0 if result["bit_identical_reference"] else 1
    if args.bench_command == "provision":
        from repro.bench.provisionbench import (
            render_provision_bench,
            run_provision_bench,
        )

        result = run_provision_bench(
            cells=args.cells,
            seed=args.seed,
            quick=args.quick,
            repeats=args.repeats,
            out=args.out,
            shards=args.shards,
        )
        print(render_provision_bench(result))
        if args.out:
            print(f"wrote {args.out}")
        gate = result.get("shard_gate")
        ok = (
            result["bit_identical_reference"]
            and result["targets_met"]
            and (gate is None or gate["digests_match"])
        )
        return 0 if ok else 1
    if args.bench_command == "service":
        from repro.bench.servicebench import (
            render_service_bench,
            run_service_bench,
        )

        result = run_service_bench(
            seed=args.seed,
            quick=args.quick,
            repeats=args.repeats,
            out=args.out,
        )
        print(render_service_bench(result))
        if args.out:
            print(f"wrote {args.out}")
        ok = (
            result["bit_identical_reference"]
            and result["zero_admission_violations"]
        )
        return 0 if ok else 1
    if args.bench_command == "encoding":
        from repro.bench.encodingbench import (
            render_encoding_bench,
            run_encoding_bench,
        )

        result = run_encoding_bench(
            cells=args.cells,
            seed=args.seed,
            quick=args.quick,
            repeats=args.repeats,
            iters=args.iters,
            out=args.out,
        )
        print(render_encoding_bench(result))
        if args.out:
            print(f"wrote {args.out}")
        return 0 if result["verified_before_timing"] else 1
    raise AssertionError(f"unhandled bench command {args.bench_command!r}")


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.server import ControllerService
    from repro.service.state import ControllerState
    from repro.service.topology import edge_names, service_topology

    graph = service_topology(args.topology)
    state = ControllerState(graph, validated_pool=True)
    service = ControllerService(state)

    async def serve() -> None:
        await service.start(host=args.host, port=args.port)
        edges = edge_names(graph)
        print(f"serving {args.topology} on "
              f"http://{args.host}:{service.port} "
              f"({len(edges)} edges: {', '.join(edges[:6])}"
              f"{', ...' if len(edges) > 6 else ''})")
        print("endpoints: GET /healthz /stats /topology /audit /flows; "
              "POST /flows /flows/{id}/reroute /topology/events; "
              "DELETE /flows/{id}")
        await service.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.farm.jobs import service_spec
    from repro.farm.sweep import run_service_specs
    from repro.service.loadgen import churn_rows, render_churn

    specs = [
        service_spec(
            args.topology,
            seed,
            users=args.users,
            operations=args.ops,
            qos_fraction=args.qos,
            transport=args.transport,
        )
        for seed in args.seeds
    ]
    reports = run_service_specs(
        specs, _farm_options(args, "loadgen"), label="loadgen"
    )
    print(render_churn(reports))
    if args.export:
        from repro.experiments.export import write_rows

        write_rows(churn_rows(reports), args.export)
        print(f"wrote {args.export}")
    return 0 if all(r.ok for r in reports) else 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "table1":
        return _cmd_table1()
    if args.command == "table2":
        return _cmd_table2()
    if args.command == "fig4":
        return _cmd_fig4(args)
    if args.command == "fig5":
        return _cmd_fig5(args)
    if args.command == "fig7":
        return _cmd_fig7(args)
    if args.command == "fig8":
        return _cmd_fig8(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "topo":
        return _cmd_topo(args.scenario, args.dot)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "frontier":
        return _cmd_frontier(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "farm":
        return _cmd_farm(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.profile is not None:
        from repro.bench.profiler import profile_call

        return profile_call(lambda: _dispatch(args), top=args.profile)
    return _dispatch(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
