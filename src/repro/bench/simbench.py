"""``repro bench sim`` — the DES datapath and the epoch datapath.

Two datapath families (``--modes``):

* ``des`` — the discrete-event engine on a hop-heavy workload: a
  random connected core with a UDP probe flow and a mid-run failure on
  the primary path, so every strategy exercises its deflection
  fallback as well as the steady state.  **Every cell is verified
  before it is timed**: one untimed run checks every switch decision
  against the paper's pseudocode
  (:class:`~repro.verify.oracles.DecisionAudit`: residue, port,
  deflected flag and RNG stream position), and a cell with a single
  divergence raises.  Each timed repeat must then reproduce the
  verified run's outcome digest (per-switch counters, drop reasons,
  event count, final RNG fingerprints).
* ``epoch`` — the million-packet datapath: the epoch-quantized model's
  vectorized engine (:mod:`repro.sim.vector`) and 2-shard engine
  (:mod:`repro.sim.shard`) against the untouched-KarSwitch scalar
  reference.  **Every cell is digest-verified against the reference
  engine before a single timing repeat runs** — same discipline, one
  order of magnitude more packets.

Results land in ``BENCH_sim.json``; CI runs ``--quick`` and asserts
only the verification fields and run-to-run digest identity (never
wall-clock — shared runners make absolute thresholds flaky).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.artifact import finish_artifact
from repro.controller.protection import ProtectionPlanner
from repro.farm.jobs import record_digest
from repro.runner import KarSimulation
from repro.switches.deflection import STRATEGY_NAMES
from repro.topology import (
    Scenario,
    attach_host_pair,
    random_connected,
    shortest_path,
)
from repro.verify.oracles import DecisionAudit, OracleResult, outcome_record

__all__ = ["SIZES", "MODES", "EPOCH_WORKLOADS", "run_sim_bench",
           "render_sim_bench"]

#: Datapath families the benchmark can exercise.
MODES: Tuple[str, ...] = ("des", "epoch")

#: Epoch-model workload scale per topology size.  Sized so the large
#: cell pushes well past the ROADMAP's 10M forwarded packets/min on a
#: single core while the scalar oracle pass stays affordable.
EPOCH_WORKLOADS: Dict[str, Dict[str, int]] = {
    "small": dict(flows=8, inject_per_epoch=6, inject_epochs=12, ttl=32),
    "medium": dict(flows=24, inject_per_epoch=12, inject_epochs=20, ttl=40),
    "large": dict(flows=48, inject_per_epoch=24, inject_epochs=28, ttl=48),
}

#: The 10M+ forwarded-packets/min target for the vectorized engine on
#: the large topology (tracked in the artifact, asserted by eye — CI
#: never gates on wall-clock).
EPOCH_TARGET_PER_MIN = 10_000_000

#: Topology size presets.  ``min_switch_id`` scales with size so larger
#: nets also mean larger route IDs (more big-int work per residue-cache
#: miss, like a real deployment's wider coprime pool).
SIZES: Dict[str, Dict[str, Any]] = {
    "small": dict(num_switches=8, extra_links=3, min_switch_id=29,
                  rate_pps=500, traffic_s=1.2),
    "medium": dict(num_switches=32, extra_links=8, min_switch_id=211,
                   rate_pps=500, traffic_s=1.6),
    "large": dict(num_switches=64, extra_links=16, min_switch_id=557,
                  rate_pps=500, traffic_s=1.6),
}

#: Simulated drain time after the probe stops (lets deflected packets
#: finish wandering so conservation-style digests are stable).
_DRAIN_S = 1.0


def _far_apart(graph) -> Tuple[str, str]:
    """Approximate diameter endpoints (double-BFS heuristic).

    Hop-heavy routes keep the benchmark honest: the per-hop datapath
    cost must dominate the fixed per-packet edge/host cost, or the
    numbers measure transport plumbing instead.
    """
    names = sorted(graph.node_names())

    def farthest(origin: str) -> str:
        best, best_len = origin, -1
        for name in names:
            if name == origin:
                continue
            length = len(shortest_path(graph, origin, name))
            if length > best_len:
                best, best_len = name, length
        return best

    u = farthest(names[0])
    return u, farthest(u)


def _bench_scenario(size: str, seed: int) -> Scenario:
    cfg = SIZES[size]
    graph = random_connected(
        cfg["num_switches"],
        extra_links=cfg["extra_links"],
        seed=seed,
        min_switch_id=cfg["min_switch_id"],
        rate_mbps=100.0,
        delay_s=0.0002,
    )
    src_sw, dst_sw = _far_apart(graph)
    src_host, dst_host = attach_host_pair(
        graph, src_sw, dst_sw, rate_mbps=100.0, delay_s=0.0002
    )
    route = shortest_path(graph, src_sw, dst_sw)
    plan = ProtectionPlanner(graph).full(route)
    return Scenario(
        name=f"bench-{size}-{seed}",
        graph=graph,
        primary_route=tuple(route),
        src_host=src_host,
        dst_host=dst_host,
        protection={"full": tuple(plan.segments), "none": ()},
    )


def _run_once(
    scenario: Scenario,
    strategy: str,
    seed: int,
    size: str,
    audit: Optional[OracleResult] = None,
) -> Tuple[float, Dict[str, Any]]:
    """One seeded run; returns (wall seconds, digested outcome record).

    With *audit* (the untimed verify run), a
    :class:`~repro.verify.oracles.DecisionAudit` checks every switch
    decision against the paper's pseudocode and records into it.
    """
    cfg = SIZES[size]
    traffic_s = cfg["traffic_s"]
    route = scenario.primary_route
    fail_a, fail_b = route[len(route) // 2 - 1], route[len(route) // 2]
    ks = KarSimulation(
        scenario, deflection=strategy, protection="none",
        seed=seed, ttl=96,
    )
    src, sink = ks.add_udp_probe(
        rate_pps=cfg["rate_pps"], duration_s=traffic_s
    )
    src.start(at=0.05)
    ks.schedule_failure(
        fail_a, fail_b, at=traffic_s / 3, repair_at=2 * traffic_s / 3
    )
    decisions = DecisionAudit(ks, audit) if audit is not None else None
    # Time only the event loop: this is a datapath benchmark.
    start = time.perf_counter()
    ks.run(until=traffic_s + _DRAIN_S)
    elapsed = time.perf_counter() - start
    if decisions is not None:
        decisions.finish()
    record = outcome_record(ks, src, sink)
    record["digest"] = record_digest(record)
    return elapsed, record


def _epoch_spec(size: str, strategy: str, seed: int) -> Dict[str, Any]:
    """Epoch-model workload spec for one benchmark cell."""
    from repro.sim.vector import synthetic_spec

    cfg = SIZES[size]
    scale = EPOCH_WORKLOADS[size]
    return synthetic_spec(
        num_switches=cfg["num_switches"],
        extra_links=cfg["extra_links"],
        min_switch_id=cfg["min_switch_id"],
        seed=seed,
        strategy=strategy,
        flows=scale["flows"],
        ttl=scale["ttl"],
        inject_per_epoch=scale["inject_per_epoch"],
        inject_epochs=scale["inject_epochs"],
        link_failures=2,
        fail_epoch=max(1, scale["inject_epochs"] // 3),
        repair_epoch=max(2, 2 * scale["inject_epochs"] // 3),
    )


def _per_min(count: int, wall_s: float) -> Optional[int]:
    return round(count / wall_s * 60) if wall_s > 0 else None


def _run_epoch_cells(
    sizes: Sequence[str],
    strategies: Sequence[str],
    seed: int,
    repeats: int,
    shard_processes: bool,
) -> List[Dict[str, Any]]:
    """The epoch-datapath matrix: verify every engine's digest against
    the scalar reference **before** any timing repeat runs."""
    from repro.sim.shard import run_epoch_sharded
    from repro.sim.vector import (
        build_workload,
        run_epoch_reference,
        run_epoch_vector,
    )

    cells: List[Dict[str, Any]] = []
    for size in sizes:
        for strategy in strategies:
            spec = _epoch_spec(size, strategy, seed)
            workload = build_workload(spec)

            # --- verify pass: digests first, timing only if they hold.
            ref_start = time.perf_counter()
            ref = run_epoch_reference(workload)
            ref_wall = time.perf_counter() - ref_start
            vec = run_epoch_vector(workload)
            sh = run_epoch_sharded(
                workload, shards=2, processes=shard_processes
            )
            for engine, outcome in (("vector", vec), ("shard2", sh)):
                if outcome.digest != ref.digest:
                    raise RuntimeError(
                        f"epoch {engine} engine diverged from reference: "
                        f"{size}/{strategy} ({outcome.digest} vs "
                        f"{ref.digest})"
                    )

            # --- timing pass (interleaved, min wall per engine).
            vec_times: List[float] = []
            shard_times: List[float] = []
            for _ in range(repeats):
                start = time.perf_counter()
                timed = run_epoch_vector(workload)
                vec_times.append(time.perf_counter() - start)
                if timed.digest != ref.digest:
                    raise RuntimeError(
                        f"non-deterministic vector run: {size}/{strategy}"
                    )
                start = time.perf_counter()
                timed = run_epoch_sharded(
                    workload, shards=2, processes=shard_processes
                )
                shard_times.append(time.perf_counter() - start)
                if timed.digest != ref.digest:
                    raise RuntimeError(
                        f"non-deterministic shard run: {size}/{strategy}"
                    )
            vec_s, shard_s = min(vec_times), min(shard_times)
            forwarded = ref.record["hops"]
            cells.append({
                "size": size,
                "strategy": strategy,
                "packets": ref.record["injected"],
                "forwarded": forwarded,
                "epochs": ref.record["epochs"],
                "delivered": ref.record["delivered"],
                "reference_epoch": {
                    "wall_s": round(ref_wall, 4),
                    "forwarded_per_min": _per_min(forwarded, ref_wall),
                },
                "vector": {
                    "wall_s": round(vec_s, 4),
                    "forwarded_per_sec": (
                        round(forwarded / vec_s) if vec_s > 0 else None
                    ),
                    "forwarded_per_min": _per_min(forwarded, vec_s),
                },
                "shard2": {
                    "wall_s": round(shard_s, 4),
                    "processes": shard_processes,
                    "handoff_checks": sh.meta["handoff_checks"],
                    "forwarded_per_min": _per_min(forwarded, shard_s),
                },
                "speedup_vs_reference": (
                    round(ref_wall / vec_s, 3) if vec_s > 0 else None
                ),
                "digest": ref.digest,
                "digests_match": True,  # enforced above, before timing
            })
    return cells


def run_sim_bench(
    sizes: Optional[Sequence[str]] = None,
    strategies: Optional[Sequence[str]] = None,
    seed: int = 1,
    quick: bool = False,
    repeats: Optional[int] = None,
    out: Optional[str] = "BENCH_sim.json",
    modes: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Run the datapath benchmark matrix; optionally write *out*.

    ``modes`` selects the datapath families (default: both): ``des``
    (event loop, every decision checked against the pseudocode) and
    ``epoch`` (vectorized + 2-shard batch engines vs the scalar
    reference engine).  ``quick`` trims the matrix for CI smoke runs
    (small+medium, the checks still cover every cell).

    Each timed cell runs ``repeats`` times per engine (interleaved, so
    OS scheduling drift hits all engines alike) and reports the
    **minimum** wall time — the standard estimator for wall-clock
    microbenchmarks, since noise on a quiet deterministic workload is
    strictly additive.  Every cell is verified *before* the first
    timing repeat (DES: the decision audit; epoch: vector and sharded
    digests vs the reference engine), and every repeat must reproduce
    the verified digest (the simulation is seeded), which doubles as
    a determinism check.
    """
    if sizes is None:
        sizes = ("small", "medium") if quick else ("small", "medium", "large")
    if strategies is None:
        strategies = STRATEGY_NAMES
    if modes is None:
        modes = MODES
    for size in sizes:
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r}; choose from {sorted(SIZES)}")
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {list(MODES)}")
    if repeats is None:
        repeats = 2 if quick else 3
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    runs: List[Dict[str, Any]] = []
    for size in sizes if "des" in modes else ():
        scenario = _bench_scenario(size, seed)
        for strategy in strategies:
            # --- verify pass: every decision vs the pseudocode.
            audit = OracleResult("datapath")
            _, verified = _run_once(scenario, strategy, seed, size, audit)
            if not audit.ok:
                raise RuntimeError(
                    f"DES datapath diverged from Algorithm 1: "
                    f"{size}/{strategy}: {audit.divergences[0].detail}"
                )
            # --- timing pass: each repeat must reproduce the digest.
            times: List[float] = []
            for _ in range(repeats):
                wall, record = _run_once(scenario, strategy, seed, size)
                if record["digest"] != verified["digest"]:
                    raise RuntimeError(
                        f"non-deterministic DES run: {size}/{strategy}"
                    )
                times.append(wall)
            wall_s = min(times)
            packets = verified["sent"]
            forwarded = sum(v[0] for v in verified["switches"].values())
            runs.append({
                "size": size,
                "strategy": strategy,
                "packets": packets,
                "events": verified["events"],
                "forwarded": forwarded,
                "wall_s": round(wall_s, 4),
                "packets_per_sec": round(packets / wall_s),
                "events_per_sec": round(verified["events"] / wall_s),
                "forwarded_per_min": _per_min(forwarded, wall_s),
                "decision_checks": audit.checks,
                "decision_divergences": len(audit.divergences),
                "digest": verified["digest"],
                "digests_match": True,  # enforced above, per repeat
            })

    epoch_runs: List[Dict[str, Any]] = []
    if "epoch" in modes:
        epoch_runs = _run_epoch_cells(
            sizes, strategies, seed, repeats,
            shard_processes=not quick,
        )

    def _epoch_vs_des(size: str) -> Optional[Dict[str, Any]]:
        """Vectorized epoch datapath vs the DES datapath, as aggregate
        forwarded-packets/min over the size's cells."""
        des_cells = [r for r in runs if r["size"] == size]
        ep_cells = [r for r in epoch_runs if r["size"] == size]
        if not des_cells or not ep_cells:
            return None
        des_fwd = sum(c["forwarded"] for c in des_cells)
        des_wall = sum(c["wall_s"] for c in des_cells)
        ep_fwd = sum(c["forwarded"] for c in ep_cells)
        ep_wall = sum(c["vector"]["wall_s"] for c in ep_cells)
        des_per_min = _per_min(des_fwd, des_wall)
        ep_per_min = _per_min(ep_fwd, ep_wall)
        return {
            "des_forwarded_per_min": des_per_min,
            "vector_forwarded_per_min": ep_per_min,
            "ratio": (
                round(ep_per_min / des_per_min, 2)
                if des_per_min else None
            ),
        }

    best_vector_per_min = max(
        (c["vector"]["forwarded_per_min"] or 0 for c in epoch_runs),
        default=0,
    )
    result: Dict[str, Any] = {
        "bench": "repro.sim",
        "quick": quick,
        "repeats": repeats,
        "seed": seed,
        "modes": list(modes),
        "sizes": {s: SIZES[s] for s in sizes},
        "runs": runs,
        "epoch": {
            "workloads": {s: EPOCH_WORKLOADS[s] for s in sizes},
            "runs": epoch_runs,
            "vs_des": {s: _epoch_vs_des(s) for s in sizes},
            "target_forwarded_per_min": EPOCH_TARGET_PER_MIN,
            "best_vector_forwarded_per_min": best_vector_per_min,
            "target_met": best_vector_per_min >= EPOCH_TARGET_PER_MIN,
        } if "epoch" in modes else None,
        "decisions_verified": all(
            r["decision_checks"] > 0 and r["decision_divergences"] == 0
            for r in runs
        ),
        "digests_match_reference": all(
            r["digests_match"] for r in epoch_runs
        ),
    }
    return finish_artifact(result, out)


def render_sim_bench(result: Dict[str, Any]) -> str:
    lines = [
        f"sim bench — datapath modes {result.get('modes', ['des'])} "
        f"(seed {result['seed']}, {result['cpu_count']} CPU(s))",
    ]
    if result["runs"]:
        lines.append(
            f"  {'size':<8} {'strategy':<9} {'pkts/s':>8} "
            f"{'fwd/min':>10} {'decision checks':>16}  verified"
        )
        for r in result["runs"]:
            ok = r["decision_divergences"] == 0 and r["digests_match"]
            lines.append(
                f"  {r['size']:<8} {r['strategy']:<9} "
                f"{r['packets_per_sec']:>8} "
                f"{r['forwarded_per_min']:>10} "
                f"{r['decision_checks']:>16}  "
                f"{'ok' if ok else 'DIVERGED'}"
            )
        lines.append(
            f"  decisions verified: {result['decisions_verified']}"
        )
    epoch = result.get("epoch")
    if epoch:
        lines.append(
            f"  epoch datapath (vectorized / 2-shard vs scalar reference):"
        )
        lines.append(
            f"  {'size':<8} {'strategy':<9} {'forwarded':>10} "
            f"{'fwd/min vec':>12} {'fwd/min sh2':>12} {'vs ref':>8}  digests"
        )
        for r in epoch["runs"]:
            lines.append(
                f"  {r['size']:<8} {r['strategy']:<9} "
                f"{r['forwarded']:>10} "
                f"{r['vector']['forwarded_per_min']:>12} "
                f"{r['shard2']['forwarded_per_min']:>12} "
                f"{r['speedup_vs_reference']:>7}x  "
                f"{'match' if r['digests_match'] else 'MISMATCH'}"
            )
        for size, cmp in epoch["vs_des"].items():
            if cmp is None:
                continue
            lines.append(
                f"  {size}: vector {cmp['vector_forwarded_per_min']} "
                f"fwd/min vs DES {cmp['des_forwarded_per_min']} "
                f"fwd/min = {cmp['ratio']}x"
            )
        lines.append(
            f"  epoch target: {epoch['best_vector_forwarded_per_min']} "
            f"fwd/min best vs {epoch['target_forwarded_per_min']} target "
            f"-> {'met' if epoch['target_met'] else 'NOT met'}"
        )
    lines.append(
        "  digests match reference: "
        f"{result['digests_match_reference']}"
    )
    return "\n".join(lines)
