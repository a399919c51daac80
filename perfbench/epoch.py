"""epoch_forward: the vectorized epoch datapath (``repro.sim.vector``).

Three cells, one per deflection technique, on one synthetic spec: a
fixed 64-switch random core with large switch IDs and 64 flows.  The
three innermost links of one flow's route fail at epoch 6 and come back
at epoch 20; four more core links each fail for ``OUTAGE_EPOCHS``
epochs, starting at epochs drawn from ``--seed``.  The network, the
flows and which links fail are fixed; only the timing varies with the
seed.  Which links fail decides how many packets leave the vectorized
fast path, and with randomly chosen links that number, and the run's
cost, varied by 2.4x between seeds; the vector engine's speed also
differs by up to 2x from one random topology to the next.

Each cell builds its workload with
:func:`~repro.sim.vector.build_workload` (the set-up) and runs it with
:func:`~repro.sim.vector.run_epoch_vector` (the timed work).  The
sharded engine is not used.  The record digest is the simulated
outcome every timed run must reproduce.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from harness import (
    Cell,
    CellRun,
    Result,
    end_to_end,
    calibrated_s,
    rate_line,
    run_cells,
)
from layers import VECTOR_LAYERS

from repro.sim.vector import build_workload, run_epoch_vector, synthetic_spec
from repro.topology import NodeKind, random_connected

EPOCH_STRATEGIES = ("nip", "avp", "hp")
TOPOLOGY = dict(num_switches=64, extra_links=16, min_switch_id=557, seed=1)
SEEDED_OUTAGES = 4
OUTAGE_EPOCHS = 10


def seeded_flips(seed: int) -> List[Tuple[int, str, str]]:
    """Fail/repair pairs on fixed core links, starting when *seed* says."""
    graph = random_connected(
        TOPOLOGY["num_switches"], extra_links=TOPOLOGY["extra_links"],
        seed=TOPOLOGY["seed"], min_switch_id=TOPOLOGY["min_switch_id"],
    )
    links = sorted(
        link.key for link in graph.links()
        if graph.node(link.key[0]).kind == NodeKind.CORE
        and graph.node(link.key[1]).kind == NodeKind.CORE
    )
    chosen = random.Random("epoch_forward:links").sample(links, SEEDED_OUTAGES)
    rng = random.Random(f"epoch_forward:{seed}")
    flips = []
    for a, b in chosen:
        down = rng.randrange(2, 20)
        flips += [(down, a, b), (down + OUTAGE_EPOCHS, a, b)]
    return flips


def epoch_spec(seed: int, strategy: str) -> Dict:
    return synthetic_spec(
        strategy=strategy, flows=64, ttl=48, inject_per_epoch=32,
        inject_epochs=32, link_failures=3, fail_epoch=6, repair_epoch=20,
        extra_flips=seeded_flips(seed), **TOPOLOGY,
    )


def run_epoch_forward(seed: int, seconds: float, trace: bool,
                      out_dir: str) -> Result:
    result = Result()
    cells = []
    for strategy in EPOCH_STRATEGIES:
        spec = epoch_spec(seed, strategy)

        def run(spec=spec) -> CellRun:
            start = time.perf_counter()
            workload = build_workload(spec)
            setup = time.perf_counter() - start
            start = time.perf_counter()
            record = run_epoch_vector(workload).record
            wall = time.perf_counter() - start
            deflections = sum(v[1] for v in record["switches"].values())
            return CellRun(
                wall, dict(record), (record["hops"], record["epochs"],
                                     deflections),
                setup_s=setup,
                outcome=(record["delivered"], record["injected"]),
            )

        cells.append(Cell(strategy, run))

    reference, timed, recorder = run_cells(
        cells, seconds, VECTOR_LAYERS if trace else None, result
    )
    runs = [run for _, run in timed]
    hops = sum(run.counts[0] for run in runs)
    delivery = (sum(run.outcome[0] for run in reference)
                / sum(run.outcome[1] for run in reference))
    result.report += [
        rate_line("kar_hops_per_s", hops, runs, "hops/s"),
        f"delivery_ratio = {delivery:.4f} ratio (simulated, untimed pass)",
        f"timed cells: {len(runs)} "
        f"({sum(run.wall_s for run in runs):.3f} s)",
    ]
    if recorder is None:
        end_to_end(result, runs, hops, reference)
        return result
    spans = recorder.summary()
    vector = spans.get("vector", {})
    deflection = spans.get("deflection", {})
    fallbacks = deflection.get("entries", 0)
    untraced = calibrated_s([reference[i] for i, _ in timed])
    result.metrics.update({
        "vector.epochs": sum(run.counts[1] for _, run in timed),
        "vector.batch_s": vector.get("self_s", 0.0),
        "vector.fallback_share": fallbacks / hops if hops else 0.0,
        "deflection.share": (
            sum(run.counts[2] for _, run in timed) / hops if hops else 0.0
        ),
        "deflection.calls": fallbacks,
        "deflection.self_s": deflection.get("self_s", 0.0),
        "trace.overhead": calibrated_s(runs) / untraced if untraced else 0.0,
    })
    result.unmeasured.extend(sorted(recorder.unmeasured))
    recorder.write(f"{out_dir}/epoch_forward.spans.npz")
    return result
