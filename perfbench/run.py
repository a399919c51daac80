"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload udp_deflect --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced run.  The lines before it are
a human-readable report: the workload-specific metric names,
the workload digest and anything that failed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("paper_tcp", "udp_deflect", "controller_churn", "epoch_forward")

#: Variables that would silently change what the program computes.
PINNED_ENV = ("REPRO_BACKEND", "REPRO_SEEDS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU.

    Timings then do not depend on which CPU the scheduler picks, and the
    calibration kernel runs where the work runs.  controller_churn's
    client and server share the CPU; with one closed-loop client they
    take turns anyway.
    """
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        except OSError as exc:
            print(f"note: could not pin to one CPU ({exc})")


def recorded_digests(workload: str, seed: int) -> List[str]:
    """The per-cell digests recorded for (workload, seed), if any."""
    with open(os.path.join(HERE, "digests.json")) as fh:
        table = json.load(fh)
    return table.get(workload, {}).get(str(seed), [])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro next to perfbench/; run it from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    pin_to_one_cpu()
    for name in PINNED_ENV:
        if os.environ.pop(name, None) is not None:
            print(f"note: ignoring {name}; the workloads pin it")

    import harness

    out_dir = harness.output_dir()
    trace = bool(args.trace)
    if args.workload in ("paper_tcp", "udp_deflect"):
        import des

        runner = des.run_paper_tcp if args.workload == "paper_tcp" \
            else des.run_udp_deflect
    elif args.workload == "controller_churn":
        import churn

        runner = churn.run_controller_churn
    else:
        import epoch

        runner = epoch.run_epoch_forward
    result = runner(args.seed, args.seconds, trace, out_dir)

    # A run checks as many cells as it ran; a longer run checks more.
    recorded = recorded_digests(args.workload, args.seed)
    checked = min(len(recorded), len(result.digests))
    for i, (got, want) in enumerate(zip(result.digests, recorded)):
        if got != want:
            result.fail(f"cell {i}: digest {got} != recorded {want}")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"cell digests {' '.join(result.digests)} "
          f"({checked} checked against perfbench/digests.json)")
    for line in result.report:
        print("  " + line)
    for problem in result.problems:
        print("  FAILED: " + problem)
    for layer in result.unmeasured:
        print("  unmeasured: " + layer)
    # A layer that does not run on a workload reports zero; so does an
    # end-to-end metric of a run that failed before it was measured.
    units = harness.PER_LAYER if trace else harness.END_TO_END
    if not trace and not units.keys() <= result.metrics.keys():
        result.fail("end-to-end metrics missing")
    metrics = {
        name: {"value": float(result.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
