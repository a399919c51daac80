"""Shared pieces of the benchmark: metric tables, digests, statistics.

Every workload module returns a :class:`Result`; :mod:`run` turns it
into the one-line JSON summary.  The metric tables here are the single
place that names each metric and its unit.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from spans import EntryPoint, SpanRecorder

#: End-to-end metrics, reported by every untraced run of every workload.
#: The workload-specific names (experiments_per_s, kar_hops_per_s, ...)
#: are printed as report lines; these are their common form.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "work_per_s": "1/s",
}

#: Per-layer metrics, reported by every traced run.  A layer that does
#: not run on a workload reports zeros.
PER_LAYER = {
    "engine.events": "count",
    "engine.self_s": "s",
    "engine.events_per_hop": "ratio",
    "link.sends": "count",
    "link.self_s": "s",
    "link.queue_drops": "count",
    "link.failure_drops": "count",
    "switch.hops": "count",
    "switch.self_us_per_hop": "us",
    "switch.residue_cache_hit_share": "ratio",
    "switch.drops": "count",
    "deflection.share": "ratio",
    "deflection.calls": "count",
    "deflection.self_s": "s",
    "edge.encaps": "count",
    "edge.reencodes": "count",
    "edge.self_s": "s",
    "controller.reencode_s": "s",
    "controller.install_s": "s",
    "transport.segments": "count",
    "transport.retransmits": "count",
    "transport.fast_retransmits": "count",
    "transport.timeouts": "count",
    "transport.self_s": "s",
    "service.dispatch_us_p50": "us",
    "service.dispatch_us_p99": "us",
    "service.http_us_p50": "us",
    "service.self_s": "s",
    "admission.accepted": "count",
    "admission.rejected": "count",
    "admission.self_s": "s",
    "rns.deltas": "count",
    "rns.full_solves": "count",
    "rns.self_s": "s",
    "vector.epochs": "count",
    "vector.batch_s": "s",
    "vector.fallback_share": "ratio",
    "trace.overhead": "ratio",
}


@dataclass
class Result:
    """What one workload run measured and checked."""

    #: Simulated-outcome digest of each cell the untimed pass ran, in
    #: cycle order (controller_churn: one, the operation log's).
    digests: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    report: List[str] = field(default_factory=list)
    unmeasured: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        """Record one failed operation and why."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def digest(obj: Any) -> str:
    """Short sha256 over canonical JSON."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quiesce() -> None:
    """Collect garbage so a timed region starts from a clean heap."""
    gc.collect()


#: Host seconds the calibration kernel (``CAL_ROUNDS`` rounds) takes on
#: the reference machine.  Calibrated times are host times scaled by
#: ``CAL_REF_S / measured``.
CAL_REF_S = 0.02
CAL_ROUNDS = 20000


def calibration_s(rounds: int = CAL_ROUNDS) -> float:
    """Host seconds the calibration kernel takes right now.

    The kernel is fixed, uses only the standard library and does the
    interpreter work a discrete-event simulator does: heap pushes and
    pops, dict stores, small calls and big-integer remainders.  Shared
    hosts change speed by up to 2x between runs; timing this kernel next
    to each piece of timed work and scaling by it removes most of that
    drift, while a change to the program leaves the kernel's time
    alone.  A shorter sample (*rounds*) is scaled to the full kernel.
    """
    # With the collector on, the kernel's time would grow with the number
    # of objects the workload keeps alive, not only with host speed.
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rng = random.Random(1)
        heap: List[Tuple[float, int]] = []
        table: Dict[int, int] = {}
        big = (1 << 100) + 12345
        acc = 0
        for i in range(rounds):
            heapq.heappush(heap, (rng.random(), i))
            if len(heap) > 64:
                heapq.heappop(heap)
            table[i & 1023] = _mix(i, acc)
            acc = (acc + big % (557 + (i & 63))) & 0xFFFF
        return (time.perf_counter() - start) * CAL_ROUNDS / rounds
    finally:
        if enabled:
            gc.enable()


def _mix(x: int, y: int) -> int:
    return (x * 31 + y) % 1000003


class Calibrated:
    """Calibration samples taken between (and during) pieces of work."""

    def __init__(self) -> None:
        self.last = calibration_s()
        self._during: List[float] = []

    def sample(self) -> None:
        """A short sample in the middle of a piece of work; the caller
        keeps it out of the work's own time."""
        self._during.append(calibration_s(CAL_ROUNDS // 4))

    def scale(self) -> float:
        """Scale for the work since the previous call: ``CAL_REF_S``
        over the mean kernel time just before, during and just after."""
        before, self.last = self.last, calibration_s()
        samples = [before, *self._during, self.last]
        self._during = []
        return CAL_REF_S / (sum(samples) / len(samples))


def output_dir() -> str:
    """The benchmark's own output location inside the checkout."""
    path = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path


@dataclass
class CellRun:
    """One cell, run once."""

    wall_s: float
    record: Dict[str, Any]
    #: Read right after the run, so no simulation outlives its cell
    #: (memory would otherwise grow with the number of cells timed).
    counts: Any
    setup_s: Optional[float] = None
    #: Calibration scale of this run: calibrated seconds per host second.
    scale: float = 1.0
    #: The cell's simulated headline number (goodput ratio, deliveries).
    outcome: Tuple[float, float] = (0.0, 0.0)


@dataclass
class Cell:
    label: str
    run: Callable[[], CellRun]
    #: Times a standalone build of the cell's system, for cells whose
    #: run cannot separate build from simulation.
    setup: Optional[Callable[[], float]] = None


#: A traced run stops timing new cells once it holds this many spans
#: (26 bytes each, plus about twice that while self times are computed),
#: so that its memory stays near 200 MB.
SPAN_CAP = 3_000_000


def run_cells(
    cells: Sequence[Cell],
    seconds: float,
    layers: Optional[Dict[str, Sequence[EntryPoint]]],
    result: Result,
    count: Optional[int] = None,
) -> Tuple[List[CellRun], List[Tuple[int, CellRun]], Optional[SpanRecorder]]:
    """Verify every cell, then cycle through them for *seconds*.

    With *count*, verify and time only the first *count* cells of the
    cycle (cycling if *count* is larger), so that every run times the
    same cells whatever the host's speed.  With *layers* the timed cells
    run traced: the wrappers go in after the untimed pass and come out
    before this returns, and timing stops early at ``SPAN_CAP`` spans.

    Returns the untimed reference runs, the timed runs as
    ``(cell index, run)`` and, for a traced run, the span recorder.
    """
    if count:
        cells = cells[:count]
    reference: List[CellRun] = []
    calibrated = Calibrated()
    for cell in cells:
        quiesce()
        run = cell.run()
        if cell.setup is not None:
            run.setup_s = cell.setup()
        run.scale = calibrated.scale()
        run.record["digest"] = digest(run.record)
        reference.append(run)

    recorder = SpanRecorder() if layers is not None else None
    if recorder is not None:
        recorder.install(layers)
    timed: List[Tuple[int, CellRun]] = []
    spent = 0.0
    try:
        while ((len(timed) < count) if count else (spent < seconds)) and (
            recorder is None or len(recorder) < SPAN_CAP
        ):
            index = len(timed) % len(cells)
            if recorder is not None:
                recorder.trace_id = len(timed)
            quiesce()
            run = cells[index].run()
            run.scale = calibrated.scale()
            spent += run.wall_s
            result.attempted += 1
            got = digest(run.record)
            want = reference[index].record["digest"]
            if got != want:
                result.fail(
                    f"{cells[index].label}: digest {got} != untimed {want}"
                )
            timed.append((index, run))
    finally:
        if recorder is not None:
            recorder.remove()
    result.digests = [run.record["digest"] for run in reference]
    return reference, timed, recorder


def calibrated_s(runs: Sequence[CellRun]) -> float:
    """Summed wall time of *runs*, in calibrated seconds."""
    return sum(run.wall_s * run.scale for run in runs)


def rate_line(name: str, work: float, runs: Sequence[CellRun],
              unit: str) -> str:
    """Report line for a rate: calibrated, then as measured on this host."""
    host = sum(run.wall_s for run in runs)
    return (f"{name} = {work / calibrated_s(runs):.6g} {unit} "
            f"(calibrated; {work / host:.6g} as measured here)")


def end_to_end(result: Result, runs: Sequence[CellRun], work: float,
               reference: Sequence[CellRun]) -> None:
    """Fill the end-to-end metrics of an untraced run.

    *work* is what the timed *runs* did, in the workload's unit; set-up
    samples come from the timed and the untimed *reference* runs.
    """
    setups = [r.setup_s * r.scale for r in list(reference) + list(runs)
              if r.setup_s is not None]
    result.metrics.update({
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "work_per_s": work / calibrated_s(runs),
    })
