"""Process-sharded epoch simulation with digest-gated handoffs.

The topology's core switches are partitioned into contiguous blocks of
the name-sorted node-index order; each shard runs an
:class:`~repro.sim.vector.EpochCore` over its block.  Epochs are
barriers: within one epoch every shard drains its queues independently
(switch state is strictly local in KAR — that is the paper's point), and
packets crossing a shard boundary are handed off *between* epochs.

**Ordering is preserved by construction.**  The canonical queue order is
(sender node index, sender emission order).  Because shard blocks are
contiguous in node-index order, every sender in shard 0 has a smaller
index than every sender in shard 1, and each shard emits its per-target
batches already ordered (it processes its switches ascending).  So the
receiver merely concatenates inbound batches in ascending sender-shard
order and gets exactly the queue the unsharded engine would have built.

**Every boundary is a digest gate.**  A handoff batch travels with the
sha-256 (truncated) of its canonical JSON serialization; the receiving
shard recomputes and compares before accepting — a corrupted, reordered
or dropped-row batch raises :class:`HandoffError` instead of silently
diverging.  Self-handoffs (a shard's packets staying home) go through
the same serialize→digest→verify path, so the in-process and
spawn-process modes execute identical gate code and the gate itself is
exercised by every run.

With ``processes=True`` each shard runs in its own spawn-started worker
process (the same spawn discipline as the farm executor:
workloads are rebuilt in-worker from their plain spec via the
import-time :data:`~repro.sim.vector.WORKLOAD_BUILDERS` registry, and
RNG state never crosses a pipe — only fingerprint fragments do).  The
merged outcome record is digest-identical to the unsharded engines'.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.vector import (
    EpochCore,
    EpochOutcome,
    EpochWorkload,
    _concat_batches,
    _empty_batch,
    _finish_record,
    build_workload,
    finalize_traces,
    process_epoch_batch,
)

__all__ = [
    "HandoffError",
    "WORKER_START_METHOD",
    "partition",
    "handoff_digest",
    "batch_to_rows",
    "rows_to_batch",
    "ShardRunner",
    "run_epoch_sharded",
]

#: Start method for shard workers.  Spawn (not fork): workers must
#: rebuild state from plain specs, never inherit it — the same rule the
#: farm executor enforces so results cannot depend on parent memory.
WORKER_START_METHOD = "spawn"

#: Row layout of a serialized handoff batch (order is part of the
#: digest contract).
ROW_FIELDS = ("flow", "ttl", "deflected", "sw", "in_port", "uid")


class HandoffError(RuntimeError):
    """A cross-shard handoff batch failed its digest gate."""


def partition(
    core_indices: Sequence[int], shards: int
) -> List[Tuple[int, ...]]:
    """Contiguous blocks of the node-index order, sizes within one.

    Contiguity is load-bearing: it is what makes ascending-shard merge
    order equal the unsharded (sender index, emission order) queue
    order — see the module docstring.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards > len(core_indices):
        raise ValueError(
            f"cannot split {len(core_indices)} switches into {shards} shards"
        )
    ordered = sorted(int(u) for u in core_indices)
    n = len(ordered)
    blocks: List[Tuple[int, ...]] = []
    start = 0
    for s in range(shards):
        size = n // shards + (1 if s < n % shards else 0)
        blocks.append(tuple(ordered[start:start + size]))
        start += size
    return blocks


def batch_to_rows(batch: Dict[str, np.ndarray]) -> List[List[Any]]:
    """Canonical (picklable, JSON-able) form of a handoff batch."""
    return [
        [int(f), int(t), bool(d), int(s), int(p), int(u)]
        for f, t, d, s, p, u in zip(
            batch["flow"], batch["ttl"], batch["deflected"],
            batch["sw"], batch["in_port"], batch["uid"],
        )
    ]


def rows_to_batch(rows: Sequence[Sequence[Any]]) -> Dict[str, np.ndarray]:
    if not rows:
        return _empty_batch()
    cols = list(zip(*rows))
    return {
        "flow": np.array(cols[0], dtype=np.int64),
        "ttl": np.array(cols[1], dtype=np.int64),
        "deflected": np.array(cols[2], dtype=bool),
        "sw": np.array(cols[3], dtype=np.int64),
        "in_port": np.array(cols[4], dtype=np.int64),
        "uid": np.array(cols[5], dtype=np.int64),
    }


def handoff_digest(rows: Sequence[Sequence[Any]]) -> str:
    """Digest of a batch's canonical JSON — row order included."""
    payload = json.dumps(list(rows), separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class ShardRunner:
    """One shard: an :class:`EpochCore` over a block of switches.

    Used directly (in-process mode) and inside spawn workers (process
    mode) — the digest gates and the epoch step are the same code.
    """

    def __init__(
        self,
        workload: EpochWorkload,
        shard_id: int,
        blocks: Sequence[Sequence[int]],
        trace: bool = False,
    ):
        self.workload = workload
        self.shard_id = shard_id
        self.num_shards = len(blocks)
        self.core = EpochCore(workload, owned=blocks[shard_id], trace=trace)
        # node index -> owning shard (-1 for non-core: never a target).
        owner = np.full(workload.topo.n, -1, dtype=np.int64)
        for s, block in enumerate(blocks):
            for u in block:
                owner[u] = s
        self._owner = owner
        self.handoff_checks = 0

    def step(
        self,
        flips: Sequence[Tuple[str, str]],
        inbound: Sequence[Tuple[Sequence[Sequence[Any]], str]],
    ) -> Dict[int, Tuple[List[List[Any]], str]]:
        """Run one epoch over this shard's queues.

        ``inbound`` is the (rows, digest) batch from each sender shard in
        ascending shard order (empty batches included — the barrier is
        total); the epoch's injections at this shard's switches follow
        it.  Returns this shard's outboxes, one per target shard.
        """
        self.core.apply_flips(flips)
        accepted: List[Dict[str, np.ndarray]] = []
        for rows, digest in inbound:
            if handoff_digest(rows) != digest:
                raise HandoffError(
                    f"shard {self.shard_id}: handoff digest mismatch "
                    f"({len(rows)} rows, claimed {digest})"
                )
            self.handoff_checks += 1
            accepted.append(rows_to_batch(rows))
        accepted.append(self.core.injections(self.core.epoch + 1))
        out = process_epoch_batch(self.core, _concat_batches(accepted))
        targets = self._owner[out["sw"]] if len(out["sw"]) else np.empty(
            0, dtype=np.int64
        )
        outboxes: Dict[int, Tuple[List[List[Any]], str]] = {}
        for t in range(self.num_shards):
            sel = targets == t
            rows = batch_to_rows({k: v[sel] for k, v in out.items()})
            outboxes[t] = (rows, handoff_digest(rows))
        return outboxes

    def final_fragment(self) -> Dict[str, Any]:
        """Everything the coordinator needs to merge this shard."""
        core = self.core
        return {
            "switches": core.switch_counters(),
            "drop_reasons": dict(core.drop_reasons),
            "delivered": core.delivered,
            "misdelivered": dict(core.misdelivered),
            "rng_fragments": core.rng_fragments(),
            "handoff_checks": self.handoff_checks,
            "fates": dict(core.fates),
            "traces": {k: tuple(v) for k, v in core.traces.items()},
        }


def _shard_worker(conn, spec, shard_id, blocks, trace):
    """Spawn-worker loop: rebuild the workload from its spec, then serve
    epoch steps until told to finish."""
    try:
        workload = build_workload(spec)
        runner = ShardRunner(workload, shard_id, blocks, trace=trace)
        while True:
            msg = conn.recv()
            if msg[0] == "step":
                _, flips, inbound = msg
                conn.send(("out", runner.step(flips, inbound)))
            elif msg[0] == "finish":
                conn.send(("final", runner.final_fragment()))
                return
            else:  # pragma: no cover - protocol guard
                raise RuntimeError(f"unknown message {msg[0]!r}")
    except BaseException as exc:  # surface worker faults to the parent
        try:
            conn.send(("error", repr(exc)))
        except Exception:  # pragma: no cover - pipe already gone
            pass
        raise
    finally:
        conn.close()


class _LocalShard:
    """In-process stand-in with the worker protocol's surface."""

    def __init__(self, workload, shard_id, blocks, trace):
        self.runner = ShardRunner(workload, shard_id, blocks, trace=trace)

    def step(self, flips, inbound):
        return self.runner.step(flips, inbound)

    def finish(self):
        return self.runner.final_fragment()

    def close(self):
        pass


class _ProcessShard:
    """One spawn-started worker behind a pipe."""

    def __init__(self, ctx, workload, shard_id, blocks, trace):
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_shard_worker,
            args=(child, workload.spec, shard_id, list(blocks), trace),
            daemon=True,
        )
        self._proc.start()
        child.close()

    def _recv(self):
        kind, payload = self._conn.recv()
        if kind == "error":
            raise HandoffError(f"shard worker failed: {payload}")
        return payload

    def step(self, flips, inbound):
        self._conn.send(("step", flips, inbound))
        return self._recv()

    def finish(self):
        self._conn.send(("finish",))
        return self._recv()

    def close(self):
        try:
            self._conn.close()
        finally:
            self._proc.join(timeout=10)
            if self._proc.is_alive():  # pragma: no cover - hung worker
                self._proc.terminate()
                self._proc.join(timeout=10)


def run_epoch_sharded(
    workload: EpochWorkload,
    shards: int = 2,
    processes: bool = False,
    trace: bool = False,
) -> EpochOutcome:
    """Run the epoch model over *shards* partitions; merge to one record.

    The merged record — including the combined RNG fingerprint — is
    digest-identical to :func:`~repro.sim.vector.run_epoch_vector` and
    :func:`~repro.sim.vector.run_epoch_reference` on the same workload.
    ``processes=True`` runs each shard in its own spawn worker; the
    default runs them in-process (same gates, no pickling).
    """
    topo = workload.topo
    blocks = partition(topo.core_indices, shards)

    if processes:
        import multiprocessing

        ctx = multiprocessing.get_context(WORKER_START_METHOD)
        members: List[Any] = [
            _ProcessShard(ctx, workload, s, blocks, trace)
            for s in range(shards)
        ]
    else:
        members = [
            _LocalShard(workload, s, blocks, trace) for s in range(shards)
        ]

    empty_rows: List[List[Any]] = []
    empty_digest = handoff_digest(empty_rows)
    # pending[receiver][sender] = (rows, digest) for the next epoch.
    pending: List[List[Tuple[List[List[Any]], str]]] = [
        [(empty_rows, empty_digest)] * shards for _ in range(shards)
    ]
    live = 0
    epoch = 0
    try:
        while epoch < workload.max_epochs and (
            live > 0 or epoch < workload.inject_epochs
        ):
            flips = workload.flips_at(epoch)
            nxt: List[List[Tuple[List[List[Any]], str]]] = [
                [None] * shards for _ in range(shards)  # type: ignore
            ]
            live = 0
            for s, member in enumerate(members):
                outboxes = member.step(flips, pending[s])
                for t, (rows, digest) in outboxes.items():
                    nxt[t][s] = (rows, digest)
                    live += len(rows)
            pending = nxt
            epoch += 1

        fragments = [member.finish() for member in members]
    finally:
        for member in members:
            member.close()

    switches: Dict[str, List[int]] = {}
    drop_reasons: Dict[str, int] = {}
    misdelivered: Dict[str, int] = {}
    delivered = 0
    handoff_checks = 0
    rng_fragments: List[Tuple[str, str]] = []
    fates: Dict[int, Tuple[Any, ...]] = {}
    # A packet that crossed shards left epoch-stamped hops in several
    # fragments; collect them all, then let finalize_traces re-order.
    raw_traces: Dict[int, List[Tuple[Any, ...]]] = {}
    for frag in fragments:
        switches.update(frag["switches"])
        delivered += frag["delivered"]
        handoff_checks += frag["handoff_checks"]
        for k, v in frag["drop_reasons"].items():
            drop_reasons[k] = drop_reasons.get(k, 0) + v
        for k, v in frag["misdelivered"].items():
            misdelivered[k] = misdelivered.get(k, 0) + v
        rng_fragments.extend(
            (name, digest) for name, digest in frag["rng_fragments"]
        )
        fates.update(frag["fates"])
        for uid, hops in frag["traces"].items():
            raw_traces.setdefault(uid, []).extend(hops)

    live_at_end = sum(
        len(rows) for inbox in pending for rows, _ in inbox
    )
    record = _finish_record(
        workload, epoch, switches, delivered, misdelivered,
        drop_reasons, live_at_end, rng_fragments,
    )
    return EpochOutcome(
        record=record,
        fates=fates if trace else None,
        traces=finalize_traces(raw_traces) if trace else None,
        meta={
            "engine": "sharded",
            "shards": shards,
            "processes": processes,
            "handoff_checks": handoff_checks,
        },
    )
