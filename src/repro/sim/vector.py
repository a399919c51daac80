"""Epoch-batched forwarding: the million-packet datapath.

The DES engine (:mod:`repro.sim.engine`) prices every hop as a heap
event — exact, but bounded by Python per-event overhead.  This module
adds a "million-packet datapath": an **epoch-quantized forwarding
model** in which every live packet advances exactly one switch hop per
epoch, and every switch's epoch queue is drained in one vectorized
numpy pass over the whole epoch (the CPU analogue of the array-batched
bulk provisioner in :mod:`repro.controller.bulk`).

Two engines implement the *same* canonical model and must produce
bit-identical outcome records (digested with
:func:`repro.farm.jobs.record_digest`):

* :func:`run_epoch_reference` — the oracle.  It drives **untouched**
  :class:`~repro.switches.core.KarSwitch` objects, one ``receive()``
  call per packet per hop, with the switch's own RNG stream draws.
  Its headers carry no residue hints, so every switch computes
  ``R mod switch_id`` itself, independently of the per-flow residue
  arrays the vector engine reads.
* :func:`run_epoch_vector` — the batch engine.  Once per epoch it
  sorts the live packets by switch (stably, so each queue keeps its
  arrival order), resolves ``R mod switch_id`` for all of them at once
  from a dense ``[switch, flow]`` residue table (seeded by
  :meth:`~repro.rns.encoder.EncodedRoute.residue_map`), applies the
  deflection strategy's happy-path predicate as a numpy mask, and only
  the fallback minority goes through ``select_port`` with its own
  switch's view and RNG stream — so every RNG draw is literally the
  scalar engine's draw, in the same order.

Canonical model (shared by both engines, and by the sharded engine in
:mod:`repro.sim.shard`):

1. At each epoch start, scheduled link flips apply in sorted link-key
   order; then this epoch's injections append to their ingress
   switches' queues **after** carried-over arrivals, in flow order.
2. Switches process their queues in node-index order (node indices are
   name-sorted ranks, the same canonical order
   :class:`~repro.topology.csr.CsrTopology` locks in).  Every packet a
   switch forwards lands in the target switch's *next*-epoch queue
   (one hop per epoch, no serialization or queueing model).
3. Arrival order in a queue is (sender node index, sender emission
   order) — exactly what processing switches in index order produces.
4. A forward onto an edge-facing port terminates the packet: delivered
   when that edge is the flow's egress, misdelivered otherwise (the
   epoch model has no re-encode path; misdelivery is a terminal
   outcome both engines count identically).
5. TTL follows the core switch's rule: drop when ``ttl <= 0`` on
   arrival, else decrement and forward.

The outcome record (per-switch forwarded/deflections/drops, drop
reasons, delivery/misdelivery tallies, and a fingerprint over every
switch RNG's final state) is the bit-identical contract: equal digests
mean both engines made the same decisions AND the same random draws.
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.farm.jobs import record_digest
from repro.rns.encoder import Hop, RouteEncoder
from repro.sim.engine import Simulator
from repro.sim.invariants import InvariantChecker
from repro.sim.packet import KarHeader, Packet
from repro.sim.rng import RngRegistry
from repro.switches.core import KarSwitch
from repro.switches.deflection import strategy_by_name
from repro.topology import random_connected, shortest_path
from repro.topology.csr import CsrTopology
from repro.topology.graph import NodeKind, PortGraph

__all__ = [
    "EpochTopology",
    "EpochFlow",
    "EpochWorkload",
    "EpochOutcome",
    "WORKLOAD_BUILDERS",
    "synthetic_spec",
    "build_workload",
    "run_epoch_reference",
    "run_epoch_vector",
    "EpochCore",
    "process_epoch_batch",
    "injection_batch",
    "iter_injections",
    "rng_state_digest",
    "merge_rng_fragments",
    "finalize_traces",
]

#: (epoch, a, b) — toggle the a-b link's state at the start of *epoch*.
FlipEvent = Tuple[int, str, str]


def rng_state_digest(rng: random.Random) -> str:
    """Canonical fingerprint of one RNG stream's current position."""
    return hashlib.sha256(
        repr(rng.getstate()).encode("utf-8")
    ).hexdigest()[:16]


def merge_rng_fragments(fragments: Sequence[Tuple[str, str]]) -> str:
    """Combine per-switch RNG fingerprints (name order) into one.

    Shards ship fragments instead of raw states, so the sharded
    engine's merged fingerprint is byte-equal to the unsharded ones.
    """
    h = hashlib.sha256()
    for name, frag in sorted(fragments):
        h.update(f"{name}:{frag};".encode("utf-8"))
    return h.hexdigest()[:16]


class EpochTopology:
    """Flat port tables for the epoch model.

    Built once from a :class:`PortGraph` via the CSR snapshot.  Node
    ``u``'s port ``p`` is slot ``port_base[u] + p`` of the flat tables:
    ``peer[slot]`` is the neighbor's node index and ``peer_port[slot]``
    the port **on the neighbor** facing ``u`` (the arriving packet's
    input port).  Node indices are name-sorted ranks, matching
    :class:`~repro.topology.csr.CsrTopology`.  Names are interned, so
    every record built on this topology shares one string per name.
    """

    def __init__(self, graph: PortGraph):
        csr = CsrTopology.from_graph(graph)
        self.names: Tuple[str, ...] = tuple(sys.intern(n) for n in csr.names)
        self.index: Dict[str, int] = {n: i for i, n in enumerate(self.names)}
        self.n = csr.n
        self.core_mask = csr.core_mask
        self.switch_ids = csr.switch_ids
        self.core_indices: Tuple[int, ...] = tuple(
            int(i) for i in np.nonzero(csr.core_mask)[0]
        )
        self.degree = np.diff(csr.indptr).astype(np.int64)
        self.port_base = csr.indptr[:-1].astype(np.int64)
        slot = np.repeat(self.port_base, self.degree) + csr.ports_out
        self.peer = np.full(len(slot), -1, dtype=np.int64)
        self.peer_port = np.full(len(slot), -1, dtype=np.int64)
        self.peer[slot] = csr.indices
        self.peer_port[slot] = csr.ports_back
        for arr in (self.degree, self.port_base, self.peer, self.peer_port):
            arr.setflags(write=False)
        #: link key (sorted names) -> (u, port_on_u, v, port_on_v)
        self.links: Dict[Tuple[str, str], Tuple[int, int, int, int]] = {}
        for link in graph.links():
            u, v = self.index[link.a], self.index[link.b]
            self.links[link.key] = (u, link.a_port, v, link.b_port)


@dataclass(frozen=True)
class EpochFlow:
    """One provisioned flow: a constant route ID entering at one switch.

    ``residues`` is the encode-time hint
    (:meth:`~repro.rns.encoder.EncodedRoute.residue_map`) the vector
    engine reads; switches not in it fall back to the big-int
    ``route_id % switch_id``, once per (flow, switch).  The reference
    engine never reads the hint: its switches compute the modulo
    themselves, so a wrong hint shows up as a divergence.
    """

    route_id: int
    residues: Optional[Mapping[int, int]]
    ingress: int  # node index of the first core switch
    in_port: int  # port on the ingress switch facing its edge
    egress: int  # node index of the destination edge
    ttl: int


@dataclass(frozen=True)
class EpochWorkload:
    """A complete epoch-model scenario, rebuildable from ``spec``."""

    topo: EpochTopology
    flows: Tuple[EpochFlow, ...]
    inject_per_epoch: int
    inject_epochs: int
    max_epochs: int
    seed: int
    strategy: str
    flips: Tuple[FlipEvent, ...]
    spec: Dict[str, Any]

    @property
    def injected_total(self) -> int:
        return len(self.flows) * self.inject_per_epoch * self.inject_epochs

    def flips_at(self, epoch: int) -> Tuple[Tuple[str, str], ...]:
        """Link keys toggling at *epoch*, in sorted key order."""
        keys = sorted(
            (min(a, b), max(a, b))
            for e, a, b in self.flips if e == epoch
        )
        return tuple(keys)


@dataclass
class EpochOutcome:
    """One engine run: the digested record plus optional diagnostics."""

    record: Dict[str, Any]
    fates: Optional[Dict[int, Tuple[Any, ...]]] = None
    traces: Optional[Dict[int, Tuple[Tuple[Any, ...], ...]]] = None
    meta: Optional[Dict[str, Any]] = None

    @property
    def digest(self) -> str:
        return self.record["digest"]


# ---------------------------------------------------------------------------
# workload construction
# ---------------------------------------------------------------------------

#: spec["kind"] -> builder.  Populated at import time so spawn-started
#: shard workers (which re-import this module) can rebuild any workload
#: from its plain spec record — the same discipline as
#: :data:`repro.farm.jobs.JOB_KINDS`.
WORKLOAD_BUILDERS: Dict[str, Callable[[Mapping[str, Any]], "EpochWorkload"]] = {}


def synthetic_spec(
    num_switches: int = 8,
    extra_links: int = 3,
    min_switch_id: int = 29,
    id_strategy: str = "prime",
    seed: int = 1,
    strategy: str = "nip",
    flows: int = 4,
    ttl: int = 48,
    inject_per_epoch: int = 2,
    inject_epochs: int = 6,
    link_failures: int = 1,
    fail_epoch: int = 2,
    repair_epoch: Optional[int] = None,
    extra_flips: Sequence[FlipEvent] = (),
) -> Dict[str, Any]:
    """Plain spec record for the random-connected epoch workload."""
    return {
        "kind": "synthetic",
        "num_switches": num_switches,
        "extra_links": extra_links,
        "min_switch_id": min_switch_id,
        "id_strategy": id_strategy,
        "seed": seed,
        "strategy": strategy,
        "flows": flows,
        "ttl": ttl,
        "inject_per_epoch": inject_per_epoch,
        "inject_epochs": inject_epochs,
        "link_failures": link_failures,
        "fail_epoch": fail_epoch,
        "repair_epoch": repair_epoch,
        "extra_flips": [list(f) for f in extra_flips],
    }


def _build_synthetic(spec: Mapping[str, Any]) -> EpochWorkload:
    """Random connected core + one edge node per flow endpoint.

    Everything is a pure function of the spec: topology (seeded
    generator), flow endpoint choice (its own derived stream), routes
    (deterministic shortest paths + CRT encode) and the failure
    schedule (links on flow 0's route, innermost first).
    """
    graph = random_connected(
        spec["num_switches"],
        extra_links=spec["extra_links"],
        seed=spec["seed"],
        id_strategy=spec.get("id_strategy", "prime"),
        min_switch_id=spec["min_switch_id"],
        rate_mbps=100.0,
        delay_s=0.0002,
    )
    core = sorted(graph.node_names(NodeKind.CORE))
    rng = random.Random(f"epoch-flows-{spec['seed']}")
    pairs: List[Tuple[str, str]] = []
    seen = set()
    attempts = 0
    while len(pairs) < spec["flows"] and attempts < spec["flows"] * 20:
        attempts += 1
        src, dst = rng.sample(core, 2)
        if (src, dst) in seen:
            continue
        seen.add((src, dst))
        pairs.append((src, dst))
    # Attach one edge node per endpoint switch actually used.
    edge_of: Dict[str, str] = {}
    for sw in sorted({n for pair in pairs for n in pair}):
        edge = f"EV-{sw}"
        graph.add_node(edge, kind=NodeKind.EDGE)
        graph.add_link(sw, edge, rate_mbps=100.0, delay_s=0.0002)
        edge_of[sw] = edge

    encoder = RouteEncoder()
    topo = EpochTopology(graph)
    flows: List[EpochFlow] = []
    routes: List[List[str]] = []
    for src, dst in pairs:
        path = shortest_path(graph, src, dst)
        hops = [
            Hop(graph.switch_id(a), graph.port_of(a, b))
            for a, b in zip(path, path[1:])
        ]
        hops.append(
            Hop(graph.switch_id(dst), graph.port_of(dst, edge_of[dst]))
        )
        route = encoder.encode(hops)
        flows.append(EpochFlow(
            route_id=route.route_id,
            residues=dict(route.residue_map()),
            ingress=topo.index[src],
            in_port=graph.port_of(src, edge_of[src]),
            egress=topo.index[edge_of[dst]],
            ttl=spec["ttl"],
        ))
        routes.append(path)

    flips: List[FlipEvent] = [tuple(f) for f in spec.get("extra_flips", ())]
    failures = spec.get("link_failures", 0)
    if failures and routes and len(routes[0]) >= 2:
        path = routes[0]
        mid = len(path) // 2
        # Innermost links first: the most route-disturbing cuts.
        order = sorted(
            range(len(path) - 1), key=lambda i: (abs(i - mid), i)
        )
        fail_epoch = spec.get("fail_epoch", 2)
        repair_epoch = spec.get("repair_epoch")
        for i in order[:failures]:
            a, b = path[i], path[i + 1]
            flips.append((fail_epoch, a, b))
            if repair_epoch is not None:
                flips.append((repair_epoch, a, b))

    inject_epochs = spec["inject_epochs"]
    return EpochWorkload(
        topo=topo,
        flows=tuple(flows),
        inject_per_epoch=spec["inject_per_epoch"],
        inject_epochs=inject_epochs,
        max_epochs=inject_epochs + spec["ttl"] + 4,
        seed=spec["seed"],
        strategy=spec["strategy"],
        flips=tuple(flips),
        spec=dict(spec),
    )


WORKLOAD_BUILDERS["synthetic"] = _build_synthetic


def build_workload(spec: Mapping[str, Any]) -> EpochWorkload:
    """Rebuild a workload from its plain spec record (spawn-safe)."""
    try:
        builder = WORKLOAD_BUILDERS[spec["kind"]]
    except KeyError:
        raise ValueError(
            f"unknown workload kind {spec.get('kind')!r}; registered: "
            f"{sorted(WORKLOAD_BUILDERS)}"
        ) from None
    return builder(spec)


def iter_injections(
    workload: EpochWorkload, epoch: int
) -> List[Tuple[int, int]]:
    """Canonical injection list for *epoch*: ``(uid, flow_index)``.

    Uids are epoch-major, then flow order, then per-flow count — the
    shared numbering every engine (and every shard) reproduces.
    """
    if epoch >= workload.inject_epochs:
        return []
    per_epoch = len(workload.flows) * workload.inject_per_epoch
    base = epoch * per_epoch
    out = []
    for f in range(len(workload.flows)):
        for k in range(workload.inject_per_epoch):
            out.append((base + f * workload.inject_per_epoch + k, f))
    return out


def _finish_record(
    workload: EpochWorkload,
    epochs: int,
    switches: Dict[str, List[int]],
    delivered: int,
    misdelivered: Dict[str, int],
    drop_reasons: Dict[str, int],
    live_at_end: int,
    rng_fragments: Sequence[Tuple[str, str]],
) -> Dict[str, Any]:
    """The canonical outcome record — identical shape in every engine."""
    record: Dict[str, Any] = {
        "model": "epoch",
        "strategy": workload.strategy,
        "seed": workload.seed,
        "epochs": epochs,
        "injected": workload.injected_total,
        "delivered": delivered,
        "misdelivered": dict(sorted(misdelivered.items())),
        "drop_reasons": dict(sorted(drop_reasons.items())),
        "switches": {k: switches[k] for k in sorted(switches)},
        "hops": sum(v[0] for v in switches.values()),
        "live_at_end": live_at_end,
        "rng_fingerprint": merge_rng_fragments(rng_fragments),
    }
    record["digest"] = record_digest(record)
    return record


# ---------------------------------------------------------------------------
# reference engine: untouched KarSwitch objects, one receive() per hop
# ---------------------------------------------------------------------------

class _StubState:
    """Shared carrier state of one link (both endpoints read it)."""

    __slots__ = ("up",)

    def __init__(self) -> None:
        self.up = True


class _CaptureChannel:
    """Records the switch's transmit instead of serializing it."""

    __slots__ = ("sink", "port")

    def __init__(self, sink: List[Tuple[int, Packet]], port: int):
        self.sink = sink
        self.port = port

    def send(self, packet: Packet) -> bool:
        self.sink.append((self.port, packet))
        return True


class _Peer:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class _StubLink:
    """What :meth:`Node.attach` (and the invariant checker's violation
    path, via ``peer_name``) need: an ``up`` flag, a channel, a peer."""

    __slots__ = ("_state", "_channel", "_peer")

    def __init__(self, state: _StubState, channel: _CaptureChannel,
                 peer: str):
        self._state = state
        self._channel = channel
        self._peer = _Peer(peer)

    @property
    def up(self) -> bool:
        return self._state.up

    def channel_from(self, node: Any) -> _CaptureChannel:
        return self._channel

    def peer_of(self, node: Any) -> _Peer:
        return self._peer


class _HopRecorder:
    """Minimal tracer: drop-reason tally plus optional per-uid hops."""

    def __init__(self, uid_of: Dict[int, int], trace: bool):
        self.drop_reasons: Dict[str, int] = {}
        self.uid_of = uid_of
        self.trace = trace
        self.hops: Dict[int, List[Tuple[Any, ...]]] = {}
        self.last_drop: Optional[Tuple[str, str]] = None

    def on_forward(self, now, name, packet, in_port, out_port, deflected):
        if self.trace:
            uid = self.uid_of[id(packet)]
            self.hops.setdefault(uid, []).append(
                (name, in_port, out_port, bool(deflected))
            )

    def on_drop(self, now, name, packet, reason):
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1
        self.last_drop = (name, reason)


def run_epoch_reference(
    workload: EpochWorkload,
    trace: bool = False,
    invariants: Optional[InvariantChecker] = None,
) -> EpochOutcome:
    """The oracle: untouched KarSwitch objects, packet by packet.

    ``invariants`` optionally attaches a live
    :class:`~repro.sim.invariants.InvariantChecker` — the switches call
    its forward hook themselves; injection/terminal hooks are driven by
    the epoch loop, so conservation checks cover the whole model.
    """
    topo = workload.topo
    sim = Simulator()
    registry = RngRegistry(workload.seed)
    strategy = strategy_by_name(workload.strategy)
    uid_of: Dict[int, int] = {}
    recorder = _HopRecorder(uid_of, trace)

    switches: Dict[int, KarSwitch] = {}
    sinks: Dict[int, List[Tuple[int, Packet]]] = {}
    states: Dict[Tuple[str, str], _StubState] = {}
    for u in topo.core_indices:
        name = topo.names[u]
        sw = KarSwitch(
            name, sim, num_ports=int(topo.degree[u]),
            switch_id=int(topo.switch_ids[u]),
            strategy=strategy,
            rng=registry.stream(f"deflect:{name}"),
            tracer=recorder,
            invariants=invariants,
        )
        switches[u] = sw
        sinks[u] = []
    for key, (u, pu, v, pv) in sorted(topo.links.items()):
        state = _StubState()
        states[key] = state
        for node_idx, port, peer_idx in ((u, pu, v), (v, pv, u)):
            sw = switches.get(node_idx)
            if sw is not None:
                sw.attach(
                    port,
                    _StubLink(
                        state,
                        _CaptureChannel(sinks[node_idx], port),
                        topo.names[peer_idx],
                    ),
                )

    flows = workload.flows
    queues: Dict[int, List[Tuple[int, int, Packet, int]]] = {
        u: [] for u in topo.core_indices
    }
    delivered = 0
    misdelivered: Dict[str, int] = {}
    fates: Dict[int, Tuple[Any, ...]] = {}
    epoch = 0
    live = 0
    while epoch < workload.max_epochs and (
        live > 0 or epoch < workload.inject_epochs
    ):
        for key in workload.flips_at(epoch):
            state = states[key]
            state.up = not state.up
            u, pu, v, pv = topo.links[key]
            for node_idx in (u, v):
                sw = switches.get(node_idx)
                if sw is not None:
                    sw.ports_changed()
        for uid, f in iter_injections(workload, epoch):
            flow = flows[f]
            packet = Packet(
                src_host=f"flow{f}", dst_host=f"flow{f}", size_bytes=100,
                kar=KarHeader(
                    route_id=flow.route_id, modulus=0, ttl=flow.ttl,
                ),
            )
            uid_of[id(packet)] = uid
            if invariants is not None:
                invariants.on_encapsulate(0.0, topo.names[flow.ingress], packet)
            queues[flow.ingress].append((uid, f, packet, flow.in_port))
            live += 1
        next_queues: Dict[int, List[Tuple[int, int, Packet, int]]] = {
            u: [] for u in topo.core_indices
        }
        for u in topo.core_indices:
            sw = switches[u]
            sink = sinks[u]
            for uid, f, packet, in_port in queues[u]:
                sw.receive(packet, in_port)
                if sink:
                    port, pkt = sink[0]
                    del sink[:]
                    slot = int(topo.port_base[u]) + port
                    v = int(topo.peer[slot])
                    if topo.core_mask[v]:
                        next_queues[v].append(
                            (uid, f, pkt, int(topo.peer_port[slot]))
                        )
                    else:
                        live -= 1
                        edge_name = topo.names[v]
                        if v == flows[f].egress:
                            delivered += 1
                            fates[uid] = ("delivered", edge_name)
                        else:
                            misdelivered[edge_name] = (
                                misdelivered.get(edge_name, 0) + 1
                            )
                            fates[uid] = ("misdelivered", edge_name)
                        if invariants is not None:
                            invariants.on_deliver(0.0, edge_name, pkt)
                else:
                    # The switch's _drop already notified tracer and
                    # invariants; only the fate is ours to record.
                    live -= 1
                    node, reason = recorder.last_drop or (topo.names[u], "?")
                    fates[uid] = ("dropped", node, reason)
        queues = next_queues
        epoch += 1

    live_at_end = sum(len(q) for q in queues.values())
    record = _finish_record(
        workload, epoch,
        {
            topo.names[u]: [sw.forwarded, sw.deflections, sw.drops]
            for u, sw in switches.items()
        },
        delivered, misdelivered, recorder.drop_reasons, live_at_end,
        [(topo.names[u], rng_state_digest(sw._rng))
         for u, sw in switches.items()],
    )
    return EpochOutcome(
        record=record,
        fates=fates,
        traces={k: tuple(v) for k, v in recorder.hops.items()}
        if trace else None,
        meta={"engine": "reference"},
    )


# ---------------------------------------------------------------------------
# vector engine: one numpy pass over every switch's queue per epoch
# ---------------------------------------------------------------------------

class _ArrayPortView:
    """PortView over a numpy carrier array — what fallback decisions see.

    ``healthy_ports`` is cached per epoch (flips invalidate it); the
    tuple holds plain ints so ``select_port``'s RNG draws and candidate
    lists are indistinguishable from the reference switch's.
    """

    __slots__ = ("num_ports", "_up", "_healthy")

    def __init__(self, num_ports: int, up: np.ndarray):
        self.num_ports = num_ports
        self._up = up
        self._healthy: Optional[Tuple[int, ...]] = None

    def port_up(self, port: int) -> bool:
        return 0 <= port < self.num_ports and bool(self._up[port])

    def healthy_ports(self) -> Tuple[int, ...]:
        cached = self._healthy
        if cached is None:
            cached = tuple(int(p) for p in np.nonzero(self._up)[0])
            self._healthy = cached
        return cached

    def invalidate(self) -> None:
        self._healthy = None


class _ShimKar:
    __slots__ = ("deflected",)

    def __init__(self, deflected: bool):
        self.deflected = deflected


class _ShimPacket:
    """The one attribute ``select_port`` reads from a packet."""

    __slots__ = ("kar",)

    def __init__(self, deflected: bool):
        self.kar = _ShimKar(deflected)


#: Column order of an epoch batch (every engine and shard uses it).
_FIELDS = ("sw", "in_port", "ttl", "deflected", "flow", "uid")


class EpochCore:
    """Vectorized switch state for a (subset of a) topology.

    Owns per-switch counters, RNG streams and residue rows for the
    switches in ``owned`` (all core switches by default — the sharded
    engine passes each shard's block).  Carrier state covers the whole
    topology: flips are global knowledge, exactly as loss-of-carrier is
    local-but-instant in the DES model.
    """

    def __init__(
        self,
        workload: EpochWorkload,
        owned: Optional[Sequence[int]] = None,
        trace: bool = False,
    ):
        topo = workload.topo
        flows = workload.flows
        self.workload = workload
        self.topo = topo
        self.strategy = strategy_by_name(workload.strategy)
        self.strategy_name = workload.strategy
        self.owned: Tuple[int, ...] = tuple(
            int(u) for u in (owned if owned is not None else topo.core_indices)
        )
        registry = RngRegistry(workload.seed)
        self.rngs: Dict[int, random.Random] = {
            u: registry.stream(f"deflect:{topo.names[u]}") for u in self.owned
        }
        # One flag per port slot; up[u] is a view of node u's ports.
        self.carrier = np.ones(len(topo.peer), dtype=bool)
        self.up: List[np.ndarray] = [
            self.carrier[b:b + d]
            for b, d in zip(topo.port_base.tolist(), topo.degree.tolist())
        ]
        self.views: Dict[int, _ArrayPortView] = {
            u: _ArrayPortView(int(topo.degree[u]), self.up[u])
            for u in self.owned
        }
        self.forwarded = np.zeros(topo.n, dtype=np.int64)
        self.drops = np.zeros(topo.n, dtype=np.int64)
        self.deflections = [0] * topo.n  # bumped by the fallback loop
        self.drop_reasons: Dict[str, int] = {}
        self.delivered = 0
        self.misdelivered: Dict[str, int] = {}
        self.trace = trace
        self.fates: Dict[int, Tuple[Any, ...]] = {}
        # uid -> [(epoch, switch, in_port, out_port, deflected), ...].
        # The epoch stamp exists so shard-local fragments can be merged
        # into global hop order; finalize_traces() strips it.
        self.traces: Dict[int, List[Tuple[Any, ...]]] = {}
        self.epoch = -1  # bumped by process_epoch_batch
        # residues[u, f] = R_f mod s_u, filled per switch on first visit.
        self._residues = np.zeros((topo.n, len(flows)), dtype=np.int64)
        self._filled = np.zeros(topo.n, dtype=bool)
        self._unfilled = len(self.owned)
        self._flow_egress = np.array([f.egress for f in flows], np.int64)
        # One epoch's injections for the flows entering at owned
        # switches: flow-major, inject_per_epoch packets each.  Only the
        # uids move from epoch to epoch (by one epoch's worth).
        owned_set = set(self.owned)
        mine = [f for f, flow in enumerate(flows) if flow.ingress in owned_set]
        per_flow = workload.inject_per_epoch
        flow = np.repeat(np.array(mine, dtype=np.int64), per_flow)
        self._uid_step = len(flows) * per_flow
        self._inject = {
            "sw": np.array([f.ingress for f in flows], np.int64)[flow],
            "in_port": np.array([f.in_port for f in flows], np.int64)[flow],
            "ttl": np.array([f.ttl for f in flows], np.int64)[flow],
            "deflected": np.zeros(len(flow), dtype=bool),
            "flow": flow,
            "uid": flow * per_flow + np.tile(np.arange(per_flow), len(mine)),
        }

    def injections(self, epoch: int) -> Dict[str, np.ndarray]:
        """This core's share of ``iter_injections(workload, epoch)``."""
        if epoch >= self.workload.inject_epochs:
            return _empty_batch()
        batch = dict(self._inject)
        batch["uid"] = batch["uid"] + epoch * self._uid_step
        return batch

    def apply_flips(self, keys: Sequence[Tuple[str, str]]) -> None:
        for key in keys:
            u, pu, v, pv = self.topo.links[key]
            self.up[u][pu] = not self.up[u][pu]
            self.up[v][pv] = not self.up[v][pv]
            for node_idx in (u, v):
                view = self.views.get(node_idx)
                if view is not None:
                    view.invalidate()

    def _fill_residues(self, sw: np.ndarray) -> None:
        """Fill the residue rows of switches in *sw* (sorted) not seen yet.

        The encode-time hint when the flow has one, else ``R mod s``.
        """
        heads = sw[np.flatnonzero(np.diff(sw, prepend=-1))]
        for u in heads[~self._filled[heads]].tolist():
            sid = int(self.topo.switch_ids[u])
            row = self._residues[u]
            for f, flow in enumerate(self.workload.flows):
                hint = None if flow.residues is None else flow.residues.get(sid)
                row[f] = flow.route_id % sid if hint is None else hint
            self._filled[u] = True
            self._unfilled -= 1

    def drain(self, sw, in_port, ttl, deflected, flow, uid):
        """Drain every switch's queue at once; arrays sorted by switch.

        Each step runs once over the whole epoch, so the survivors come
        back exactly as the per-switch outputs concatenated in switch
        order.  Terminals (delivered, misdelivered, drops) are tallied
        on the core; ``ttl`` and ``deflected`` are updated in place.
        """
        topo = self.topo
        names = topo.names
        n = topo.n
        s = self.strategy_name
        expired = ttl <= 0
        if expired.any():
            dead = sw[expired]
            self.drops += np.bincount(dead, minlength=n)
            self._drop_n("ttl-expired", len(dead))
            if self.trace:
                for u, w in zip(dead.tolist(), uid[expired].tolist()):
                    self.fates[w] = ("dropped", names[u], "ttl-expired")
            alive = ~expired
            sw, in_port, ttl, deflected, flow, uid = (
                a[alive] for a in (sw, in_port, ttl, deflected, flow, uid)
            )
            if not len(sw):
                return _empty_batch()
        ttl -= 1

        if self._unfilled:
            self._fill_residues(sw)
        out_port = self._residues[sw, flow]  # R mod s; fallbacks overwrite
        # A computed port past the switch's degree is not usable; its
        # slot may name another node's port (clipped at the end), which
        # the degree test masks.
        slot = topo.port_base[sw] + out_port
        happy = (out_port < topo.degree[sw]) & self.carrier.take(
            slot, mode="clip"
        )
        if s == "hp":
            happy &= ~deflected
        elif s == "nip":
            happy &= out_port != in_port
        fallback = np.flatnonzero(~happy)
        # The per-hop decision flag (what the tracer records) is not
        # the sticky kar.deflected bit: a happy-path hop traces False
        # even for a packet deflected upstream.
        hop_defl = np.zeros(len(sw), dtype=bool) if self.trace else None
        if s == "none" or not len(fallback):
            dropped = fallback
        else:
            # The slow minority goes through the strategy's select_port
            # with each switch's real RNG stream, in queue order — the
            # draws ARE the scalar engine's draws.
            select_port = self.strategy.select_port
            views, rngs, deflections = self.views, self.rngs, self.deflections
            shims = (_ShimPacket(False), _ShimPacket(True))
            ports: List[int] = []
            flags: List[bool] = []
            for u, d, p, c in zip(
                sw[fallback].tolist(), deflected[fallback].tolist(),
                in_port[fallback].tolist(), out_port[fallback].tolist(),
            ):
                port, hop_deflected = select_port(
                    views[u], shims[d], p, c, rngs[u]
                )
                ports.append(-1 if port is None else port)
                flags.append(hop_deflected)
                if hop_deflected:
                    deflections[u] += 1
            chosen = np.array(ports, dtype=np.int64)
            out_port[fallback] = chosen
            deflected[fallback] |= flags
            if hop_defl is not None:
                hop_defl[fallback] = flags
            dropped = fallback[chosen < 0]
        if len(dropped):
            lost = sw[dropped]
            self.drops += np.bincount(lost, minlength=n)
            reason = f"no-usable-port({s})"
            self._drop_n(reason, len(dropped))
            if self.trace:
                for u, w in zip(lost.tolist(), uid[dropped].tolist()):
                    self.fates[w] = ("dropped", names[u], reason)
            fwd = np.ones(len(sw), dtype=bool)
            fwd[dropped] = False
            sw, in_port, ttl, deflected, flow, uid, out_port = (
                a[fwd]
                for a in (sw, in_port, ttl, deflected, flow, uid, out_port)
            )
            if hop_defl is not None:
                hop_defl = hop_defl[fwd]
        self.forwarded += np.bincount(sw, minlength=n)

        slot = topo.port_base[sw] + out_port
        peers = topo.peer[slot]
        if self.trace:
            epoch = self.epoch
            for w, u, p, o, h in zip(
                uid.tolist(), sw.tolist(), in_port.tolist(),
                out_port.tolist(), hop_defl.tolist(),
            ):
                self.traces.setdefault(w, []).append(
                    (epoch, names[u], p, o, h)
                )
        out = {
            "sw": peers, "in_port": topo.peer_port[slot], "ttl": ttl,
            "deflected": deflected, "flow": flow, "uid": uid,
        }
        is_core = topo.core_mask[peers]
        if is_core.all():
            return out
        term = ~is_core
        edges = peers[term]
        ok = edges == self._flow_egress[flow[term]]
        self.delivered += int(ok.sum())
        if not ok.all():
            for v, cnt in zip(*np.unique(edges[~ok], return_counts=True)):
                edge_name = names[int(v)]
                self.misdelivered[edge_name] = (
                    self.misdelivered.get(edge_name, 0) + int(cnt)
                )
        if self.trace:
            for w, v, good in zip(
                uid[term].tolist(), edges.tolist(), ok.tolist()
            ):
                self.fates[w] = (
                    "delivered" if good else "misdelivered", names[v]
                )
        return {k: a[is_core] for k, a in out.items()}

    def _drop_n(self, reason: str, n: int) -> None:
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + n

    def rng_fragments(self) -> List[Tuple[str, str]]:
        return [
            (self.topo.names[u], rng_state_digest(rng))
            for u, rng in self.rngs.items()
        ]

    def switch_counters(self) -> Dict[str, List[int]]:
        return {
            self.topo.names[u]: [
                int(self.forwarded[u]), self.deflections[u],
                int(self.drops[u]),
            ]
            for u in self.owned
        }


def _empty_batch() -> Dict[str, np.ndarray]:
    return {
        k: np.empty(0, dtype=bool if k == "deflected" else np.int64)
        for k in _FIELDS
    }


def _concat_batches(batches: List[Dict[str, np.ndarray]]) -> Dict[str, np.ndarray]:
    if not batches:
        return _empty_batch()
    return {
        k: np.concatenate([b[k] for b in batches]) for k in batches[0]
    }


def injection_batch(
    workload: EpochWorkload, injections: Sequence[Tuple[int, int]]
) -> Dict[str, np.ndarray]:
    """Array form of an ``iter_injections`` list (canonical order)."""
    if not injections:
        return _empty_batch()
    uid = np.array([u for u, _ in injections], dtype=np.int64)
    flow = np.array([f for _, f in injections], dtype=np.int64)
    flows = workload.flows
    return {
        "sw": np.array([flows[f].ingress for _, f in injections], np.int64),
        "in_port": np.array([flows[f].in_port for _, f in injections], np.int64),
        "ttl": np.array([flows[f].ttl for _, f in injections], np.int64),
        "deflected": np.zeros(len(injections), dtype=bool),
        "flow": flow,
        "uid": uid,
    }


def process_epoch_batch(
    core: EpochCore, batch: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """One epoch over *batch*: every switch's queue in one numpy pass.

    The stable sort lines the per-switch queues up in node-index order
    without perturbing arrival order (sender index, emission order)
    inside one.  Shared by the unsharded engine and each shard (whose
    batches only contain its own switches).
    """
    core.epoch += 1
    if not len(batch["sw"]):
        return _empty_batch()
    order = np.argsort(batch["sw"], kind="stable")
    return core.drain(*(batch[k][order] for k in _FIELDS))


def finalize_traces(
    raw: Mapping[int, Sequence[Tuple[Any, ...]]],
) -> Dict[int, Tuple[Tuple[Any, ...], ...]]:
    """Order each uid's epoch-stamped hops globally and strip the stamp.

    A packet visits at most one switch per epoch, so sorting the merged
    shard fragments by epoch reconstructs the exact reference hop order.
    """
    return {
        uid: tuple(entry[1:] for entry in sorted(entries))
        for uid, entries in raw.items()
    }


def run_epoch_vector(
    workload: EpochWorkload, trace: bool = False
) -> EpochOutcome:
    """The batch engine: one vectorized pass over every switch per epoch."""
    core = EpochCore(workload, trace=trace)
    batch = _empty_batch()
    epoch = 0
    while epoch < workload.max_epochs and (
        len(batch["uid"]) > 0 or epoch < workload.inject_epochs
    ):
        core.apply_flips(workload.flips_at(epoch))
        batch = process_epoch_batch(
            core, _concat_batches([batch, core.injections(epoch)])
        )
        epoch += 1

    record = _finish_record(
        workload, epoch, core.switch_counters(),
        core.delivered, core.misdelivered, core.drop_reasons,
        int(len(batch["uid"])), core.rng_fragments(),
    )
    return EpochOutcome(
        record=record,
        fates=core.fates if trace else None,
        traces=finalize_traces(core.traces) if trace else None,
        meta={"engine": "vector"},
    )
