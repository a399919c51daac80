"""The differential oracles.

Each oracle takes a :class:`~repro.verify.cases.FuzzCase` and replays
it through two *independent* evaluations of the same semantics, then
diffs the outcomes:

* ``datapath`` — every decision the KAR switches make in the case's
  full event-driven run vs the paper-pseudocode transcription
  (:mod:`repro.verify.pseudocode`), fed the big-int ``R mod s``, the
  healthy ports read from the links and a clone of the switch's RNG
  (:class:`DecisionAudit`): residue, port, deflected flag and RNG
  stream position.
* ``strategy`` — each deflection strategy implementation vs the
  pseudocode on fuzzed switch states, decision by decision, including
  RNG stream identity.
* ``wire`` — the :mod:`repro.rns.wire` codec vs in-memory
  :class:`~repro.sim.packet.KarHeader` semantics: round trips, the
  encode/decode inverse pair on arbitrary bytes, truncation at every
  offset, and TTL decrement points against the core switch's expiry
  rule.
* ``walk`` — the event simulator's per-packet delivery/loop verdicts
  vs the pure-graph walk model
  (:func:`repro.analysis.walk.deterministic_route_walk`), for the
  controller's real route, a fuzzed route ID that wanders, and the
  stateful failover baselines (``ff``/``arb`` from
  :mod:`repro.baselines`, walked by
  :func:`~repro.analysis.walk.deterministic_strategy_walk` with the
  very strategy tables the simulator runs).
* ``encoder`` — the amortized control-plane encoders
  (:class:`~repro.rns.pool.PoolContext` /
  :class:`~repro.rns.pool.PooledEncoder` /
  :class:`~repro.rns.pool.ReencodeDelta`) vs the reference
  :func:`~repro.rns.crt.crt` solver on the case's switch-ID pool:
  fuzzed subsets, mutation chains, identity mutations, off-pool
  fallback, and error parity on malformed systems.
* ``vector`` — the vectorized and sharded epoch engines vs the
  reference per-event KarSwitch engine: records, digests, hop traces
  and terminal fates.
* ``backend`` — every pluggable encoding backend
  (:data:`repro.rns.backends.BACKEND_NAMES`) vs the reference
  semantics: encoder contract fuzzing, bit-identical integer datapath
  digests, and XSR's full-sim walk-model equivalence.

Every oracle returns an :class:`OracleResult`; a non-empty
``divergences`` list means the two sides disagreed, and the attached
details say exactly where.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.walk import (
    deterministic_route_walk,
    deterministic_strategy_walk,
)
from repro.baselines import BASELINE_SCHEMES, plan_baseline_strategies
from repro.rns.crt import CrtError, NotCoprimeError, crt
from repro.rns.encoder import Hop, RouteEncoder
from repro.rns.pool import PoolContext, PooledEncoder, ReencodeDelta
from repro.rns.wire import (
    WireError,
    decode_header,
    encode_header,
    header_wire_size,
)
from repro.runner import KarSimulation
from repro.sim.packet import KarHeader, Packet
from repro.switches.core import KarSwitch
from repro.switches.deflection import DeflectionStrategy, strategy_by_name
from repro.switches.edge import IngressEntry
from repro.topology.graph import NodeKind
from repro.verify.cases import FuzzCase, build_graph, build_scenario
from repro.verify.pseudocode import PSEUDOCODE

__all__ = [
    "Divergence",
    "OracleResult",
    "ORACLE_NAMES",
    "DecisionAudit",
    "outcome_record",
    "check_datapaths",
    "check_strategy",
    "check_wire",
    "check_walk",
    "check_encoder",
    "check_backend",
    "run_oracle",
    "run_case",
]

#: decision-fuzz trials per case in the strategy oracle.
_STRATEGY_TRIALS = 150

#: random headers per case in the wire oracle.
_WIRE_TRIALS = 80

#: fuzzed subset/mutation trials per case in the encoder oracle.
_ENCODER_TRIALS = 40


@dataclass(frozen=True)
class Divergence:
    """One disagreement between an oracle's two sides."""

    oracle: str
    detail: str

    def to_record(self) -> Dict[str, Any]:
        return {"oracle": self.oracle, "detail": self.detail}


@dataclass
class OracleResult:
    """Outcome of one oracle over one case."""

    oracle: str
    checks: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def check(self, condition: bool, detail: Callable[[], str]) -> bool:
        """Count one comparison; record a divergence when it fails.

        *detail* is lazy so passing traces don't pay for formatting.
        """
        self.checks += 1
        if not condition:
            self.divergences.append(Divergence(self.oracle, detail()))
        return condition

    def to_record(self) -> Dict[str, Any]:
        return {
            "oracle": self.oracle,
            "checks": self.checks,
            "divergences": [d.to_record() for d in self.divergences],
        }


# ---------------------------------------------------------------------------
# (a) every switch decision of a full run vs Algorithm 1
# ---------------------------------------------------------------------------

def _run_case_sim(
    case: FuzzCase,
    scenario,
    deflection,
    ttl: int,
    backend: Optional[str] = None,
    audit: Optional[OracleResult] = None,
) -> Tuple[KarSimulation, Any, Any]:
    ks = KarSimulation(
        scenario, deflection=deflection, protection="none",
        seed=case.seed, ttl=ttl, trace_paths=True, backend=backend,
    )
    decisions = DecisionAudit(ks, audit) if audit is not None else None
    src, sink = ks.add_udp_probe(
        rate_pps=case.rate_pps, duration_s=case.traffic_s
    )
    src.start(at=0.02)
    for a, b, at, repair in case.failures:
        ks.schedule_failure(a, b, at=at, repair_at=repair)
    ks.run(until=case.traffic_s + 1.5)
    if decisions is not None:
        decisions.finish()
    return ks, src, sink


def outcome_record(ks: KarSimulation, src, sink) -> Dict[str, Any]:
    """The full digestable outcome of one run — the bit-identical
    contract: counters, drop reasons, event order, RNG positions."""
    switches = {}
    rng_fp = hashlib.sha256()
    for info in sorted(ks.scenario.graph.nodes(NodeKind.CORE),
                       key=lambda i: i.name):
        sw = ks.network.node(info.name)
        assert isinstance(sw, KarSwitch)
        switches[info.name] = (sw.forwarded, sw.deflections, sw.drops)
        rng_fp.update(repr(sw._rng.getstate()).encode("utf-8"))
    return {
        "sent": src.sent,
        "received": sink.received,
        "events": ks.sim.events_processed,
        "drop_reasons": dict(sorted(ks.tracer.drop_reasons.items())),
        "switches": switches,
        "rng_fingerprint": rng_fp.hexdigest()[:16],
    }


class DecisionAudit:
    """Checks every strategy call a run's KAR switches make, as they
    make it, against the paper's pseudocode
    (:mod:`repro.verify.pseudocode`).

    Built after the simulation and before it runs, it wraps each
    switch's bound strategy call.  Per decision, the pseudocode gets
    the big-int ``route_id % switch_id``, the healthy ports read from
    the attached links (not the switch's cached tuple), the packet's
    deflected flag before the hop and a clone of the switch's RNG; the
    switch's residue, port, deflected flag and RNG state afterwards
    must all match.  No-usable-port drops are decisions too.  Covers
    the default integer datapath (no encoding-backend ``decode``) and
    the four paper strategies.  The run's outcome is unchanged: the
    switch still draws from its own RNG.
    """

    def __init__(self, ks: KarSimulation, result: OracleResult):
        self.ks = ks
        self.result = result
        self.decisions = 0
        for sw in self._switches():
            spec = PSEUDOCODE[sw.strategy.name]
            sw._select_port = self._wrap(sw, spec, sw._select_port)

    def _switches(self) -> List[KarSwitch]:
        return [
            node for node in self.ks.network.nodes.values()
            if isinstance(node, KarSwitch)
        ]

    def _wrap(self, sw: KarSwitch, spec, select):
        result = self.result
        sid = sw.switch_id
        num_ports = sw.num_ports

        def select_port(switch, packet, in_port, computed, rng):
            kar = packet.kar
            residue = kar.route_id % sid
            up = frozenset(
                p for p in range(num_ports)
                if (link := sw.link_on(p)) is not None and link.up
            )
            was_deflected = kar.deflected
            twin = random.Random(0)
            twin.setstate(rng.getstate())
            want = spec(num_ports, up, in_port, residue, was_deflected, twin)
            got = select(switch, packet, in_port, computed, rng)
            self.decisions += 1

            def where() -> str:
                return (
                    f"{sw.name} t={sw.sim.now:.6f} in={in_port} "
                    f"up={sorted(up)} R%{sid}={residue} "
                    f"deflected={was_deflected}"
                )

            result.check(
                computed == residue,
                lambda: f"{where()}: switch computed port {computed}",
            )
            result.check(
                got[0] == want[0],
                lambda: f"{where()}: switch port {got[0]}, paper {want[0]}",
            )
            result.check(
                got[1] == want[1],
                lambda: (
                    f"{where()}: switch deflected={got[1]}, paper {want[1]}"
                ),
            )
            result.check(
                rng.getstate() == twin.getstate(),
                lambda: (
                    f"{where()}: switch consumed a different RNG stream "
                    f"than the pseudocode"
                ),
            )
            return got

        return select_port

    def finish(self) -> OracleResult:
        """Check that every forward and no-usable-port drop of the run
        went through the audit; returns the result."""
        made = sum(sw.forwarded for sw in self._switches()) + sum(
            n for reason, n in self.ks.tracer.drop_reasons.items()
            if reason.startswith("no-usable-port")
        )
        self.result.check(
            made == self.decisions,
            lambda: (
                f"switches made {made} decisions, the audit saw "
                f"{self.decisions}"
            ),
        )
        return self.result


def check_datapaths(
    case: FuzzCase,
    strategy: Optional[DeflectionStrategy] = None,
) -> OracleResult:
    """Every switch decision of the full case vs Algorithm 1 (oracle a).

    *strategy* overrides the case's strategy instance, as in
    :func:`check_strategy`.
    """
    result = OracleResult("datapath")
    _run_case_sim(
        case, build_scenario(case),
        strategy if strategy is not None else case.strategy,
        case.ttl, audit=result,
    )
    return result


# ---------------------------------------------------------------------------
# (b) strategy implementations vs paper pseudocode
# ---------------------------------------------------------------------------

class _FuzzPortView:
    """A bare PortView: N ports, a subset of them healthy."""

    __slots__ = ("num_ports", "_up")

    def __init__(self, num_ports: int, up: Sequence[int]):
        self.num_ports = num_ports
        self._up = frozenset(up)

    def port_up(self, port: int) -> bool:
        return port in self._up

    def healthy_ports(self) -> Tuple[int, ...]:
        return tuple(p for p in range(self.num_ports) if p in self._up)


def check_strategy(
    case: FuzzCase,
    strategy: Optional[DeflectionStrategy] = None,
) -> OracleResult:
    """Implementation vs pseudocode, decision by decision (oracle b).

    *strategy* overrides the case's strategy instance — the hook the
    harness's self-test uses to prove a mutated strategy is caught.
    """
    result = OracleResult("strategy")
    impl = strategy if strategy is not None else strategy_by_name(case.strategy)
    spec = PSEUDOCODE[case.strategy]
    rng = random.Random(f"verify-strategy-{case.seed}")
    for trial in range(_STRATEGY_TRIALS):
        num_ports = rng.randrange(2, 9)
        up = frozenset(
            p for p in range(num_ports) if rng.random() < 0.75
        )
        in_port = rng.randrange(num_ports)
        # R mod s ranges over the switch ID, which exceeds the degree,
        # so out-of-range computed ports are legal inputs.
        computed = rng.randrange(num_ports + 3)
        already_deflected = rng.random() < 0.5
        draw_seed = rng.getrandbits(32)

        view = _FuzzPortView(num_ports, up)
        packet = Packet(
            src_host="H-SRC", dst_host="H-DST", size_bytes=100,
            kar=KarHeader(route_id=1, deflected=already_deflected, ttl=32),
        )
        state = (
            f"ports={num_ports} up={sorted(up)} in={in_port} "
            f"computed={computed} deflected={already_deflected} "
            f"draw_seed={draw_seed}"
        )

        rng_spec = random.Random(draw_seed)
        want = spec(
            num_ports, up, in_port, computed, already_deflected, rng_spec
        )

        rng_impl = random.Random(draw_seed)
        got = impl.select_port(view, packet, in_port, computed, rng_impl)
        result.check(
            got == want,
            lambda s=state, g=got, w=want: (
                f"select_port disagrees with pseudocode at {s}: "
                f"impl={g} paper={w}"
            ),
        )
        result.check(
            rng_impl.getstate() == rng_spec.getstate(),
            lambda s=state: (
                f"select_port consumed a different RNG stream than the "
                f"pseudocode at {s}"
            ),
        )
    return result


# ---------------------------------------------------------------------------
# (c) wire codec vs in-memory header semantics
# ---------------------------------------------------------------------------

def _random_header(rng: random.Random) -> KarHeader:
    bits = rng.randrange(0, 80)
    route_id = rng.getrandbits(bits) if bits else 0
    ttl = rng.choice((0, 1, 255, rng.randrange(256)))
    modulus = 0
    if rng.random() < 0.5:
        modulus = route_id + 2 + rng.randrange(1000)
    return KarHeader(
        route_id=route_id, modulus=modulus,
        deflected=rng.random() < 0.5, ttl=ttl,
    )


def check_wire(case: FuzzCase) -> OracleResult:
    """Wire codec vs in-memory KarHeader semantics (oracle c)."""
    result = OracleResult("wire")
    rng = random.Random(f"verify-wire-{case.seed}")
    for trial in range(_WIRE_TRIALS):
        header = _random_header(rng)
        label = (
            f"rid={header.route_id} mod={header.modulus} "
            f"ttl={header.ttl} deflected={header.deflected}"
        )
        data = encode_header(header)

        # Round trip: every wire-carried field survives, trailing bytes
        # are untouched, and re-encoding is byte-identical.
        decoded, consumed = decode_header(data + b"payload")
        result.check(
            consumed == len(data)
            and decoded.route_id == header.route_id
            and decoded.ttl == header.ttl
            and decoded.deflected == header.deflected
            and decoded.modulus == 0,
            lambda l=label, d=decoded: (
                f"decode(encode(h)) mangled {l}: got rid={d.route_id} "
                f"ttl={d.ttl} deflected={d.deflected} mod={d.modulus}"
            ),
        )
        result.check(
            encode_header(decoded) == data,
            lambda l=label: f"encode(decode(encode(h))) != encode(h) for {l}",
        )
        if header.modulus >= 2:
            result.check(
                len(data) <= header_wire_size(header.modulus),
                lambda l=label, n=len(data): (
                    f"encoding of {l} is {n} bytes, above the "
                    f"header_wire_size worst case"
                ),
            )

        # Truncation at every byte offset must be detected, never
        # misparsed as a shorter valid header.
        truncation_ok = True
        for cut in range(len(data)):
            try:
                decode_header(data[:cut])
                truncation_ok = False
                break
            except WireError:
                pass
        result.check(
            truncation_ok,
            lambda l=label, c=cut: (
                f"decode accepted a {c}-byte truncation of {l}"
            ),
        )

        # TTL decrement points: walk the header through hops twice — as
        # wire bytes and as the in-memory header — applying the core
        # switch's arrival rule (drop when ttl <= 0, else decrement) to
        # both, and require them to agree at every point.
        mem = KarHeader(
            route_id=header.route_id, deflected=header.deflected,
            ttl=header.ttl,
        )
        wire = encode_header(mem)
        ttl_ok = True
        for hop in range(min(header.ttl + 2, 12)):
            dec, _ = decode_header(wire)
            if dec.ttl != mem.ttl or (dec.ttl <= 0) != (mem.ttl <= 0):
                ttl_ok = False
                break
            if mem.ttl <= 0:
                break
            mem.ttl -= 1
            dec.ttl -= 1
            wire = encode_header(dec)
            if encode_header(mem) != wire:
                ttl_ok = False
                break
        result.check(
            ttl_ok,
            lambda l=label, h=hop: (
                f"wire/in-memory TTL semantics diverge at hop {h} for {l}"
            ),
        )

        # Inverse pair on arbitrary bytes: decode either rejects a
        # mutated blob or parses it into a header whose canonical
        # encoding is exactly the bytes consumed.
        blob = bytearray(data)
        blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
        blob = bytes(blob)
        try:
            parsed, used = decode_header(blob)
        except WireError:
            result.check(True, lambda: "")
        else:
            result.check(
                encode_header(parsed) == blob[:used],
                lambda l=label, b=blob.hex(): (
                    f"decode accepted mutated bytes {b} (from {l}) that "
                    f"do not re-encode to themselves"
                ),
            )
    return result


# ---------------------------------------------------------------------------
# (d) event simulator vs pure-graph walk model
# ---------------------------------------------------------------------------

def _fuzz_route_id(case: FuzzCase, graph) -> int:
    """A CRT-crafted wandering route ID.

    A uniformly random integer is a boring fuzz route: ``R mod s``
    lands outside the degree at the very first switch almost always
    (IDs are >= 23, degrees are small), so every packet dies on hop
    one.  Instead, solve the CRT system over the real switch IDs with
    per-switch residues drawn *mostly* in port range — the packet then
    genuinely wanders: misdeliveries, re-encodes, TTL expiry, and the
    occasional out-of-range drop all get exercised.
    """
    from repro.rns.crt import crt

    rng = random.Random(f"verify-walk-{case.seed}")
    moduli = []
    residues = []
    for info in sorted(graph.nodes(NodeKind.CORE), key=lambda i: i.name):
        moduli.append(info.switch_id)
        if rng.random() < 0.9:
            residues.append(rng.randrange(graph.degree(info.name)))
        else:
            residues.append(rng.randrange(info.switch_id))
    route_id, _ = crt(residues, moduli)
    return route_id


def check_walk(case: FuzzCase) -> OracleResult:
    """Simulator verdicts vs the graph walk model (oracle d).

    Runs the case with the failures applied *statically* before
    traffic (the walk model has no clock), in four flavours: the
    controller's real route and a fuzzed route ID that makes the
    packet wander through misdelivery re-encodes (both under
    no-deflection forwarding, diffed against
    :func:`~repro.analysis.walk.deterministic_route_walk`), plus the
    two stateful failover baselines ``ff`` and ``arb`` (per-switch
    strategy tables installed through ``strategy_factory``, diffed
    against :func:`~repro.analysis.walk.deterministic_strategy_walk`
    over the *same* tables).  Every packet's hop-by-hop trace —
    deflection flags included — and final verdict must match the
    model's prediction.
    """
    result = OracleResult("walk")
    scenario = build_scenario(case)
    graph = scenario.graph
    ingress_edge = graph.edge_of_host(scenario.src_host)
    dst_edge = graph.edge_of_host(scenario.dst_host)
    down = tuple({tuple(sorted((a, b))) for a, b, _, _ in case.failures})
    for flavour in ("routed", "fuzzed") + BASELINE_SCHEMES:
        strategies = (
            plan_baseline_strategies(
                flavour, graph, scenario.primary_route, dst_edge
            )
            if flavour in BASELINE_SCHEMES
            else None
        )
        ks = KarSimulation(
            scenario, deflection="none", protection="none",
            seed=case.seed, ttl=case.ttl, trace_paths=True,
            strategy_factory=(
                strategies.__getitem__ if strategies is not None else None
            ),
        )
        edge = ks.network.node(ingress_edge)
        entry = edge.ingress_entry(scenario.dst_host)
        assert entry is not None
        if flavour == "fuzzed":
            entry = IngressEntry(
                route_id=_fuzz_route_id(case, graph), modulus=0,
                out_port=entry.out_port, ttl=case.ttl, residues=None,
            )
            edge.install_ingress(scenario.dst_host, entry)
        for a, b in down:
            ks.network.link_between(a, b).set_up(False)
        src, sink = ks.add_udp_probe(
            rate_pps=case.rate_pps, duration_s=case.traffic_s
        )
        src.start(at=0.01)
        ks.run(until=case.traffic_s + 2.0)

        def reencode(edge_name: str, dst: str):
            fresh = ks.controller.reencode(edge_name, dst)
            return None if fresh is None else (fresh.route_id, fresh.out_port)

        if strategies is not None:
            verdict = deterministic_strategy_walk(
                graph, strategies, entry.route_id, entry.ttl,
                ingress_edge, entry.out_port, scenario.dst_host,
                down_links=down, reencode=reencode,
            )
        else:
            verdict = deterministic_route_walk(
                graph, entry.route_id, entry.ttl, ingress_edge,
                entry.out_port, scenario.dst_host,
                down_links=down, reencode=reencode,
            )
        expected_hops = [
            (h.node, h.in_port, h.out_port, h.deflected)
            for h in verdict.hops
        ]

        tracer = ks.tracer
        drops_by_uid = {d.packet_uid: d for d in tracer.drops}
        uids = sorted(
            set(tracer._paths) | set(drops_by_uid) | set(tracer.deliveries)
        )
        result.check(
            len(uids) == src.sent,
            lambda f=flavour, n=len(uids), s=src.sent: (
                f"[{f}] {s} packets sent but {n} accounted for in traces"
            ),
        )
        for uid in uids:
            got_hops = [
                (h.node, h.in_port, h.out_port, h.deflected)
                for h in tracer._paths.get(uid, [])
            ]
            result.check(
                got_hops == expected_hops,
                lambda f=flavour, u=uid, g=got_hops: (
                    f"[{f}] packet #{u} hop trace differs from the walk "
                    f"model: sim={g!r} model={expected_hops!r}"
                ),
            )
            if uid in tracer.deliveries:
                _, host = tracer.deliveries[uid]
                result.check(
                    verdict.delivered and host == verdict.node,
                    lambda f=flavour, u=uid, h=host: (
                        f"[{f}] packet #{u} delivered to {h} but the walk "
                        f"model predicted "
                        f"{verdict.outcome}({verdict.node}, {verdict.reason})"
                    ),
                )
            else:
                drop = drops_by_uid.get(uid)
                result.check(
                    drop is not None
                    and not verdict.delivered
                    and (drop.node, drop.reason)
                    == (verdict.node, verdict.reason),
                    lambda f=flavour, u=uid, d=drop: (
                        f"[{f}] packet #{u} sim fate "
                        f"{(d.node, d.reason) if d else 'lost'} differs "
                        f"from walk model "
                        f"{verdict.outcome}({verdict.node}, "
                        f"{verdict.reason})"
                    ),
                )
    return result


# ---------------------------------------------------------------------------
# (e) pooled/incremental encoders vs the reference crt() solver
# ---------------------------------------------------------------------------

def _off_pool_id(subset_ids: Sequence[int], pool: PoolContext) -> int:
    """A modulus outside the pool yet coprime with *subset_ids*."""
    product = 1
    for s in subset_ids:
        product *= s
    candidate = 2
    while candidate in pool or math.gcd(candidate, product) != 1:
        candidate += 1
    return candidate


def check_encoder(case: FuzzCase) -> OracleResult:
    """Pooled/incremental encoders vs the reference solver (oracle e).

    Builds a :class:`~repro.rns.pool.PoolContext` over the case's real
    switch-ID pool and fuzzes random subsets through every amortized
    path — :meth:`PoolContext.encode`, :class:`PooledEncoder`,
    :class:`ReencodeDelta` single mutations, multi-hop mutation chains,
    identity mutations, and the off-pool fallback — requiring each
    result to be bit-identical to a fresh :func:`~repro.rns.crt.crt`
    solve / :class:`~repro.rns.encoder.RouteEncoder` encode of the same
    residue system.  Malformed systems (duplicate moduli, out-of-range
    residues) must fail with the same exception the reference raises.
    """
    result = OracleResult("encoder")
    graph = build_graph(case)
    # from_graph re-runs the pairwise-coprime check by default — that
    # one-time validation is part of what this oracle exercises.
    pool = PoolContext.from_graph(graph)
    reference = RouteEncoder()
    pooled = PooledEncoder(pool)
    delta = ReencodeDelta(pool)
    rng = random.Random(f"verify-encoder-{case.seed}")
    off_pool_encodes = 0

    for trial in range(_ENCODER_TRIALS):
        k = rng.randrange(1, min(len(pool), 8) + 1)
        ids = rng.sample(pool.pool, k)
        ports = [rng.randrange(s) for s in ids]
        label = f"trial {trial}: system {list(zip(ports, ids))}"

        # Raw Eq. 4 pair: pooled dot product vs full reference solve.
        want_pair = crt(ports, ids)
        got_pair = pool.encode(ports, ids)
        result.check(
            got_pair == want_pair,
            lambda l=label, g=got_pair, w=want_pair: (
                f"PoolContext.encode differs from crt() at {l}: "
                f"pooled={g} reference={w}"
            ),
        )

        # Full route objects: PooledEncoder vs RouteEncoder.
        hops = [Hop(s, p) for s, p in zip(ids, ports)]
        route = pooled.encode(hops)
        ref_route = reference.encode(hops)
        result.check(
            route == ref_route
            and route.residue_map() == ref_route.residue_map(),
            lambda l=label, g=route, w=ref_route: (
                f"PooledEncoder differs from RouteEncoder at {l}: "
                f"pooled={g!r} reference={w!r}"
            ),
        )

        # A mutation chain (possibly including identity steps) applied
        # incrementally must land exactly where a fresh solve of the
        # final residue system lands, at every step of the chain.
        residues = dict(route.residue_map())
        current = route
        for step in range(rng.randrange(1, 5)):
            sid = rng.choice(ids)
            new_port = rng.randrange(sid)
            chain_label = (
                f"{label} chain step {step}: switch {sid} -> port {new_port}"
            )
            if residues[sid] == new_port:
                result.check(
                    delta.apply(current, sid, new_port) is current,
                    lambda l=chain_label: (
                        f"identity mutation was not a same-object no-op "
                        f"at {l}"
                    ),
                )
            residues[sid] = new_port
            want_id, want_mod = crt(
                [residues[s] for s in ids], ids, assume_coprime=True
            )
            got_id = delta.apply_id(current, sid, new_port)
            current = delta.apply(current, sid, new_port)
            result.check(
                got_id == want_id
                and (current.route_id, current.modulus)
                == (want_id, want_mod)
                and current.residue_map() == residues,
                lambda l=chain_label, g=current, i=got_id, w=want_id: (
                    f"incremental re-encode differs from fresh solve at "
                    f"{l}: apply_id={i} apply={g!r} reference_id={w}"
                ),
            )

        # Off-pool switch IDs must take the reference fallback and still
        # produce the reference answer.
        extra = _off_pool_id(ids, pool)
        fallback_hops = hops + [Hop(extra, rng.randrange(extra))]
        off_pool_encodes += 1
        result.check(
            pooled.encode(fallback_hops) == reference.encode(fallback_hops),
            lambda l=label, e=extra: (
                f"off-pool fallback (extra switch {e}) differs from "
                f"RouteEncoder at {l}"
            ),
        )

    # Error parity on malformed systems: same exception type, same
    # message as the reference solver.
    dup = rng.choice(pool.pool)
    dup_system = ([0, 0], [dup, dup])
    errors = []
    for solver in (crt, pool.encode):
        try:
            solver(*dup_system)
            errors.append(None)
        except NotCoprimeError as exc:
            errors.append((type(exc).__name__, str(exc)))
    result.check(
        errors[0] is not None and errors[0] == errors[1],
        lambda e=tuple(errors): (
            f"duplicate-modulus error parity broken: crt={e[0]} pool={e[1]}"
        ),
    )
    bad = rng.choice(pool.pool)
    bad_system = ([bad], [bad])  # residue == modulus: out of range
    errors = []
    for solver in (crt, pool.encode):
        try:
            solver(*bad_system)
            errors.append(None)
        except CrtError as exc:
            errors.append((type(exc).__name__, str(exc)))
    result.check(
        errors[0] is not None and errors[0] == errors[1],
        lambda e=tuple(errors): (
            f"out-of-range error parity broken: crt={e[0]} pool={e[1]}"
        ),
    )

    # The amortized paths must actually have been the paths under test.
    result.check(
        pooled.fallback_encodes == off_pool_encodes,
        lambda p=pooled, n=off_pool_encodes: (
            f"fallback count {p.fallback_encodes} != expected {n}: "
            f"pool-covered encodes leaked onto the reference path"
        ),
    )
    result.check(
        delta.full_solves == 0,
        lambda d=delta: (
            f"{d.full_solves} incremental updates fell back to a full "
            f"solve on pool-covered routes"
        ),
    )
    return result


# ---------------------------------------------------------------------------
# (g) pluggable encoding backends vs the reference datapath / walk model
# ---------------------------------------------------------------------------

def check_backend(case: FuzzCase) -> OracleResult:
    """Encoding backends vs the reference semantics (oracle g).

    Three layers, every backend in :data:`~repro.rns.backends.BACKEND_NAMES`:

    * **encoder contract** — fuzzed hop systems over a pool the backend
      accepts: ``decode(encode(hops))`` recovers every port,
      ``with_hop`` chains land exactly where a fresh encode lands,
      ``without_switch`` inverts them, and the advertised
      ``header_bits`` matches the route's own ``bit_length``.  Integer
      backends must be *bit-identical* to the reference
      :class:`~repro.rns.encoder.RouteEncoder`.
    * **integer datapath digests** — full case runs under ``crt`` and
      ``pooled`` must reproduce the default datapath's outcome record
      and hop-by-hop traces byte for byte (these backends change how
      the controller computes, never what the network does).
    * **XSR walk equivalence** — a full case run under ``xsr`` (the
      runner transparently re-IDs the graph onto the dual-coprime
      pool), diffed packet-by-packet against
      :func:`~repro.analysis.walk.deterministic_route_walk` driven by
      the backend's own ``port_at`` — the same differential contract
      the ``walk`` oracle pins on the integer datapath.
    """
    from repro.rns.backends import BACKEND_NAMES, backend_by_name
    from repro.rns.gf2 import dual_coprime_pool

    result = OracleResult("backend")
    scenario = build_scenario(case)
    reference = RouteEncoder()
    rng = random.Random(f"verify-backend-{case.seed}")
    graph_ids = sorted(scenario.graph.switch_ids().values())

    for name in BACKEND_NAMES:
        backend = backend_by_name(name)
        try:
            backend.validate_switch_ids(graph_ids)
            ids_pool = list(graph_ids)
        except (ValueError, CrtError):
            # the graph's integer pool is infeasible for this backend
            # (XSR on non-GF(2)-coprime IDs) — fuzz on its native pool.
            ids_pool = dual_coprime_pool(max(len(graph_ids), 6))
        backend.prepare(ids_pool)
        for trial in range(_ENCODER_TRIALS):
            k = rng.randrange(2, min(len(ids_pool), 8) + 1)
            ids = rng.sample(ids_pool, k)
            ports = [rng.randrange(backend.residue_space(s)) for s in ids]
            hops = [Hop(s, p) for s, p in zip(ids, ports)]
            label = f"[{name}] trial {trial}: system {list(zip(ports, ids))}"

            route = backend.encode(hops)
            result.check(
                backend.decode(route.route_id, ids) == ports
                and [route.port_at(s) for s in ids] == ports,
                lambda l=label, r=route: (
                    f"decode(encode(hops)) does not recover the ports at "
                    f"{l}: route={r!r}"
                ),
            )
            result.check(
                backend.header_bits(route.modulus) == route.bit_length,
                lambda l=label, r=route: (
                    f"header_bits({r.modulus}) disagrees with the route's "
                    f"bit_length {r.bit_length} at {l}"
                ),
            )
            if name != "xsr":
                ref_route = reference.encode(hops)
                result.check(
                    route == ref_route
                    and route.residue_map() == ref_route.residue_map(),
                    lambda l=label, g=route, w=ref_route: (
                        f"integer backend differs from RouteEncoder at "
                        f"{l}: backend={g!r} reference={w!r}"
                    ),
                )

            # Incremental with_hop must land where a fresh encode lands;
            # without_switch must invert it.
            enc = backend.encoder()
            grown = enc.encode(hops[:-1])
            grown = enc.with_hop(grown, hops[-1])
            result.check(
                (grown.route_id, grown.modulus)
                == (route.route_id, route.modulus),
                lambda l=label, g=grown, w=route: (
                    f"with_hop chain differs from fresh encode at {l}: "
                    f"chain={g!r} fresh={w!r}"
                ),
            )
            shrunk = enc.without_switch(grown, ids[-1])
            want_shrunk = enc.encode(hops[:-1])
            result.check(
                (shrunk.route_id, shrunk.modulus)
                == (want_shrunk.route_id, want_shrunk.modulus),
                lambda l=label, g=shrunk, w=want_shrunk: (
                    f"without_switch does not invert with_hop at {l}: "
                    f"got={g!r} want={w!r}"
                ),
            )

    # Integer backends: the full case run must be bit-identical to the
    # default datapath (decode hook None, same controller numbers).
    ks_ref, src, sink = _run_case_sim(case, scenario, case.strategy, case.ttl)
    ref = outcome_record(ks_ref, src, sink)
    ref_paths = ks_ref.tracer._paths
    for name in ("crt", "pooled"):
        ks_b, src, sink = _run_case_sim(
            case, scenario, case.strategy, case.ttl, backend=name
        )
        got = outcome_record(ks_b, src, sink)
        for key in ref:
            result.check(
                got[key] == ref[key],
                lambda key=key, name=name, got=got: (
                    f"[{name}] outcome[{key}] differs from the default "
                    f"datapath: default={ref[key]!r} {name}={got[key]!r}"
                ),
            )
        # Packet uids come from a process-global counter — traces pair
        # up in uid order.
        got_paths = ks_b.tracer._paths
        result.check(
            [got_paths[u] for u in sorted(got_paths)]
            == [ref_paths[u] for u in sorted(ref_paths)],
            lambda name=name: (
                f"[{name}] hop traces differ from the default datapath"
            ),
        )

    # XSR: run the case statically (the walk model has no clock) and
    # diff the simulator against the pure-graph walk driven by the
    # backend's own port_at.
    xsr = backend_by_name("xsr")
    down = tuple({tuple(sorted((a, b))) for a, b, _, _ in case.failures})
    ks = KarSimulation(
        scenario, deflection="none", protection="none",
        seed=case.seed, ttl=case.ttl, trace_paths=True, backend=xsr,
    )
    graph = ks.scenario.graph  # possibly the re-IDed deep copy
    ingress_edge = graph.edge_of_host(ks.scenario.src_host)
    edge = ks.network.node(ingress_edge)
    entry = edge.ingress_entry(ks.scenario.dst_host)
    assert entry is not None
    for a, b in down:
        ks.network.link_between(a, b).set_up(False)
    src, sink = ks.add_udp_probe(
        rate_pps=case.rate_pps, duration_s=case.traffic_s
    )
    src.start(at=0.01)
    ks.run(until=case.traffic_s + 2.0)

    def reencode(edge_name: str, dst: str):
        fresh = ks.controller.reencode(edge_name, dst)
        return None if fresh is None else (fresh.route_id, fresh.out_port)

    verdict = deterministic_route_walk(
        graph, entry.route_id, entry.ttl, ingress_edge,
        entry.out_port, ks.scenario.dst_host,
        down_links=down, reencode=reencode, port_at=xsr.port_at,
    )
    expected_hops = [
        (h.node, h.in_port, h.out_port, h.deflected) for h in verdict.hops
    ]
    tracer = ks.tracer
    drops_by_uid = {d.packet_uid: d for d in tracer.drops}
    uids = sorted(
        set(tracer._paths) | set(drops_by_uid) | set(tracer.deliveries)
    )
    result.check(
        len(uids) == src.sent,
        lambda n=len(uids), s=src.sent: (
            f"[xsr] {s} packets sent but {n} accounted for in traces"
        ),
    )
    for uid in uids:
        got_hops = [
            (h.node, h.in_port, h.out_port, h.deflected)
            for h in tracer._paths.get(uid, [])
        ]
        result.check(
            got_hops == expected_hops,
            lambda u=uid, g=got_hops: (
                f"[xsr] packet #{u} hop trace differs from the walk "
                f"model: sim={g!r} model={expected_hops!r}"
            ),
        )
        if uid in tracer.deliveries:
            _, host = tracer.deliveries[uid]
            result.check(
                verdict.delivered and host == verdict.node,
                lambda u=uid, h=host: (
                    f"[xsr] packet #{u} delivered to {h} but the walk "
                    f"model predicted "
                    f"{verdict.outcome}({verdict.node}, {verdict.reason})"
                ),
            )
        else:
            drop = drops_by_uid.get(uid)
            result.check(
                drop is not None
                and not verdict.delivered
                and (drop.node, drop.reason) == (verdict.node, verdict.reason),
                lambda u=uid, d=drop: (
                    f"[xsr] packet #{u} sim fate "
                    f"{(d.node, d.reason) if d else 'lost'} differs from "
                    f"walk model {verdict.outcome}({verdict.node}, "
                    f"{verdict.reason})"
                ),
            )
    return result


# ---------------------------------------------------------------------------
# (f) epoch datapath: reference KarSwitch engine vs vector vs sharded
# ---------------------------------------------------------------------------

def vector_workload_spec(case: FuzzCase) -> Dict[str, Any]:
    """Map a fuzz case onto an epoch-model workload spec.

    Topology parameters carry over verbatim (the epoch builder runs the
    same seeded generator, so the core graph is identical); the
    continuous-time failure schedule quantizes onto epochs
    deterministically.
    """
    extra_flips: List[Tuple[int, str, str]] = []
    for i, (a, b, _at, repair) in enumerate(case.failures):
        fail_epoch = 1 + (i % 3)
        extra_flips.append((fail_epoch, a, b))
        if repair is not None:
            extra_flips.append((fail_epoch + 3, a, b))
    return {
        "kind": "synthetic",
        "num_switches": case.num_switches,
        "extra_links": case.extra_links,
        "min_switch_id": case.min_switch_id,
        "id_strategy": case.id_strategy,
        "seed": case.seed,
        "strategy": case.strategy,
        "flows": min(4, max(2, case.num_switches // 3)),
        "ttl": min(case.ttl, 48),
        "inject_per_epoch": 2,
        "inject_epochs": 4,
        "link_failures": 0,
        "fail_epoch": 0,
        "repair_epoch": None,
        "extra_flips": [list(f) for f in extra_flips],
    }


def check_vector(case: FuzzCase) -> OracleResult:
    """Vector and sharded epoch engines vs the reference engine.

    Compared decision by decision: full outcome records (counters, drop
    reasons, RNG fingerprints), record digests, per-packet hop traces
    (port and deflected flag at every hop) and terminal fates must all
    match the untouched-KarSwitch reference run.
    """
    from repro.sim.shard import run_epoch_sharded
    from repro.sim.vector import (
        build_workload,
        run_epoch_reference,
        run_epoch_vector,
    )

    result = OracleResult("vector")
    workload = build_workload(vector_workload_spec(case))
    ref = run_epoch_reference(workload, trace=True)
    shards = min(2, len(workload.topo.core_indices))
    contenders = [
        ("vector", run_epoch_vector(workload, trace=True)),
        ("sharded", run_epoch_sharded(workload, shards=shards, trace=True)),
    ]
    for engine, out in contenders:
        for key in ref.record:
            result.check(
                out.record[key] == ref.record[key],
                lambda key=key, engine=engine, out=out: (
                    f"{engine}: record[{key}] differs: "
                    f"reference={ref.record[key]!r} {engine}={out.record[key]!r}"
                ),
            )
        result.check(
            out.digest == ref.digest,
            lambda engine=engine, out=out: (
                f"{engine}: digest differs: reference={ref.digest} "
                f"{engine}={out.digest}"
            ),
        )
        ref_traces = ref.traces or {}
        out_traces = out.traces or {}
        if result.check(
            sorted(out_traces) == sorted(ref_traces),
            lambda engine=engine, out_traces=out_traces: (
                f"{engine}: traced uid sets differ: "
                f"reference={len(ref_traces)} {engine}={len(out_traces)}"
            ),
        ):
            for uid in sorted(ref_traces):
                result.check(
                    out_traces[uid] == ref_traces[uid],
                    lambda uid=uid, engine=engine, out_traces=out_traces: (
                        f"{engine}: hop trace differs for uid {uid}: "
                        f"reference={ref_traces[uid]!r} "
                        f"{engine}={out_traces[uid]!r}"
                    ),
                )
        result.check(
            (out.fates or {}) == (ref.fates or {}),
            lambda engine=engine, out=out: (
                f"{engine}: terminal fates differ "
                f"(reference={len(ref.fates or {})} fates, "
                f"{engine}={len(out.fates or {})})"
            ),
        )
    return result


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_ORACLES: Dict[str, Callable[..., OracleResult]] = {
    "datapath": check_datapaths,
    "strategy": check_strategy,
    "wire": check_wire,
    "walk": check_walk,
    "encoder": check_encoder,
    "vector": check_vector,
    "backend": check_backend,
}

#: All oracle names, in stable order.
ORACLE_NAMES: Tuple[str, ...] = tuple(sorted(_ORACLES))


def run_oracle(
    name: str,
    case: FuzzCase,
    strategy: Optional[DeflectionStrategy] = None,
) -> OracleResult:
    """Run one oracle over one case.

    *strategy* (strategy oracle only) substitutes the implementation
    under test — used by the harness self-test to inject mutations.
    """
    try:
        fn = _ORACLES[name]
    except KeyError:
        raise ValueError(
            f"unknown oracle {name!r}; choose from {ORACLE_NAMES}"
        ) from None
    if name == "strategy":
        return fn(case, strategy=strategy)
    return fn(case)


def run_case(
    case: FuzzCase,
    oracles: Optional[Sequence[str]] = None,
) -> Dict[str, OracleResult]:
    """Run a case through the selected (default: all) oracles."""
    names = tuple(oracles) if oracles else ORACLE_NAMES
    return {name: run_oracle(name, case) for name in names}
