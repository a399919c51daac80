"""Random-walk analysis of deflected packets.

Three exact (non-simulated) models:

* :func:`hot_potato_hitting_time` — a Hot-Potato packet performs a
  uniform random walk on the core graph; the expected number of hops
  until it first reaches a target set (destination or any encoded
  switch) is the classic absorbing-Markov-chain hitting time, solved
  with one dense linear system (numpy).
* :func:`geometric_retry` — the Fig. 8 redundant-path loop: each visit
  to the decision switch succeeds with probability *p*; failures cost a
  fixed loop detour.  Expected extra hops follow the geometric series
  the paper describes qualitatively ("this protection loop will
  continue until SW109 is probabilistically chosen").
* :func:`deterministic_route_walk` — the no-deflection dataplane as a
  pure graph walk: hop by hop ``R mod s``, TTL bookkeeping, drops, and
  edge misdelivery re-encodes, with no event engine, queues, or clocks
  involved.  The differential verifier (:mod:`repro.verify`) diffs its
  verdicts against the real simulator's packet traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.topology.graph import NodeKind, PortGraph, TopologyError

if TYPE_CHECKING:
    from repro.switches.deflection import DeflectionStrategy

__all__ = [
    "hot_potato_hitting_time",
    "absorption_probability",
    "geometric_retry",
    "GeometricRetryModel",
    "WalkHop",
    "WalkVerdict",
    "deterministic_route_walk",
    "deterministic_strategy_walk",
]


def _core_adjacency(graph: PortGraph) -> Dict[str, List[str]]:
    return {
        n.name: graph.core_subgraph_neighbors(n.name)
        for n in graph.nodes(NodeKind.CORE)
    }


def hot_potato_hitting_time(
    graph: PortGraph,
    start: str,
    targets: Iterable[str],
) -> float:
    """Expected hops for a uniform random walk from *start* to *targets*.

    Models a Hot-Potato-deflected packet: at every core switch it exits
    via a uniformly random port (edges and the input port included in
    the real dataplane; here the walk is over the core subgraph, which
    upper-bounds the core wandering).

    Returns ``inf`` when some probability mass never reaches a target
    (disconnected component).
    """
    adj = _core_adjacency(graph)
    target_set = set(targets)
    for t in target_set:
        if t not in adj:
            raise TopologyError(f"target {t!r} is not a core switch")
    if start in target_set:
        return 0.0
    if start not in adj:
        raise TopologyError(f"start {start!r} is not a core switch")

    transient = [n for n in adj if n not in target_set]
    index = {n: i for i, n in enumerate(transient)}
    n = len(transient)
    # (I - Q) t = 1, where Q is the transient-to-transient transition
    # matrix; t[i] is the expected steps to absorption from state i.
    A = np.eye(n)
    reaches = np.zeros(n, dtype=bool)
    for name in transient:
        i = index[name]
        neighbors = adj[name]
        if not neighbors:
            continue
        p = 1.0 / len(neighbors)
        for nb in neighbors:
            if nb in target_set:
                reaches[i] = True
            else:
                A[i, index[nb]] -= p
    try:
        t = np.linalg.solve(A, np.ones(n))
    except np.linalg.LinAlgError:
        return float("inf")
    value = float(t[index[start]])
    if not np.isfinite(value) or value < 0:
        return float("inf")
    return value


def absorption_probability(
    graph: PortGraph,
    start: str,
    good: Iterable[str],
    bad: Iterable[str],
) -> float:
    """P(walk from *start* hits *good* before *bad*).

    Useful for questions like "what fraction of HP packets reach the
    destination before straying back to the ingress edge?".
    """
    adj = _core_adjacency(graph)
    good_set, bad_set = set(good), set(bad)
    if start in good_set:
        return 1.0
    if start in bad_set:
        return 0.0
    transient = [n for n in adj if n not in good_set | bad_set]
    index = {n: i for i, n in enumerate(transient)}
    n = len(transient)
    A = np.eye(n)
    b = np.zeros(n)
    for name in transient:
        i = index[name]
        neighbors = adj[name]
        if not neighbors:
            continue
        p = 1.0 / len(neighbors)
        for nb in neighbors:
            if nb in good_set:
                b[i] += p
            elif nb in bad_set:
                continue
            else:
                A[i, index[nb]] -= p
    x = np.linalg.solve(A, b)
    return float(x[index[start]])


@dataclass(frozen=True)
class GeometricRetryModel:
    """Closed-form Fig. 8 model.

    Attributes:
        p_success: probability the decision switch picks the delivering
            branch (1/2 at SW73: SW109 vs SW71).
        direct_hops: hops from the decision switch to delivery on the
            success branch.
        loop_hops: hops consumed by one failed attempt (the protection
            loop back to the decision switch).
    """

    p_success: float
    direct_hops: int
    loop_hops: int

    @property
    def expected_attempts(self) -> float:
        return 1.0 / self.p_success

    @property
    def expected_extra_hops(self) -> float:
        """Mean hops added by the retry loop (excludes the direct tail)."""
        return (1.0 - self.p_success) / self.p_success * self.loop_hops

    @property
    def expected_total_hops(self) -> float:
        return self.direct_hops + self.expected_extra_hops

    def attempt_distribution(self, k_max: int) -> List[float]:
        """P(delivered on attempt k) for k = 1..k_max (geometric)."""
        return [
            (1.0 - self.p_success) ** (k - 1) * self.p_success
            for k in range(1, k_max + 1)
        ]


def geometric_retry(
    p_success: float, direct_hops: int, loop_hops: int
) -> GeometricRetryModel:
    """Build the Fig. 8 geometric-retry model (validated inputs)."""
    if not 0.0 < p_success <= 1.0:
        raise ValueError(f"p_success must be in (0, 1], got {p_success}")
    if direct_hops < 0 or loop_hops < 0:
        raise ValueError("hop counts must be non-negative")
    return GeometricRetryModel(
        p_success=p_success, direct_hops=direct_hops, loop_hops=loop_hops
    )


# ---------------------------------------------------------------------------
# Deterministic dataplane walk (the verifier's graph-only oracle)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkHop:
    """One core-switch forwarding step of the modeled packet.

    ``deflected`` mirrors the dataplane's flag: the strategy departed
    from its happy path on this hop.  The no-deflection walk never sets
    it; the strategy walk does.
    """

    node: str
    in_port: int
    out_port: int
    deflected: bool = False


@dataclass(frozen=True)
class WalkVerdict:
    """The predicted fate of a packet under no-deflection forwarding.

    Attributes:
        outcome: ``"delivered"`` or ``"dropped"``.
        node: the delivering host (delivered) or the dropping node.
        reason: the drop reason (matches the dataplane's strings), or
            ``""`` when delivered.
        hops: every core-switch forwarding step, in order.
    """

    outcome: str
    node: str
    reason: str
    hops: Tuple[WalkHop, ...]

    @property
    def delivered(self) -> bool:
        return self.outcome == "delivered"


#: re-encode hook: ``(edge_name, dst_host) -> (route_id, out_port)`` or
#: None when the controller knows no route from that edge.
ReencodeFn = Callable[[str, str], Optional[Tuple[int, int]]]

#: switch decode hook: ``(route_id, switch_id) -> port``.  ``None``
#: means the classic integer ``R mod s``; the XSR backend passes the
#: carry-less polynomial remainder instead.
PortAtFn = Callable[[int, int], int]


def deterministic_route_walk(
    graph: PortGraph,
    route_id: int,
    ttl: int,
    ingress_edge: str,
    out_port: int,
    dst_host: str,
    down_links: Collection[Tuple[str, str]] = (),
    reencode: Optional[ReencodeFn] = None,
    port_at: Optional[PortAtFn] = None,
) -> WalkVerdict:
    """Predict one packet's path and fate without running the simulator.

    Replays the dataplane's per-hop rules as pure graph arithmetic: a
    core switch drops a packet arriving with TTL <= 0, else decrements
    the TTL and forwards on ``route_id mod switch_id`` when that port
    exists and its link is not in *down_links* (no-deflection
    semantics: otherwise the packet is dropped).  An edge serving the
    destination delivers; any other edge re-encodes via *reencode*
    (keeping the packet's remaining TTL) or drops.  TTL strictly
    decreases across core hops, so the walk always terminates — a
    wandering (fuzzed) route ID ends in a ``ttl-expired`` verdict,
    which is exactly the loop verdict the verifier diffs.

    *port_at* swaps the per-hop decode for an encoding backend's (the
    XSR polynomial remainder); by default the integer ``R mod s`` runs,
    unchanged.  The drop-reason strings deliberately match the
    dataplane's so verdicts are directly comparable.
    """
    hops: List[WalkHop] = []

    def dropped(node: str, reason: str) -> WalkVerdict:
        return WalkVerdict("dropped", node, reason, tuple(hops))

    down = {tuple(sorted(key)) for key in down_links}
    rid = route_id
    current = graph.neighbor_on_port(ingress_edge, out_port)
    in_port = graph.port_of(current, ingress_edge)
    while True:
        kind = graph.node(current).kind
        if kind == NodeKind.CORE:
            if ttl <= 0:
                return dropped(current, "ttl-expired")
            ttl -= 1
            if port_at is None:
                computed = rid % graph.switch_id(current)
            else:
                computed = port_at(rid, graph.switch_id(current))
            if computed >= graph.degree(current):
                return dropped(current, "no-usable-port(none)")
            neighbor = graph.neighbor_on_port(current, computed)
            if tuple(sorted((current, neighbor))) in down:
                return dropped(current, "no-usable-port(none)")
            hops.append(WalkHop(current, in_port, computed))
            in_port = graph.port_of(neighbor, current)
            current = neighbor
            continue
        if kind == NodeKind.EDGE:
            if dst_host in graph.hosts_of_edge(current):
                return WalkVerdict(
                    "delivered", dst_host, "", tuple(hops)
                )
            # Misdelivered: the edge asks for a fresh route ID.  The
            # dataplane checks reachability/route first and TTL only at
            # re-injection time, so the order here matters.
            if reencode is None:
                return dropped(current, "misdelivered-no-controller")
            entry = reencode(current, dst_host)
            if entry is None:
                return dropped(current, "misdelivered-no-route")
            if ttl <= 0:
                return dropped(current, "ttl-expired")
            rid, port = entry
            neighbor = graph.neighbor_on_port(current, port)
            in_port = graph.port_of(neighbor, current)
            current = neighbor
            continue
        raise TopologyError(
            f"walk reached {current!r} of kind {kind!r}; core routes "
            f"never point at hosts"
        )


class _StaticPortView:
    """The strategy-facing slice of a switch, backed by the graph.

    Implements the ``PortView`` protocol from
    :mod:`repro.switches.deflection` (``num_ports`` / ``port_up`` /
    ``healthy_ports``) against a static down-link set, so real strategy
    objects run unmodified inside the graph walk.
    """

    __slots__ = ("_graph", "_node", "num_ports", "_down")

    def __init__(self, graph: PortGraph, node: str, down) -> None:
        self._graph = graph
        self._node = node
        self.num_ports = graph.degree(node)
        self._down = down

    def port_up(self, port: int) -> bool:
        neighbor = self._graph.neighbor_on_port(self._node, port)
        return tuple(sorted((self._node, neighbor))) not in self._down

    def healthy_ports(self) -> List[int]:
        return [p for p in range(self.num_ports) if self.port_up(p)]


class _NoRandomness:
    """RNG stand-in that fails loudly if a strategy draws from it.

    The strategy walk only models deterministic strategies (the
    planned baselines); a randomized strategy slipping in must be an
    error, not silent divergence from the simulator.
    """

    def __getattr__(self, name: str):
        raise RuntimeError(
            "deterministic_strategy_walk only models RNG-free strategies; "
            f"the strategy asked for rng.{name}"
        )


def deterministic_strategy_walk(
    graph: PortGraph,
    strategies: "Mapping[str, DeflectionStrategy]",
    route_id: int,
    ttl: int,
    ingress_edge: str,
    out_port: int,
    dst_host: str,
    down_links: Collection[Tuple[str, str]] = (),
    reencode: Optional[ReencodeFn] = None,
    port_at: Optional[PortAtFn] = None,
) -> WalkVerdict:
    """Predict a packet's fate under per-switch *deterministic* strategies.

    The strategy-aware sibling of :func:`deterministic_route_walk`: each
    core hop still computes ``route_id mod switch_id`` and keeps the
    TTL bookkeeping, but the out-port comes from
    ``strategies[switch].select_port`` over a static port view of
    *down_links* — exactly the call the real switch makes, minus the
    event engine.  This is the oracle for the stateful failover
    baselines (:mod:`repro.baselines`): pass the same per-switch
    strategy instances the simulation runs with and diff the verdicts.

    Strategies must be RNG-free (the baselines are); a strategy that
    draws randomness raises.  Each hop records the strategy's deflected
    flag, so expected traces can be compared bit-for-bit against
    :class:`~repro.sim.trace.PacketTracer` paths.
    """
    hops: List[WalkHop] = []

    def dropped(node: str, reason: str) -> WalkVerdict:
        return WalkVerdict("dropped", node, reason, tuple(hops))

    down = {tuple(sorted(key)) for key in down_links}
    rng = _NoRandomness()
    rid = route_id
    current = graph.neighbor_on_port(ingress_edge, out_port)
    in_port = graph.port_of(current, ingress_edge)
    while True:
        kind = graph.node(current).kind
        if kind == NodeKind.CORE:
            if ttl <= 0:
                return dropped(current, "ttl-expired")
            ttl -= 1
            strategy = strategies[current]
            if port_at is None:
                computed = rid % graph.switch_id(current)
            else:
                computed = port_at(rid, graph.switch_id(current))
            view = _StaticPortView(graph, current, down)
            port, deflected = strategy.select_port(
                view, None, in_port, computed, rng
            )
            if port is None:
                return dropped(current, f"no-usable-port({strategy.name})")
            neighbor = graph.neighbor_on_port(current, port)
            hops.append(WalkHop(current, in_port, port, deflected))
            in_port = graph.port_of(neighbor, current)
            current = neighbor
            continue
        if kind == NodeKind.EDGE:
            if dst_host in graph.hosts_of_edge(current):
                return WalkVerdict("delivered", dst_host, "", tuple(hops))
            # Same misdelivery contract as deterministic_route_walk:
            # route/reachability first, TTL at re-injection time.
            if reencode is None:
                return dropped(current, "misdelivered-no-controller")
            entry = reencode(current, dst_host)
            if entry is None:
                return dropped(current, "misdelivered-no-route")
            if ttl <= 0:
                return dropped(current, "ttl-expired")
            rid, port = entry
            neighbor = graph.neighbor_on_port(current, port)
            in_port = graph.port_of(neighbor, current)
            current = neighbor
            continue
        raise TopologyError(
            f"walk reached {current!r} of kind {kind!r}; core routes "
            f"never point at hosts"
        )
