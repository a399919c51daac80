"""Property suite for the pluggable encoding backends (PR 10).

Hypothesis drives every backend over random topologies and random hop
systems, asserting the contracts the backend protocol promises:

* ``decode(encode(hops))`` recovers every port, for every backend, on
  arbitrary valid hop systems over the backend's own ID pool;
* walk-oracle forwarding equivalence: a route encoded by a backend and
  walked by :func:`~repro.analysis.walk.deterministic_route_walk` with
  that backend's ``port_at`` is delivered along exactly the encoded
  path on random connected topologies;
* the ID assigner feeding each backend emits pairwise-coprime IDs (in
  every ring the backend computes in) that exceed the switch's port
  count — the Section 2 feasibility conditions.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.walk import deterministic_route_walk
from repro.controller.idassign import assign_switch_ids, reassign_switch_ids
from repro.rns import BACKEND_NAMES, Hop, backend_by_name, pairwise_coprime
from repro.rns.gf2 import dual_coprime_pool, gf2_pairwise_coprime
from repro.topology import attach_host_pair, random_connected, shortest_path

backend_names = st.sampled_from(BACKEND_NAMES)


def _pool_for(backend, rng, size):
    if backend.name == "xsr":
        return dual_coprime_pool(size)
    from repro.rns.coprime import greedy_coprime_pool

    return greedy_coprime_pool(size, min_value=rng.choice((4, 23)))


@settings(max_examples=25, deadline=None)
@given(name=backend_names, seed=st.integers(0, 10_000))
def test_encode_decode_identity(name, seed):
    rng = random.Random(seed)
    backend = backend_by_name(name)
    pool = _pool_for(backend, rng, 12)
    backend.prepare(pool)
    k = rng.randrange(1, 9)
    ids = rng.sample(pool, k)
    ports = [rng.randrange(backend.residue_space(s)) for s in ids]
    route = backend.encode([Hop(s, p) for s, p in zip(ids, ports)])
    assert backend.decode(route.route_id, ids) == ports
    assert [backend.port_at(route.route_id, s) for s in ids] == ports
    assert backend.header_bits(route.modulus) == route.bit_length


@settings(max_examples=10, deadline=None)
@given(name=backend_names, seed=st.integers(0, 500),
       extra=st.integers(1, 6))
def test_walk_delivers_along_encoded_route(name, seed, extra):
    backend = backend_by_name(name)
    graph = random_connected(
        9, extra_links=extra, seed=seed, min_switch_id=23
    )
    names = sorted(graph.switch_ids())
    src_sw, dst_sw = names[0], names[-1]
    src_host, dst_host = attach_host_pair(graph, src_sw, dst_sw)
    # Re-ID after the hosts are cabled: the edge links add a port to
    # both end switches, and XSR's small GF(2) IDs must cover it.
    if name == "xsr":
        reassign_switch_ids(graph, strategy="xsr")
    backend.prepare(graph.switch_ids().values())
    route_nodes = shortest_path(graph, src_sw, dst_sw)
    # Hop ports: toward the next core, then out the host-facing port.
    hops = []
    for node, nxt in zip(route_nodes, route_nodes[1:]):
        hops.append(Hop(graph.switch_id(node), graph.port_of(node, nxt)))
    edge = graph.edge_of_host(dst_host)
    hops.append(Hop(
        graph.switch_id(dst_sw), graph.port_of(dst_sw, edge)
    ))
    route = backend.encode(hops)

    ingress = graph.edge_of_host(src_host)
    verdict = deterministic_route_walk(
        graph, route.route_id, 64, ingress,
        graph.port_of(ingress, src_sw), dst_host,
        port_at=backend.switch_decode(),
    )
    assert verdict.delivered, (verdict.outcome, verdict.reason)
    assert verdict.node == dst_host
    assert [h.node for h in verdict.hops] == route_nodes


@settings(max_examples=15, deadline=None)
@given(name=backend_names, seed=st.integers(0, 10_000),
       n=st.integers(2, 24))
def test_assigner_feasibility(name, seed, n):
    rng = random.Random(seed)
    backend = backend_by_name(name)
    degrees = {f"n{i}": rng.randrange(1, 9) for i in range(n)}
    ids = assign_switch_ids(degrees, backend.id_strategy)
    assert pairwise_coprime(ids.values())
    if name == "xsr":
        assert gf2_pairwise_coprime(ids.values())
    for node, ports in degrees.items():
        assert ids[node] > ports - 1          # integer floor (Eq. 7)
        assert backend.residue_space(ids[node]) >= ports
    backend.validate_switch_ids(sorted(ids.values()))
