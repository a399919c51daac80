"""Property suite: decision-by-decision engine equivalence.

Hypothesis draws random topologies, strategies and failure schedules;
for every draw the three epoch engines must agree on each packet's
output ports, per-hop deflected flags and final fate, and on every
switch's RNG stream position — not merely on aggregate counters.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.shard import partition, run_epoch_sharded
from repro.sim.vector import (
    build_workload,
    run_epoch_reference,
    run_epoch_vector,
    synthetic_spec,
)

specs = st.builds(
    synthetic_spec,
    num_switches=st.integers(min_value=4, max_value=9),
    extra_links=st.integers(min_value=0, max_value=4),
    min_switch_id=st.sampled_from([17, 23, 29]),
    seed=st.integers(min_value=0, max_value=2**16),
    strategy=st.sampled_from(["none", "hp", "avp", "nip"]),
    flows=st.integers(min_value=1, max_value=4),
    ttl=st.integers(min_value=4, max_value=32),
    inject_per_epoch=st.integers(min_value=1, max_value=3),
    inject_epochs=st.integers(min_value=1, max_value=4),
    link_failures=st.integers(min_value=0, max_value=2),
    fail_epoch=st.integers(min_value=0, max_value=4),
    repair_epoch=st.one_of(
        st.none(), st.integers(min_value=1, max_value=12)
    ),
)



@st.composite
def wide_specs(draw):
    """Many-switch batches: 10-24 queues drained per epoch pass, with
    random extra flips of any link (edge links included)."""
    spec = synthetic_spec(
        num_switches=draw(st.integers(min_value=10, max_value=24)),
        extra_links=draw(st.integers(min_value=0, max_value=12)),
        min_switch_id=draw(st.sampled_from([211, 257, 557])),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        strategy=draw(st.sampled_from(["none", "hp", "avp", "nip"])),
        flows=draw(st.integers(min_value=4, max_value=8)),
        ttl=draw(st.integers(min_value=4, max_value=40)),
        inject_per_epoch=draw(st.integers(min_value=1, max_value=4)),
        inject_epochs=draw(st.integers(min_value=1, max_value=6)),
        link_failures=draw(st.integers(min_value=0, max_value=3)),
        fail_epoch=draw(st.integers(min_value=0, max_value=4)),
        repair_epoch=draw(st.one_of(
            st.none(), st.integers(min_value=1, max_value=12)
        )),
    )
    links = sorted(build_workload(spec).topo.links)
    flips = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=0, max_value=len(links) - 1),
        ),
        max_size=10,
    ))
    spec["extra_flips"] = [[epoch, *links[i]] for epoch, i in flips]
    return spec


@settings(max_examples=15, deadline=None)
@given(spec=specs)
def test_vector_reproduces_reference_decisions(spec):
    wl = build_workload(spec)
    ref = run_epoch_reference(wl, trace=True)
    vec = run_epoch_vector(wl, trace=True)
    assert vec.record == ref.record
    assert vec.traces == ref.traces  # ports + per-hop deflected flags
    assert vec.fates == ref.fates
    assert (
        vec.record["rng_fingerprint"] == ref.record["rng_fingerprint"]
    )  # identical stream positions on every switch


@settings(max_examples=10, deadline=None)
@given(spec=wide_specs())
def test_vector_reproduces_reference_on_many_switches(spec):
    wl = build_workload(spec)
    assert len(wl.topo.core_indices) >= 10
    ref = run_epoch_reference(wl, trace=True)
    vec = run_epoch_vector(wl, trace=True)
    assert vec.record == ref.record
    assert vec.traces == ref.traces
    assert vec.fates == ref.fates


@settings(max_examples=10, deadline=None)
@given(spec=specs, shards=st.integers(min_value=1, max_value=3))
def test_sharded_reproduces_reference_decisions(spec, shards):
    wl = build_workload(spec)
    shards = min(shards, len(wl.topo.core_indices))
    ref = run_epoch_reference(wl, trace=True)
    shd = run_epoch_sharded(wl, shards=shards, trace=True)
    assert shd.record == ref.record
    assert shd.traces == ref.traces
    assert shd.fates == ref.fates


@settings(max_examples=10, deadline=None)
@given(spec=specs, shards=st.integers(min_value=1, max_value=4))
def test_shard_boundaries_conserve_packets(spec, shards):
    # Reuses the same conservation identity sim/invariants.py enforces
    # for the DES engine: nothing lost or duplicated at any boundary.
    wl = build_workload(spec)
    shards = min(shards, len(wl.topo.core_indices))
    r = run_epoch_sharded(wl, shards=shards).record
    assert r["injected"] == wl.injected_total
    assert r["injected"] == (
        r["delivered"]
        + sum(r["misdelivered"].values())
        + sum(r["drop_reasons"].values())
        + r["live_at_end"]
    )
    assert sum(c[0] for c in r["switches"].values()) == r["hops"]


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    shards=st.integers(min_value=1, max_value=8),
)
def test_partition_covers_exactly(n, shards):
    indices = list(range(100, 100 + n))
    if shards > n:
        shards = n
    blocks = partition(indices, shards)
    assert [u for b in blocks for u in b] == indices
    sizes = [len(b) for b in blocks]
    assert max(sizes) - min(sizes) <= 1
