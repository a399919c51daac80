"""The vectorized epoch engine against the reference oracle.

Every test here is a bit-for-bit equality claim: the numpy batch
forwarder must reproduce the reference engine's *decisions* (output
ports, deflected flags, drop reasons) and its *RNG stream positions*,
not just aggregate counts.
"""

import pytest

from repro.bench.simbench import _epoch_spec
from repro.farm.jobs import execute_spec, simvector_spec
from repro.sim.vector import (
    EpochCore,
    EpochTopology,
    build_workload,
    injection_batch,
    iter_injections,
    run_epoch_reference,
    run_epoch_vector,
    synthetic_spec,
)

STRATEGIES = ("none", "hp", "avp", "nip")


def small_spec(strategy="nip", seed=3, **overrides):
    base = dict(
        num_switches=6, extra_links=2, min_switch_id=23, seed=seed,
        strategy=strategy, flows=3, ttl=24, inject_per_epoch=2,
        inject_epochs=4, link_failures=1, fail_epoch=2, repair_epoch=5,
    )
    base.update(overrides)
    return synthetic_spec(**base)


class TestWorkloadBuild:
    def test_build_is_deterministic(self):
        a = build_workload(small_spec())
        b = build_workload(small_spec())
        assert a.flows == b.flows
        assert a.flips == b.flips
        assert a.topo.names == b.topo.names

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown workload kind"):
            build_workload({"kind": "no-such-kind"})

    def test_topology_port_tables_are_inverses(self):
        topo = build_workload(small_spec()).topo
        assert len(topo.peer) == int(topo.degree.sum())
        for u in range(topo.n):
            for p in range(topo.degree[u]):
                v = int(topo.peer[topo.port_base[u] + p])
                back = int(topo.peer_port[topo.port_base[u] + p])
                assert int(topo.peer[topo.port_base[v] + back]) == u
                assert int(topo.peer_port[topo.port_base[v] + back]) == p

    def test_canonical_uids_are_dense_and_epoch_major(self):
        wl = build_workload(small_spec())
        uids = [
            uid
            for epoch in range(wl.inject_epochs)
            for uid, _ in iter_injections(wl, epoch)
        ]
        assert uids == list(range(wl.injected_total))

    def test_epoch_topology_matches_graph_names(self):
        wl = build_workload(small_spec())
        assert wl.topo.names == tuple(sorted(wl.topo.names))
        assert isinstance(wl.topo, EpochTopology)


class TestEngineEquality:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_record_identical_per_strategy(self, strategy):
        wl = build_workload(small_spec(strategy=strategy))
        ref = run_epoch_reference(wl)
        vec = run_epoch_vector(wl)
        assert ref.record == vec.record
        assert ref.digest == vec.digest

    @pytest.mark.parametrize("seed", [1, 7, 19])
    def test_record_identical_across_seeds(self, seed):
        wl = build_workload(small_spec(seed=seed, strategy="hp"))
        assert run_epoch_reference(wl).record == run_epoch_vector(wl).record

    def test_rng_fingerprint_included_and_equal(self):
        # A matching fingerprint means both engines drew the same
        # values from the same per-switch streams in the same order.
        wl = build_workload(small_spec(strategy="nip", link_failures=2))
        ref = run_epoch_reference(wl)
        vec = run_epoch_vector(wl)
        assert ref.record["rng_fingerprint"] == vec.record["rng_fingerprint"]
        assert len(ref.record["rng_fingerprint"]) == 16

    def test_per_packet_traces_identical(self):
        wl = build_workload(small_spec(strategy="avp"))
        ref = run_epoch_reference(wl, trace=True)
        vec = run_epoch_vector(wl, trace=True)
        assert ref.traces is not None and vec.traces is not None
        assert set(ref.traces) == set(vec.traces)
        for uid in ref.traces:
            assert ref.traces[uid] == vec.traces[uid], uid
        assert ref.fates == vec.fates

    def test_every_injection_has_a_fate(self):
        wl = build_workload(small_spec())
        ref = run_epoch_reference(wl, trace=True)
        assert ref.fates is not None
        r = ref.record
        terminal = (
            r["delivered"]
            + sum(r["misdelivered"].values())
            + sum(r["drop_reasons"].values())
        )
        assert len(ref.fates) == terminal
        assert r["injected"] == terminal + r["live_at_end"]

    def test_no_failures_no_deflections(self):
        wl = build_workload(small_spec(strategy="nip", link_failures=0))
        ref = run_epoch_reference(wl)
        vec = run_epoch_vector(wl)
        assert ref.record == vec.record
        assert all(c[1] == 0 for c in ref.record["switches"].values())
        assert ref.record["delivered"] == ref.record["injected"]

    def test_flips_change_the_outcome(self):
        healthy = run_epoch_vector(
            build_workload(small_spec(link_failures=0))
        )
        failed = run_epoch_vector(
            build_workload(small_spec(link_failures=1, repair_epoch=None))
        )
        assert healthy.digest != failed.digest


class TestArrayInjections:
    @pytest.mark.parametrize("spec", [
        small_spec(),
        small_spec(strategy="hp", seed=11, flows=4, inject_per_epoch=3),
        synthetic_spec(num_switches=12, flows=7, inject_per_epoch=1,
                       inject_epochs=9, seed=2),
    ])
    def test_equal_iter_injections_every_epoch(self, spec):
        wl = build_workload(spec)
        core = EpochCore(wl)
        for epoch in range(wl.max_epochs):
            got = core.injections(epoch)
            want = injection_batch(wl, iter_injections(wl, epoch))
            assert got.keys() == want.keys()
            for k in want:
                assert got[k].dtype == want[k].dtype, (epoch, k)
                assert got[k].tolist() == want[k].tolist(), (epoch, k)

    def test_shard_injections_partition_the_epoch(self):
        wl = build_workload(small_spec(flows=4))
        blocks = [wl.topo.core_indices[:3], wl.topo.core_indices[3:]]
        for epoch in range(wl.inject_epochs):
            uids = [
                EpochCore(wl, owned=block).injections(epoch)["uid"].tolist()
                for block in blocks
            ]
            assert sorted(uids[0] + uids[1]) == [
                uid for uid, _ in iter_injections(wl, epoch)
            ]


#: Record digests of simbench's large epoch cells at seed 1, as
#: committed in BENCH_sim.json (the scalar reference agrees with each).
LARGE_DIGESTS = {
    "none": "15bd894d14776aed",
    "hp": "9157377359e610ae",
    "avp": "9076c3fde25da197",
    "nip": "359c77ef8db5e880",
}


class TestLargeEpochPin:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_large_cell_digest(self, strategy):
        wl = build_workload(_epoch_spec("large", strategy, 1))
        assert len(wl.topo.core_indices) == 64
        assert len(wl.flows) == 48
        assert wl.injected_total == 32256
        assert run_epoch_vector(wl).digest == LARGE_DIGESTS[strategy]


class TestSimvectorJob:
    def test_all_modes_same_digest_via_farm(self):
        wl_spec = small_spec(strategy="hp")
        digests = set()
        for mode in ("reference", "vector", "sharded"):
            spec = simvector_spec(wl_spec, mode=mode)
            record = execute_spec(spec)
            assert record["mode"] == mode
            digests.add(record["sim"]["digest"])
        assert len(digests) == 1

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            simvector_spec(small_spec(), mode="warp")
