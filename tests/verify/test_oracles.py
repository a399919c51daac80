"""The differential oracles: clean on healthy code, bookkeeping, and
the mutation-detection hooks the harness self-test relies on."""

import dataclasses

import pytest

import repro.sim.vector
from repro.rns.encoder import EncodedRoute
from repro.switches.core import KarSwitch
from repro.switches.deflection import NotInputPort
from repro.verify.cases import FuzzCase, build_scenario, generate_case
from repro.verify.oracles import (
    ORACLE_NAMES,
    Divergence,
    OracleResult,
    check_datapaths,
    check_strategy,
    check_walk,
    check_wire,
    run_case,
    run_oracle,
)

#: A small, fast case for the simulation-backed oracles.
SMALL_CASE = FuzzCase(
    seed=2, num_switches=6, extra_links=1, min_switch_id=23,
    id_strategy="prime", strategy="nip", ttl=16, rate_pps=40.0,
    traffic_s=0.3, failures=(),
)


def _failing_case() -> FuzzCase:
    """SMALL_CASE with its primary route cut mid-traffic, for good."""
    route = build_scenario(SMALL_CASE).primary_route
    a, b = route[len(route) // 2 - 1], route[len(route) // 2]
    return SMALL_CASE.with_(failures=((a, b, 0.1, None),))


class BrokenNip(NotInputPort):
    """Algorithm 1 with line 5 mutated: the input port is *not*
    excluded from the random fallback candidates — the exact bug NIP
    exists to prevent.  Used to prove the strategy oracle catches a
    plausible implementation slip."""

    def select_port(self, switch, packet, in_port, computed_port, rng):
        healthy = switch.healthy_ports()
        if computed_port != in_port and computed_port in healthy:
            return computed_port, False
        return self._random_from_seq(healthy, rng)


class ExtraDraw(NotInputPort):
    """Right answers, wrong number of RNG draws."""

    def select_port(self, switch, packet, in_port, computed, rng):
        port, deflected = super().select_port(
            switch, packet, in_port, computed, rng
        )
        if port is None or deflected:
            rng.random()  # stray draw desyncs the stream
        return port, deflected


class TestBookkeeping:
    def test_check_counts_and_records(self):
        result = OracleResult("demo")
        assert result.check(True, lambda: "unused")
        assert not result.check(False, lambda: "boom")
        assert result.checks == 2
        assert not result.ok
        assert result.divergences == [Divergence("demo", "boom")]

    def test_to_record_round_trips_through_json(self):
        import json

        result = OracleResult("demo")
        result.check(False, lambda: "boom")
        rec = json.loads(json.dumps(result.to_record()))
        assert rec == {
            "oracle": "demo",
            "checks": 1,
            "divergences": [{"oracle": "demo", "detail": "boom"}],
        }


class TestDispatch:
    def test_oracle_names(self):
        assert ORACLE_NAMES == (
            "backend", "datapath", "encoder", "strategy", "vector",
            "walk", "wire",
        )

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            run_oracle("vibes", SMALL_CASE)

    def test_run_case_subset(self):
        results = run_case(SMALL_CASE, oracles=("strategy", "wire"))
        assert sorted(results) == ["strategy", "wire"]
        assert all(r.ok for r in results.values())


class TestOraclesCleanOnHealthyCode:
    def test_strategy_and_wire(self):
        for seed in range(4):
            case = generate_case(seed)
            assert check_strategy(case).ok, case
            assert check_wire(case).ok, case

    def test_datapath(self):
        result = check_datapaths(SMALL_CASE)
        assert result.ok, result.divergences[:3]
        assert result.checks > 5

    def test_walk(self):
        result = check_walk(SMALL_CASE)
        assert result.ok, result.divergences[:3]
        assert result.checks > 10

    def test_vector(self):
        # The epoch-model oracle: vectorized and sharded engines are
        # decision-identical to the scalar reference on a fuzz case.
        result = run_oracle("vector", SMALL_CASE)
        assert result.ok, result.divergences[:3]
        assert result.checks > 10

    def test_vector_with_failures(self):
        case = generate_case(0)
        result = run_oracle("vector", case)
        assert result.ok, result.divergences[:3]

    def test_full_generated_case(self):
        # One all-oracle pass over a generated case with failures.
        case = generate_case(0)
        results = run_case(case)
        assert all(r.ok for r in results.values()), {
            name: r.divergences[:2]
            for name, r in results.items() if not r.ok
        }


class TestMutationDetection:
    def test_broken_nip_is_caught(self):
        case = SMALL_CASE  # strategy="nip"
        result = check_strategy(case, strategy=BrokenNip())
        assert not result.ok
        assert any(
            "disagrees with pseudocode" in d.detail
            for d in result.divergences
        )

    def test_broken_nip_caught_through_run_oracle(self):
        result = run_oracle("strategy", SMALL_CASE, strategy=BrokenNip())
        assert not result.ok

    def test_strategy_override_ignored_by_other_oracles(self):
        # Injecting into a non-strategy oracle must not crash it.
        assert run_oracle("wire", SMALL_CASE, strategy=BrokenNip()).ok

    def test_rng_stream_drift_is_caught(self):
        result = check_strategy(SMALL_CASE, strategy=ExtraDraw())
        assert any(
            "different RNG stream" in d.detail for d in result.divergences
        )


class TestDatapathMutationDetection:
    """The datapath oracle checks the running switches, so it catches
    slips in the switch's own shortcuts, not just in strategies."""

    def test_failing_case_is_clean_on_healthy_code(self):
        result = check_datapaths(_failing_case())
        assert result.ok, result.divergences[:3]

    def test_stale_healthy_cache_is_caught(self, monkeypatch):
        # Link flips no longer invalidate the cached healthy tuple, so
        # the switch keeps forwarding into the dead link.
        monkeypatch.setattr(KarSwitch, "ports_changed", lambda self: None)
        result = check_datapaths(_failing_case())
        assert any(
            "switch port" in d.detail for d in result.divergences
        ), result.divergences[:3]

    def test_wrong_residue_hint_is_caught(self, monkeypatch):
        # The encode-time hint disagrees with route_id % switch_id at
        # the route's first switch.
        residue_map = EncodedRoute.residue_map

        def corrupted(route):
            hints = dict(residue_map(route))
            first = route.hops[0].switch_id
            hints[first] = (hints[first] + 1) % first
            return hints

        monkeypatch.setattr(EncodedRoute, "residue_map", corrupted)
        result = check_datapaths(SMALL_CASE)
        assert any(
            "switch computed port" in d.detail for d in result.divergences
        ), result.divergences[:3]

    def test_extra_draw_is_caught(self):
        result = check_datapaths(_failing_case(), strategy=ExtraDraw())
        assert any(
            "different RNG stream" in d.detail for d in result.divergences
        ), result.divergences[:3]


class TestVectorOracleIndependence:
    def test_corrupted_residue_hint_is_caught(self, monkeypatch):
        # The scalar engine computes R mod s itself, so a residue hint
        # only the vector engine reads cannot fool both sides.
        build_workload = repro.sim.vector.build_workload

        def corrupted(spec):
            workload = build_workload(spec)
            flow = workload.flows[0]
            sid = int(workload.topo.switch_ids[flow.ingress])
            hints = dict(flow.residues)
            hints[sid] = (hints[sid] + 1) % sid
            flows = (dataclasses.replace(flow, residues=hints),)
            return dataclasses.replace(
                workload, flows=flows + workload.flows[1:]
            )

        monkeypatch.setattr(repro.sim.vector, "build_workload", corrupted)
        result = run_oracle("vector", SMALL_CASE)
        assert any(
            d.detail.startswith("vector:") for d in result.divergences
        ), result.divergences[:3]
