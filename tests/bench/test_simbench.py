"""Tests for the ``repro bench sim`` harness (small cells only)."""

import json

import pytest

from repro.bench.simbench import (
    EPOCH_WORKLOADS,
    MODES,
    SIZES,
    render_sim_bench,
    run_sim_bench,
)


class TestRunSimBench:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench") / "BENCH_sim.json"
        res = run_sim_bench(
            sizes=["small"], strategies=["none", "nip"],
            repeats=1, out=str(out), modes=("des",),
        )
        return res, out

    def test_des_only_run_has_no_epoch_section(self, result):
        res, _ = result
        assert res["modes"] == ["des"]
        assert res["epoch"] is None

    def test_digests_match_in_every_cell(self, result):
        res, _ = result
        assert res["decisions_verified"] is True
        assert [r["strategy"] for r in res["runs"]] == ["none", "nip"]
        for run in res["runs"]:
            assert run["digests_match"], run
            assert run["decision_checks"] > 0, run
            assert run["decision_divergences"] == 0, run

    def test_throughput_fields_populated(self, result):
        res, _ = result
        for run in res["runs"]:
            assert run["wall_s"] > 0
            assert run["packets_per_sec"] > 0
            assert run["events_per_sec"] > 0
            assert run["forwarded_per_min"] > 0
            assert run["packets"] > 0 and run["events"] > 0
        assert "crt" not in res

    def test_json_written_and_round_trips(self, result):
        res, out = result
        data = json.loads(out.read_text())
        assert data["decisions_verified"] is True
        assert data["repeats"] == 1
        assert data["sizes"]["small"] == SIZES["small"]

    def test_render_mentions_every_cell(self, result):
        res, _ = result
        text = render_sim_bench(res)
        assert "none" in text and "nip" in text
        assert "decisions verified: True" in text
        assert "DIVERGED" not in text

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError, match="unknown size"):
            run_sim_bench(sizes=["galactic"], out=None)

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            run_sim_bench(sizes=["small"], repeats=0, out=None)


class TestEpochMode:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench") / "BENCH_sim.json"
        res = run_sim_bench(
            sizes=["small"], strategies=["nip"], repeats=1,
            quick=True, out=str(out), modes=("epoch",),
        )
        return res, out

    def test_epoch_cells_verified_before_timing(self, result):
        res, _ = result
        assert res["modes"] == ["epoch"]
        assert res["runs"] == []  # no DES cells requested
        epoch = res["epoch"]
        assert epoch is not None
        assert len(epoch["runs"]) == 1
        cell = epoch["runs"][0]
        assert cell["digests_match"] is True
        assert res["digests_match_reference"] is True
        assert cell["forwarded"] > 0
        for engine in ("reference_epoch", "vector", "shard2"):
            assert cell[engine]["wall_s"] >= 0
            assert cell[engine]["forwarded_per_min"] > 0
        assert cell["shard2"]["handoff_checks"] > 0
        assert cell["shard2"]["processes"] is False  # quick => in-process

    def test_epoch_workloads_echoed(self, result):
        res, _ = result
        assert res["epoch"]["workloads"]["small"] == EPOCH_WORKLOADS["small"]
        assert res["epoch"]["target_forwarded_per_min"] == 10_000_000

    def test_render_includes_epoch_table(self, result):
        res, _ = result
        text = render_sim_bench(res)
        assert "epoch datapath" in text
        assert "fwd/min" in text
        assert "digests match reference: True" in text

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            run_sim_bench(sizes=["small"], modes=("warp",), out=None)

    def test_modes_registry_is_stable(self):
        assert MODES == ("des", "epoch")
