"""Tests for the extension experiments (Section 8 implications)."""

import hashlib
import json

import pytest

from repro.experiments.registry import EXTENSIONS, run_experiment

#: The CI chaos plan (device-level faults only).
CHAOS_PLAN = {"seed": 7, "read_flip_rate": 0.001, "drop_rate": 0.0002,
              "act_jitter_rate": 0.0005, "act_jitter_ns": 3.0}


class TestRegistry:
    def test_extensions_registered(self):
        assert set(EXTENSIONS) == {"ext-defenses", "ext-temperature"}

    def test_extensions_not_in_paper_sweep(self):
        from repro.experiments.registry import EXPERIMENTS

        assert not set(EXTENSIONS) & set(EXPERIMENTS)

    def test_run_experiment_resolves_extensions(self):
        result = run_experiment("ext-temperature", 0.2)
        assert result.experiment_id == "ext-temperature"


class TestTemperatureExtension:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("ext-temperature", 0.2)

    def test_hc_first_monotone_decreasing(self, result):
        series = result.data["hc_first"]
        values = [series[t] for t in sorted(series)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_retention_worsens_with_heat(self, result):
        retention = result.data["retention"]
        assert retention[102.0] > retention[82.0]

    def test_report_digest(self, result):
        """Full report pin at scale 0.2 (batch row profiling path)."""
        assert hashlib.sha256(result.text.encode()).hexdigest() == (
            "f255ccfc71c9be79ea2720b62eab5b7a0750447bf15a725170c4e196c8c69bd2")


class TestDefenseExtension:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment("ext-defenses", 0.2)

    def test_undefended_flips(self, result):
        assert result.data["none"]["double_sided_flips"] > 0

    def test_all_defenses_stop_double_sided(self, result):
        for name in ("PARA", "RowPress-PARA", "Graphene", "BlockHammer"):
            assert result.data[name]["double_sided_flips"] == 0, name

    def test_only_rowpress_aware_stops_rowpress(self, result):
        assert result.data["RowPress-PARA"]["rowpress_flips"] == 0
        assert result.data["PARA"]["rowpress_flips"] > 0

    def test_benign_costs_ranked(self, result):
        para = result.data["PARA"]["benign_refreshes_per_kilo_act"]
        graphene = result.data["Graphene"][
            "benign_refreshes_per_kilo_act"]
        assert graphene < 0.2 * para
        assert result.data["BlockHammer"]["benign_slowdown"] < 0.01

    def test_report_digest(self, result):
        """Full report pin at scale 0.2 (scalar device hammer path)."""
        assert hashlib.sha256(result.text.encode()).hexdigest() == (
            "b14e4d9113b0804b727fea03d1409c5c72e0adfe0cb6ce49e28366481f433513")


@pytest.mark.parametrize("batch", ["1", "0"])
def test_defense_report_digest_under_chaos(monkeypatch, batch):
    """Full report pin at scale 0.1 under the CI chaos plan: FaultyStack
    jitter, dropped commands and RD flips on the defended device, hammer
    streams on the resolve-once engine (``1``) or the per-command loop
    with per-REF catch-up (``0``)."""
    monkeypatch.setenv("HBMSIM_FAULTS", json.dumps(CHAOS_PLAN))
    monkeypatch.setenv("HBMSIM_BATCH", batch)
    result = run_experiment("ext-defenses", 0.1)
    assert hashlib.sha256(result.text.encode()).hexdigest() == (
        "9db4bc97bee682b6b2bed6d2a8783ee5cbcb14249ac7334474e168d94fa0068c")
