"""Tests for the parallel experiment runner and the bench harness."""

import json
from pathlib import Path

import pytest

from repro.experiments import bench
from repro.experiments.__main__ import main
from repro.experiments.registry import (EXPERIMENTS, run_all, run_many,
                                        run_timed)

#: Cheap, deterministic subset exercised both serially and in parallel.
IDS = ["table1", "fig04", "fig09", "fig14"]
SCALE = 0.02


class TestParallelEquivalence:
    def test_parallel_matches_serial_reports(self):
        """jobs=4 must render byte-identical report text in the same
        order as the serial runner (ISSUE equivalence invariant)."""
        serial = run_many(IDS, SCALE, jobs=1)
        parallel = run_many(IDS, SCALE, jobs=4)
        assert [r.experiment_id for r in parallel] == IDS
        assert [r.text for r in parallel] == [r.text for r in serial]

    def test_run_all_accepts_jobs(self):
        """run_all(jobs=...) routes through the same order-preserving
        runner; serial jobs=1 keeps the paper order exactly."""
        results = run_all(0.01, jobs=1)
        assert [r.experiment_id for r in results] == list(EXPERIMENTS)

    def test_unknown_id_rejected_before_spawning(self):
        with pytest.raises(KeyError):
            run_many(["table1", "fig99"], SCALE, jobs=4)

    def test_run_timed_reports_wall_times(self):
        results, records = run_timed(["table1"], SCALE)
        assert results[0].experiment_id == "table1"
        assert [r.experiment_id for r in records] == ["table1"]
        assert records[0].status == "ok"
        assert records[0].elapsed > 0

    def test_duplicate_ids_keep_per_invocation_records(self):
        """run_timed(["x", "x"]) must not collapse the timing entries
        (historical dict-comprehension bug)."""
        results, records = run_timed(["table1", "table1"], SCALE)
        assert [r.experiment_id for r in results] == ["table1", "table1"]
        assert [(r.experiment_id, r.index) for r in records] \
            == [("table1", 0), ("table1", 1)]
        assert all(r.status == "ok" for r in records)


class TestBenchHarness:
    def test_record_creates_and_appends(self, tmp_path):
        path = tmp_path / "BENCH_experiments.json"
        bench.record_run({"fig05": {"seconds": 1.25}}, scale=0.25,
                         jobs=1, path=str(path))
        bench.record_run({"fig05": {"seconds": 0.40},
                          "fig07": {"seconds": 0.30}}, scale=0.25,
                         jobs=2, path=str(path))
        payload = json.loads(path.read_text())
        assert payload["schema"] == 5
        assert len(payload["runs"]) == 2
        first, second = payload["runs"]
        assert "cache" not in first
        assert first["geometry"] == bench.geometry_label()
        assert bench.experiment_seconds(
            first["experiments"]["fig05"]) == 1.25
        assert isinstance(first["batch"], bool)
        assert first["faults"] is False
        assert first["repeats"] == 1
        assert first["peak_rss_mb"] > 0
        assert second["jobs"] == 2
        assert second["total_seconds"] == pytest.approx(0.70)

    def test_median_entries_and_repeats(self, tmp_path):
        """Schema 3: repeated sweeps record the lower-median sample."""
        samples = [
            {"fig05": {"seconds": 1.4,
                       "phases": {"execute": 1.4}}},
            {"fig05": {"seconds": 0.9, "phases": {"execute": 0.9}},
             "fig07": {"seconds": 0.5}},
            {"fig05": {"seconds": 1.1, "phases": {"execute": 1.1}}},
        ]
        entries = bench.median_entries(samples)
        assert entries["fig05"]["seconds"] == 1.1
        assert entries["fig05"]["phases"] == {"execute": 1.1}
        assert entries["fig07"]["seconds"] == 0.5  # single sample
        path = tmp_path / "bench.json"
        bench.record_run(entries, scale=0.25, repeats=len(samples),
                         path=str(path))
        run = json.loads(path.read_text())["runs"][0]
        assert run["repeats"] == 3
        assert run["experiments"]["fig05"]["seconds"] == 1.1

    def test_schema2_phases_batch_and_wall(self, tmp_path):
        path = tmp_path / "bench.json"
        bench.record_run(
            {"fig05": {"seconds": 1.0,
                       "phases": {"calibrate": 0.4, "execute": 0.6}}},
            scale=0.1, batch=False, wall_seconds=1.25, path=str(path))
        run = json.loads(path.read_text())["runs"][0]
        assert run["batch"] is False
        assert run["wall_seconds"] == 1.25
        assert run["experiments"]["fig05"]["phases"]["calibrate"] == 0.4
        assert bench.experiment_seconds(run["experiments"]["fig05"]) == 1.0

    def test_committed_history_stores_mapping_entries(self):
        """Every stored entry, schema-1 runs included, is a
        ``{"seconds": ...}`` mapping: the readers have no float path."""
        history = json.loads(
            (Path(__file__).resolve().parents[2]
             / "BENCH_experiments.json").read_text())
        entries = [entry for run in history["runs"]
                   for entry in run["experiments"].values()]
        assert entries
        assert all(isinstance(entry, dict) for entry in entries)
        assert bench.experiment_seconds(entries[0]) == 1.3736

    def test_run_records_carry_phases_into_bench(self, tmp_path):
        path = tmp_path / "bench.json"
        __, records = run_timed(["table1"], SCALE)
        assert "execute" in records[0].result.phases
        assert "report" in records[0].result.phases
        bench.record_run(records, SCALE, path=str(path))
        entry = json.loads(path.read_text())["runs"][0] \
            ["experiments"]["table1"]
        assert entry["phases"]
        assert entry["seconds"] == pytest.approx(records[0].elapsed,
                                                 abs=1e-3)

    def test_corrupt_file_is_replaced(self, tmp_path):
        path = tmp_path / "BENCH_experiments.json"
        path.write_text("not json")
        bench.record_run({"fig05": {"seconds": 1.0}}, scale=0.1,
                         path=str(path))
        payload = json.loads(path.read_text())
        assert len(payload["runs"]) == 1

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HBMSIM_BENCH_PATH",
                           str(tmp_path / "bench.json"))
        assert bench.bench_path() == tmp_path / "bench.json"


class TestCli:
    def test_jobs_and_bench_flags(self, tmp_path, capsys):
        path = tmp_path / "BENCH_experiments.json"
        code = main(["table1", "table2", "--scale", "0.02",
                     "-j", "2", "--bench", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.index("=== table1") < out.index("=== table2")
        payload = json.loads(path.read_text())
        assert set(payload["runs"][0]["experiments"]) \
            == {"table1", "table2"}
        assert payload["runs"][0]["jobs"] == 2

    def test_serial_cli_unchanged(self, capsys):
        assert main(["table1", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "=== table1" in out
        assert "Table 1" in out


class TestBenchCompare:
    def record(self, path, seconds, **kwargs):
        bench.record_run({experiment_id: {"seconds": value}
                          for experiment_id, value in seconds.items()},
                         scale=0.25, path=str(path), **kwargs)

    def test_reports_speedup_and_regression(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.record(a, {"fig05": 10.0, "fig07": 4.0},
                    wall_seconds=15.0)
        self.record(b, {"fig05": 2.5, "fig07": 5.0, "fig14": 1.0},
                    jobs=4, wall_seconds=6.0)
        report = bench.compare_runs(str(a), str(b))
        assert "fig05" in report and "4.00x" in report
        assert "REGRESSION" in report        # fig07 slowed 0.8x
        assert "only in B" in report         # fig14 absent from A
        assert "wall" in report
        assert "run parameters differ (jobs)" in report

    def test_flags_fault_plan_mismatch(self, tmp_path):
        """A chaos-mode run compared with a fault-free one says so."""
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.record(a, {"fig05": 1.0}, faults=False)
        self.record(b, {"fig05": 2.0}, faults=True)
        report = bench.compare_runs(str(a), str(b))
        assert "0.50x  REGRESSION" in report
        assert "run parameters differ (faults)" in report
        assert "faults off" in report and "faults on" in report

    def test_compares_last_runs(self, tmp_path):
        a = tmp_path / "a.json"
        self.record(a, {"fig05": 99.0})
        self.record(a, {"fig05": 10.0})
        report = bench.compare_runs(str(a), str(a))
        assert "10.0000" not in report       # formatted at 10.000
        assert "99.000" not in report        # older run ignored
        assert "1.00x" in report

    def test_empty_file_raises(self, tmp_path):
        from repro.errors import HbmSimError

        a = tmp_path / "a.json"
        self.record(a, {"fig05": 1.0})
        with pytest.raises(HbmSimError):
            bench.compare_runs(str(a), str(tmp_path / "missing.json"))

    def test_cli_entry(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.record(a, {"fig05": 2.0})
        self.record(b, {"fig05": 1.0})
        assert main(["--bench-compare", str(a), str(b)]) == 0
        assert "2.00x" in capsys.readouterr().out
        assert main(["--bench-compare", str(a),
                     str(tmp_path / "missing.json")]) == 2
