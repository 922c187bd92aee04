"""Tests for the CI perf gate (``repro.experiments.perf_gate``)."""

import json

from repro.experiments import bench
from repro.experiments.perf_gate import find_run, main


def write_bench(path, runs):
    path.write_text(json.dumps({"schema": 2, "runs": runs}))


def run_entry(seconds, scale=0.25, jobs=1, cache="warm", **extra):
    run = {"scale": scale, "jobs": jobs, "cache": cache,
           "batch": True, "timestamp": "2026-08-06T00:00:00+00:00",
           "experiments": {"fig05": {"seconds": seconds, "phases": {}}},
           "total_seconds": seconds}
    run.update(extra)
    return run


class TestFindRun:
    def test_newest_matching_run_wins(self, tmp_path):
        payload = {"runs": [run_entry(1.0), run_entry(0.5)]}
        seconds, run = find_run(payload, "fig05", 0.25, 1, "warm")
        assert seconds == 0.5

    def test_criteria_filter(self):
        payload = {"runs": [run_entry(9.0, cache="cold"),
                            run_entry(8.0, jobs=2),
                            run_entry(7.0, scale=0.1),
                            run_entry(0.4)]}
        seconds, __ = find_run(payload, "fig05", 0.25, 1, "warm")
        assert seconds == 0.4

    def test_schema1_entries(self):
        """The checked-in schema-1 history: no batch key, no phases."""
        payload = {"runs": [{"scale": 0.25, "jobs": 1, "cache": "warm",
                             "experiments": {"fig05": {"seconds": 1.2838}},
                             "total_seconds": 1.2838}]}
        seconds, __ = find_run(payload, "fig05", 0.25, 1, "warm")
        assert seconds == 1.2838

    def test_no_match_returns_none(self):
        assert find_run({"runs": []}, "fig05", 0.25, 1, "warm") \
            == (None, None)

    def test_batch_filter_skips_other_engine(self):
        """A newer scalar-engine record must not shadow the batched
        baseline when the gate asks for like-for-like."""
        payload = {"runs": [run_entry(0.3, batch=True),
                            run_entry(1.1, batch=False)]}
        seconds, __ = find_run(payload, "fig05", 0.25, 1, "warm",
                               batch=True)
        assert seconds == 0.3
        seconds, __ = find_run(payload, "fig05", 0.25, 1, "warm",
                               batch=False)
        assert seconds == 1.1
        seconds, __ = find_run(payload, "fig05", 0.25, 1, "warm")
        assert seconds == 1.1  # default: newest regardless of engine

    def test_batch_filter_excludes_schema1(self):
        """Schema-1 entries carry no batch flag, so they only match
        the 'any' default."""
        payload = {"runs": [{"scale": 0.25, "jobs": 1, "cache": "warm",
                             "experiments": {"fig05": {"seconds": 1.2838}},
                             "total_seconds": 1.2838}]}
        assert find_run(payload, "fig05", 0.25, 1, "warm",
                        batch=True) == (None, None)
        seconds, __ = find_run(payload, "fig05", 0.25, 1, "warm")
        assert seconds == 1.2838


class TestGateCli:
    def gate(self, tmp_path, baseline_s, measured_s, factor="2.0"):
        baseline = tmp_path / "baseline.json"
        measured = tmp_path / "measured.json"
        write_bench(baseline, [run_entry(baseline_s)])
        write_bench(measured, [run_entry(measured_s)])
        return main(["--baseline", str(baseline),
                     "--measured", str(measured),
                     "--factor", factor])

    def test_passes_within_limit(self, tmp_path):
        assert self.gate(tmp_path, 0.30, 0.55) == 0

    def test_fails_beyond_limit(self, tmp_path):
        assert self.gate(tmp_path, 0.30, 0.61) == 1

    def test_limit_is_inclusive(self, tmp_path):
        assert self.gate(tmp_path, 0.30, 0.60) == 0

    def test_missing_baseline_run_errors(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        measured = tmp_path / "measured.json"
        write_bench(baseline, [run_entry(0.3, cache="cold")])
        write_bench(measured, [run_entry(0.3)])
        assert main(["--baseline", str(baseline),
                     "--measured", str(measured)]) == 2

    def test_unreadable_file_errors(self, tmp_path):
        measured = tmp_path / "measured.json"
        write_bench(measured, [run_entry(0.3)])
        assert main(["--baseline", str(tmp_path / "nope.json"),
                     "--measured", str(measured)]) == 2

    def test_batch_on_ignores_newer_scalar_baseline(self, tmp_path):
        """The CI invocation (--batch on) gates against the batched
        baseline even when a scalar-engine run was recorded later."""
        baseline = tmp_path / "baseline.json"
        measured = tmp_path / "measured.json"
        write_bench(baseline, [run_entry(0.30, batch=True),
                               run_entry(1.10, batch=False)])
        write_bench(measured, [run_entry(0.90, batch=True)])
        args = ["--baseline", str(baseline), "--measured", str(measured)]
        assert main(args) == 0            # any: 0.90 <= 2 * 1.10
        assert main(args + ["--batch", "on"]) == 1  # 0.90 > 2 * 0.30

    def test_gate_reads_record_run_output(self, tmp_path):
        """End to end: records written by the bench harness gate
        cleanly (schema-2 round trip)."""
        baseline = tmp_path / "baseline.json"
        measured = tmp_path / "measured.json"
        bench.record_run({"fig05": 0.30}, scale=0.25, jobs=1,
                         cache="warm", path=str(baseline))
        bench.record_run({"fig05": 0.45}, scale=0.25, jobs=1,
                         cache="warm", path=str(measured))
        assert main(["--baseline", str(baseline),
                     "--measured", str(measured)]) == 0


class TestRssCeiling:
    def gate(self, tmp_path, measured_extra, args=()):
        baseline = tmp_path / "baseline.json"
        measured = tmp_path / "measured.json"
        write_bench(baseline, [run_entry(0.30)])
        write_bench(measured, [run_entry(0.35, **measured_extra)])
        return main(["--baseline", str(baseline),
                     "--measured", str(measured)] + list(args))

    def test_rss_within_ceiling_passes(self, tmp_path):
        assert self.gate(tmp_path, {"peak_rss_mb": 900.0}) == 0

    def test_rss_beyond_ceiling_fails(self, tmp_path):
        assert self.gate(tmp_path, {"peak_rss_mb": 900.0},
                         ["--max-rss-mb", "512"]) == 1

    def test_pre_schema3_runs_without_rss_pass(self, tmp_path):
        assert self.gate(tmp_path, {}, ["--max-rss-mb", "1"]) == 0


class TestBatchSpeedupGate:
    def gate(self, tmp_path, batched_s, scalar_s, minimum="3.0"):
        baseline = tmp_path / "baseline.json"
        measured = tmp_path / "measured.json"
        write_bench(baseline, [run_entry(batched_s, batch=True)])
        write_bench(measured, [run_entry(batched_s, batch=True),
                               run_entry(scalar_s, batch=False)])
        return main(["--baseline", str(baseline),
                     "--measured", str(measured), "--batch", "on",
                     "--min-batch-speedup", minimum])

    def test_sufficient_speedup_passes(self, tmp_path):
        assert self.gate(tmp_path, 0.10, 0.55) == 0

    def test_insufficient_speedup_fails(self, tmp_path):
        assert self.gate(tmp_path, 0.30, 0.55) == 1

    def test_missing_scalar_run_errors(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        measured = tmp_path / "measured.json"
        write_bench(baseline, [run_entry(0.10, batch=True)])
        write_bench(measured, [run_entry(0.10, batch=True)])
        assert main(["--baseline", str(baseline),
                     "--measured", str(measured), "--batch", "on",
                     "--min-batch-speedup", "3.0"]) == 2


class TestFaultsFilter:
    def test_fault_runs_never_match_by_default(self):
        """Schema 4: chaos-mode runs are invisible to the default gate
        so they cannot shadow a fault-free baseline."""
        payload = {"runs": [run_entry(0.3),
                            run_entry(9.9, faults=True)]}
        seconds, __ = find_run(payload, "fig05", 0.25, 1, "warm")
        assert seconds == 0.3
        seconds, __ = find_run(payload, "fig05", 0.25, 1, "warm",
                               faults=True)
        assert seconds == 9.9
        seconds, __ = find_run(payload, "fig05", 0.25, 1, "warm",
                               faults=None)
        assert seconds == 9.9  # 'any': newest regardless

    def test_pre_schema4_runs_match_faults_off(self):
        payload = {"runs": [run_entry(0.7)]}  # no "faults" key
        seconds, __ = find_run(payload, "fig05", 0.25, 1, "warm",
                               faults=False)
        assert seconds == 0.7
        assert find_run(payload, "fig05", 0.25, 1, "warm",
                        faults=True) == (None, None)

    def test_faults_on_speedup_gate(self, tmp_path):
        """The chaos speedup CI invocation: both engine runs are
        fault-tagged and only they feed the ratio."""
        baseline = tmp_path / "baseline.json"
        measured = tmp_path / "measured.json"
        write_bench(baseline, [run_entry(0.10, batch=True, faults=True)])
        write_bench(measured, [run_entry(0.10, batch=True, faults=True),
                               run_entry(0.80, batch=False, faults=True),
                               run_entry(0.11, batch=False)])
        args = ["--baseline", str(baseline), "--measured", str(measured),
                "--batch", "on", "--faults", "on",
                "--min-batch-speedup", "5.0"]
        assert main(args) == 0  # 0.80 / 0.10 = 8x, fault runs only
        # Without the faults filter the fault-free 0.11s scalar run is
        # newest and the apparent speedup collapses below 5x.
        assert main(["--baseline", str(baseline),
                     "--measured", str(measured), "--batch", "on",
                     "--faults", "any",
                     "--min-batch-speedup", "5.0"]) == 1


class TestRssFactorGate:
    def files(self, tmp_path, baseline_rss, measured_rss):
        baseline = tmp_path / "baseline.json"
        measured = tmp_path / "measured.json"
        base_run = run_entry(0.3)
        meas_run = run_entry(0.4)
        if baseline_rss is not None:
            base_run["peak_rss_mb"] = baseline_rss
        if measured_rss is not None:
            meas_run["peak_rss_mb"] = measured_rss
        write_bench(baseline, [base_run])
        write_bench(measured, [meas_run])
        return ["--baseline", str(baseline), "--measured", str(measured)]

    def test_within_factor_passes(self, tmp_path):
        args = self.files(tmp_path, 500.0, 700.0)
        assert main(args + ["--rss-factor", "1.5"]) == 0

    def test_beyond_factor_fails(self, tmp_path):
        args = self.files(tmp_path, 500.0, 800.0)
        assert main(args + ["--rss-factor", "1.5"]) == 1

    def test_missing_rss_skips_with_note(self, tmp_path, capsys):
        args = self.files(tmp_path, None, 800.0)
        assert main(args + ["--rss-factor", "1.5"]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_flat_ceiling_still_applies(self, tmp_path):
        args = self.files(tmp_path, 500.0, 700.0)
        assert main(args + ["--rss-factor", "2.0",
                            "--max-rss-mb", "600"]) == 1


class TestParallelSpeedupGate:
    def files(self, tmp_path, serial_s, parallel_s, parallel_jobs=4):
        baseline = tmp_path / "baseline.json"
        measured = tmp_path / "measured.json"
        write_bench(baseline, [run_entry(serial_s)])
        write_bench(measured, [
            run_entry(serial_s, wall_seconds=serial_s + 0.5),
            run_entry(parallel_s, jobs=parallel_jobs,
                      wall_seconds=parallel_s + 1.0)])
        return ["--baseline", str(baseline), "--measured", str(measured)]

    def test_sufficient_speedup_passes(self, tmp_path):
        args = self.files(tmp_path, 4.0, 1.2)
        assert main(args + ["--min-parallel-speedup", "2.0"]) == 0

    def test_insufficient_speedup_fails(self, tmp_path):
        args = self.files(tmp_path, 4.0, 2.5)
        assert main(args + ["--min-parallel-speedup", "2.0"]) == 1

    def test_uses_experiment_seconds_not_wall(self, tmp_path, capsys):
        # jobs=4 entry seconds (the slowest shard's compute) are the
        # gated metric; wall clock is printed as context only.
        args = self.files(tmp_path, 4.0, 1.9)
        assert main(args + ["--min-parallel-speedup", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "parallel speedup 2.11x" in out
        assert "wall" in out

    def test_missing_parallel_run_errors(self, tmp_path):
        args = self.files(tmp_path, 4.0, 1.0, parallel_jobs=2)
        assert main(args + ["--min-parallel-speedup", "2.0"]) == 2
