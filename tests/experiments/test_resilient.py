"""Tests for the resilient runner: retries, timeouts, crash recovery,
keep-going degradation, and checkpoint/resume."""

import multiprocessing
import os
from pathlib import Path

import pytest

from repro.errors import (ExperimentError, ExperimentTimeoutError,
                          HbmSimError, ShardSpecError,
                          UnknownExperimentError)
from repro.experiments import registry
from repro.experiments.__main__ import main
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import backoff_delay, run_resilient
from repro.faults import FaultPlan, clear_plan, install_plan

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool path requires the fork start method")

MARKER_ENV = "HBMSIM_TEST_MARKER"


def _result(experiment_id: str) -> ExperimentResult:
    return ExperimentResult(experiment_id=experiment_id,
                            title=experiment_id, text=f"ran {experiment_id}")


# Chaos experiments must live at module level so fork workers inherit
# them through the monkeypatched registry.
def _chaos_ok(scale: float) -> ExperimentResult:
    return _result("chaos-ok")


def _chaos_ok2(scale: float) -> ExperimentResult:
    return _result("chaos-ok2")


def _chaos_scaled(scale: float) -> ExperimentResult:
    return ExperimentResult(experiment_id="chaos-scaled",
                            title="chaos-scaled", text=f"ran at {scale}")


def _chaos_bad(scale: float) -> ExperimentResult:
    raise RuntimeError("injected failure")


def _chaos_flaky(scale: float) -> ExperimentResult:
    """Fail until the marker file exists, creating it on the way out."""
    marker = Path(os.environ[MARKER_ENV])
    if not marker.exists():
        marker.write_text("seen")
        raise RuntimeError("flaky: first attempt")
    return _result("chaos-flaky")


def _chaos_crash(scale: float) -> ExperimentResult:
    """Kill the worker process outright on the first attempt."""
    marker = Path(os.environ[MARKER_ENV])
    if not marker.exists():
        marker.write_text("seen")
        os._exit(97)
    return _result("chaos-crash")


def _chaos_sleep(scale: float) -> ExperimentResult:
    import time
    time.sleep(30.0)
    return _result("chaos-sleep")


@pytest.fixture()
def chaos_registry(monkeypatch, tmp_path):
    for name, fn in [("chaos-ok", _chaos_ok), ("chaos-ok2", _chaos_ok2),
                     ("chaos-scaled", _chaos_scaled),
                     ("chaos-bad", _chaos_bad),
                     ("chaos-flaky", _chaos_flaky),
                     ("chaos-crash", _chaos_crash),
                     ("chaos-sleep", _chaos_sleep)]:
        monkeypatch.setitem(registry.EXPERIMENTS, name, fn)
    monkeypatch.setenv(MARKER_ENV, str(tmp_path / "marker"))
    return tmp_path


class TestInlinePath:
    def test_keep_going_returns_partial_results(self, chaos_registry):
        records = run_resilient(["chaos-ok", "chaos-bad", "chaos-ok2"],
                                keep_going=True)
        assert [r.status for r in records] == ["ok", "failed", "ok"]
        assert records[0].result.text == "ran chaos-ok"
        assert records[1].result is None
        assert "RuntimeError" in records[1].error
        assert "injected failure" in records[1].error
        assert records[1].attempts == 1

    def test_fail_fast_raises_experiment_error(self, chaos_registry):
        with pytest.raises(ExperimentError) as excinfo:
            run_resilient(["chaos-ok", "chaos-bad"])
        assert excinfo.value.experiment_id == "chaos-bad"
        assert isinstance(excinfo.value, HbmSimError)

    def test_retry_recovers_flaky_experiment(self, chaos_registry):
        records = run_resilient(["chaos-flaky"], retries=2,
                                retry_delay=0.01)
        assert records[0].status == "retried"
        assert records[0].attempts == 2
        assert records[0].result.text == "ran chaos-flaky"

    def test_retries_exhausted_keeps_failure(self, chaos_registry):
        records = run_resilient(["chaos-bad"], retries=2,
                                retry_delay=0.01, keep_going=True)
        assert records[0].status == "failed"
        assert records[0].attempts == 3

    def test_unknown_id_rejected_before_running(self, chaos_registry):
        with pytest.raises(UnknownExperimentError):
            run_resilient(["chaos-ok", "no-such-exp"])

    def test_argument_validation(self, chaos_registry):
        with pytest.raises(ValueError):
            run_resilient(["chaos-ok"], retries=-1)
        with pytest.raises(ValueError):
            run_resilient(["chaos-ok"], timeout=0)
        with pytest.raises(HbmSimError):
            run_resilient(["chaos-ok"], resume=True)

    def test_backoff_is_deterministic_and_exponential(self):
        first = backoff_delay("fig05", 1, base=0.25)
        again = backoff_delay("fig05", 1, base=0.25)
        second = backoff_delay("fig05", 2, base=0.25)
        assert first == again
        assert 0.25 <= first <= 0.375
        assert 0.5 <= second <= 0.75
        assert backoff_delay("fig07", 1, base=0.25) != first


@needs_fork
class TestPoolPath:
    def test_worker_crash_is_retried(self, chaos_registry):
        records = run_resilient(
            ["chaos-ok", "chaos-crash", "chaos-ok2"],
            jobs=2, retries=1, retry_delay=0.01, keep_going=True)
        assert [r.experiment_id for r in records] \
            == ["chaos-ok", "chaos-crash", "chaos-ok2"]
        by_id = {r.experiment_id: r for r in records}
        assert by_id["chaos-crash"].status == "retried"
        assert by_id["chaos-crash"].attempts == 2
        # Survivors are unaffected by the crashed sibling.
        assert by_id["chaos-ok"].status == "ok"
        assert by_id["chaos-ok2"].status == "ok"

    def test_worker_crash_without_retry_fails(self, chaos_registry):
        records = run_resilient(["chaos-crash"], jobs=1, timeout=30.0,
                                keep_going=True)
        assert records[0].status == "failed"
        assert "worker" in records[0].error.lower()
        assert "exit code 97" in records[0].error  # chaos-crash's code

    def test_timeout_kills_hung_experiment(self, chaos_registry):
        records = run_resilient(["chaos-sleep", "chaos-ok"], jobs=2,
                                timeout=1.0, keep_going=True)
        by_id = {r.experiment_id: r for r in records}
        assert by_id["chaos-sleep"].status == "timeout"
        assert "timed out" in by_id["chaos-sleep"].error.lower()
        assert by_id["chaos-ok"].status == "ok"

    def test_timeout_fail_fast_raises(self, chaos_registry):
        with pytest.raises(ExperimentTimeoutError):
            run_resilient(["chaos-sleep"], jobs=1, timeout=0.5)


class TestCheckpointResume:
    def test_resume_reruns_only_failures(self, chaos_registry, tmp_path):
        run_dir = tmp_path / "run"
        first = run_resilient(["chaos-ok", "chaos-bad"], keep_going=True,
                              run_dir=run_dir)
        assert [r.status for r in first] == ["ok", "failed"]
        # "Fix" the failure, then resume: the survivor must come back
        # from its checkpoint without re-executing.
        registry.EXPERIMENTS["chaos-bad"] = _chaos_ok
        second = run_resilient(["chaos-ok", "chaos-bad"], keep_going=True,
                               run_dir=run_dir, resume=True)
        assert [r.status for r in second] == ["cached", "ok"]
        assert second[0].result.text == "ran chaos-ok"
        assert (run_dir / "records.json").exists()

    def test_resume_at_another_scale_recomputes(self, chaos_registry,
                                                tmp_path):
        run_dir = tmp_path / "run"
        run_resilient(["chaos-scaled"], scale=0.5, run_dir=run_dir)
        records = run_resilient(["chaos-scaled"], scale=1.0,
                                run_dir=run_dir, resume=True)
        assert records[0].status == "ok"
        assert records[0].result.text == "ran at 1.0"
        again = run_resilient(["chaos-scaled"], scale=0.5,
                              run_dir=run_dir, resume=True)
        assert again[0].status == "cached"
        assert again[0].result.text == "ran at 0.5"

    def test_fresh_run_clears_stale_checkpoints(self, chaos_registry,
                                                tmp_path):
        run_dir = tmp_path / "run"
        run_resilient(["chaos-ok"], keep_going=True, run_dir=run_dir)
        # Without --resume, the same run dir re-executes everything.
        records = run_resilient(["chaos-ok"], keep_going=True,
                                run_dir=run_dir)
        assert records[0].status == "ok"

    def test_resume_of_another_shard_runs_it(self, tmp_path):
        run_dir = tmp_path / "run"
        first = run_resilient(["fig04"], scale=0.02, shard="0/2",
                              run_dir=run_dir)
        second = run_resilient(["fig04"], scale=0.02, shard="1/2",
                               run_dir=run_dir, resume=True)
        assert second[0].status == "ok"
        assert second[0].result.text.startswith("fig04 shard 1/2")
        assert first[0].result.text.startswith("fig04 shard 0/2")

    def test_resume_under_a_device_fault_plan_reruns(self, chaos_registry,
                                                     tmp_path):
        run_dir = tmp_path / "run"
        run_resilient(["chaos-ok"], run_dir=run_dir)
        install_plan(FaultPlan(seed=3, read_flip_rate=0.9))
        try:
            records = run_resilient(["chaos-ok"], run_dir=run_dir,
                                    resume=True)
        finally:
            clear_plan()
        assert records[0].status == "ok"

    def test_resume_ignores_worker_only_plan_fields(self, chaos_registry,
                                                    tmp_path):
        """Only ``crash_once``/``stall_experiments`` changed: every
        invocation is served from the store, in any request order."""
        run_dir = tmp_path / "run"
        install_plan(FaultPlan(seed=7, crash_once=("chaos-bad",),
                               stall_experiments={"chaos-sleep": 99.0}))
        try:
            run_resilient(["chaos-ok", "chaos-ok2"], run_dir=run_dir)
            install_plan(FaultPlan(seed=7))
            records = run_resilient(["chaos-ok2", "chaos-ok"],
                                    run_dir=run_dir, resume=True)
        finally:
            clear_plan()
        assert [r.status for r in records] == ["cached", "cached"]
        assert records[0].result.text == "ran chaos-ok2"

    def test_malformed_shard_rejected_before_running(self, chaos_registry,
                                                     tmp_path):
        with pytest.raises(ShardSpecError):
            run_resilient(["chaos-ok"], shard="0-2",
                          run_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()


class TestDeterministicSequence:
    def test_identical_chaos_runs_identical_records(self, chaos_registry,
                                                    tmp_path, monkeypatch):
        sequences = []
        for attempt in ("a", "b"):
            monkeypatch.setenv(MARKER_ENV,
                               str(tmp_path / f"marker-{attempt}"))
            records = run_resilient(
                ["chaos-ok", "chaos-flaky", "chaos-bad", "chaos-ok2"],
                retries=1, retry_delay=0.01, keep_going=True)
            sequences.append([(r.experiment_id, r.status, r.attempts)
                              for r in records])
        assert sequences[0] == sequences[1]
        assert sequences[0] == [
            ("chaos-ok", "ok", 1), ("chaos-flaky", "retried", 2),
            ("chaos-bad", "failed", 2), ("chaos-ok2", "ok", 1)]


class TestCliExitCodes:
    def test_unknown_id_suggests_and_exits_2(self, capsys):
        code = main(["fig9"])
        captured = capsys.readouterr()
        assert code == 2
        assert "did you mean" in captured.err
        assert "fig09" in captured.err

    def test_keep_going_partial_exit_1(self, chaos_registry, capsys):
        code = main(["chaos-ok", "chaos-bad", "--keep-going"])
        captured = capsys.readouterr()
        assert code == 1
        assert "ran chaos-ok" in captured.out
        assert "FAILED" in captured.out
        assert "RuntimeError" in captured.err
        assert "1 failed" in captured.err

    def test_fail_fast_exit_1(self, chaos_registry, capsys):
        code = main(["chaos-bad"])
        captured = capsys.readouterr()
        assert code == 1
        assert "injected failure" in captured.err

    def test_resume_flag_requires_run_dir(self, chaos_registry, capsys):
        code = main(["chaos-ok", "--resume"])
        assert code == 2
