"""Shared fixtures for the service-layer tests.

Chaos experiments live at module level so the pool's fork workers
inherit them through the monkeypatched registry, exactly as in
``tests/experiments/test_resilient.py``.
"""

import asyncio
import multiprocessing
import os

import pytest

from repro.experiments import registry
from repro.experiments.base import ExperimentResult

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="service pool requires the fork start method")

COUNTER_ENV = "HBMSIM_TEST_COUNTER"


def count_execution() -> None:
    """Append one byte to the counter file (O_APPEND: atomic across
    forked workers); the file's size is the execution count."""
    path = os.environ.get(COUNTER_ENV)
    if not path:
        return
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, b"x")
    finally:
        os.close(fd)


def executions(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _result(experiment_id: str, scale: float) -> ExperimentResult:
    return ExperimentResult(experiment_id=experiment_id,
                            title=experiment_id,
                            text=f"ran {experiment_id} @ {scale:g}")


def _svc_ok(scale: float) -> ExperimentResult:
    count_execution()
    return _result("svc-ok", scale)


def _svc_ok2(scale: float) -> ExperimentResult:
    count_execution()
    return _result("svc-ok2", scale)


def _svc_bad(scale: float) -> ExperimentResult:
    count_execution()
    raise RuntimeError("injected failure")


def _svc_crash(scale: float) -> ExperimentResult:
    """Hard-kill the worker on every attempt (a crash loop)."""
    count_execution()
    os._exit(97)


def _svc_plan(scale: float) -> ExperimentResult:
    """Report the fault plan the worker runs under."""
    from repro.faults import active_plan
    plan = active_plan()
    rate = plan.read_flip_rate if plan is not None else None
    return ExperimentResult(experiment_id="svc-plan", title="svc-plan",
                            text=f"read_flip_rate {rate}")


def _svc_sleep(scale: float) -> ExperimentResult:
    import time
    time.sleep(30.0)
    return _result("svc-sleep", scale)


@pytest.fixture()
def chaos_registry(monkeypatch, tmp_path):
    for name, fn in [("svc-ok", _svc_ok), ("svc-ok2", _svc_ok2),
                     ("svc-bad", _svc_bad), ("svc-crash", _svc_crash),
                     ("svc-plan", _svc_plan),
                     ("svc-sleep", _svc_sleep)]:
        monkeypatch.setitem(registry.EXPERIMENTS, name, fn)
    monkeypatch.setenv(COUNTER_ENV, str(tmp_path / "executions"))
    return tmp_path


@pytest.fixture()
def service_cache(tmp_path, monkeypatch):
    """A private result-cache directory per test (the session-scoped
    hermetic cache is shared; coalescing tests need isolation)."""
    target = tmp_path / "svc-cache"
    monkeypatch.setenv("HBMSIM_CACHE_DIR", str(target))
    monkeypatch.delenv("HBMSIM_NO_CACHE", raising=False)
    return target


def run_async(coroutine):
    """Drive one service scenario to completion on a fresh loop."""
    return asyncio.run(coroutine)
