"""A failed shard fan-out kills its siblings at once.

When one shard of a fanned-out experiment fails for good, the pool loop
kills the sibling shards still queued or running instead of waiting for
them: a keep-going run returns the ``failed`` record, and a fail-fast
run raises, in seconds rather than after a hung sibling's sleep.
"""

import multiprocessing
import time

import pytest

from repro.errors import ExperimentError
from repro.experiments import registry, runner
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import run_resilient

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool requires the fork start method")

pytestmark = needs_fork

#: How long the hung sibling shard sleeps if nothing kills it.
HANG_S = 60.0
#: A run that waited for the sibling would take ``HANG_S``.
PROMPT_S = 10.0


class _FailingFanout:
    """A shardable experiment: shard 0 raises, shard 1 hangs."""

    units = 2

    @staticmethod
    def run_shard(scale: float, spec) -> ExperimentResult:
        if spec.index == 0:
            raise RuntimeError("shard 0 failed")
        time.sleep(HANG_S)
        return ExperimentResult(experiment_id="fanout-fail",
                                title="fanout-fail", text="late shard")

    @staticmethod
    def merge_shards(partials, scale: float) -> ExperimentResult:
        raise AssertionError("a failed fan-out must never merge")


def _unsharded(scale: float) -> ExperimentResult:
    raise AssertionError("jobs=2 must fan the experiment out")


@pytest.fixture()
def failing_fanout(monkeypatch):
    monkeypatch.setitem(registry.EXPERIMENTS, "fanout-fail", _unsharded)
    monkeypatch.setitem(registry.SHARDABLE, "fanout-fail", _FailingFanout)
    monkeypatch.setattr(runner, "_available_cores", lambda: 2)


class TestFailedFanout:
    def test_keep_going_returns_failed_record_promptly(self,
                                                       failing_fanout):
        started = time.monotonic()
        records = run_resilient(["fanout-fail"], jobs=2, keep_going=True)
        assert time.monotonic() - started < PROMPT_S
        assert records[0].status == "failed"
        assert records[0].result is None
        assert "shard 0 failed" in records[0].error
        assert multiprocessing.active_children() == []

    def test_fail_fast_raises_promptly(self, failing_fanout):
        started = time.monotonic()
        with pytest.raises(ExperimentError) as excinfo:
            run_resilient(["fanout-fail"], jobs=2)
        assert time.monotonic() - started < PROMPT_S
        assert excinfo.value.experiment_id == "fanout-fail"
        assert excinfo.value.cause_message == "shard 0 failed"
        assert multiprocessing.active_children() == []
