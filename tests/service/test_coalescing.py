"""Coalescing proof: N concurrent identical requests cost exactly one
execution and return N bit-identical results.

The execution counter is a file appended with O_APPEND from inside the
forked workers (see ``conftest.count_execution``), so it counts *real*
experiment-body executions across processes, not service bookkeeping.
"""

import asyncio
import hashlib
import os

import pytest

from repro.experiments import registry
from repro.service import ExperimentService, ServiceConfig

from tests.service.conftest import (count_execution, executions, needs_fork,
                                    run_async)

pytestmark = needs_fork

# Module level so fork workers inherit it through the patched registry.
_REAL_FIG05 = registry.EXPERIMENTS["fig05"]


def _counted_fig05(scale: float):
    count_execution()
    return _REAL_FIG05(scale)


@pytest.fixture()
def counted_fig05(monkeypatch, tmp_path):
    monkeypatch.setitem(registry.EXPERIMENTS, "fig05", _counted_fig05)
    counter = tmp_path / "fig05-executions"
    monkeypatch.setenv("HBMSIM_TEST_COUNTER", str(counter))
    return counter


def _sha(record) -> str:
    return hashlib.sha256(record.result.text.encode()).hexdigest()[:16]


class TestCoalescingProof:
    def test_16_identical_fig05_requests_run_once(self, counted_fig05,
                                                  service_cache):
        """The acceptance proof: 16 concurrent identical fig05@0.25
        submissions -> one execution, 16 identical reports with the
        repository's golden fig05 sha, 15 cache-hit records."""
        async def scenario():
            service = ExperimentService(ServiceConfig(slots=2))
            await service.start()
            try:
                jobs = [service.submit({"experiment_id": "fig05",
                                        "scale": 0.25})
                        for _ in range(16)]
                return [await job.wait() for job in jobs]
            finally:
                await service.close()

        records = run_async(scenario())
        assert executions(counted_fig05) == 1
        statuses = sorted(record.status for record in records)
        assert statuses.count("cached") == 15
        assert statuses.count("ok") == 1
        shas = {_sha(record) for record in records}
        assert shas == {"44546c2cd83c30da"}

    def test_followers_share_a_failure_too(self, chaos_registry,
                                           service_cache):
        async def scenario():
            service = ExperimentService(ServiceConfig(
                slots=1, retries=0, use_result_cache=False))
            await service.start()
            try:
                blocker = service.submit({"experiment_id": "svc-sleep"})
                jobs = [service.submit({"experiment_id": "svc-bad"})
                        for _ in range(4)]
                service.cancel(blocker.job_id)
                records = [await job.wait() for job in jobs]
                assert all(r.status == "failed" for r in records)
                assert all(job.exception is not None for job in jobs)
            finally:
                await service.close()

        run_async(scenario())
        assert executions(chaos_registry / "executions") == 1

    def test_cancelled_primary_promotes_a_follower(self, chaos_registry,
                                                   service_cache):
        async def scenario():
            service = ExperimentService(ServiceConfig(slots=1))
            await service.start()
            try:
                blocker = service.submit({"experiment_id": "svc-sleep"})
                primary = service.submit({"experiment_id": "svc-ok"})
                followers = [service.submit({"experiment_id": "svc-ok"})
                             for _ in range(3)]
                assert all(f.coalesced_with == primary.job_id
                           for f in followers)
                assert service.cancel(primary.job_id)
                assert (await primary.wait()).status == "cancelled"
                service.cancel(blocker.job_id)
                records = [await f.wait() for f in followers]
                # The promoted follower executed; the rest coalesced
                # onto it.
                statuses = sorted(r.status for r in records)
                assert statuses == ["cached", "cached", "ok"]
            finally:
                await service.close()

        run_async(scenario())
        assert executions(chaos_registry / "executions") == 1

    def test_different_fault_plans_do_not_coalesce(self, chaos_registry,
                                                   service_cache):
        async def scenario():
            service = ExperimentService(ServiceConfig(slots=1))
            await service.start()
            try:
                plain = service.submit({"experiment_id": "svc-ok"})
                seeded = service.submit({"experiment_id": "svc-ok",
                                         "fault_plan": {"seed": 5}})
                assert seeded.coalesced_with is None
                await plain.wait()
                await seeded.wait()
            finally:
                await service.close()

        run_async(scenario())
        assert executions(chaos_registry / "executions") == 2


class TestPerRequestFaultPlans:
    def test_request_plan_reaches_the_worker(self, chaos_registry,
                                             service_cache, tmp_path):
        """A request-scoped plan crashes the worker for that request
        only; the next (plan-less) request on the same slot is clean."""
        async def scenario():
            service = ExperimentService(ServiceConfig(slots=1,
                                                      retries=0))
            await service.start()
            try:
                chaotic = service.submit({
                    "experiment_id": "svc-ok",
                    "fault_plan": {"crash_once": ["svc-ok"]}})
                record = await chaotic.wait()
                assert record.status == "failed"
                assert "crash" in (record.error or "").lower() \
                    or "exit" in (record.error or "").lower()
                clean = service.submit({"experiment_id": "svc-ok2"})
                assert (await clean.wait()).status == "ok"
            finally:
                await service.close()

        run_async(scenario())

    def test_request_plan_retry_succeeds(self, chaos_registry,
                                         service_cache):
        """crash_once + retries=1: first attempt dies, retry passes —
        the plan is re-installed per attempt deterministically."""
        async def scenario():
            service = ExperimentService(ServiceConfig(slots=1,
                                                      retries=1))
            await service.start()
            try:
                job = service.submit({
                    "experiment_id": "svc-ok",
                    "fault_plan": {"crash_once": ["svc-ok"]}})
                record = await job.wait()
                assert record.status == "retried"
                assert record.attempts == 2
            finally:
                await service.close()

        run_async(scenario())
