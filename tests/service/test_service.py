"""ExperimentService behavior tests: config validation, dispatch,
cancellation, crash loops, crash-of-the-service-itself cleanliness.

Every scenario runs on a fresh asyncio loop via ``run_async``; the
chaos experiments come from the forked-worker-visible registry in
``conftest.py``.
"""

import asyncio

import pytest

from repro.errors import ExperimentError, HbmSimError, WorkerCrashError
from repro.faults import FaultPlan, clear_plan, install_plan
from repro.service import ExperimentService, ServiceConfig

from tests.service.conftest import needs_fork, run_async

pytestmark = needs_fork


async def _started(config: ServiceConfig) -> ExperimentService:
    service = ExperimentService(config)
    await service.start()
    return service


class TestLifecycle:
    def test_submit_requires_start(self, chaos_registry, service_cache):
        service = ExperimentService(ServiceConfig(slots=1))
        with pytest.raises(HbmSimError):
            service.submit({"experiment_id": "svc-ok"})

    def test_ok_and_failed_jobs_resolve(self, chaos_registry,
                                        service_cache):
        async def scenario():
            service = await _started(ServiceConfig(slots=1, retries=0))
            try:
                ok = service.submit({"experiment_id": "svc-ok"})
                bad = service.submit({"experiment_id": "svc-bad"})
                ok_record = await ok.wait()
                bad_record = await bad.wait()
                assert ok_record.status == "ok"
                assert ok.exception is None
                assert bad_record.status == "failed"
                assert isinstance(bad.exception, ExperimentError)
                assert "injected failure" in bad_record.error
            finally:
                await service.close()

        run_async(scenario())

    def test_verify_only_request_never_occupies_a_worker(
            self, chaos_registry, service_cache):
        async def scenario():
            service = await _started(ServiceConfig(slots=1))
            try:
                job = service.submit(
                    {"program": "ACT 0 0 0 100\nPRE 0 0 0"})
                record = await job.wait()
                assert record.status == "verified"
                assert job.executions == 0
            finally:
                await service.close()

        run_async(scenario())

    def test_close_resolves_every_job(self, chaos_registry,
                                      service_cache):
        """No hung awaits: closing mid-flight cancels cleanly."""
        async def scenario():
            service = await _started(ServiceConfig(slots=1))
            running = service.submit({"experiment_id": "svc-sleep"})
            queued = service.submit({"experiment_id": "svc-ok"})
            await asyncio.sleep(0.2)
            await service.close()
            for job in (running, queued):
                record = await asyncio.wait_for(job.wait(), timeout=5.0)
                assert record.status == "cancelled"
                assert isinstance(job.exception, ExperimentError)

        run_async(scenario())


class TestCancellation:
    def test_cancel_queued_job_releases_immediately(
            self, chaos_registry, service_cache):
        async def scenario():
            service = await _started(ServiceConfig(slots=1))
            try:
                blocker = service.submit({"experiment_id": "svc-sleep"})
                queued = service.submit({"experiment_id": "svc-ok"})
                assert queued.state == "queued"
                assert service.cancel(queued.job_id)
                record = await asyncio.wait_for(queued.wait(),
                                                timeout=1.0)
                assert record.status == "cancelled"
                assert queued.executions == 0
                assert service.cancel(blocker.job_id)
            finally:
                await service.close()

        run_async(scenario())

    def test_cancel_running_job_frees_the_slot(self, chaos_registry,
                                               service_cache):
        async def scenario():
            service = await _started(ServiceConfig(slots=1))
            try:
                hung = service.submit({"experiment_id": "svc-sleep"})
                follow = service.submit({"experiment_id": "svc-ok"})
                await asyncio.sleep(0.2)
                assert hung.state == "running"
                assert service.cancel(hung.job_id)
                hung_record = await asyncio.wait_for(hung.wait(),
                                                     timeout=10.0)
                assert hung_record.status == "cancelled"
                # The killed worker's slot is respawned and reused well
                # before svc-sleep's 30s would have elapsed.
                follow_record = await asyncio.wait_for(follow.wait(),
                                                       timeout=15.0)
                assert follow_record.status == "ok"
            finally:
                await service.close()

        run_async(scenario())

    def test_cancel_unknown_or_done_returns_false(self, chaos_registry,
                                                  service_cache):
        async def scenario():
            service = await _started(ServiceConfig(slots=1))
            try:
                job = service.submit({"experiment_id": "svc-ok"})
                await job.wait()
                assert not service.cancel(job.job_id)
                assert not service.cancel("job-999999")
            finally:
                await service.close()

        run_async(scenario())


class TestConfigValidation:
    @pytest.mark.parametrize("fields", [{"slots": 0}, {"timeout": 0},
                                        {"timeout": -1.0},
                                        {"retries": -1}])
    def test_unrunnable_policy_rejected_at_construction(self, fields):
        with pytest.raises(ValueError):
            ServiceConfig(**fields)

    @pytest.mark.parametrize("argv", [["--timeout", "0"],
                                      ["--retries", "-1"],
                                      ["--slots", "0"]])
    def test_cli_exits_2_before_serving(self, argv, capsys):
        from repro.service.__main__ import main
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "must be" in capsys.readouterr().err


class TestCrashLoop:
    def test_crash_loop_costs_retries_plus_one_executions(
            self, chaos_registry, service_cache):
        """Nothing fast-fails a crashing experiment: every request
        spends its attempts and ends in a typed WorkerCrashError."""
        async def scenario():
            config = ServiceConfig(slots=1, retries=1,
                                   retry_delay=0.0,
                                   use_result_cache=False)
            service = await _started(config)
            try:
                for _ in range(2):
                    job = service.submit({"experiment_id": "svc-crash"})
                    record = await job.wait()
                    assert record.status == "failed"
                    assert record.attempts == 2
                    assert isinstance(job.exception, WorkerCrashError)
                ok = service.submit({"experiment_id": "svc-ok"})
                assert (await ok.wait()).status == "ok"
            finally:
                await service.close()

        run_async(scenario())

        from tests.service.conftest import executions
        assert executions(chaos_registry / "executions") == 2 * 2 + 1


class TestResultCacheIntegration:
    def test_results_persist_across_service_instances(
            self, chaos_registry, service_cache):
        async def scenario():
            first = await _started(ServiceConfig(slots=1))
            try:
                job = first.submit({"experiment_id": "svc-ok"})
                assert (await job.wait()).status == "ok"
            finally:
                await first.close()
            second = await _started(ServiceConfig(slots=1))
            try:
                repeat = second.submit({"experiment_id": "svc-ok"})
                record = await repeat.wait()
                assert record.status == "cached"
                assert record.result.text == "ran svc-ok @ 1"
            finally:
                await second.close()

        run_async(scenario())

        from tests.service.conftest import executions
        assert executions(chaos_registry / "executions") == 1

    def test_ambient_plan_reaches_workers_and_splits_the_cache(
            self, chaos_registry, service_cache):
        """A plan installed in the service process is the plan its
        workers run and its results are keyed under, so a service
        without it sharing the cache directory recomputes."""
        async def run_once():
            service = await _started(ServiceConfig(slots=1))
            try:
                return await service.submit(
                    {"experiment_id": "svc-plan"}).wait()
            finally:
                await service.close()

        install_plan(FaultPlan(seed=3, read_flip_rate=0.9))
        try:
            chaos = run_async(run_once())
        finally:
            clear_plan()
        plain = run_async(run_once())
        assert chaos.status == "ok"
        assert chaos.result.text == "read_flip_rate 0.9"
        assert plain.status == "ok"
        assert plain.result.text == "read_flip_rate None"
