"""Journal tests: durable append/replay, torn-tail tolerance, and
service re-adoption (the crash half is a SIGKILL'd subprocess in
``test_service_chaos.py``; here the "crash" is a journal written by
one service instance and re-adopted by another)."""

import asyncio
import json

import pytest

from repro.service import ExperimentService, ServiceConfig, ServiceJournal

from tests.service.conftest import executions, needs_fork, run_async


class TestJournalUnit:
    def test_replay_folds_lifecycle(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        journal.append("admitted", "job-000001",
                       request={"experiment_id": "fig05"}, key="k1")
        journal.append("started", "job-000001")
        journal.append("started", "job-000001")
        journal.append("completed", "job-000001", summary={"sha": "x"})
        journal.append("admitted", "job-000002",
                       request={"experiment_id": "fig07"}, key="k2")
        journal.close()

        jobs = journal.replay()
        assert jobs["job-000001"]["status"] == "completed"
        assert jobs["job-000001"]["executions"] == 2
        assert jobs["job-000002"]["status"] == "in-flight"
        open_jobs = journal.open_jobs()
        assert [entry["job"] for entry in open_jobs] == ["job-000002"]

    def test_torn_tail_line_is_skipped(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        journal.append("admitted", "job-000001",
                       request={"experiment_id": "fig05"}, key="k1")
        journal.close()
        with journal.path.open("a") as handle:
            handle.write('{"schema": 1, "event": "comple')  # SIGKILL'd
        assert len(journal.events()) == 1
        assert journal.open_jobs()[0]["job"] == "job-000001"

    def test_append_after_torn_tail_does_not_merge(self, tmp_path):
        """A new incarnation's first append must not concatenate onto
        a torn final line — that would lose both events."""
        journal = ServiceJournal(tmp_path)
        journal.append("admitted", "job-000001",
                       request={"experiment_id": "fig05"}, key="k1")
        journal.close()
        with journal.path.open("a") as handle:
            handle.write('{"schema": 1, "event": "star')  # no newline

        restarted = ServiceJournal(tmp_path)
        restarted.append("completed", "job-000001", summary={"sha": "x"})
        restarted.close()
        events = [e["event"] for e in restarted.events()]
        assert events == ["admitted", "completed"]
        assert restarted.replay()["job-000001"]["status"] == "completed"

    def test_missing_journal_is_empty(self, tmp_path):
        journal = ServiceJournal(tmp_path / "fresh")
        assert journal.events() == []
        assert journal.open_jobs() == []
        assert journal.max_sequence() == 0

    def test_max_sequence_continues_across_incarnations(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        journal.append("admitted", "job-000007", request={}, key="k")
        journal.append("admitted", "job-000003", request={}, key="k")
        journal.close()
        assert ServiceJournal(tmp_path).max_sequence() == 7

    def test_events_without_job_field_ignored(self, tmp_path):
        journal = ServiceJournal(tmp_path)
        journal.path.parent.mkdir(parents=True, exist_ok=True)
        journal.path.write_text('{"event": "admitted"}\n[1,2]\n')
        assert journal.events() == []


@needs_fork
class TestReadoption:
    def _crash_leaving_journal(self, journal_dir, requests):
        """Simulate a crashed service: journal admissions without
        terminal lines, exactly as a SIGKILL'd instance leaves them."""
        journal = ServiceJournal(journal_dir)
        for n, request in enumerate(requests, start=1):
            journal.append("admitted", f"job-{n:06d}", request=request,
                           key=None)
        journal.close()

    def test_open_jobs_rerun_to_completion(self, chaos_registry,
                                           service_cache, tmp_path):
        journal_dir = tmp_path / "journal"
        self._crash_leaving_journal(journal_dir, [
            {"experiment_id": "svc-ok"},
            {"experiment_id": "svc-ok2"},
        ])

        async def scenario():
            service = ExperimentService(ServiceConfig(
                slots=1, journal_dir=str(journal_dir)))
            await service.start()
            try:
                jobs = await service.drain()
            finally:
                await service.close()
            return jobs

        jobs = run_async(scenario())
        assert sorted(job.job_id for job in jobs) \
            == ["job-000001", "job-000002"]
        assert all(job.record.status == "ok" for job in jobs)
        # The journal now carries terminal lines: nothing re-adopts.
        assert ServiceJournal(journal_dir).open_jobs() == []

    def test_completed_key_readopts_from_cache_without_rerun(
            self, chaos_registry, service_cache, tmp_path):
        """Zero duplicate executions: a job whose execution finished
        before the crash is served from the result cache on restart."""
        journal_dir = tmp_path / "journal"

        async def first_run():
            service = ExperimentService(ServiceConfig(slots=1))
            await service.start()
            try:
                await service.submit({"experiment_id": "svc-ok"}).wait()
            finally:
                await service.close()

        run_async(first_run())
        assert executions(chaos_registry / "executions") == 1

        # The crashed incarnation had admitted the same work but its
        # terminal line never landed.
        self._crash_leaving_journal(journal_dir,
                                    [{"experiment_id": "svc-ok"}])

        async def restart():
            service = ExperimentService(ServiceConfig(
                slots=1, journal_dir=str(journal_dir)))
            await service.start()
            try:
                return await service.drain()
            finally:
                await service.close()

        jobs = run_async(restart())
        assert jobs[0].record.status == "cached"
        assert executions(chaos_registry / "executions") == 1

    def test_identical_readopted_jobs_coalesce(self, chaos_registry,
                                               service_cache, tmp_path):
        journal_dir = tmp_path / "journal"
        self._crash_leaving_journal(
            journal_dir, [{"experiment_id": "svc-ok"}] * 4)

        async def scenario():
            service = ExperimentService(ServiceConfig(
                slots=1, journal_dir=str(journal_dir)))
            await service.start()
            try:
                return await service.drain()
            finally:
                await service.close()

        jobs = run_async(scenario())
        statuses = sorted(job.record.status for job in jobs)
        assert statuses == ["cached", "cached", "cached", "ok"]
        assert executions(chaos_registry / "executions") == 1

    def test_invalid_journaled_request_fails_typed(self, service_cache,
                                                   tmp_path):
        journal_dir = tmp_path / "journal"
        self._crash_leaving_journal(journal_dir,
                                    [{"experiment_id": "no-such"}])

        async def scenario():
            service = ExperimentService(ServiceConfig(
                slots=1, journal_dir=str(journal_dir)))
            await service.start()
            try:
                return await service.drain()
            finally:
                await service.close()

        jobs = run_async(scenario())
        assert jobs == []  # rejected at re-admission, not adopted
        replay = ServiceJournal(journal_dir).replay()
        assert replay["job-000001"]["status"] == "failed"

    def test_journaled_tenant_request_fails_typed(self, chaos_registry,
                                                  service_cache, tmp_path):
        """A journal written while requests still named a tenant
        re-adopts those open jobs as admission failures, unrun."""
        journal_dir = tmp_path / "journal"
        self._crash_leaving_journal(
            journal_dir, [{"experiment_id": "svc-ok", "tenant": "ci"}])

        async def scenario():
            service = ExperimentService(ServiceConfig(
                slots=1, journal_dir=str(journal_dir)))
            await service.start()
            try:
                return await service.drain()
            finally:
                await service.close()

        assert run_async(scenario()) == []
        entry = ServiceJournal(journal_dir).replay()["job-000001"]
        assert entry["status"] == "failed"
        assert "unknown request field(s): tenant" \
            in entry["terminal"]["error"]
        assert executions(chaos_registry / "executions") == 0

    def test_new_jobs_continue_the_id_sequence(self, chaos_registry,
                                               service_cache, tmp_path):
        journal_dir = tmp_path / "journal"
        self._crash_leaving_journal(journal_dir,
                                    [{"experiment_id": "svc-ok"}])

        async def scenario():
            service = ExperimentService(ServiceConfig(
                slots=1, journal_dir=str(journal_dir)))
            await service.start()
            try:
                fresh = service.submit({"experiment_id": "svc-ok2"})
                await service.drain()
                return fresh.job_id
            finally:
                await service.close()

        assert run_async(scenario()) == "job-000002"
