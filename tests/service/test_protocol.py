"""Line-JSON protocol tests: op dispatch, typed error encoding, and
event streaming — dict-in/dict-out, no stdio involved."""

import asyncio

import pytest

from repro.errors import AdmissionError
from repro.service import ExperimentService, ServiceConfig
from repro.service.protocol import PROTOCOL_SCHEMA, LineProtocol, encode_error

from tests.service.conftest import needs_fork, run_async


class TestErrorEncoding:
    def test_admission_error_fields(self):
        exc = AdmissionError("unknown experiment", field="experiment_id",
                             suggestions=["fig05"])
        error = encode_error(exc)
        assert error["code"] == "admission"
        assert error["field"] == "experiment_id"
        assert error["suggestions"] == ["fig05"]

    def test_foreign_exception_still_encodes(self):
        error = encode_error(ValueError("boom"))
        assert error["code"] == "ValueError"
        assert error["message"] == "boom"


@needs_fork
class TestOps:
    def _scenario(self, config=None):
        service = ExperimentService(config or ServiceConfig(slots=1))
        return service, LineProtocol(service)

    def test_submit_wait_status_shutdown(self, chaos_registry,
                                         service_cache):
        async def scenario():
            service, protocol = self._scenario()
            await service.start()
            submitted = await protocol.handle(
                {"op": "submit",
                 "request": {"experiment_id": "svc-ok"}})
            assert submitted["ok"] and submitted["op"] == "submit"
            assert submitted["schema"] == PROTOCOL_SCHEMA
            job_id = submitted["job"]

            waited = await protocol.handle({"op": "wait", "job": job_id})
            assert waited["ok"]
            assert waited["record"]["status"] == "ok"
            assert "error" not in waited

            status = await protocol.handle({"op": "status"})
            assert status["status"]["jobs"] == {"ok": 1}

            done = await protocol.handle({"op": "shutdown"})
            assert done["ok"] and protocol.closing

        run_async(scenario())

    def test_status_reports_result_store_size(self, chaos_registry,
                                              service_cache):
        async def scenario():
            service, protocol = self._scenario()
            await service.start()
            try:
                before = await protocol.handle({"op": "status"})
                submitted = await protocol.handle(
                    {"op": "submit",
                     "request": {"experiment_id": "svc-ok"}})
                await protocol.handle({"op": "wait",
                                       "job": submitted["job"]})
                after = await protocol.handle({"op": "status"})
            finally:
                await service.close()
            return before["status"]["cache"], after["status"]["cache"]

        before, after = run_async(scenario())
        assert before == {"entries": 0, "bytes": 0}
        [entry] = service_cache.glob("expres-*.pkl")
        assert after == {"entries": 1, "bytes": entry.stat().st_size}

    def test_status_cache_is_none_when_off(self, chaos_registry,
                                           service_cache):
        async def scenario():
            service, protocol = self._scenario(
                ServiceConfig(slots=1, use_result_cache=False))
            await service.start()
            try:
                return await protocol.handle({"op": "status"})
            finally:
                await service.close()

        assert run_async(scenario())["status"]["cache"] is None

    def test_failed_job_wait_carries_typed_error(self, chaos_registry,
                                                 service_cache):
        async def scenario():
            service, protocol = self._scenario(
                ServiceConfig(slots=1, retries=0))
            await service.start()
            try:
                submitted = await protocol.handle(
                    {"op": "submit",
                     "request": {"experiment_id": "svc-bad"}})
                waited = await protocol.handle(
                    {"op": "wait", "job": submitted["job"]})
                assert waited["record"]["status"] == "failed"
                assert waited["error"]["code"] == "ExperimentError"
                assert "injected failure" in waited["error"]["message"]
            finally:
                await service.close()

        run_async(scenario())

    def test_admission_rejection_is_a_typed_response(
            self, chaos_registry, service_cache):
        async def scenario():
            service, protocol = self._scenario()
            await service.start()
            try:
                response = await protocol.handle(
                    {"op": "submit",
                     "request": {"experiment_id": "fig5"}})
                assert not response["ok"]
                assert response["error"]["code"] == "admission"
                assert response["error"]["field"] == "experiment_id"
                assert response["error"]["suggestions"]
            finally:
                await service.close()

        run_async(scenario())

    def test_cancel_and_drain(self, chaos_registry, service_cache):
        async def scenario():
            service, protocol = self._scenario()
            await service.start()
            try:
                blocker = await protocol.handle(
                    {"op": "submit",
                     "request": {"experiment_id": "svc-sleep"}})
                queued = await protocol.handle(
                    {"op": "submit",
                     "request": {"experiment_id": "svc-ok"}})
                cancelled = await protocol.handle(
                    {"op": "cancel", "job": blocker["job"]})
                assert cancelled["cancelled"]
                drained = await protocol.handle({"op": "drain"})
                assert drained["ok"]
                by_id = {j["job"]: j for j in drained["jobs"]}
                assert by_id[blocker["job"]]["record"]["status"] \
                    == "cancelled"
                assert by_id[queued["job"]]["record"]["status"] == "ok"
            finally:
                await service.close()

        run_async(scenario())

    def test_malformed_requests_get_protocol_errors(
            self, chaos_registry, service_cache):
        async def scenario():
            service, protocol = self._scenario()
            await service.start()
            try:
                assert not (await protocol.handle("not an object"))["ok"]
                unknown = await protocol.handle({"op": "frobnicate"})
                assert not unknown["ok"]
                assert "valid ops" in unknown["error"]["message"]
                assert not (await protocol.handle({"op": "submit"}))["ok"]
                assert not (await protocol.handle(
                    {"op": "wait", "job": "job-000042"}))["ok"]
                assert not (await protocol.handle(
                    {"op": "cancel", "job": 7}))["ok"]
            finally:
                await service.close()

        run_async(scenario())

    def test_events_stream_lifecycle(self, chaos_registry,
                                     service_cache):
        async def scenario():
            service, protocol = self._scenario()
            await service.start()
            try:
                submitted = await protocol.handle(
                    {"op": "submit",
                     "request": {"experiment_id": "svc-ok"}})
                await protocol.handle({"op": "wait",
                                       "job": submitted["job"]})
                kinds = []
                while not service.events.empty():
                    kinds.append(service.events.get_nowait()["event"])
                assert kinds[0] == "admitted"
                assert "started" in kinds
                assert kinds[-1] == "done"
            finally:
                await service.close()

        run_async(scenario())
