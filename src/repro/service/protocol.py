"""Line-JSON protocol of the experiment service.

One request object per line in, one response object per line out, with
job lifecycle events interleaved.  The protocol layer is pure
dict-in/dict-out (no I/O): ``python -m repro.service`` wires it to
stdin/stdout, tests drive it directly.

Requests::

    {"op": "submit", "request": {"experiment_id": "fig05", ...}}
    {"op": "wait", "job": "job-000001"}
    {"op": "cancel", "job": "job-000001"}
    {"op": "status"}
    {"op": "drain"}
    {"op": "shutdown"}

Responses carry ``{"ok": true, "op": ...}`` plus op-specific fields, or
``{"ok": false, "error": {...}}`` where the error object is the typed
service verdict: its ``code`` is ``"admission"`` for a rejected
request (with the offending ``field``, did-you-mean ``suggestions`` and
lint ``findings``), else the exception's type name.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import AdmissionError, HbmSimError
from repro.service.core import ExperimentService

#: Protocol schema version, echoed in every response.
PROTOCOL_SCHEMA = 1

OPS = ("submit", "wait", "cancel", "status", "drain", "shutdown")


def encode_error(exc: BaseException) -> Dict[str, Any]:
    """Typed error rendering shared by responses and events."""
    error: Dict[str, Any] = {
        "code": getattr(exc, "code", type(exc).__name__),
        "message": str(exc),
    }
    if isinstance(exc, AdmissionError):
        if exc.field is not None:
            error["field"] = exc.field
        if exc.suggestions:
            error["suggestions"] = list(exc.suggestions)
        if exc.findings:
            error["findings"] = [str(finding)
                                 for finding in exc.findings]
    return error


class LineProtocol:
    """Dict-in/dict-out op dispatcher over one service instance."""

    def __init__(self, service: ExperimentService) -> None:
        self.service = service
        #: Set by the shutdown op; the I/O loop exits when true.
        self.closing = False

    async def handle(self, payload: Any) -> Dict[str, Any]:
        """Process one request object; returns the response object."""
        if not isinstance(payload, dict):
            return self._error(None, HbmSimError(
                f"request must be a JSON object, got "
                f"{type(payload).__name__}"))
        op = payload.get("op")
        if op not in OPS:
            return self._error(op, HbmSimError(
                f"unknown op {op!r}; valid ops: {', '.join(OPS)}"))
        handler = getattr(self, f"_op_{op}")
        try:
            return await handler(payload)
        except HbmSimError as exc:
            return self._error(op, exc)

    # -- ops --------------------------------------------------------------

    async def _op_submit(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        request = payload.get("request")
        if request is None:
            raise HbmSimError("submit requires a 'request' object")
        job = self.service.submit(request)
        return self._ok("submit", job=job.job_id, state=job.state,
                        key=job.key)

    async def _op_wait(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        job = self._job(payload)
        await job.wait()
        response = self._ok("wait", **job.summary())
        if job.exception is not None:
            response["error"] = encode_error(job.exception)
        return response

    async def _op_cancel(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        job = self._job(payload)
        cancelled = self.service.cancel(job.job_id)
        return self._ok("cancel", job=job.job_id, cancelled=cancelled,
                        state=job.state)

    async def _op_status(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._ok("status", status=self.service.status())

    async def _op_drain(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        jobs = await self.service.drain()
        return self._ok("drain", jobs=[job.summary() for job in jobs])

    async def _op_shutdown(self, payload: Dict[str, Any]
                           ) -> Dict[str, Any]:
        self.closing = True
        await self.service.close()
        return self._ok("shutdown")

    # -- helpers ----------------------------------------------------------

    def _job(self, payload: Dict[str, Any]):
        job_id = payload.get("job")
        if not isinstance(job_id, str):
            raise HbmSimError("op requires a 'job' id string")
        job = self.service.job(job_id)
        if job is None:
            raise HbmSimError(f"unknown job {job_id!r}")
        return job

    @staticmethod
    def _ok(op: str, **fields: Any) -> Dict[str, Any]:
        response: Dict[str, Any] = {"ok": True, "op": op,
                                    "schema": PROTOCOL_SCHEMA}
        response.update(fields)
        return response

    @staticmethod
    def _error(op: Optional[str], exc: BaseException) -> Dict[str, Any]:
        return {"ok": False, "op": op, "schema": PROTOCOL_SCHEMA,
                "error": encode_error(exc)}
