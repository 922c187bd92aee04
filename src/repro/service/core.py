"""The experiment service: resilient async job API over the pool.

:class:`ExperimentService` is the asyncio front of the repository's
execution machinery.  One service instance owns:

- an :class:`~repro.service.admission.AdmissionGate` (typed rejection
  before a worker is occupied),
- one FIFO dispatch queue of admitted jobs waiting for a free slot,
- a :class:`~repro.experiments.runner.ResilientPool` (kill-capable
  worker slots with timeouts, retries and crash respawn), and
- optionally a :class:`~repro.service.journal.ServiceJournal` (durable
  job log enabling SIGKILL-and-restart re-adoption).

**Threading model.**  Every public method except the pool completion
bridge runs on the service's asyncio loop; the pool's scheduler thread
reports completions via ``loop.call_soon_threadsafe``, so all service
state is loop-confined and lock-free.

**Coalescing.**  Requests whose
:meth:`~repro.service.requests.ExperimentRequest.coalescing_key` match
an in-flight job attach to it as *followers*: one execution, N
results, each follower's :class:`~repro.experiments.runner.RunRecord`
marked ``cached``.  Completed results persist in the content-keyed
result store (:mod:`repro.experiments.store`) under the cache directory
(:func:`repro.chips.cache.cache_dir`), so later identical requests —
including re-adopted ones after a service crash — complete without a
worker at all.  Because the key covers every run input (calibration
version, engine, fault plan, shard, scale), a coalesced or cached
result is bit-identical to a fresh run by construction.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Mapping, Optional, Union

from repro.chips.cache import cache_dir, cache_enabled
from repro.errors import AdmissionError, ExperimentError, HbmSimError
from repro.experiments.runner import (DEFAULT_RETRY_DELAY, PoolJob,
                                      ResilientPool, RunRecord,
                                      validate_retry_policy)
from repro.experiments.store import ResultStore
from repro.service.admission import MAX_SCALE, AdmissionGate
from repro.service.journal import ServiceJournal
from repro.service.requests import ExperimentRequest


def report_sha(result) -> str:
    """The repository's report hash: sha256 of the rendered text."""
    return hashlib.sha256(result.text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunable knobs of one :class:`ExperimentService` instance."""

    #: Worker slots (pool processes).
    slots: int = 2
    #: Per-attempt execution timeout (seconds); ``None`` disables.
    timeout: Optional[float] = None
    #: Retries per invocation after the first attempt.
    retries: int = 1
    retry_delay: float = DEFAULT_RETRY_DELAY
    #: Journal directory; ``None`` runs without crash-safe resumption.
    journal_dir: Optional[str] = None
    #: Admission ceiling for request scales.
    max_scale: float = MAX_SCALE
    #: Serve and populate the content-keyed result cache (also off
    #: under ``HBMSIM_NO_CACHE``).
    use_result_cache: bool = True

    def __post_init__(self) -> None:
        # Fail at construction, not at the first dispatch: by then the
        # job would already be journaled admitted and started.
        if self.slots < 1:
            raise ValueError("slots must be >= 1")
        validate_retry_policy(self.timeout, self.retries)


class Job:
    """One admitted request's lifecycle inside the service.

    ``record`` is the live :class:`RunRecord`; ``await job.wait()``
    returns it once terminal.  The future resolves with the record in
    *every* outcome (failures carry the typed exception in
    ``job.exception``), so awaiting a job can never hang and never
    raises — the acceptance contract of the service layer.
    """

    def __init__(self, job_id: str, request: ExperimentRequest,
                 key: Optional[str],
                 loop: asyncio.AbstractEventLoop) -> None:
        self.job_id = job_id
        self.request = request
        #: Coalescing / result-cache key (None for verify-only jobs).
        self.key = key
        self.record = RunRecord(request.experiment_id or "program",
                                _job_index(job_id))
        self.exception: Optional[ExperimentError] = None
        #: Pool invocation id once dispatched (enables cancel-running).
        self.invocation_id: Optional[int] = None
        #: Primary job id when this job coalesced onto another.
        self.coalesced_with: Optional[str] = None
        #: Times this job was dispatched to a worker (0 for cached).
        self.executions = 0
        self.future: "asyncio.Future[RunRecord]" = loop.create_future()

    @property
    def state(self) -> str:
        """``queued`` | ``running`` | ``coalesced`` | terminal status."""
        if self.future.done():
            return self.record.status
        if self.invocation_id is not None:
            return "running"
        if self.coalesced_with is not None:
            return "coalesced"
        return "queued"

    async def wait(self) -> RunRecord:
        """The terminal record (never raises; see ``exception``)."""
        return await asyncio.shield(self.future)

    def summary(self) -> Dict[str, Any]:
        payload = {
            "job": self.job_id,
            "state": self.state,
            "executions": self.executions,
            "record": self.record.summary(),
        }
        if self.coalesced_with is not None:
            payload["coalesced_with"] = self.coalesced_with
        if self.record.result is not None:
            payload["sha"] = report_sha(self.record.result)
        return payload


def _job_index(job_id: str) -> int:
    _prefix, _, suffix = job_id.rpartition("-")
    return int(suffix) if suffix.isdigit() else 0


class ExperimentService:
    """Asyncio experiment-job service over a :class:`ResilientPool`."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.gate = AdmissionGate(max_scale=self.config.max_scale)
        #: Primary jobs admitted but not yet dispatched, oldest first.
        self._queue: Deque[Job] = deque()
        self.journal = (ServiceJournal(self.config.journal_dir)
                        if self.config.journal_dir is not None else None)
        self._results = (ResultStore(cache_dir())
                         if self.config.use_result_cache
                         and cache_enabled() else None)
        self._jobs: Dict[str, Job] = {}
        #: key -> primary job currently queued or running.
        self._inflight: Dict[str, Job] = {}
        #: key -> follower jobs coalesced onto the primary.
        self._followers: Dict[str, List[Job]] = {}
        self._running = 0
        self._sequence = (self.journal.max_sequence()
                          if self.journal is not None else 0)
        self._pool: Optional[ResilientPool] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed = False
        #: Streamed lifecycle events (the protocol layer drains these).
        self.events: "Optional[asyncio.Queue[Dict[str, Any]]]" = None

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Spin up the pool and re-adopt any journaled open jobs."""
        if self._pool is not None:
            raise HbmSimError("service already started")
        self._loop = asyncio.get_running_loop()
        self.events = asyncio.Queue()
        self._pool = ResilientPool(self.config.slots,
                                   prewarm=self.config.slots > 1)
        if self.journal is not None:
            for entry in self.journal.open_jobs():
                self._readopt(entry)
            self._pump()

    async def close(self) -> None:
        """Stop the pool; every unresolved job terminates ``cancelled``."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            pool = self._pool
            await asyncio.get_running_loop().run_in_executor(
                None, pool.shutdown)
            # Let the pool's threadsafe completion callbacks land.
            await asyncio.sleep(0)
        for job in list(self._jobs.values()):
            if not job.future.done():
                record = job.record
                record.status = "cancelled"
                record.error = record.error or "service closed"
                job.exception = ExperimentError(
                    record.experiment_id, max(1, record.attempts),
                    "Cancelled", "service closed before completion")
                self._resolve(job)
        if self.journal is not None:
            self.journal.close()

    async def drain(self) -> List[Job]:
        """Wait until every submitted job is terminal; returns them."""
        while True:
            pending = [job.future for job in self._jobs.values()
                       if not job.future.done()]
            if not pending:
                return list(self._jobs.values())
            await asyncio.wait(pending)

    # -- submission -------------------------------------------------------

    def submit(self, payload: Union[Mapping[str, Any], ExperimentRequest]
               ) -> Job:
        """Admit one request; returns its :class:`Job`.

        Raises :class:`~repro.errors.AdmissionError` on an invalid
        request, before any worker is occupied.  Must run on the
        service's loop.
        """
        self._require_started()
        request = self.gate.admit(payload)
        job_id = self._next_job_id()
        if request.verify_only:
            job = Job(job_id, request, None, self._loop)
            self._jobs[job_id] = job
            record = job.record
            record.status = "verified"
            self._resolve(job, journal=False)
            return job

        key = request.coalescing_key()
        job = Job(job_id, request, key, self._loop)

        primary = self._inflight.get(key)
        if primary is not None:
            # Coalesce: one execution, N results.
            job.coalesced_with = primary.job_id
            self._followers.setdefault(key, []).append(job)
            self._jobs[job_id] = job
            self._journal("admitted", job, coalesced_with=primary.job_id)
            self._emit("coalesced", job, primary=primary.job_id)
            return job

        cached = self._cached_result(key)
        if cached is not None:
            self._jobs[job_id] = job
            self._journal("admitted", job)
            self._complete_cached(job, cached)
            return job

        self._queue.append(job)
        self._inflight[key] = job
        self._jobs[job_id] = job
        self._journal("admitted", job)
        self._emit("admitted", job, position=len(self._queue) - 1)
        self._pump()
        return job

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; returns False when unknown or already done.

        Queued jobs leave the queue synchronously; running jobs have
        their worker killed by the pool (the record turns
        ``cancelled`` when the kill lands).  Cancelling a coalescing
        primary promotes its first follower to primary so the other
        waiters still get their result.
        """
        job = self._jobs.get(job_id)
        if job is None or job.future.done():
            return False
        record = job.record
        if job.invocation_id is not None:
            assert self._pool is not None
            return self._pool.cancel(job.invocation_id)
        if job.coalesced_with is not None:
            followers = self._followers.get(job.key, [])
            if job in followers:
                followers.remove(job)
        else:
            self._queue.remove(job)
            self._inflight.pop(job.key, None)
            self._promote_follower(job.key)
        record.status = "cancelled"
        record.error = "cancelled before execution"
        job.exception = ExperimentError(
            record.experiment_id, 1, "Cancelled",
            "job cancelled before execution")
        self._resolve(job)
        return True

    # -- inspection -------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """Service snapshot (slots, queue depth, job counts, cache)."""
        states: Dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        return {
            "running": self._running,
            "slots": self._pool.slots if self._pool is not None else 0,
            "queued": len(self._queue),
            "jobs": states,
            "cache": (self._results.usage()
                      if self._results is not None else None),
        }

    def job(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    # -- internals (loop-confined) ----------------------------------------

    def _require_started(self) -> None:
        if self._pool is None or self._loop is None:
            raise HbmSimError("service not started (call start() first)")
        if self._closed:
            raise HbmSimError("service is closed")

    def _next_job_id(self) -> str:
        self._sequence += 1
        return f"job-{self._sequence:06d}"

    def _cached_result(self, key: str):
        if self._results is None:
            return None
        return self._results.load(key)

    def _complete_cached(self, job: Job, result) -> None:
        record = job.record
        record.status = "cached"
        record.result = result
        record.attempts = 0
        record.elapsed = 0.0
        self._resolve(job)

    def _pump(self) -> None:
        """Dispatch queued jobs while worker slots are free."""
        assert self._pool is not None
        while (not self._closed and self._queue
               and self._running < self._pool.slots):
            self._dispatch(self._queue.popleft())

    def _dispatch(self, job: Job) -> None:
        assert self._pool is not None and self._loop is not None
        self._running += 1
        job.executions += 1
        self._journal("started", job)
        self._emit("started", job)
        loop = self._loop

        def _bridge(pool_job: PoolJob, job_id: str = job.job_id) -> None:
            loop.call_soon_threadsafe(self._job_done, job_id, pool_job)

        pool_job = self._pool.submit(
            job.request.experiment_id, job.request.scale,
            timeout=self.config.timeout, retries=self.config.retries,
            retry_delay=self.config.retry_delay,
            plan_spec=job.request.plan_spec(),
            shard=job.request.shard, record=job.record,
            on_done=_bridge)
        job.invocation_id = pool_job.invocation_id

    def _job_done(self, job_id: str, pool_job: PoolJob) -> None:
        """Pool completion, bridged onto the loop."""
        job = self._jobs.get(job_id)
        if job is None or job.future.done():
            return
        self._running = max(0, self._running - 1)
        record = job.record
        job.exception = pool_job.exception
        if record.succeeded and record.result is not None \
                and self._results is not None:
            # An unwritable cache costs a later recompute, not this job.
            with contextlib.suppress(OSError):
                self._results.store(job.key, record.result)
        followers = self._followers.pop(job.key, [])
        self._inflight.pop(job.key, None)
        self._resolve(job)
        for follower in followers:
            frec = follower.record
            if record.succeeded:
                frec.status = "cached"
                frec.result = record.result
                frec.attempts = 0
                frec.elapsed = 0.0
            else:
                frec.status = record.status
                frec.error = record.error
                frec.attempts = record.attempts
                follower.exception = pool_job.exception
            self._resolve(follower)
        if not self._closed:
            self._pump()

    def _promote_follower(self, key: str) -> None:
        """A cancelled primary hands the work to its first follower."""
        followers = self._followers.get(key)
        if not followers:
            self._followers.pop(key, None)
            return
        promoted = followers.pop(0)
        promoted.coalesced_with = None
        self._queue.append(promoted)
        self._inflight[key] = promoted
        for follower in self._followers.get(key, []):
            follower.coalesced_with = promoted.job_id
        self._emit("admitted", promoted, promoted=True)
        self._pump()

    def _readopt(self, entry: Dict[str, Any]) -> None:
        """Resume one journaled open job after a restart.

        Jobs whose execution completed before the crash re-adopt
        straight from the result cache — zero duplicate executions —
        and genuinely in-flight jobs re-enter the queue.
        """
        job_id = entry["job"]
        try:
            request = self.gate.admit(entry["request"])
        except AdmissionError as exc:
            if self.journal is not None:
                self.journal.append("failed", job_id, error=str(exc))
            return
        assert self._loop is not None
        key = request.coalescing_key()
        job = Job(job_id, request, key, self._loop)
        self._jobs[job_id] = job
        self._journal("readopted", job,
                      prior_executions=entry["executions"])
        self._emit("readopted", job)

        cached = self._cached_result(key)
        if cached is not None:
            self._complete_cached(job, cached)
            return
        primary = self._inflight.get(key)
        if primary is not None:
            job.coalesced_with = primary.job_id
            self._followers.setdefault(key, []).append(job)
            return
        self._queue.append(job)
        self._inflight[key] = job

    def _resolve(self, job: Job, journal: bool = True) -> None:
        """Terminal bookkeeping: journal line, event, future result."""
        record = job.record
        if not job.future.done():
            job.future.set_result(record)
        if journal:
            if record.succeeded or record.status == "verified":
                event = "completed"
            elif record.status == "cancelled":
                event = "cancelled"
            else:
                event = "failed"
            self._journal(event, job, summary=job.summary())
        self._emit("done", job)

    def _journal(self, event: str, job: Job, **payload: Any) -> None:
        if self.journal is None:
            return
        if event == "admitted":
            payload.setdefault("request", job.request.to_payload())
            payload.setdefault("key", job.key)
        self.journal.append(event, job.job_id, **payload)

    def _emit(self, kind: str, job: Job, **extra: Any) -> None:
        if self.events is None:
            return
        payload: Dict[str, Any] = {"event": kind}
        payload.update(job.summary())
        payload.update(extra)
        self.events.put_nowait(payload)
