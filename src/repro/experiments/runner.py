"""Resilient experiment runner: timeouts, retries, crash recovery,
checkpoint/resume.

The paper's multi-hour sweeps on real FPGA platforms survive board
hangs and host crashes because the harness around them does.  This
module is that harness for the simulated experiments:

- **Per-experiment timeouts** — a hung experiment (e.g. an injected
  platform stall) is killed, not waited on, and its worker respawned.
- **Bounded retries** — failed attempts retry with exponential backoff
  plus a *deterministic* jitter derived from ``(experiment id,
  attempt)``, so two identical chaos runs produce the identical retry
  schedule.
- **Worker-crash recovery** — a worker process dying mid-experiment
  (the ``BrokenProcessPool`` failure mode of a shared pool) only fails
  that experiment's attempt: the pool respawns the worker and the
  surviving experiments keep their results.
- **Graceful degradation** — ``keep_going=True`` returns partial
  results plus one structured :class:`RunRecord` per requested
  invocation (status ``ok``/``retried``/``timeout``/``failed``/
  ``cached`` with the captured traceback); otherwise the first
  exhausted experiment raises an
  :class:`~repro.errors.ExperimentError` subclass carrying the same
  information across the process boundary.
- **Checkpoint/resume** — with ``run_dir`` every completed
  :class:`~repro.experiments.base.ExperimentResult` is persisted in a
  :class:`~repro.experiments.store.ResultStore` under its content key
  (:func:`~repro.experiments.store.result_key`); ``resume=True`` serves
  every invocation whose key is already stored and re-runs the rest, so
  an interrupted sweep restarts where it stopped and a changed input
  (scale, shard, fault plan, engine, calibration) always recomputes.

Timeout enforcement requires the ability to *kill* a running
experiment, which ``concurrent.futures`` cannot do, so the pool here is
a small dedicated one: one pipe-connected worker process per slot,
respawned on crash or timeout.  Workers apply any active fault plan
(:mod:`repro.faults`) — both the worker-level chaos knobs and, through
the bender interpreter, the device-level ones.

The pool itself is :class:`ResilientPool`: a persistent, thread-driven
scheduler over the worker slots that accepts submissions one at a time
(``submit`` returns a :class:`PoolJob` handle), supports **immediate
cancellation** (``cancel(invocation_id)`` kills the worker running the
invocation and frees its slot right away, instead of waiting for a
timeout), and reports completions through thread-safe callbacks — the
seam the asyncio service layer (:mod:`repro.service`) bridges onto.
:func:`run_resilient` drives the same pool for the batch CLI path.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue as queue_module
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import (Any, Callable, Deque, Dict, List, Optional, Sequence,
                    Tuple)

from repro.dram.seeding import uniform_for
from repro.errors import (ExperimentError, ExperimentTimeoutError,
                          HbmSimError, WorkerCrashError)
from repro.experiments.base import ExperimentResult
from repro.experiments.sharding import ShardSpec
from repro.experiments.store import ResultStore, atomic_write, result_key

#: Default base delay (seconds) for the exponential retry backoff.
DEFAULT_RETRY_DELAY = 0.25

#: How often an idle worker checks whether its pool process is gone
#: (workers cannot rely on pipe EOF: sibling forks inherit the parent
#: ends, so a SIGKILL'd pool leaves the pipe open).
_ORPHAN_POLL_S = 2.0

#: ``records.json`` schema version (bump on layout changes).
_RUN_DIR_SCHEMA = 1

#: Namespace tag for the deterministic backoff jitter.
_TAG_BACKOFF = 0xBACC0FF


@dataclass
class RunRecord:
    """Outcome of one requested experiment invocation.

    One record per *invocation* (duplicate ids get one record each, in
    request order), whatever happened to it.
    """

    experiment_id: str
    #: Position in the requested id list (stable across retries).
    index: int
    #: "ok" | "retried" | "timeout" | "failed" | "cached" | "cancelled"
    status: str = "pending"
    #: Wall seconds of the successful attempt (sum of all attempts for
    #: failures); 0.0 for cached results.
    elapsed: float = 0.0
    attempts: int = 0
    #: Captured traceback (or summary) of the last failed attempt.
    error: Optional[str] = None
    result: Optional[ExperimentResult] = None

    @property
    def succeeded(self) -> bool:
        return self.status in ("ok", "retried", "cached")

    def summary(self) -> Dict[str, Any]:
        """JSON-serializable view (no result payload)."""
        return {
            "experiment_id": self.experiment_id,
            "index": self.index,
            "status": self.status,
            "elapsed": round(self.elapsed, 4),
            "attempts": self.attempts,
            "error": self.error,
        }


def validate_retry_policy(timeout: Optional[float], retries: int) -> None:
    """Reject a per-attempt ``timeout`` or a ``retries`` count that no
    invocation could run under (raises :class:`ValueError`)."""
    if retries < 0:
        raise ValueError("retries must be non-negative")
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive")


def backoff_delay(experiment_id: str, attempt: int,
                  base: float = DEFAULT_RETRY_DELAY) -> float:
    """Exponential backoff with deterministic jitter.

    ``base * 2**(attempt-1) * (1 + u/2)`` where ``u`` derives from the
    experiment id and attempt number — no wall-clock or global RNG, so
    a re-run reproduces the exact schedule.
    """
    if base <= 0:
        return 0.0
    from repro.dram.device import hash_pattern  # stable string hash
    u = uniform_for(_TAG_BACKOFF, hash_pattern(experiment_id), attempt)
    return base * (2.0 ** max(0, attempt - 1)) * (1.0 + 0.5 * u)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _worker_main(conn) -> None:
    """Worker loop: receive (index, id, scale, attempt, plan_spec,
    shard), reply outcome.

    ``plan_spec`` is the per-invocation fault-plan directive: ``None``
    leaves the worker's installed plan untouched (the batch runner's
    workers inherit any plan installed before the fork), the empty
    string clears it, and a JSON string installs that plan for this and
    subsequent invocations on the slot (the scheduler sends a spec with
    *every* service task, so slots never leak a previous request's
    chaos).

    Replies ``("ok", index, elapsed, result)`` or ``("error", index,
    elapsed, payload)`` where payload carries the exception identity as
    strings (the exception object itself may not pickle).  Exits on
    ``None``, a closed pipe, or orphaning.

    The orphan check matters because sibling workers forked later
    inherit this worker's parent-side pipe end, so a SIGKILL'd pool
    process does not reliably EOF the pipe; without the ppid poll an
    idle worker would block in ``recv`` forever, leaking a process per
    crashed service.
    """
    from repro import faults
    from repro.experiments import registry

    parent_pid = os.getppid()
    while True:
        try:
            while not conn.poll(_ORPHAN_POLL_S):
                if os.getppid() != parent_pid:
                    return  # pool process died without a shutdown
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        index, experiment_id, scale, attempt, plan_spec, shard = task
        start = time.perf_counter()
        try:
            if plan_spec is not None:
                if plan_spec:
                    faults.install_plan(
                        faults.FaultPlan.from_json(plan_spec))
                else:
                    faults.clear_plan()
            faults.apply_worker_faults(faults.active_plan(),
                                       experiment_id, attempt)
            result = registry.run_experiment(experiment_id, scale,
                                             shard=shard)
            conn.send(("ok", index, time.perf_counter() - start, result))
        except BaseException as exc:  # noqa: BLE001 — must cross the pipe
            payload = {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            }
            try:
                conn.send(("error", index,
                           time.perf_counter() - start, payload))
            except (OSError, ValueError):
                return


def _fork_context():
    """Fork when available (workers inherit registry monkeypatches and
    installed fault plans); fall back to the platform default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class _Worker:
    """One pipe-connected worker process (respawnable pool slot)."""

    def __init__(self, ctx) -> None:
        self._ctx = ctx
        parent_conn, child_conn = ctx.Pipe()
        self.conn = parent_conn
        self.process = ctx.Process(target=_worker_main,
                                   args=(child_conn,), daemon=True)
        self.process.start()
        child_conn.close()
        self.task: Optional["_Task"] = None
        self.deadline: Optional[float] = None

    def assign(self, task: "_Task", timeout: Optional[float]) -> None:
        self.task = task
        self.deadline = (time.monotonic() + timeout
                         if timeout is not None else None)
        # ``task.attempts`` was already incremented by the scheduler.
        self.conn.send((task.index, task.experiment_id, task.scale,
                        task.attempts, task.plan_spec, task.shard))

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - stuck in kernel
            self.process.kill()
            self.process.join(timeout=5.0)

    def shutdown(self) -> None:
        try:
            self.conn.send(None)
        except (OSError, BrokenPipeError):
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.kill()
        else:
            try:
                self.conn.close()
            except OSError:
                pass


@dataclass
class _Task:
    """Scheduling state of one pending invocation."""

    index: int
    experiment_id: str
    scale: float
    attempts: int = 0
    #: Monotonic time before which the task must not be (re)assigned.
    not_before: float = 0.0
    elapsed: float = 0.0
    #: Per-invocation resilience policy (pool jobs may differ).
    timeout: Optional[float] = None
    retries: int = 0
    retry_delay: float = DEFAULT_RETRY_DELAY
    #: Per-invocation fault-plan directive forwarded to the worker:
    #: ``None`` = leave the worker's installed plan alone, ``""`` =
    #: clear it, JSON = install that plan for the invocation.
    plan_spec: Optional[str] = None
    #: Shard directive forwarded to the worker: an ``"i/n"`` string
    #: runs only that slice of a shardable experiment's sweep (the
    #: result is a partial for the merge step).
    shard: Optional[str] = None
    #: Set by :meth:`ResilientPool.cancel`; the scheduler kills the
    #: running worker (or drops the pending task) on its next pass.
    cancelled: bool = False
    #: Completion handle (pool submissions only).
    job: Optional["PoolJob"] = None


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------

def run_resilient(experiment_ids: Sequence[str], scale: float = 1.0,
                  jobs: int = 1, timeout: Optional[float] = None,
                  retries: int = 0, keep_going: bool = False,
                  retry_delay: float = DEFAULT_RETRY_DELAY,
                  run_dir: Optional[os.PathLike] = None,
                  resume: bool = False,
                  shard: Optional[str] = None) -> List[RunRecord]:
    """Run experiments under the resilience policy; one record per id.

    Records come back in request order regardless of completion order.
    With ``keep_going=False`` (the default) the first experiment that
    exhausts its attempts raises :class:`~repro.errors.ExperimentError`
    (or its timeout/crash refinement); with ``keep_going=True`` every
    invocation gets a record and partial results are returned.

    ``timeout`` (seconds) applies per attempt and requires process
    isolation, so it forces the pool path even for ``jobs=1``.

    ``shard`` (an ``"i/n"`` string) restricts every invocation to that
    slice of its sweep — the per-record results are then *partials*
    (see :mod:`repro.experiments.sharding`).  Without it, shardable
    experiments are fanned out across the pool slots automatically at
    ``jobs > 1`` and merged back transparently, so each record still
    carries the full (byte-identical) result.
    """
    from repro.experiments import registry

    ids = list(experiment_ids)
    registry.validate_ids(ids)
    validate_retry_policy(timeout, retries)
    if resume and run_dir is None:
        raise HbmSimError("--resume requires --run-dir")
    ShardSpec.parse(shard)  # a malformed shard fails before any run

    records = [RunRecord(experiment_id, index)
               for index, experiment_id in enumerate(ids)]
    store = ResultStore(run_dir) if run_dir is not None else None
    keys = {experiment_id: result_key(experiment_id, scale, shard, None)
            for experiment_id in (ids if store is not None else ())}

    def checkpoint(record: RunRecord) -> None:
        if store is not None:
            store.store(keys[record.experiment_id], record.result)

    tasks: Deque[_Task] = deque()
    for record in records:
        if store is not None and resume:
            cached = store.load(keys[record.experiment_id])
            if cached is not None:
                record.status = "cached"
                record.result = cached
                continue
        tasks.append(_Task(record.index, record.experiment_id, scale,
                           shard=shard))

    try:
        if tasks:
            if timeout is None and jobs <= 1:
                _run_inline(tasks, records, retries, keep_going,
                            retry_delay, checkpoint)
            else:
                _run_pool(tasks, records, jobs, timeout, retries,
                          keep_going, retry_delay, checkpoint)
    finally:
        if store is not None:
            summary = {"schema": _RUN_DIR_SCHEMA,
                       "records": [record.summary() for record in records]}
            atomic_write(store.root / "records.json", (json.dumps(
                summary, indent=2, sort_keys=True) + "\n").encode("utf-8"))
    return records


def _record_success(record: RunRecord, result: ExperimentResult,
                    elapsed: float, attempts: int,
                    checkpoint: Callable[[RunRecord], None]) -> None:
    record.status = "ok" if attempts == 1 else "retried"
    record.result = result
    record.elapsed = elapsed
    record.attempts = attempts
    record.error = None
    checkpoint(record)


def _final_failure(record: RunRecord, status: str, error: str,
                   keep_going: bool,
                   exception: ExperimentError) -> None:
    record.status = status
    record.error = error
    if not keep_going:
        raise exception


def _run_inline(tasks: Deque[_Task], records: List[RunRecord],
                retries: int, keep_going: bool, retry_delay: float,
                checkpoint: Callable[[RunRecord], None]) -> None:
    """Serial in-process execution (no timeout enforcement possible)."""
    from repro import faults
    from repro.experiments import registry

    for task in tasks:
        record = records[task.index]
        while True:
            task.attempts += 1
            record.attempts = task.attempts
            start = time.perf_counter()
            try:
                faults.apply_worker_faults(faults.active_plan(),
                                           task.experiment_id,
                                           task.attempts)
                result = registry.run_experiment(task.experiment_id,
                                                 task.scale,
                                                 shard=task.shard)
            except Exception as exc:  # noqa: BLE001 — chaos boundary
                task.elapsed += time.perf_counter() - start
                record.elapsed = task.elapsed
                record.error = traceback.format_exc()
                if task.attempts <= retries:
                    time.sleep(backoff_delay(task.experiment_id,
                                             task.attempts, retry_delay))
                    continue
                _final_failure(
                    record, "failed", record.error, keep_going,
                    ExperimentError(task.experiment_id, task.attempts,
                                    type(exc).__name__, str(exc),
                                    record.error))
                break
            task.elapsed += time.perf_counter() - start
            _record_success(record, result, task.elapsed,
                            task.attempts, checkpoint)
            break


def _available_cores() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def _prewarm_calibration() -> None:
    """Calibrate every chip once in the parent before forking workers.

    Forked workers inherit the parent's ``make_chip`` memo, so warming
    it here turns N-per-worker calibration-cache loads (the jobs>1
    slowdown: every worker repeated the whole chip setup) into zero.
    Best-effort: a failure here surfaces later in whichever experiment
    actually needs the chip, with its normal error handling.
    """
    try:
        from repro.chips.profiles import all_chips
        all_chips()
    except Exception:  # noqa: BLE001 — warming must never kill the run
        pass


# ----------------------------------------------------------------------
# Persistent pool: a thread-driven scheduler over the worker slots
# ----------------------------------------------------------------------

class PoolJob:
    """Handle to one invocation submitted to a :class:`ResilientPool`.

    ``record`` is live: the scheduler mutates it as attempts run, and
    the job is *done* once it reaches a terminal status.  Failures (and
    cancellations) additionally carry the matching typed exception in
    ``exception`` so callers can re-raise across the submission seam.
    """

    def __init__(self, invocation_id: int, record: RunRecord) -> None:
        self.invocation_id = invocation_id
        self.record = record
        self.exception: Optional[ExperimentError] = None
        self._task: Optional[_Task] = None
        self._event = threading.Event()
        self._on_done: List[Callable[["PoolJob"], None]] = []

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> RunRecord:
        """Block until the invocation is terminal; returns its record."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"invocation {self.invocation_id} "
                f"({self.record.experiment_id!r}) still running after "
                f"{timeout:g}s")
        return self.record


class ResilientPool:
    """Kill-capable worker pool accepting one invocation at a time.

    The batch runner (:func:`run_resilient`) and the asyncio service
    layer (:mod:`repro.service`) share this pool.  A background
    scheduler thread owns the worker slots: it assigns pending tasks
    (honouring retry backoff), recovers crashed workers, enforces
    per-attempt deadlines, and **enacts cancellations immediately** —
    ``cancel()`` on a running invocation kills its worker process and
    respawns the slot on the scheduler's next pass rather than waiting
    for a timeout.  Completion callbacks fire on the scheduler thread;
    bridge them with ``loop.call_soon_threadsafe`` from asyncio.
    """

    def __init__(self, slots: int = 1, prewarm: bool = False) -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        if prewarm and slots > 1:
            _prewarm_calibration()
        self._ctx = _fork_context()
        self._lock = threading.Lock()
        self._pending: Deque[_Task] = deque()
        self._jobs: Dict[int, PoolJob] = {}
        self._next_id = 0
        self._closed = False
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_w, False)
        self._workers = [_Worker(self._ctx) for _ in range(slots)]
        self._thread = threading.Thread(target=self._loop,
                                        name="hbmsim-pool", daemon=True)
        self._thread.start()

    @property
    def slots(self) -> int:
        return len(self._workers)

    # -- public API -------------------------------------------------------

    def submit(self, experiment_id: str, scale: float = 1.0, *,
               timeout: Optional[float] = None, retries: int = 0,
               retry_delay: float = DEFAULT_RETRY_DELAY,
               plan_spec: Optional[str] = None,
               shard: Optional[str] = None,
               record: Optional[RunRecord] = None,
               on_done: Optional[Callable[[PoolJob], None]] = None
               ) -> PoolJob:
        """Enqueue one invocation; returns its :class:`PoolJob` handle.

        ``record`` lets a caller supply the (index-bearing) record the
        scheduler should fill in; by default a fresh one indexed by the
        invocation id is created.  ``on_done`` fires on the scheduler
        thread once the record is terminal.  ``plan_spec`` is the
        per-invocation fault-plan directive (see :func:`_worker_main`);
        ``shard`` the per-invocation shard directive (``"i/n"`` runs
        that sweep slice of a shardable experiment — validated here so a
        malformed shard fails at submission, not in a worker).
        """
        from repro.experiments import registry
        registry.validate_ids([experiment_id])
        validate_retry_policy(timeout, retries)
        ShardSpec.parse(shard)  # raises on a malformed shard
        with self._lock:
            if self._closed:
                raise HbmSimError("pool is shut down")
            invocation_id = self._next_id
            self._next_id += 1
            if record is None:
                record = RunRecord(experiment_id, invocation_id)
            job = PoolJob(invocation_id, record)
            if on_done is not None:
                job._on_done.append(on_done)
            task = _Task(record.index, experiment_id, scale,
                         timeout=timeout, retries=retries,
                         retry_delay=retry_delay, plan_spec=plan_spec,
                         shard=shard, job=job)
            job._task = task
            self._jobs[invocation_id] = job
            self._pending.append(task)
        self._wake()
        return job

    def cancel(self, invocation_id: int) -> bool:
        """Cancel an invocation; returns False when unknown or done.

        Pending invocations are dropped without ever occupying a slot.
        Running ones have their worker process killed and the slot
        respawned immediately (the cancellation analogue of a timeout
        kill); the record terminates with status ``"cancelled"``.
        """
        finalized: List[PoolJob] = []
        with self._lock:
            job = self._jobs.get(invocation_id)
            if job is None or job._task is None:
                return False
            task = job._task
            task.cancelled = True
            try:
                self._pending.remove(task)
            except ValueError:
                pass  # running (or replying): the scheduler enacts it
            else:
                self._finalize_cancel_locked(task, finalized)
        self._fire(finalized)
        self._wake()
        return True

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the scheduler and the workers; never hangs a waiter.

        Unfinished invocations (pending or running) finalize with
        status ``"cancelled"`` so no ``wait()`` or callback consumer
        blocks on a dead pool.
        """
        finalized: List[PoolJob] = []
        with self._lock:
            if self._closed:
                return
            self._closed = True
            while self._pending:
                task = self._pending.popleft()
                task.cancelled = True
                self._finalize_cancel_locked(task, finalized)
            for worker in self._workers:
                if worker.task is not None:
                    worker.task.cancelled = True
                    self._finalize_cancel_locked(worker.task, finalized)
                    worker.task = None
        self._fire(finalized)
        self._wake()
        self._thread.join(timeout=timeout)
        for worker in self._workers:
            worker.shutdown()
        os.close(self._wake_r)
        os.close(self._wake_w)

    # -- scheduler internals (lock held where suffixed _locked) -----------

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"w")
        except (BlockingIOError, OSError):
            pass  # buffer full (wake already pending) or closed

    def _fire(self, finalized: List[PoolJob]) -> None:
        """Run completion callbacks outside the lock; never let one
        kill the scheduler."""
        for job in finalized:
            for callback in job._on_done:
                try:
                    callback(job)
                except Exception:  # noqa: BLE001 — callbacks are foreign
                    traceback.print_exc()

    def _complete_locked(self, job: PoolJob,
                         finalized: List[PoolJob]) -> None:
        self._jobs.pop(job.invocation_id, None)
        job._task = None
        job._event.set()
        finalized.append(job)

    def _finalize_cancel_locked(self, task: _Task,
                                finalized: List[PoolJob]) -> None:
        job = task.job
        assert job is not None
        record = job.record
        record.status = "cancelled"
        record.attempts = task.attempts
        record.elapsed = task.elapsed
        record.error = record.error or "cancelled before completion"
        job.exception = ExperimentError(
            task.experiment_id, max(1, task.attempts), "Cancelled",
            "invocation cancelled before completion")
        self._complete_locked(job, finalized)

    def _finalize_success_locked(self, task: _Task, result: Any,
                                 finalized: List[PoolJob]) -> None:
        job = task.job
        assert job is not None
        record = job.record
        record.status = "ok" if task.attempts == 1 else "retried"
        record.result = result
        record.elapsed = task.elapsed
        record.attempts = task.attempts
        record.error = None
        self._complete_locked(job, finalized)

    def _requeue_or_fail_locked(self, task: _Task, status: str,
                                error: str, exception: ExperimentError,
                                finalized: List[PoolJob]) -> None:
        job = task.job
        assert job is not None
        record = job.record
        record.attempts = task.attempts
        record.elapsed = task.elapsed
        record.error = error
        if task.cancelled:
            self._finalize_cancel_locked(task, finalized)
        elif task.attempts <= task.retries:
            task.not_before = time.monotonic() + backoff_delay(
                task.experiment_id, task.attempts, task.retry_delay)
            self._pending.append(task)
        else:
            record.status = status
            job.exception = exception
            self._complete_locked(job, finalized)

    def _assign_locked(self, now: float) -> None:
        for worker in self._workers:
            if worker.task is not None or not self._pending:
                continue
            runnable = None
            for _ in range(len(self._pending)):
                task = self._pending.popleft()
                if task.not_before <= now:
                    runnable = task
                    break
                self._pending.append(task)
            if runnable is None:
                break
            runnable.attempts += 1
            worker.assign(runnable, runnable.timeout)

    def _respawn_locked(self, worker: "_Worker") -> None:
        worker.kill()
        self._workers[self._workers.index(worker)] = _Worker(self._ctx)

    def _enact_cancellations_locked(self, finalized: List[PoolJob]) -> None:
        for worker in list(self._workers):
            task = worker.task
            if task is None or not task.cancelled:
                continue
            worker.task = None
            worker.deadline = None
            self._respawn_locked(worker)
            self._finalize_cancel_locked(task, finalized)

    def _handle_reply_locked(self, conn, finalized: List[PoolJob]) -> None:
        worker = next((w for w in self._workers if w.conn is conn), None)
        if worker is None or worker.task is None:
            return
        task = worker.task
        try:
            message = conn.recv()
        except (EOFError, OSError):
            # Worker died without replying: the pool's broken-process
            # failure mode.  Respawn the slot and retry just this task;
            # survivors are unaffected.
            exitcode = worker.process.exitcode
            self._respawn_locked(worker)
            self._requeue_or_fail_locked(
                task, "failed",
                f"worker crashed (exit code {exitcode}) while "
                f"running {task.experiment_id!r}",
                WorkerCrashError(task.experiment_id, task.attempts,
                                 exitcode),
                finalized)
            return
        kind, _index, elapsed, payload = message
        task.elapsed += elapsed
        worker.task = None
        worker.deadline = None
        if task.cancelled:
            # The reply raced the cancellation: honour the cancel.
            self._finalize_cancel_locked(task, finalized)
        elif kind == "ok":
            self._finalize_success_locked(task, payload, finalized)
        else:
            self._requeue_or_fail_locked(
                task, "failed", payload["traceback"],
                ExperimentError(task.experiment_id, task.attempts,
                                payload["type"], payload["message"],
                                payload["traceback"]),
                finalized)

    def _enforce_deadlines_locked(self, finalized: List[PoolJob]) -> None:
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.task is None or worker.deadline is None \
                    or worker.deadline > now:
                continue
            task = worker.task
            task.elapsed += task.timeout or 0.0
            worker.task = None
            self._respawn_locked(worker)
            self._requeue_or_fail_locked(
                task, "timeout",
                f"timed out after {task.timeout:g}s (attempt "
                f"{task.attempts})",
                ExperimentTimeoutError(task.experiment_id, task.attempts,
                                       task.timeout or 0.0),
                finalized)

    def _loop(self) -> None:
        while True:
            finalized: List[PoolJob] = []
            with self._lock:
                if self._closed:
                    break
                self._enact_cancellations_locked(finalized)
                now = time.monotonic()
                self._assign_locked(now)
                busy = [w for w in self._workers if w.task is not None]
                # Wait for the earliest of: a reply, a deadline, a
                # pending task leaving backoff while a slot sits idle,
                # or an external wake (submit / cancel / shutdown).
                wait_for = None
                deadlines = [w.deadline for w in busy
                             if w.deadline is not None]
                if deadlines:
                    wait_for = max(0.0, min(deadlines) - now)
                if self._pending and len(busy) < len(self._workers):
                    next_ready = min(t.not_before for t in self._pending)
                    until_ready = max(0.0, next_ready - now)
                    wait_for = until_ready if wait_for is None \
                        else min(wait_for, until_ready)
                conns = [w.conn for w in busy] + [self._wake_r]
            self._fire(finalized)
            try:
                ready = mp_connection.wait(conns, timeout=wait_for)
            except OSError:  # a conn died mid-wait; next pass recovers
                ready = []
            if self._wake_r in ready:
                try:
                    os.read(self._wake_r, 4096)
                except OSError:
                    pass
            finalized = []
            with self._lock:
                if self._closed:
                    break
                for conn in ready:
                    if conn is self._wake_r:
                        continue
                    self._handle_reply_locked(conn, finalized)
                self._enforce_deadlines_locked(finalized)
                self._enact_cancellations_locked(finalized)
            self._fire(finalized)


class _ShardGroup:
    """Aggregation state of one invocation fanned out across shards."""

    def __init__(self, task: _Task, record: RunRecord,
                 count: int) -> None:
        self.task = task
        self.record = record
        self.count = count
        self.partials: List[Optional[ExperimentResult]] = [None] * count
        self.job_ids: List[int] = []
        self.done = 0
        self.elapsed = 0.0
        self.attempts = 0
        self.failed = False


def _shard_fanout(experiment_id: str, jobs: int) -> int:
    """Fan-out width for one invocation (1 = run unsharded).

    Sharding is transparent for results (the merged report is byte-
    identical) and for fault plans: every experiment's measurement
    engine is fault-deterministic per sweep unit, and worker-fault
    injection retries shards independently, so a fan-out under an
    active plan merges the same bits as an unsharded run.
    """
    if jobs <= 1:
        return 1
    from repro.experiments import registry
    units = registry.shard_units(experiment_id)
    if units is None:
        return 1
    return max(1, min(jobs, units))


def _run_pool(tasks: Deque[_Task], records: List[RunRecord], jobs: int,
              timeout: Optional[float], retries: int, keep_going: bool,
              retry_delay: float,
              checkpoint: Callable[[RunRecord], None]) -> None:
    """Kill-capable worker-pool execution with crash recovery.

    Shardable experiments (see ``registry.SHARDABLE``) fan out across
    the slots as independent shard jobs — each with the full retry/
    timeout policy — and merge back into one record once every shard
    succeeds, so ``-j N`` scales inside a single long experiment rather
    than stopping at experiment granularity.
    """
    from repro.experiments import registry

    fanouts = {
        task.index: (_shard_fanout(task.experiment_id, jobs)
                     if task.shard is None else 1)
        for task in tasks}
    # More workers than runnable cores only adds fork and context-switch
    # cost: the pool keeps its process-isolation semantics (crash
    # recovery, timeout kills) at any slot count, so cap fan-out at the
    # CPUs the scheduler will actually grant us.
    slots = max(1, min(jobs, sum(fanouts.values()), _available_cores()))
    if slots <= 1:
        # No parallelism available: sharding would only add merge cost.
        fanouts = {index: 1 for index in fanouts}
    if slots > 1:
        _prewarm_calibration()
    pool = ResilientPool(slots)
    completions: "queue_module.Queue[PoolJob]" = queue_module.Queue()
    #: shard-job invocation id -> (group, shard index).
    groups: Dict[int, Tuple[_ShardGroup, int]] = {}
    # Indivisible invocations (fan-out 1) are submitted first, longest
    # first (``registry.LONG_RUNNING``, then request order): they cannot
    # be split, so they start at once while the shard jobs — divisible
    # work — backfill whichever slot frees up.  Records, merges and
    # report order stay in request order (by record index).
    ordered = sorted(tasks, key=lambda task: (
        fanouts[task.index] > 1,
        task.experiment_id not in registry.LONG_RUNNING))
    try:
        submitted = 0
        for task in ordered:
            count = fanouts[task.index]
            if count <= 1:
                pool.submit(task.experiment_id, task.scale,
                            timeout=timeout, retries=retries,
                            retry_delay=retry_delay, shard=task.shard,
                            record=records[task.index],
                            on_done=completions.put)
                submitted += 1
                continue
            group = _ShardGroup(task, records[task.index], count)
            for shard_index in range(count):
                job = pool.submit(task.experiment_id, task.scale,
                                  timeout=timeout, retries=retries,
                                  retry_delay=retry_delay,
                                  shard=f"{shard_index}/{count}",
                                  on_done=completions.put)
                groups[job.invocation_id] = (group, shard_index)
                group.job_ids.append(job.invocation_id)
            submitted += count
        for _ in range(submitted):
            job = completions.get()
            entry = groups.get(job.invocation_id)
            if entry is None:
                record = job.record
                if record.succeeded:
                    checkpoint(record)
                elif not keep_going:
                    raise job.exception or ExperimentError(
                        record.experiment_id, record.attempts)
                continue
            group, shard_index = entry
            shard_record = job.record
            # The invocation's wall time is its slowest shard; its
            # attempt count the worst shard's (so "retried" surfaces).
            group.elapsed = max(group.elapsed, shard_record.elapsed)
            group.attempts = max(group.attempts, shard_record.attempts)
            if group.failed:
                continue  # sibling of an already-failed fan-out
            if shard_record.succeeded:
                group.partials[shard_index] = shard_record.result
                group.done += 1
                if group.done == group.count:
                    merged = registry.merge_shard_results(
                        group.task.experiment_id, group.partials,
                        group.task.scale)
                    _record_success(group.record, merged, group.elapsed,
                                    max(1, group.attempts), checkpoint)
            else:
                group.failed = True
                for invocation_id in group.job_ids:
                    if invocation_id != job.invocation_id:
                        pool.cancel(invocation_id)
                record = group.record
                record.status = shard_record.status
                record.attempts = max(1, group.attempts)
                record.elapsed = group.elapsed
                record.error = shard_record.error
                if not keep_going:
                    raise job.exception or ExperimentError(
                        record.experiment_id, record.attempts)
    finally:
        pool.shutdown()
