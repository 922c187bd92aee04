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
respawned on crash or timeout.  Workers inherit any active fault plan
(:mod:`repro.faults`) at fork and apply both the worker-level chaos
knobs and, through the bender interpreter, the device-level ones.
:func:`_run_pool` drives the slots from the calling thread: it hands
each free slot its next runnable task, waits on the busy slots' pipes
and deadlines, and merges and checkpoints completions itself.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from repro.dram.seeding import hash_pattern, uniform_for
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
    #: "ok" | "retried" | "timeout" | "failed" | "cached"
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


def backoff_delay(experiment_id: str, attempt: int,
                  base: float = DEFAULT_RETRY_DELAY) -> float:
    """Exponential backoff with deterministic jitter.

    ``base * 2**(attempt-1) * (1 + u/2)`` where ``u`` derives from the
    experiment id and attempt number — no wall-clock or global RNG, so
    a re-run reproduces the exact schedule.
    """
    if base <= 0:
        return 0.0
    u = uniform_for(_TAG_BACKOFF, hash_pattern(experiment_id), attempt)
    return base * (2.0 ** max(0, attempt - 1)) * (1.0 + 0.5 * u)


# ----------------------------------------------------------------------
# Reply framing
# ----------------------------------------------------------------------

def _send_reply(conn, message: Any) -> None:
    """Send one worker reply with its array buffers out of band.

    The frame is a header ``(head, sizes)`` -- ``message`` pickled with
    protocol 5, whose ``buffer_callback`` keeps every contiguous array's
    memory out of ``head`` -- then one ``send_bytes`` per buffer,
    straight from the array's memory.  The reply is never held as a
    second full copy in the worker, and pickling completes before the
    first byte is sent, so a message that cannot pickle raises with the
    pipe still in frame.
    """
    buffers: List[pickle.PickleBuffer] = []
    head = pickle.dumps(message, protocol=5,
                        buffer_callback=buffers.append)
    raws = [buffer.raw() for buffer in buffers]
    conn.send((head, [raw.nbytes for raw in raws]))
    for raw in raws:
        conn.send_bytes(raw)


def _recv_reply(conn) -> Any:
    """Receive one :func:`_send_reply` frame and rebuild its message.

    Each buffer lands in a fresh ``bytearray``, so the rebuilt arrays
    own writable memory and the received bytes are the arrays.  A pipe
    that ends mid-frame raises ``EOFError`` or ``OSError``, as one that
    ends before it does.
    """
    head, sizes = conn.recv()
    buffers = []
    for size in sizes:
        buffer = bytearray(size)
        conn.recv_bytes_into(buffer)
        buffers.append(buffer)
    return pickle.loads(head, buffers=buffers)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _worker_main(conn) -> None:
    """Worker loop: receive (id, scale, attempt, shard), reply outcome.

    The worker runs under the fault plan it inherited at fork.  Replies
    ``("ok", elapsed, result)`` or ``("error", elapsed, payload)`` where
    payload carries the exception identity as strings (the exception
    object itself may not pickle); both go through :func:`_send_reply`.
    Exits on ``None``, a closed pipe, or orphaning.

    The orphan check matters because sibling workers forked later
    inherit this worker's parent-side pipe end, so a SIGKILL'd runner
    process does not reliably EOF the pipe; without the ppid poll an
    idle worker would block in ``recv`` forever, leaking a process per
    killed run.
    """
    from repro import faults
    from repro.experiments import registry

    parent_pid = os.getppid()
    while True:
        try:
            while not conn.poll(_ORPHAN_POLL_S):
                if os.getppid() != parent_pid:
                    return  # runner process died without a shutdown
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        experiment_id, scale, attempt, shard = task
        start = time.perf_counter()
        try:
            faults.apply_worker_faults(faults.active_plan(),
                                       experiment_id, attempt)
            result = registry.run_experiment(experiment_id, scale,
                                             shard=shard)
            _send_reply(conn, ("ok", time.perf_counter() - start, result))
        except BaseException as exc:  # noqa: BLE001 — must cross the pipe
            payload = {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            }
            try:
                _send_reply(conn,
                            ("error", time.perf_counter() - start, payload))
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
    """One pipe-connected worker process (one pool slot)."""

    def __init__(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.conn = parent_conn
        self.process = ctx.Process(target=_worker_main,
                                   args=(child_conn,), daemon=True)
        self.process.start()
        child_conn.close()
        self.task: Optional["_Task"] = None
        self.deadline: Optional[float] = None

    def assign(self, task: "_Task", timeout: Optional[float]) -> None:
        task.attempts += 1
        self.task = task
        self.deadline = (time.monotonic() + timeout
                         if timeout is not None else None)
        self.conn.send((task.experiment_id, task.scale, task.attempts,
                        task.shard))

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


class _ShardGroup:
    """Aggregation state of one invocation fanned out across shards."""

    def __init__(self, record: RunRecord, scale: float,
                 count: int) -> None:
        self.record = record
        self.scale = scale
        self.count = count
        self.partials: List[Optional[ExperimentResult]] = [None] * count
        self.done = 0
        self.elapsed = 0.0
        self.attempts = 0
        self.failed = False


@dataclass
class _Task:
    """Scheduling state of one pending invocation (or shard of one)."""

    index: int
    experiment_id: str
    scale: float
    attempts: int = 0
    #: Monotonic time before which the task must not be (re)assigned.
    not_before: float = 0.0
    elapsed: float = 0.0
    #: Shard directive forwarded to the worker: an ``"i/n"`` string
    #: runs only that slice of a shardable experiment's sweep (the
    #: result is a partial for the merge step).
    shard: Optional[str] = None
    #: The fan-out this task is shard ``shard_index`` of, if any.
    group: Optional[_ShardGroup] = None
    shard_index: int = 0


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
    if retries < 0:
        raise ValueError("retries must be non-negative")
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive")
    if resume and run_dir is None:
        raise HbmSimError("--resume requires --run-dir")
    ShardSpec.parse(shard)  # a malformed shard fails before any run

    records = [RunRecord(experiment_id, index)
               for index, experiment_id in enumerate(ids)]
    store = ResultStore(run_dir) if run_dir is not None else None
    keys = {experiment_id: result_key(experiment_id, scale, shard)
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

    Forked workers inherit the parent's ``make_chip`` memo, so filling
    it here turns N per-worker calibrations (the jobs>1 slowdown: every
    worker repeated the whole chip setup) into zero.
    Best-effort: a failure here surfaces later in whichever experiment
    actually needs the chip, with its normal error handling.
    """
    try:
        from repro.chips.profiles import all_chips
        all_chips()
    except Exception:  # noqa: BLE001 — warming must never kill the run
        pass


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
    sweep = registry.SHARDABLE.get(experiment_id)
    if sweep is None:
        return 1
    return max(1, min(jobs, sweep.units))


def _next_runnable(pending: Deque[_Task], now: float) -> Optional[_Task]:
    """Pop the first pending task out of retry backoff (or None)."""
    for _ in range(len(pending)):
        task = pending.popleft()
        if task.not_before <= now:
            return task
        pending.append(task)
    return None


def _run_pool(tasks: Deque[_Task], records: List[RunRecord], jobs: int,
              timeout: Optional[float], retries: int, keep_going: bool,
              retry_delay: float,
              checkpoint: Callable[[RunRecord], None]) -> None:
    """Kill-capable worker-pool execution with crash recovery.

    Shardable experiments (see ``registry.SHARDABLE``) fan out across
    the slots as independent shard tasks — each with the full retry/
    timeout policy — and merge back into one record once every shard
    succeeds, so ``-j N`` scales inside a single long experiment rather
    than stopping at experiment granularity.  The first failed shard
    kills its siblings at once.

    One loop on the calling thread owns the slots.  Each pass waits for
    a reply, a deadline or the end of a retry backoff, then hands every
    free slot its next runnable task *before* it merges or checkpoints
    what completed, so a slow merge never idles a slot.
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
    # Indivisible invocations (fan-out 1) are queued first, longest
    # first (``registry.LONG_RUNNING``, then request order): they cannot
    # be split, so they start at once while the shard tasks — divisible
    # work — backfill whichever slot frees up.  Records, merges and
    # report order stay in request order (by record index).
    ordered = sorted(tasks, key=lambda task: (
        fanouts[task.index] > 1,
        task.experiment_id not in registry.LONG_RUNNING))
    pending: Deque[_Task] = deque()
    for task in ordered:
        count = fanouts[task.index]
        if count <= 1:
            pending.append(task)
            continue
        group = _ShardGroup(records[task.index], task.scale, count)
        pending.extend(
            _Task(task.index, task.experiment_id, task.scale,
                  shard=f"{shard_index}/{count}", group=group,
                  shard_index=shard_index)
            for shard_index in range(count))

    ctx = _fork_context()
    workers: List[Optional[_Worker]] = [None] * slots

    def assign() -> None:
        now = time.monotonic()
        for slot, worker in enumerate(workers):
            if worker is not None and worker.task is not None:
                continue
            task = _next_runnable(pending, now) if pending else None
            if task is None:
                return
            if worker is None:
                worker = workers[slot] = _Worker(ctx)
            worker.assign(task, timeout)

    def retire(slot: int) -> None:
        workers[slot].kill()
        workers[slot] = None  # respawned when the slot is next needed

    def wait_for_attempts() -> List[tuple]:
        """Block until attempts end; one ``(task, result, status,
        error, exception)`` per ended attempt (``result`` None on
        failure)."""
        now = time.monotonic()
        busy = [worker for worker in workers
                if worker is not None and worker.task is not None]
        # Wait for the earliest of: a reply, a deadline, or a pending
        # task leaving backoff while a slot sits idle.
        wait_for = None
        deadlines = [worker.deadline for worker in busy
                     if worker.deadline is not None]
        if deadlines:
            wait_for = max(0.0, min(deadlines) - now)
        if pending and len(busy) < slots:
            until_ready = max(0.0, min(t.not_before for t in pending) - now)
            wait_for = until_ready if wait_for is None \
                else min(wait_for, until_ready)
        if busy:
            ready = mp_connection.wait([worker.conn for worker in busy],
                                       timeout=wait_for)
        else:
            time.sleep(wait_for or 0.0)
            ready = []
        ended: List[tuple] = []
        for worker in busy:
            if worker.conn not in ready:
                continue
            task = worker.task
            try:
                kind, elapsed, payload = _recv_reply(worker.conn)
            except (EOFError, OSError):
                # Worker died before its reply was whole: the pool's
                # broken-process failure mode.  Respawn the slot and
                # retry just this task; survivors are unaffected.  The
                # exit code is known only once the kill has reaped it.
                retire(workers.index(worker))
                exitcode = worker.process.exitcode
                ended.append((
                    task, None, "failed",
                    f"worker crashed (exit code {exitcode}) while "
                    f"running {task.experiment_id!r}",
                    WorkerCrashError(task.experiment_id, task.attempts,
                                     exitcode)))
                continue
            task.elapsed += elapsed
            worker.task = None
            worker.deadline = None
            if kind == "ok":
                ended.append((task, payload, "ok", None, None))
            else:
                ended.append((
                    task, None, "failed", payload["traceback"],
                    ExperimentError(task.experiment_id, task.attempts,
                                    payload["type"], payload["message"],
                                    payload["traceback"])))
        now = time.monotonic()
        for slot, worker in enumerate(workers):
            if worker is None or worker.task is None \
                    or worker.deadline is None or worker.deadline > now:
                continue
            task = worker.task
            task.elapsed += timeout or 0.0
            retire(slot)
            ended.append((
                task, None, "timeout",
                f"timed out after {timeout:g}s (attempt {task.attempts})",
                ExperimentTimeoutError(task.experiment_id, task.attempts,
                                       timeout or 0.0)))
        return ended

    def drop_siblings(group: _ShardGroup) -> None:
        """Kill a failed fan-out's queued and running shards at once."""
        for task in [task for task in pending if task.group is group]:
            pending.remove(task)
        for slot, worker in enumerate(workers):
            if worker is not None and worker.task is not None \
                    and worker.task.group is group:
                retire(slot)

    def settle(task: _Task, result: Optional[ExperimentResult],
               status: str, error: Optional[str],
               exception: Optional[ExperimentError]) -> None:
        group = task.group
        if group is not None and group.failed:
            return  # sibling of an already-failed fan-out
        if result is None and task.attempts <= retries:
            task.not_before = time.monotonic() + backoff_delay(
                task.experiment_id, task.attempts, retry_delay)
            pending.append(task)
            return
        if group is None:
            record = records[task.index]
            if result is not None:
                _record_success(record, result, task.elapsed,
                                task.attempts, checkpoint)
                return
            record.attempts = task.attempts
            record.elapsed = task.elapsed
            _final_failure(record, status, error, keep_going, exception)
            return
        # The invocation's wall time is its slowest shard; its attempt
        # count the worst shard's (so "retried" surfaces).
        group.elapsed = max(group.elapsed, task.elapsed)
        group.attempts = max(group.attempts, task.attempts)
        if result is not None:
            group.partials[task.shard_index] = result
            group.done += 1
            if group.done == group.count:
                merged = registry.merge_shard_results(
                    task.experiment_id, group.partials, group.scale)
                _record_success(group.record, merged, group.elapsed,
                                max(1, group.attempts), checkpoint)
            return
        group.failed = True
        drop_siblings(group)
        record = group.record
        record.attempts = max(1, group.attempts)
        record.elapsed = group.elapsed
        _final_failure(record, status, error, keep_going, exception)

    try:
        while pending or any(worker is not None and worker.task is not None
                             for worker in workers):
            assign()
            ended = wait_for_attempts()
            assign()  # free slots first: a merge must not idle a slot
            for outcome in ended:
                settle(*outcome)
    finally:
        # Idle workers exit cleanly; busy ones (a fail-fast raise) are
        # killed, so no worker outlives the run.
        for worker in workers:
            if worker is None:
                continue
            if worker.task is None:
                worker.shutdown()
            else:
                worker.kill()
