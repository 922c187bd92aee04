"""Lightweight perf-regression harness for the experiment suite.

Every benchmarked sweep appends one run record to
``BENCH_experiments.json`` (override with ``HBMSIM_BENCH_PATH`` or the
``path`` argument), so per-experiment wall times are tracked from PR to
PR instead of living in commit messages.  The file is a single JSON
document::

    {
      "schema": 5,
      "runs": [
        {
          "timestamp": "2026-08-06T12:00:00+00:00",
          "scale": 0.25,
          "jobs": 1,
          "batch": true,            # batched analytic engine active?
          "faults": false,          # fault plan active during the run?
          "geometry": "8x2x16x16384",
          "repeats": 3,             # timing samples behind each entry
          "peak_rss_mb": 412.3,     # peak RSS of the process or a worker
          "experiments": {
            "fig05": {"seconds": 1.03,
                      "phases": {"calibrate": 0.7, "compile": 0.01,
                                 "execute": 0.3, "report": 0.03}}
          },
          "total_seconds": 1.03,
          "wall_seconds": 1.1       # whole-sweep wall clock (if known)
        },
        ...
      ]
    }

Reading it: compare the same (scale, jobs, batch, faults, geometry)
tuples across runs;
``batch: false`` is the scalar (``HBMSIM_BATCH=0``) engine.  Chips
calibrate in memory once per process (the ``make_chip`` memo): the
``--bench-repeats`` samples of a ``jobs=1`` run share the CLI process,
so only the first sample carries a ``calibrate`` phase and the later
ones find every chip calibrated.  ``total_seconds``
sums per-experiment attempt times; ``wall_seconds`` is the sweep's
wall clock, which ``jobs > 1`` can push *below* ``total_seconds``.
Entries append chronologically; the last run with matching parameters
is the current state of the tree.

Schema 3 adds ``repeats`` (how many timing samples each per-experiment
entry is the median of; see :func:`median_entries`) and
``peak_rss_mb`` (the larger of the recording process's peak resident
set and that of its largest waited-for child, such as a ``-j N`` run's
pool workers, from ``resource.getrusage``; the perf gate polices it).
Schema 4 adds the ``faults`` run flag — ``true`` when a fault plan
was active while timing, so chaos-mode speedup measurements never
pollute fault-free baselines (the perf gate matches on it) — and the
``compile`` phase:
time the program compiler (:mod:`repro.bender.compile`) spent lowering
test programs to epoch segments, recorded alongside ``calibrate`` /
``execute`` / ``report``.  Schema 5 adds ``geometry`` — the simulated
device shape as ``"channels x pseudo-channels x banks x rows"`` (e.g.
``"8x2x16x16384"``, the paper's Table 1 HBM2 geometry) — so scale-1.0
full-geometry runs are distinguishable from reduced-geometry history at
a glance and :func:`compare_runs` flags a mismatch.  Runs of schemas
1-4 remain valid history: every stored entry is a ``{"seconds": ...}``
mapping (the schema-1 runs in the committed history were converted
from plain floats in place), and the keys later schemas added are
optional to :func:`experiment_seconds`.  The perf gate
(:func:`repro.experiments.perf_gate.find_run`) matches only runs that
carry ``batch: true``, so schema-1 runs never serve as its baseline.
Runs recorded while a
cross-process calibration cache existed also carry ``cache``
(``"cold"`` | ``"warm"`` | ``"disabled"``); it is kept as historical
data, and no reader or writer uses it any more.
"""

from __future__ import annotations

import contextlib
import datetime
import json
import os
import time
from pathlib import Path
from typing import Dict, Iterable, Optional, Union

from repro.experiments.store import atomic_write

#: Default bench record, relative to the invoking working directory.
DEFAULT_BENCH_PATH = "BENCH_experiments.json"

_ENV_PATH = "HBMSIM_BENCH_PATH"
_SCHEMA = 5

#: How long a concurrent writer waits for the lock before giving up.
_LOCK_TIMEOUT_S = 10.0
#: A lock file older than this is considered abandoned and broken.
_LOCK_STALE_S = 30.0


def bench_path(path: Optional[str] = None) -> Path:
    """Resolve the bench record path (argument > env > default)."""
    return Path(path or os.environ.get(_ENV_PATH, DEFAULT_BENCH_PATH))


def _load(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text())
        if isinstance(payload, dict) and isinstance(payload.get("runs"),
                                                    list):
            return payload
    except (OSError, ValueError):
        pass
    return {"schema": _SCHEMA, "runs": []}


def _break_stale_lock(lock: Path, observed_ino: int) -> bool:
    """Atomically claim one observed-stale lock file for removal.

    The naive break (``lock.unlink()``) has a TOCTOU hole: two waiters
    can both judge the same lock stale, the first unlinks it and
    *re-acquires*, and the second's unlink then deletes the first's
    fresh lock — two appenders inside the critical section.  Claiming
    by ``os.rename`` to a per-pid victim name closes it: of all the
    waiters that observed the stale lock, at most one rename succeeds
    (the rest see ``FileNotFoundError`` and go back to waiting), and a
    rename that raced a *new* holder's fresh lock is detected by inode
    mismatch and undone with ``os.link`` (atomic, refuses to clobber),
    so the fresh holder keeps its lock.  Returns True when the stale
    lock was genuinely removed and acquisition should be retried.
    """
    victim = lock.with_name(lock.name + f".stale.{os.getpid()}")
    try:
        os.rename(lock, victim)
    except OSError:
        return False  # lost the claim race (or the holder released)
    try:
        stolen_fresh = victim.stat().st_ino != observed_ino
    except OSError:
        stolen_fresh = False
    if stolen_fresh:
        with contextlib.suppress(OSError):
            os.link(victim, lock)  # give the fresh lock back
        with contextlib.suppress(OSError):
            victim.unlink()
        return False
    with contextlib.suppress(OSError):
        victim.unlink()
    return True


@contextlib.contextmanager
def _exclusive_lock(target: Path):
    """O_EXCL lock-file guard around the read-modify-write append.

    Two concurrent ``--bench`` runs (CI + local, or two ``-j`` sweeps)
    used to race: both load the same ``runs`` list and the slower
    ``os.replace`` silently drops the faster one's record.  The lock
    serializes the whole append.  An abandoned lock (holder crashed)
    is broken after :data:`_LOCK_STALE_S` via the rename-claim in
    :func:`_break_stale_lock` (never a bare unlink, which two breakers
    could both run); a healthy holder is waited on up to
    :data:`_LOCK_TIMEOUT_S`, after which we proceed unlocked (an
    append beats losing the record).
    """
    lock = target.with_name(target.name + ".lock")
    target.parent.mkdir(parents=True, exist_ok=True)
    acquired = False
    deadline = time.monotonic() + _LOCK_TIMEOUT_S
    while True:
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            with os.fdopen(fd, "w") as handle:
                handle.write(str(os.getpid()))
            acquired = True
            break
        except FileExistsError:
            try:
                stat = lock.stat()
            except OSError:
                continue  # holder just released; retry immediately
            if time.time() - stat.st_mtime > _LOCK_STALE_S:
                _break_stale_lock(lock, stat.st_ino)
                continue
            if time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        except OSError:
            break  # unwritable directory: run unlocked, best effort
    try:
        yield
    finally:
        if acquired:
            with contextlib.suppress(OSError):
                lock.unlink()


def experiment_seconds(entry: dict) -> float:
    """Seconds of one per-experiment bench entry (``{"seconds": ...,
    "phases": {...}}``)."""
    return float(entry.get("seconds", 0.0))


def _as_entries(timings_or_records) -> Dict[str, dict]:
    """Normalize inputs to ``{id: {"seconds": ..., "phases": {...}}}``.

    Accepts ``{id: {"seconds": ..., "phases": ...}}`` entry dicts (as
    :func:`median_entries` returns) or an iterable of
    :class:`~repro.experiments.runner.RunRecord`.  Per-invocation
    records may repeat an experiment id; repeats aggregate by *summing*
    seconds (and phases) so the bench schema stays one entry per id.
    """
    entries: Dict[str, dict] = {}

    def merge(experiment_id: str, seconds: float,
              phases: Optional[Dict[str, float]]) -> None:
        entry = entries.setdefault(experiment_id,
                                   {"seconds": 0.0, "phases": {}})
        entry["seconds"] += seconds
        for name, value in (phases or {}).items():
            entry["phases"][name] = entry["phases"].get(name, 0.0) + value

    if isinstance(timings_or_records, dict):
        for experiment_id, entry in timings_or_records.items():
            merge(experiment_id, experiment_seconds(entry),
                  entry.get("phases"))
    else:
        for record in timings_or_records:
            phases = getattr(record.result, "phases", None) \
                if record.result is not None else None
            merge(record.experiment_id, record.elapsed, phases)
    return entries


def geometry_label() -> str:
    """The simulated device shape, ``"ch x pc x banks x rows"``.

    ``"8x2x16x16384"`` is the paper's Table 1 HBM2 geometry; the bench
    record carries it so full-geometry runs never silently compare
    against reduced-geometry history.
    """
    from repro.dram.geometry import DEFAULT_GEOMETRY
    geometry = DEFAULT_GEOMETRY
    return (f"{geometry.channels}x{geometry.pseudo_channels}"
            f"x{geometry.banks}x{geometry.rows}")


def peak_rss_mb() -> Optional[float]:
    """Peak resident set size in MiB of this process or of any child it
    has waited for (the pool workers of a ``-j N`` run), if measurable.

    ``RUSAGE_CHILDREN`` reports the largest terminated, waited-for
    child, so the reading is ``max(RUSAGE_SELF, RUSAGE_CHILDREN)``: a
    worker that peaks above the parent sets it.  ``ru_maxrss`` is
    kibibytes on Linux and bytes on macOS; normalize both.  Returns
    ``None`` on platforms without ``resource``.
    """
    try:
        import resource
        import sys as _sys
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    maxrss = float(max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss))
    if _sys.platform == "darwin":  # pragma: no cover - linux CI
        return maxrss / (1024.0 * 1024.0)
    return maxrss / 1024.0


def median_entries(samples: Iterable) -> Dict[str, dict]:
    """Combine repeated timing sweeps into one per-experiment entry set.

    ``samples`` is an iterable of :func:`record_run`-style inputs (each
    an entry dict or a RunRecord iterable).
    Per experiment, the samples are sorted by seconds and the *lower
    median* sample's whole entry is kept — seconds and phase breakdown
    stay one real, self-consistent measurement instead of a synthetic
    average.  Experiments missing from some samples use whatever
    samples carried them.
    """
    normalized = [_as_entries(sample) for sample in samples]
    merged: Dict[str, dict] = {}
    for entries in normalized:
        for experiment_id in entries:
            merged.setdefault(experiment_id, [])
    for experiment_id, collected in merged.items():
        for entries in normalized:
            if experiment_id in entries:
                collected.append(entries[experiment_id])
    return {
        experiment_id:
            sorted(collected,
                   key=lambda entry: entry["seconds"])[
                       (len(collected) - 1) // 2]
        for experiment_id, collected in merged.items()}


def _describe_run(run: dict) -> str:
    """One-line parameter summary of a bench run record."""
    parts = [f"scale {run.get('scale')}", f"jobs {run.get('jobs')}"]
    for flag in ("batch", "faults"):
        if flag in run:
            parts.append(f"{flag} {'on' if run[flag] else 'off'}")
    if run.get("geometry"):
        parts.append(f"geometry {run['geometry']}")
    if run.get("timestamp"):
        parts.append(str(run["timestamp"]))
    return ", ".join(parts)


def compare_runs(path_a: Union[str, Path],
                 path_b: Union[str, Path]) -> str:
    """Per-experiment speedup/regression between two recorded runs.

    Compares the *last* run of bench file ``path_a`` (the baseline)
    against the last run of ``path_b`` (the candidate) and renders a
    plain-text table: per-experiment seconds, the candidate's speedup
    over the baseline (``A/B`` — above 1.0 is faster), and a regression
    marker when the candidate is slower by more than 5%.  Raises
    :class:`~repro.errors.HbmSimError` when either file holds no runs,
    and flags mismatched run parameters (scale/jobs/batch/faults/
    geometry) instead of silently comparing apples to oranges.
    """
    from repro.errors import HbmSimError

    runs = {}
    for label, path in (("A", path_a), ("B", path_b)):
        loaded = _load(bench_path(str(path)))["runs"]
        if not loaded:
            raise HbmSimError(f"no bench runs recorded in {path}")
        runs[label] = loaded[-1]
    a, b = runs["A"], runs["B"]
    lines = [f"A (baseline):  {path_a} — {_describe_run(a)}",
             f"B (candidate): {path_b} — {_describe_run(b)}"]
    mismatched = [key for key in ("scale", "jobs", "batch", "faults",
                                  "geometry")
                  if key in a and key in b and a[key] != b[key]]
    if mismatched:
        lines.append(
            f"note: run parameters differ ({', '.join(mismatched)}) — "
            "the comparison mixes configurations")
    lines.append("")
    header = (f"{'experiment':<16} {'A (s)':>10} {'B (s)':>10} "
              f"{'speedup':>8}")
    lines.extend([header, "-" * len(header)])
    entries_a = a.get("experiments", {})
    entries_b = b.get("experiments", {})
    for experiment_id in sorted(set(entries_a) | set(entries_b)):
        seconds_a = (experiment_seconds(entries_a[experiment_id])
                     if experiment_id in entries_a else None)
        seconds_b = (experiment_seconds(entries_b[experiment_id])
                     if experiment_id in entries_b else None)
        if seconds_a is None or seconds_b is None:
            present = "A" if seconds_a is not None else "B"
            lines.append(f"{experiment_id:<16} "
                         f"{'only in ' + present:>30}")
            continue
        if seconds_b > 0:
            ratio = seconds_a / seconds_b
            marker = "  REGRESSION" if ratio < 1 / 1.05 else ""
            speed = f"{ratio:7.2f}x{marker}"
        else:
            speed = "     n/a"
        lines.append(f"{experiment_id:<16} {seconds_a:>10.3f} "
                     f"{seconds_b:>10.3f} {speed}")
    for key, label in (("total_seconds", "total"),
                       ("wall_seconds", "wall")):
        if key in a and key in b:
            seconds_a, seconds_b = float(a[key]), float(b[key])
            speed = (f"{seconds_a / seconds_b:7.2f}x"
                     if seconds_b > 0 else "     n/a")
            lines.append(f"{label:<16} {seconds_a:>10.3f} "
                         f"{seconds_b:>10.3f} {speed}")
    return "\n".join(lines)


def record_run(timings: Union[Dict[str, dict], Iterable],
               scale: float, jobs: int = 1,
               path: Optional[str] = None,
               batch: Optional[bool] = None,
               wall_seconds: Optional[float] = None,
               repeats: int = 1,
               faults: Optional[bool] = None) -> Path:
    """Append one run record; returns the path written.

    ``timings`` maps experiment id -> entry dict (``{"seconds": ...,
    "phases": {...}}``, as :func:`median_entries` returns), or is an
    iterable of
    :class:`~repro.experiments.runner.RunRecord` (the second return
    of :func:`repro.experiments.registry.run_timed`; duplicate-id
    invocations aggregate by summing — their per-phase breakdowns come
    along from ``result.phases``).  ``batch`` defaults to the live
    ``HBMSIM_BATCH`` setting; ``wall_seconds`` is the sweep's wall
    clock when the caller measured one.  ``repeats`` records how many
    timing samples each entry is the median of (pre-combine them with
    :func:`median_entries`).
    ``faults`` defaults to whether a fault plan is live right now —
    chaos-mode timings are tagged so the perf gate never compares them
    against fault-free history.  Concurrent writers are serialized
    through a lock file so no record is ever lost.
    """
    entries = _as_entries(timings)
    target = bench_path(path)
    with _exclusive_lock(target):
        return _append_run(target, entries, scale, jobs, batch,
                           wall_seconds, repeats, faults)


def _append_run(target: Path, entries: Dict[str, dict], scale: float,
                jobs: int, batch: Optional[bool],
                wall_seconds: Optional[float], repeats: int = 1,
                faults: Optional[bool] = None) -> Path:
    if batch is None:
        from repro.dram.batch import batch_enabled
        batch = batch_enabled()
    if faults is None:
        from repro.faults import active_plan
        faults = active_plan() is not None
    payload = _load(target)
    payload["schema"] = _SCHEMA
    run = {
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "scale": scale,
        "jobs": jobs,
        "batch": bool(batch),
        "faults": bool(faults),
        "geometry": geometry_label(),
        "repeats": max(1, int(repeats)),
        "experiments": {
            experiment_id: {
                "seconds": round(entry["seconds"], 4),
                "phases": {name: round(value, 4)
                           for name, value in sorted(
                               entry["phases"].items())},
            }
            for experiment_id, entry in entries.items()},
        "total_seconds": round(sum(entry["seconds"]
                                   for entry in entries.values()), 4),
    }
    if wall_seconds is not None:
        run["wall_seconds"] = round(wall_seconds, 4)
    rss = peak_rss_mb()
    if rss is not None:
        run["peak_rss_mb"] = round(rss, 1)
    payload["runs"].append(run)
    atomic_write(target, (json.dumps(payload, indent=2, sort_keys=True)
                          + "\n").encode("utf-8"))
    return target
