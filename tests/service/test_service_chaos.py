"""Service chaos drill: SIGKILL ``python -m repro.service`` mid-batch,
restart with ``--drain``, and prove the crash-safety contract end to end:

- every admitted request reaches a terminal state across incarnations;
- results are bit-identical to a fault-free run (golden report shas),
  even with ``HBMSIM_FAULTS`` worker chaos layered on top;
- work that completed before the kill is never executed again (the
  journal's started-line audit).

This is the subprocess half of ``test_journal.py``: it exercises the
real CLI, stdio protocol, fsync'd journal, and re-adoption, with the
service process killed the hard way (SIGKILL — no atexit, no flush).
"""

import json
import multiprocessing
import os
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="service workers require the fork start method")

pytestmark = needs_fork

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Golden report shas (fault-free), shared with
#: tests/core/test_batch_equivalence.py and the CI perf smoke.
GOLDEN = {"fig05": "44546c2cd83c30da", "fig07": "e22a1494c3310f21"}

#: Two distinct keys, each submitted twice (the duplicates coalesce or
#: serve from cache — either way they must not re-execute).
BATCH = [
    {"experiment_id": "fig05", "scale": 0.25},
    {"experiment_id": "fig07", "scale": 0.25},
    {"experiment_id": "fig05", "scale": 0.25},
    {"experiment_id": "fig07", "scale": 0.25},
]


def _service_env(tmp_path):
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC
    env["HBMSIM_CACHE_DIR"] = str(tmp_path / "cache")
    # Worker chaos: fig07's first attempt dies mid-run; the retried
    # attempt must still produce the golden report.
    env["HBMSIM_FAULTS"] = json.dumps(
        {"seed": 7, "crash_once": ["fig07"]})
    env.pop("HBMSIM_NO_CACHE", None)
    return env


def _drain_stdout(stream, lines):
    for line in stream:
        lines.put(line)
    lines.put(None)


def _journal_events(journal_dir):
    """Parseable journal events, in append order (torn lines skipped
    exactly as ``ServiceJournal.events`` skips them)."""
    events = []
    for line in (journal_dir / "journal.jsonl").read_text().splitlines():
        try:
            payload = json.loads(line)
        except ValueError:
            continue
        if isinstance(payload, dict) and "event" in payload \
                and "job" in payload:
            events.append(payload)
    return events


def _pids_mentioning(token):
    """Live PIDs whose cmdline contains ``token`` (forked pool workers
    keep the service's argv, so the unique journal path finds them)."""
    pids = []
    for pid_dir in Path("/proc").iterdir():
        if not pid_dir.name.isdigit():
            continue
        try:
            cmdline = (pid_dir / "cmdline").read_bytes()
        except OSError:
            continue
        if token.encode() in cmdline:
            pids.append(int(pid_dir.name))
    return pids


def test_sigkill_mid_batch_then_drain_readopts(tmp_path):
    journal_dir = tmp_path / "journal"
    env = _service_env(tmp_path)

    # --- phase 1: serve, submit the batch, SIGKILL after the first
    # terminal event.  One slot serializes the batch, so the moment the
    # first "done" event lands the rest cannot all have finished.
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--slots", "1",
         "--journal-dir", str(journal_dir)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, env=env)
    lines = queue.Queue()
    threading.Thread(target=_drain_stdout, args=(proc.stdout, lines),
                     daemon=True).start()
    try:
        for request in BATCH:
            proc.stdin.write(json.dumps(
                {"op": "submit", "request": request}) + "\n")
        proc.stdin.flush()

        deadline = time.monotonic() + 180.0
        saw_done = False
        while time.monotonic() < deadline:
            try:
                line = lines.get(timeout=1.0)
            except queue.Empty:
                continue
            assert line is not None, "service exited before a result"
            payload = json.loads(line)
            assert payload.get("ok", True), payload
            if payload.get("event") == "done":
                saw_done = True
                break
        assert saw_done, "no job finished within the deadline"
    finally:
        proc.kill()  # SIGKILL — no shutdown handshake, no flush
        proc.wait(timeout=30)

    # Orphaned pool workers must reap themselves (they poll for their
    # parent's death — pipe EOF alone is unreliable across forks).
    deadline = time.monotonic() + 30.0
    while _pids_mentioning(str(journal_dir)) \
            and time.monotonic() < deadline:
        time.sleep(0.25)
    assert _pids_mentioning(str(journal_dir)) == []

    pre_kill = _journal_events(journal_dir)
    key_of = {e["job"]: e["key"] for e in pre_kill
              if e["event"] == "admitted"}
    terminal_pre = {e["job"] for e in pre_kill
                    if e["event"] in ("completed", "failed", "cancelled")}
    completed_pre = {e["job"] for e in pre_kill
                     if e["event"] == "completed"}
    open_jobs = set(key_of) - terminal_pre
    assert len(key_of) == len(BATCH)      # every submit was journaled
    assert completed_pre                  # genuinely mid-batch...
    assert open_jobs                      # ...with work still in flight

    # Pre-kill completions already carry the golden shas.
    for event in pre_kill:
        if event["event"] == "completed":
            summary = event["summary"]
            assert summary["sha"] \
                == GOLDEN[summary["record"]["experiment_id"]]
    completed_keys = {key_of[job] for job in completed_pre}

    # --- phase 2: restart with --drain; the journal's open jobs are
    # re-adopted and run to completion (same chaos env).
    drain = subprocess.run(
        [sys.executable, "-m", "repro.service",
         "--journal-dir", str(journal_dir), "--drain"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env, timeout=300)
    assert drain.returncode == 0, drain.stdout
    summary = json.loads(drain.stdout.strip().splitlines()[-1])
    assert summary["ok"] and summary["failed"] == 0
    drained = {job["job"]: job for job in summary["jobs"]}
    assert set(drained) == open_jobs

    # Bit-identical across the kill: every drained job reports the
    # fault-free golden sha for its experiment.
    for job in drained.values():
        assert job["record"]["status"] in ("ok", "retried", "cached")
        assert job["sha"] == GOLDEN[job["record"]["experiment_id"]]

    # --- the zero-duplicate-execution audit.
    full = _journal_events(journal_dir)
    assert full[:len(pre_kill)] == pre_kill   # append-only survived
    post_kill = full[len(pre_kill):]

    # Keys that completed before the kill never start again.
    restarted_keys = {key_of.get(e["job"]) for e in post_kill
                      if e["event"] == "started"}
    assert not restarted_keys & completed_keys

    # No job anywhere has a "started" line after its terminal line.
    terminal_at = {}
    for index, event in enumerate(full):
        if event["event"] in ("completed", "failed", "cancelled"):
            terminal_at.setdefault(event["job"], index)
    for index, event in enumerate(full):
        if event["event"] == "started":
            assert index < terminal_at.get(event["job"], len(full))

    # Every admitted job is terminal, and each key executed at most
    # once per incarnation that touched it.
    started_count = {}
    for event in full:
        if event["event"] == "started":
            key = key_of[event["job"]]
            started_count[key] = started_count.get(key, 0) + 1
    for job_id, key in key_of.items():
        assert job_id in terminal_at
        # 1 normal execution, +1 only if the kill interrupted it.
        assert started_count.get(key, 0) <= 2

    # The second incarnation re-ran at most the interrupted work: the
    # batch had two keys, one finished pre-kill, so at most one key
    # (and at most one execution per job) started post-kill.
    assert len([e for e in post_kill if e["event"] == "started"]) <= 2
