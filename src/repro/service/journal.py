"""Service journal: crash-safe, append-only, line-JSON.

Every admitted job writes an ``admitted`` line (with its full request
payload and content key) before it can run, ``started`` lines per
execution attempt dispatched to the pool, and exactly one terminal
line (``completed`` / ``failed`` / ``cancelled``).  Lines are flushed
and fsync'd per append: a SIGKILL between any two lines loses at most
the event being written, never a prior one.

On restart, :meth:`ServiceJournal.replay` folds the log into one entry
per job; :meth:`open_jobs` is the re-adoption set — jobs admitted (in
this or a previous incarnation) without a terminal line.  Re-adoption
composes with the content-keyed result store
(:mod:`repro.experiments.store`): a job whose execution completed before the
crash re-adopts straight from the cache without re-running, which is
what makes "SIGKILL the service mid-batch" a recoverable event instead
of a duplicated sweep.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Journal schema version (bump on layout changes).
JOURNAL_SCHEMA = 1

#: Events that end a job's lifecycle.
TERMINAL_EVENTS = frozenset({"completed", "failed", "cancelled"})


class ServiceJournal:
    """Append-only journal under one service directory."""

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self.path = self.root / "journal.jsonl"
        self.root.mkdir(parents=True, exist_ok=True)
        self._handle = None

    # -- writing ----------------------------------------------------------

    def append(self, event: str, job_id: str, **payload: Any) -> None:
        """Durably append one event line (flush + fsync)."""
        line = {"schema": JOURNAL_SCHEMA, "event": event, "job": job_id}
        line.update(payload)
        if self._handle is None:
            self._isolate_torn_tail()
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write(json.dumps(line, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def _isolate_torn_tail(self) -> None:
        """Terminate an unfinished final line before our first append.

        A SIGKILL mid-append can leave the file without a trailing
        newline; appending directly would merge our line into the torn
        fragment and lose both.  One newline quarantines the fragment
        as its own (unparseable, skipped) line.
        """
        try:
            with self.path.open("rb") as handle:
                handle.seek(-1, os.SEEK_END)
                torn = handle.read(1) != b"\n"
        except OSError:  # missing or empty file
            return
        if torn:
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write("\n")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- replay -----------------------------------------------------------

    def events(self) -> List[Dict[str, Any]]:
        """Every parseable event line, in append order.

        A torn final line (the SIGKILL case) parses as garbage and is
        skipped; everything before it was fsync'd and survives.
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return []
        events = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                continue  # torn tail write
            if isinstance(payload, dict) and "event" in payload \
                    and "job" in payload:
                events.append(payload)
        return events

    def replay(self) -> Dict[str, Dict[str, Any]]:
        """Fold the log into per-job state, in admission order.

        Each entry carries the ``request`` payload and ``key`` from the
        admission line, the latest ``status`` (a terminal event name or
        ``"in-flight"``), the count of ``started`` lines
        (``executions`` — the duplicate-execution audit the chaos CI
        asserts on), and the terminal line's extra payload.
        """
        jobs: "Dict[str, Dict[str, Any]]" = {}
        for event in self.events():
            job_id = event["job"]
            kind = event["event"]
            entry = jobs.setdefault(job_id, {
                "job": job_id, "request": None, "key": None,
                "status": "in-flight", "executions": 0, "terminal": None,
            })
            if kind == "admitted":
                entry["request"] = event.get("request")
                entry["key"] = event.get("key")
            elif kind == "started":
                entry["executions"] += 1
            elif kind in TERMINAL_EVENTS:
                entry["status"] = kind
                entry["terminal"] = event
        return jobs

    def open_jobs(self) -> List[Dict[str, Any]]:
        """Jobs admitted but not terminal: the re-adoption set."""
        return [entry for entry in self.replay().values()
                if entry["status"] == "in-flight"
                and entry["request"] is not None]

    def max_sequence(self) -> int:
        """Largest numeric suffix among ``job-<n>`` ids, or 0.

        Restarted services continue the id sequence so journal lines
        from two incarnations never collide on a job id.
        """
        highest = 0
        for job_id in self.replay():
            prefix, _, suffix = job_id.rpartition("-")
            if prefix == "job" and suffix.isdigit():
                highest = max(highest, int(suffix))
        return highest
