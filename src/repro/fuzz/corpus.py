"""Regression-corpus persistence for shrunk fuzzer reproducers.

One reproducer is a directory holding a ``case.json`` and a
``program.sbp``.  ``case.json`` carries the execution context (campaign
seed/index, TRR enable, fault plan), the divergence strings observed
when the case was saved and a ``kind`` field, which is always
``"program"``; ``program.sbp`` holds the shrunk program as SoftBender
assembly (:func:`~repro.bender.assembler.disassemble`), human-readable
and directly replayable.  ``tests/fuzz/corpus/`` replays every committed
reproducer through the matching differential harness on each test run,
so a divergence found once by a nightly campaign stays fixed forever.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

from repro.bender.assembler import assemble, disassemble
from repro.faults.plan import FaultPlan
from repro.fuzz.generator import FuzzCase

PROGRAM_FILE = "program.sbp"
CASE_FILE = "case.json"


def _write_json(target: Path, payload: dict) -> None:
    (target / CASE_FILE).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def save_case(directory: Path, case: FuzzCase,
              divergences: Sequence[str] = ()) -> Path:
    """Persist one reproducer under ``directory / case.name``."""
    target = Path(directory) / case.name
    target.mkdir(parents=True, exist_ok=True)
    payload = {
        "seed": case.seed,
        "index": case.index,
        "fault_plan": None if case.fault_plan is None
        else case.fault_plan.to_dict(),
        "divergences": list(divergences),
        "kind": "program",
        "trr_enabled": case.trr_enabled,
    }
    (target / PROGRAM_FILE).write_text(disassemble(case.program),
                                       encoding="utf-8")
    _write_json(target, payload)
    return target


def load_case(directory: Path, row_bytes: int = 1024) -> FuzzCase:
    """Load one persisted reproducer (a payload without ``kind`` is a
    program case; any other kind is rejected)."""
    directory = Path(directory)
    payload = json.loads((directory / CASE_FILE).read_text(
        encoding="utf-8"))
    plan: Optional[FaultPlan] = None
    if payload.get("fault_plan") is not None:
        plan = FaultPlan.from_dict(payload["fault_plan"])
    kind = payload.get("kind", "program")
    if kind != "program":
        raise ValueError(
            f"unknown corpus case kind {kind!r} in {directory}")
    source = (directory / PROGRAM_FILE).read_text(encoding="utf-8")
    program = assemble(source, name=directory.name, row_bytes=row_bytes)
    return FuzzCase(seed=int(payload["seed"]),
                    index=int(payload["index"]),
                    program=program,
                    trr_enabled=bool(payload["trr_enabled"]),
                    fault_plan=plan)


def iter_corpus(root: Path, row_bytes: int = 1024
                ) -> Iterator[FuzzCase]:
    """Yield every reproducer under ``root`` (sorted, deterministic)."""
    root = Path(root)
    if not root.is_dir():
        return
    for entry in sorted(root.iterdir()):
        if (entry / CASE_FILE).is_file():
            yield load_case(entry, row_bytes=row_bytes)


def corpus_names(root: Path) -> List[str]:
    """Names of the persisted reproducers (for reporting)."""
    return [case.name for case in iter_corpus(root)]
