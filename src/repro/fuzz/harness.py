"""Differential execution harness: three engines, one verdict.

Runs one :class:`~repro.fuzz.generator.FuzzCase` through the scalar
interpreter, the compiled :class:`~repro.bender.compile.PlanExecutor`
and the checked interpreter (:meth:`~repro.bender.interpreter.
Interpreter.run_checked`), each on a fresh identically-configured
device, and cross-checks everything the engines must agree on:

- the full device-state snapshot (tagged reads byte for byte, clock,
  command statistics, rolling-refresh state, per-row cell state, TRR
  sampler internals, fault event schedule + command counter),
- raised errors, by type and message,
- lint agreement: the online checker's error-severity findings must
  predict the device's ``TimingError`` exactly — on the *mutated*
  stream when a fault plan is active — and, fault-free, the offline
  batch verifier must make the same prediction with a matching
  symbolic clock.

Any disagreement is a :class:`CaseResult` with human-readable
divergence strings; the caller (CLI) shrinks and persists it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bender.compile import PlanExecutor
from repro.bender.interpreter import ExecutionResult, Interpreter
from repro.dram.device import HBM2Stack
from repro.dram.trr import TrrConfig
from repro.faults.injector import FaultyStack
from repro.fuzz.generator import FuzzCase, generate_case
from repro.lint.findings import Finding
from repro.lint.protocol import verify_program

ENGINES = ("scalar", "compiled", "checked")

Snapshot = Dict[str, Any]


def snapshot_state(device: HBM2Stack, result: ExecutionResult,
                   stack: Optional[FaultyStack] = None) -> Snapshot:
    """Everything the engines must agree on, equality-comparable."""
    snap: Snapshot = {
        "elapsed": result.elapsed_ns,
        "executed": result.commands_executed,
        "reads": {tag: [image.tobytes() for image in images]
                  for tag, images in result.reads.items()},
        "now": device.now_ns,
        "stats": vars(device.stats).copy(),
        "pointer": dict(device._ref_pointer),
        "ref_times": {key: times.tobytes()
                      for key, times in device._pc_ref_time.items()},
        "rows": {},
        "trr": [],
    }
    for bank_key, rows in device._rows.items():
        for row, state in rows.items():
            snap["rows"][(bank_key, row)] = (
                state.data.tobytes(), state.acc_units, state.restored_at,
                None if state.already_flipped is None
                else state.already_flipped.tobytes())
    for pc_key, engine in device._trr.items():
        for tracker in engine._trackers:
            snap["trr"].append((pc_key, tuple(tracker.cam),
                                dict(tracker.window_counts),
                                tracker.window_total))
    if stack is not None:
        snap["events"] = [(e.index, e.fault, e.command, e.detail)
                          for e in stack.events]
        snap["digest"] = stack.schedule_digest()
        snap["counter"] = stack._counter
    return snap


@dataclass
class EngineOutcome:
    """What one engine produced for one case."""

    engine: str
    snapshot: Optional[Snapshot] = None
    #: ``(type name, message)`` when the engine raised.
    error: Optional[Tuple[str, str]] = None
    #: Online checker findings (checked engine only).
    findings: List[Finding] = field(default_factory=list)


@dataclass
class CaseResult:
    """Differential verdict for one case."""

    case: FuzzCase
    outcomes: Dict[str, EngineOutcome] = field(default_factory=dict)
    divergences: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def describe(self) -> str:
        lines = [f"{self.case.name}: {len(self.divergences)} divergence(s)"]
        lines.extend(f"  - {text}" for text in self.divergences)
        return "\n".join(lines)


def _fresh_device(case: FuzzCase) -> HBM2Stack:
    return HBM2Stack(trr_config=TrrConfig(enabled=case.trr_enabled))


def _run_engine(case: FuzzCase, engine: str) -> EngineOutcome:
    """Execute the case on a fresh device through one engine."""
    device = _fresh_device(case)
    outcome = EngineOutcome(engine=engine)
    runner: Any
    if engine == "compiled":
        runner = PlanExecutor(device, fault_plan=case.fault_plan)
    else:
        runner = Interpreter(device, fault_plan=case.fault_plan)
    try:
        if engine == "checked":
            result, findings = runner.run_checked(
                case.program, on_finding=outcome.findings.append)
        else:
            result = runner.run(case.program)
            findings = None
    except Exception as exc:  # noqa: BLE001 — error parity is the check
        outcome.error = (type(exc).__name__, str(exc))
        return outcome
    if findings is not None:
        outcome.findings = findings
    stack = runner.device if isinstance(runner.device, FaultyStack) \
        else None
    outcome.snapshot = snapshot_state(device, result, stack)
    return outcome


def _compare_snapshots(result: CaseResult) -> None:
    reference = result.outcomes["scalar"]
    for engine in ENGINES[1:]:
        other = result.outcomes[engine]
        if other.error != reference.error:
            result.divergences.append(
                f"error parity: scalar={reference.error} "
                f"{engine}={other.error}")
            continue
        if reference.snapshot is None or other.snapshot is None:
            continue
        for key in reference.snapshot:
            if reference.snapshot[key] != other.snapshot[key]:
                result.divergences.append(
                    f"state divergence on {key!r}: scalar vs {engine}")


def _check_lint_agreement(result: CaseResult) -> None:
    """Error-severity findings must predict TimingError exactly."""
    checked = result.outcomes["checked"]
    if checked.error is not None and checked.error[0] != "TimingError":
        # The program died for non-protocol reasons (e.g. a malformed
        # WR payload): the lint layer makes no prediction about those,
        # and error parity across engines was already checked.
        return
    raised_timing = checked.error is not None \
        and checked.error[0] == "TimingError"
    online_errors = [finding for finding in checked.findings
                     if finding.severity == "error"]
    if raised_timing and not online_errors:
        result.divergences.append(
            "online checker missed the TimingError the device raised: "
            f"{checked.error}")
    if online_errors and not raised_timing:
        rules = sorted({finding.rule for finding in online_errors})
        result.divergences.append(
            "online checker predicted a TimingError the device never "
            f"raised ({', '.join(rules)})")
    if result.case.fault_plan is not None:
        return
    # Fault-free: the offline batch verifier judges the same stream
    # the device saw, so its prediction must match too.
    report = verify_program(result.case.program)
    predicted = bool(report.errors)
    if predicted != raised_timing:
        result.divergences.append(
            f"batch verifier predicted error={predicted} but device "
            f"raised={raised_timing}")
    scalar = result.outcomes["scalar"]
    if not raised_timing and not predicted and scalar.snapshot is not None:
        elapsed = scalar.snapshot["elapsed"]
        if not math.isclose(elapsed, report.elapsed_ns,
                            rel_tol=1.0e-9, abs_tol=1.0e-6):
            result.divergences.append(
                f"symbolic clock {report.elapsed_ns!r} != device clock "
                f"{elapsed!r}")


def run_case(case: FuzzCase) -> CaseResult:
    """Run one case through all three engines and cross-check."""
    result = CaseResult(case=case)
    for engine in ENGINES:
        result.outcomes[engine] = _run_engine(case, engine)
    _compare_snapshots(result)
    _check_lint_agreement(result)
    return result


def still_fails(case: FuzzCase) -> bool:
    """Whether a (shrunk) case still diverges — the shrink predicate."""
    return not run_case(case).ok


def run_budget(seed: int, budget: int,
               row_bytes: Optional[int] = None,
               keep_going: bool = False,
               on_progress: Optional[Callable[[int, CaseResult], None]]
               = None) -> List[CaseResult]:
    """Run ``budget`` generated cases; return the failing results.

    Stops at the first failure unless ``keep_going`` — a campaign
    usually wants one shrunk reproducer, not two hundred variants of
    the same bug.
    """
    if row_bytes is None:
        row_bytes = HBM2Stack().geometry.row_bytes
    failures: List[CaseResult] = []
    for index in range(budget):
        case = generate_case(seed, index, row_bytes=row_bytes)
        result = run_case(case)
        if on_progress is not None:
            on_progress(index, result)
        if not result.ok:
            failures.append(result)
            if not keep_going:
                break
    return failures
