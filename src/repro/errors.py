"""Shared error taxonomy for the simulator and the experiment harness.

The paper's multi-hour characterization campaigns survive interface
glitches, board hangs, and host-side crashes because the harness knows
*which* class of failure it is looking at.  This module is the single
place every such class is defined:

- :class:`HbmSimError` — root of everything the simulator raises on
  purpose.  ``except HbmSimError`` separates modeled failures (timing
  violations, injected platform faults, experiment errors) from genuine
  bugs.
- :class:`TimingError` — a command violated a manufacturer-recommended
  timing parameter.  Historically defined in :mod:`repro.dram.timing`;
  re-homed here so the device, the fault injector, and the runner share
  one hierarchy (the old import path still works).
- :class:`PlatformFaultError` / :class:`PlatformHangError` — faults of
  the *test platform* (FPGA board, PCIe link) rather than the DRAM
  under test, raised by the fault-injection layer
  (:mod:`repro.faults`).
- :class:`ExperimentError` and its :class:`ExperimentTimeoutError` /
  :class:`WorkerCrashError` refinements — failures crossing the
  process boundary of the resilient runner
  (:mod:`repro.experiments.runner`).  They carry the experiment id,
  the attempt count, and the captured traceback as plain strings so
  they pickle cleanly.
- :class:`ProbeError` — the TRR probe (:mod:`repro.core.trr_probe`)
  found no site or no victim refresh to measure, for example when
  injected read faults corrupt every retention profile.
- :class:`UnknownExperimentError` — an id not present in the registry;
  subclasses :class:`KeyError` for backward compatibility and carries
  close-match suggestions for the CLI's "did you mean" hint.
- :class:`FaultPlanError` — an invalid ``HBMSIM_FAULTS`` spec.
- :class:`ShardSpecError` — a ``--shard``/``shard`` value that is not
  an ``"i/n"`` sweep slice.
"""

from __future__ import annotations

from typing import Optional, Sequence


class HbmSimError(Exception):
    """Base class for every failure the simulator raises on purpose."""


class TimingError(HbmSimError):
    """A command violated a manufacturer-recommended timing parameter."""


class FaultPlanError(HbmSimError):
    """A fault plan spec (``HBMSIM_FAULTS`` or programmatic) is invalid."""


class ShardSpecError(HbmSimError, ValueError):
    """A shard string that does not name one ``"i/n"`` sweep slice.

    Subclasses :class:`ValueError` so callers validating arguments
    catch it with the other malformed-value errors.
    """


class LintError(HbmSimError):
    """A program failed static verification under ``HBMSIM_LINT=strict``.

    Carries the findings of the protocol verifier so callers can render
    them or inspect rule ids without re-running the analysis.
    """

    def __init__(self, program: str, findings: Sequence[object]) -> None:
        self.program = program
        self.findings = list(findings)
        lines = "\n".join(f"  {f}" for f in self.findings)
        plural = "s" if len(self.findings) != 1 else ""
        super().__init__(
            f"program {program!r} failed static verification with "
            f"{len(self.findings)} finding{plural}:\n{lines}")


class PlatformFaultError(HbmSimError):
    """An injected fault of the test platform (board, link), not the DRAM."""


class PlatformHangError(PlatformFaultError):
    """The simulated test platform stopped responding mid-experiment."""


class ProbeError(HbmSimError, LookupError):
    """A reverse-engineering probe found nothing to measure: no usable
    side-channel row pair, or no TRR victim refresh to time.

    Subclasses :class:`LookupError` so callers catching the probe's
    original error keep working.
    """


class UnknownExperimentError(HbmSimError, KeyError):
    """An experiment id that is not in the registry.

    Subclasses :class:`KeyError` so pre-taxonomy callers catching
    ``KeyError`` keep working.
    """

    def __init__(self, experiment_id: str,
                 available: Sequence[str] = (),
                 suggestions: Sequence[str] = ()) -> None:
        self.experiment_id = experiment_id
        self.available = list(available)
        self.suggestions = list(suggestions)
        message = f"unknown experiment {experiment_id!r}"
        if self.suggestions:
            message += "; did you mean: " + ", ".join(self.suggestions) + "?"
        elif self.available:
            message += "; available: " + ", ".join(self.available)
        super().__init__(message)

    def __str__(self) -> str:
        # KeyError.__str__ repr()s its argument; we want the message.
        return self.args[0]


class ExperimentError(HbmSimError):
    """An experiment failed after its final attempt.

    Raised by the resilient runner (and the fail-fast path of
    ``run_timed``).  The originating exception may have died with a
    worker process, so its identity travels as strings: ``cause_type``,
    ``cause_message`` and the full ``cause_traceback``.
    """

    def __init__(self, experiment_id: str, attempts: int = 1,
                 cause_type: str = "", cause_message: str = "",
                 cause_traceback: Optional[str] = None) -> None:
        self.experiment_id = experiment_id
        self.attempts = attempts
        self.cause_type = cause_type
        self.cause_message = cause_message
        self.cause_traceback = cause_traceback
        detail = f"{cause_type}: {cause_message}" if cause_type \
            else cause_message
        plural = "s" if attempts != 1 else ""
        super().__init__(
            f"experiment {experiment_id!r} failed after {attempts} "
            f"attempt{plural}" + (f" ({detail})" if detail else ""))


class ExperimentTimeoutError(ExperimentError):
    """An experiment exceeded the runner's per-experiment timeout."""

    def __init__(self, experiment_id: str, attempts: int,
                 timeout_seconds: float) -> None:
        super().__init__(experiment_id, attempts,
                         cause_type="Timeout",
                         cause_message=f"exceeded {timeout_seconds:g}s")
        self.timeout_seconds = timeout_seconds


class WorkerCrashError(ExperimentError):
    """The worker process running an experiment died without replying."""

    def __init__(self, experiment_id: str, attempts: int,
                 exitcode: Optional[int] = None) -> None:
        super().__init__(
            experiment_id, attempts, cause_type="WorkerCrash",
            cause_message=f"worker exited with code {exitcode}")
        self.exitcode = exitcode
