"""Static analysis for the reproduction: ``repro.lint``.

Two analyzers guard the two invariants the entire reproduction rests on
(every result is a pure function of the HBM2 command stream and of the
seeded per-cell thresholds):

- :mod:`repro.lint.stream` — the streaming per-command
  :class:`~repro.lint.stream.TimingChecker` (incremental per-bank /
  per-pseudo-channel state, P001–P006 emitted command by command) that
  every protocol verdict in the repo comes from: the offline batch
  verifier drives it with loop extrapolation, and the interpreter's
  ``HBMSIM_LINT=online`` gate feeds it live command streams,
- :mod:`repro.lint.protocol` — the offline driver: statically verifies
  a whole SoftBender :class:`~repro.bender.program.TestProgram` against
  the JESD235-style timing rules in :mod:`repro.dram.timing` before
  anything executes,
- :mod:`repro.lint.determinism` — an ``ast`` linter over the python
  sources that flags ambient RNG state, wall-clock reads in
  result-affecting modules, mutable default arguments, bare
  ``except:``, and stray ``os.environ`` reads.

Run both from the command line with ``python -m repro.lint src/repro``;
gate program execution with ``HBMSIM_LINT=strict|warn|online|off`` (see
:mod:`repro.lint.config`).  Intentional exceptions live in
``lint/baseline.json`` (:mod:`repro.lint.baseline`).
"""

from repro.lint.baseline import (Baseline, BaselineError, Suppression,
                                 load_baseline)
from repro.lint.config import LintMode, lint_mode
from repro.lint.determinism import (DETERMINISM_RULES, lint_file,
                                    lint_source, lint_tree)
from repro.lint.findings import Finding, Rule, RuleCatalog
from repro.lint.protocol import (PROTOCOL_RULES, VerificationReport,
                                 verify_program, verify_programs)
from repro.lint.stream import (StreamingVerifier, TimingChecker,
                               refreshed_pcs_of)

__all__ = [
    "Baseline", "BaselineError", "Suppression", "load_baseline",
    "LintMode", "lint_mode",
    "DETERMINISM_RULES", "lint_file", "lint_source", "lint_tree",
    "Finding", "Rule", "RuleCatalog",
    "PROTOCOL_RULES", "VerificationReport", "verify_program",
    "verify_programs",
    "StreamingVerifier", "TimingChecker", "refreshed_pcs_of",
]
