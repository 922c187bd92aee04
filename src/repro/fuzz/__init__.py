"""Differential program fuzzer: ``repro.fuzz``.

The repo executes SoftBender programs through three engines that must
agree flip for flip:

- the scalar :class:`~repro.bender.interpreter.Interpreter` (the
  oracle),
- the compiled :class:`~repro.bender.compile.PlanExecutor` (epoch
  replay),
- the *checked* interpreter (:meth:`~repro.bender.interpreter.
  Interpreter.run_checked`), which streams every executed command
  through the online :class:`~repro.lint.stream.TimingChecker`.

This package generates seeded random programs (loops, REF schedules,
HAMMER patterns, fault plans, TRR on/off), runs each through all three
engines, and cross-checks:

- full device-state snapshots (reads, clock, stats, per-row cell state,
  TRR sampler internals, fault schedule) are identical across engines,
- raised errors match by type and message,
- the streaming checker's error-severity findings predict the device's
  ``TimingError`` exactly — including on fault-plan-mutated streams,
- with no fault plan, the offline batch verifier makes the same
  prediction and its symbolic clock matches the device clock.

Failures are shrunk to minimal reproducers (:mod:`repro.fuzz.shrink`)
and persisted as assembly + JSON (:mod:`repro.fuzz.corpus`) so a found
divergence becomes a regression test.  Entry point::

    python -m repro.fuzz --seed 0 --budget 200

and ``--mutate NAME`` runs the campaign against a deliberately seeded
engine bug (:mod:`repro.fuzz.mutations`) to prove the harness can
actually catch one.
"""

from repro.fuzz.corpus import iter_corpus, load_case, save_case
from repro.fuzz.generator import FuzzCase, generate_case, generate_program
from repro.fuzz.harness import (CaseResult, EngineOutcome, run_budget,
                                run_case, snapshot_state)
from repro.fuzz.mutations import MUTATIONS, seeded_bug
from repro.fuzz.shrink import shrink

__all__ = [
    "FuzzCase", "generate_case", "generate_program",
    "CaseResult", "EngineOutcome", "run_budget", "run_case",
    "snapshot_state",
    "iter_corpus", "load_case", "save_case",
    "MUTATIONS", "seeded_bug",
    "shrink",
]
