"""Command-line entry point: ``python -m repro.fuzz``.

Runs a differential fuzzing campaign (see :mod:`repro.fuzz`) and exits:

- ``0`` — every case agreed across all engines/paths (or, with
  ``--mutate``, the seeded bug was caught and shrunk),
- ``1`` — a divergence was found (or a seeded bug escaped),
- ``2`` — usage error.

Examples::

    python -m repro.fuzz --seed 0 --budget 200
    python -m repro.fuzz --seed 0 --budget 200 --corpus out/fuzz
    python -m repro.fuzz --replay tests/fuzz/corpus
    python -m repro.fuzz --seed 0 --budget 50 --mutate clock-skew
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.bender.assembler import disassemble
from repro.dram.device import HBM2Stack
from repro.fuzz.corpus import iter_corpus, save_case
from repro.fuzz.harness import (CaseResult, run_budget, run_case,
                                still_fails)
from repro.fuzz.mutations import MUTATIONS, seeded_bug
from repro.fuzz.shrink import shrink


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential program fuzzer: run seeded random "
                    "SoftBender programs through the scalar, compiled "
                    "and online-checked engines and cross-check them "
                    "flip for flip.")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default: 0)")
    parser.add_argument("--budget", type=int, default=200,
                        help="number of generated cases (default: 200)")
    parser.add_argument("--corpus", type=Path, default=None,
                        help="directory to write shrunk reproducers to")
    parser.add_argument("--replay", type=Path, default=None,
                        help="replay persisted reproducers from this "
                             "directory instead of generating")
    parser.add_argument("--mutate", choices=MUTATIONS, default=None,
                        help="activate a seeded engine bug; the campaign "
                             "then MUST find and shrink a failure")
    parser.add_argument("--keep-going", action="store_true",
                        help="collect every failing case instead of "
                             "stopping at the first")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-failure program dumps")
    return parser


def _report_failure(result: CaseResult, quiet: bool) -> None:
    print(result.describe())
    if quiet:
        return
    case = result.case
    print("  shrunk reproducer:")
    for line in disassemble(case.program).splitlines():
        print(f"    {line}")
    if case.fault_plan is not None:
        print(f"  fault plan: {case.fault_plan.to_dict()}")
    print(f"  trr_enabled: {case.trr_enabled}")


def _shrink_failures(failures: Sequence[CaseResult],
                     corpus: Optional[Path],
                     quiet: bool) -> None:
    for failure in failures:
        result = run_case(shrink(failure.case, still_fails))
        if result.ok:  # shrinking raced a flaky predicate; keep original
            result = failure
        _report_failure(result, quiet)
        if corpus is not None:
            target = save_case(corpus, result.case, result.divergences)
            print(f"  saved reproducer to {target}")


def _replay(root: Path, keep_going: bool) -> List[CaseResult]:
    row_bytes = HBM2Stack().geometry.row_bytes
    failures: List[CaseResult] = []
    replayed = 0
    for case in iter_corpus(root, row_bytes=row_bytes):
        replayed += 1
        result = run_case(case)
        if not result.ok:
            failures.append(result)
            if not keep_going:
                break
    print(f"replayed {replayed} corpus case(s), "
          f"{len(failures)} failing")
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.budget < 0:
        parser.error("--budget must be non-negative")

    context = seeded_bug(args.mutate) if args.mutate \
        else contextlib.nullcontext()
    with context:
        failures: List[CaseResult]
        if args.replay is not None:
            failures = _replay(args.replay, args.keep_going)
        else:
            failures = list(run_budget(args.seed, args.budget,
                                       keep_going=args.keep_going))
            print(f"ran {args.budget} generated case(s) "
                  f"(seed {args.seed}), {len(failures)} failing")
        if failures:
            _shrink_failures(failures, args.corpus, args.quiet)

    if args.mutate:
        if failures:
            print(f"mutation {args.mutate!r}: caught and shrunk "
                  f"({len(failures)} failure(s))")
            return 0
        print(f"mutation {args.mutate!r}: ESCAPED the campaign "
              f"(no divergence found)", file=sys.stderr)
        return 1
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover — exercised via CLI tests
    sys.exit(main())
