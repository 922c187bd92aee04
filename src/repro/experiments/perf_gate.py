"""CI perf gate: fail when a fresh run regresses past the baseline.

``python -m repro.experiments.perf_gate --baseline BENCH_experiments.json
--measured bench-ci.json --experiment fig05 --scale 0.25 --factor 2.0``
compares the newest matching run in ``--measured`` (what CI just
recorded) against the newest matching run in ``--baseline`` (the
checked-in history) and exits 1 when the measured per-experiment wall
time exceeds ``factor`` times the baseline.

Both files are read through
:func:`repro.experiments.bench.experiment_seconds`.  Runs are matched
on (experiment, scale, jobs, faults) among batched-engine runs
(``batch: true``) only: a scalar ``HBMSIM_BATCH=0`` run recorded later
never serves as a baseline.  The jobs=1/faults=off default isolates the
compute path from pool variance and chaos plans, which is what a 2x
threshold can police without flaking on shared CI hardware.
``--faults on`` gates chaos-mode (fault-plan) runs instead.  Whether
the compiled engines take their fast paths is not timed here: tier-1
count tests assert it (``test_fig14_takes_the_fast_path`` and
``test_ext_defenses_takes_the_fast_path``).

Two further checks, both against the measured file only:

``--max-rss-mb`` fails when the measured run's recorded peak RSS
(schema 3's ``peak_rss_mb``) exceeds the ceiling; the generous default
catches accidental whole-population materialization, not incremental
growth.  ``--min-parallel-speedup`` requires the experiment's recorded
seconds in the measured ``jobs=4`` run to beat the measured ``jobs=1``
run's by that factor — shard fan-out records the slowest shard's
worker-side compute time, so the ratio measures sweep scaling rather
than pool spawn overhead: the CI teeth behind shard fan-out at full
geometry.

``--rss-factor`` compares the measured run's peak RSS against the
*baseline* run's recorded peak RSS — a relative ceiling that tracks
the checked-in history instead of a hand-set constant.

Exit status: 0 pass, 1 regression, 2 missing/unreadable data.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Tuple

from repro.experiments.bench import experiment_seconds

#: Jobs count of the run ``--min-parallel-speedup`` compares with jobs=1.
PARALLEL_JOBS = 4


def find_run(payload: dict, experiment_id: str, scale: float,
             jobs: int, faults: bool = False) -> Tuple[Optional[float],
                                                       Optional[dict]]:
    """Newest batched (seconds, run) matching the criteria, or
    ``(None, None)``.

    Only runs recorded with ``batch: true`` match; schema-1 history
    carries no ``batch`` key and never does.  ``faults`` defaults to
    ``False`` — chaos-mode (schema 4 ``faults: true``) runs never match
    unless explicitly requested, so fault-enabled measurements cannot
    pollute fault-free baselines; pre-schema-4 history carries no key
    and matches ``False``.
    """
    for run in reversed(payload.get("runs", [])):
        if run.get("scale") != scale or run.get("jobs") != jobs:
            continue
        if run.get("batch") is not True:
            continue
        if bool(run.get("faults", False)) != faults:
            continue
        entry = run.get("experiments", {}).get(experiment_id)
        if entry is None:
            continue
        return experiment_seconds(entry), run
    return None, None


def _load(path: str, label: str) -> Optional[dict]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"perf-gate: cannot read {label} {path!r}: {exc}",
              file=sys.stderr)
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.perf_gate",
        description="Fail CI when a bench run regresses past the "
                    "checked-in baseline.")
    parser.add_argument("--baseline", required=True,
                        help="checked-in bench record (the reference)")
    parser.add_argument("--measured", required=True,
                        help="bench record produced by this CI run")
    parser.add_argument("--experiment", default="fig05")
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--faults", choices=["on", "off"],
                        default="off",
                        help="fault-plan state to match: 'off' (the "
                             "default) ignores chaos-mode runs so they "
                             "never pollute fault-free baselines, 'on' "
                             "compares fault-enabled runs only")
    parser.add_argument("--factor", type=float, default=2.0,
                        help="fail when measured > factor * baseline")
    parser.add_argument("--max-rss-mb", type=float, default=6144.0,
                        metavar="MB",
                        help="fail when the measured run's recorded "
                             "peak RSS exceeds this ceiling (schema-3 "
                             "'peak_rss_mb'; pre-schema-3 runs carry "
                             "none and pass; default 6144)")
    parser.add_argument("--rss-factor", type=float, default=None,
                        metavar="X",
                        help="additionally fail when the measured "
                             "run's peak RSS exceeds X times the "
                             "matching baseline run's recorded peak "
                             "RSS (skipped with a note when either "
                             "run predates RSS recording)")
    parser.add_argument("--min-parallel-speedup", type=float,
                        default=None, metavar="X",
                        help="additionally require the experiment's "
                             "recorded seconds in the measured "
                             f"jobs={PARALLEL_JOBS} run to be at least "
                             "X times faster than in the measured "
                             "jobs=1 run (shard fan-out records the "
                             "slowest shard's compute time, so the "
                             "ratio measures sweep scaling, not "
                             "worker spawn overhead; wall-clock is "
                             "printed as context)")
    args = parser.parse_args(argv)
    faults = args.faults == "on"

    baseline_payload = _load(args.baseline, "baseline")
    measured_payload = _load(args.measured, "measured run")
    if baseline_payload is None or measured_payload is None:
        return 2

    baseline, baseline_run = find_run(baseline_payload, args.experiment,
                                      args.scale, args.jobs, faults)
    measured, measured_run = find_run(measured_payload, args.experiment,
                                      args.scale, args.jobs, faults)
    criteria = (f"{args.experiment} @ scale {args.scale}, "
                f"jobs={args.jobs}, faults={args.faults}")
    if baseline is None:
        print(f"perf-gate: no baseline run matches {criteria} in "
              f"{args.baseline!r}", file=sys.stderr)
        return 2
    if measured is None:
        print(f"perf-gate: no measured run matches {criteria} in "
              f"{args.measured!r}", file=sys.stderr)
        return 2

    limit = args.factor * baseline
    verdict = "PASS" if measured <= limit else "FAIL"
    print(f"perf-gate [{verdict}] {criteria}: measured {measured:.4f}s "
          f"vs baseline {baseline:.4f}s "
          f"(limit {args.factor:g}x = {limit:.4f}s; baseline recorded "
          f"{baseline_run.get('timestamp', '?')})")
    status = 0 if measured <= limit else 1

    rss = measured_run.get("peak_rss_mb")
    if rss is not None and args.max_rss_mb:
        rss_ok = float(rss) <= args.max_rss_mb
        print(f"perf-gate [{'PASS' if rss_ok else 'FAIL'}] peak RSS "
              f"{float(rss):.1f} MiB (ceiling {args.max_rss_mb:g} MiB)")
        if not rss_ok:
            status = 1

    if args.rss_factor is not None:
        baseline_rss = baseline_run.get("peak_rss_mb")
        if rss is None or baseline_rss is None:
            print("perf-gate: --rss-factor skipped (peak_rss_mb "
                  "missing from "
                  + ("both runs" if rss is None and baseline_rss is None
                     else "the measured run" if rss is None
                     else "the baseline run") + ")")
        else:
            rss_limit = args.rss_factor * float(baseline_rss)
            factor_ok = float(rss) <= rss_limit
            print(f"perf-gate [{'PASS' if factor_ok else 'FAIL'}] "
                  f"peak RSS {float(rss):.1f} MiB vs baseline "
                  f"{float(baseline_rss):.1f} MiB (limit "
                  f"{args.rss_factor:g}x = {rss_limit:.1f} MiB)")
            if not factor_ok:
                status = 1

    if args.min_parallel_speedup is not None:
        serial_s, serial_run = find_run(measured_payload,
                                        args.experiment, args.scale, 1,
                                        faults)
        para_s, para_run = find_run(measured_payload, args.experiment,
                                    args.scale, PARALLEL_JOBS, faults)
        if serial_s is None or para_s is None:
            print(f"perf-gate: --min-parallel-speedup needs both a "
                  f"jobs=1 and a jobs={PARALLEL_JOBS} measured "
                  f"run for {criteria}", file=sys.stderr)
            return 2
        speedup = serial_s / para_s if para_s > 0 else float("inf")
        parallel_ok = speedup >= args.min_parallel_speedup
        walls = ""
        if "wall_seconds" in serial_run and "wall_seconds" in para_run:
            walls = (f"; wall {float(serial_run['wall_seconds']):.4f}s"
                     f" -> {float(para_run['wall_seconds']):.4f}s")
        print(f"perf-gate [{'PASS' if parallel_ok else 'FAIL'}] "
              f"{args.experiment} parallel speedup {speedup:.2f}x "
              f"(jobs=1 {serial_s:.4f}s / jobs={PARALLEL_JOBS} "
              f"{para_s:.4f}s; required >= "
              f"{args.min_parallel_speedup:g}x{walls})")
        if not parallel_ok:
            status = 1

    return status


if __name__ == "__main__":
    sys.exit(main())
