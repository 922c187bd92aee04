"""CI perf gate: fail when a fresh run regresses past the baseline.

``python -m repro.experiments.perf_gate --baseline BENCH_experiments.json
--measured bench-ci.json --experiment fig05 --scale 0.25 --factor 2.0``
compares the newest matching run in ``--measured`` (what CI just
recorded) against the newest matching run in ``--baseline`` (the
checked-in history) and exits 1 when the measured per-experiment wall
time exceeds ``factor`` times the baseline.

Both files are read through
:func:`repro.experiments.bench.experiment_seconds`; schema-1 history (no
``batch`` key, no phases) still serves as a baseline.  Runs are matched
on (experiment, scale, jobs, cache, faults) — the warm/jobs=1/faults=off
default isolates the compute path from calibration, pool variance and
chaos plans, which is what a 2x threshold can police without flaking on
shared CI hardware.  ``--faults on`` gates chaos-mode (fault-plan)
runs instead — the teeth behind the fault-path batching: its
``--min-batch-speedup`` collapses if fault windows ever fall back to
per-command dispatch wholesale.

Two further checks, both against the measured file only:

``--max-rss-mb`` fails when the measured run's recorded peak RSS
(schema 3's ``peak_rss_mb``) exceeds the ceiling; the generous default
catches accidental whole-population materialization, not incremental
growth.  ``--min-batch-speedup`` requires the newest batched
(``batch: true``) run to be at least that many times faster than the
newest scalar (``batch: false``) run of the same experiment — the CI
teeth behind the epoch engine's TRR support: if the epoch replay ever
falls back to the scalar path, the speedup collapses and the gate
trips.

``--rss-factor`` compares the measured run's peak RSS against the
*baseline* run's recorded peak RSS — a relative ceiling that tracks
the checked-in history instead of a hand-set constant — and
``--min-parallel-speedup`` requires the experiment's recorded seconds
in the measured ``jobs=N`` run (``--parallel-jobs``, default 4) to
beat the measured ``jobs=1`` run's by that factor — shard fan-out
records the slowest shard's worker-side compute time, so the ratio
measures sweep scaling rather than pool spawn overhead: the CI teeth
behind shard fan-out at full geometry.

Exit status: 0 pass, 1 regression, 2 missing/unreadable data.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Tuple

from repro.experiments.bench import experiment_seconds


def find_run(payload: dict, experiment_id: str, scale: float,
             jobs: int, cache: Optional[str],
             batch: Optional[bool] = None,
             faults: Optional[bool] = False) -> Tuple[Optional[float],
                                                      Optional[dict]]:
    """Newest (seconds, run) matching the criteria, or ``(None, None)``.

    ``batch=True/False`` restricts to runs recorded with that engine
    (schema-1 history carries no ``batch`` key and only matches the
    default ``None`` = any).  ``faults`` defaults to ``False`` —
    chaos-mode (schema 4 ``faults: true``) runs never match unless
    explicitly requested, so fault-enabled speedup measurements cannot
    pollute fault-free baselines; pre-schema-4 history carries no key
    and matches ``False``.
    """
    for run in reversed(payload.get("runs", [])):
        if run.get("scale") != scale or run.get("jobs") != jobs:
            continue
        if cache is not None and run.get("cache") != cache:
            continue
        if batch is not None and run.get("batch") != batch:
            continue
        if faults is not None and bool(run.get("faults", False)) != faults:
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
    parser.add_argument("--cache", default="warm",
                        help="cache state to match ('warm'; pass '' to "
                             "match any)")
    parser.add_argument("--batch", choices=["any", "on", "off"],
                        default="any",
                        help="engine to match: 'on' compares batched "
                             "runs only, 'off' the scalar engine, "
                             "'any' the newest run regardless (the "
                             "only choice that matches schema-1 "
                             "history, which has no batch flag)")
    parser.add_argument("--faults", choices=["any", "on", "off"],
                        default="off",
                        help="fault-plan state to match: 'off' (the "
                             "default) ignores chaos-mode runs so they "
                             "never pollute fault-free baselines, 'on' "
                             "compares fault-enabled runs only (the "
                             "chaos speedup gate), 'any' disables the "
                             "filter")
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
    parser.add_argument("--min-batch-speedup", type=float, default=None,
                        metavar="X",
                        help="additionally require the measured "
                             "batched run to be at least X times "
                             "faster than the measured scalar "
                             "(batch off) run of the same experiment")
    parser.add_argument("--min-parallel-speedup", type=float,
                        default=None, metavar="X",
                        help="additionally require the experiment's "
                             "recorded seconds in the measured "
                             "jobs=--parallel-jobs run to be at least "
                             "X times faster than in the measured "
                             "jobs=1 run (shard fan-out records the "
                             "slowest shard's compute time, so the "
                             "ratio measures sweep scaling, not "
                             "worker spawn overhead; wall-clock is "
                             "printed as context)")
    parser.add_argument("--parallel-jobs", type=int, default=4,
                        metavar="N",
                        help="jobs count of the parallel run that "
                             "--min-parallel-speedup compares against "
                             "jobs=1 (default 4)")
    args = parser.parse_args(argv)
    cache = args.cache or None
    batch = {"any": None, "on": True, "off": False}[args.batch]
    faults = {"any": None, "on": True, "off": False}[args.faults]

    baseline_payload = _load(args.baseline, "baseline")
    measured_payload = _load(args.measured, "measured run")
    if baseline_payload is None or measured_payload is None:
        return 2

    baseline, baseline_run = find_run(baseline_payload, args.experiment,
                                      args.scale, args.jobs, cache, batch,
                                      faults)
    measured, measured_run = find_run(measured_payload, args.experiment,
                                      args.scale, args.jobs, cache, batch,
                                      faults)
    criteria = (f"{args.experiment} @ scale {args.scale}, "
                f"jobs={args.jobs}, cache={cache or 'any'}, "
                f"batch={args.batch}, faults={args.faults}")
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
          f"{baseline_run.get('timestamp', '?')}, batch="
          f"{baseline_run.get('batch', 'n/a')})")
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

    if args.min_batch_speedup is not None:
        batched, __ = find_run(measured_payload, args.experiment,
                               args.scale, args.jobs, cache, True,
                               faults)
        scalar, __ = find_run(measured_payload, args.experiment,
                              args.scale, args.jobs, cache, False,
                              faults)
        if batched is None or scalar is None:
            print(f"perf-gate: --min-batch-speedup needs both a "
                  f"batch=on and a batch=off measured run for "
                  f"{criteria}", file=sys.stderr)
            return 2
        speedup = scalar / batched if batched > 0 else float("inf")
        speedup_ok = speedup >= args.min_batch_speedup
        print(f"perf-gate [{'PASS' if speedup_ok else 'FAIL'}] "
              f"{args.experiment} batch speedup {speedup:.2f}x "
              f"(scalar {scalar:.4f}s / batched {batched:.4f}s; "
              f"required >= {args.min_batch_speedup:g}x)")
        if not speedup_ok:
            status = 1

    if args.min_parallel_speedup is not None:
        serial_s, serial_run = find_run(measured_payload,
                                        args.experiment, args.scale, 1,
                                        cache, batch, faults)
        para_s, para_run = find_run(measured_payload, args.experiment,
                                    args.scale, args.parallel_jobs,
                                    cache, batch, faults)
        if serial_s is None or para_s is None:
            print(f"perf-gate: --min-parallel-speedup needs both a "
                  f"jobs=1 and a jobs={args.parallel_jobs} measured "
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
              f"(jobs=1 {serial_s:.4f}s / jobs={args.parallel_jobs} "
              f"{para_s:.4f}s; required >= "
              f"{args.min_parallel_speedup:g}x{walls})")
        if not parallel_ok:
            status = 1

    return status


if __name__ == "__main__":
    sys.exit(main())
