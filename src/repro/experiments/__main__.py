"""CLI runner: ``python -m repro.experiments [ids...] [--scale S] [-j N]``.

Resilience flags (see :mod:`repro.experiments.runner`):

``--timeout S``      kill an experiment attempt after S seconds
``--retries N``      retry failed/timed-out/crashed attempts up to N times
``--retry-delay S``  base of the exponential retry backoff
``--keep-going``     report partial results instead of failing fast
``--run-dir DIR``    checkpoint completed results into DIR
``--resume``         skip invocations already completed in ``--run-dir``

Exit status: 0 when every experiment succeeded, 1 when any failed or
timed out (with ``--keep-going`` the sweep still completes and prints
the surviving reports first), 2 on a bad invocation such as an unknown
experiment id (with a "did you mean" hint).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.errors import ExperimentError, HbmSimError, UnknownExperimentError
from repro.experiments import bench
from repro.experiments.base import default_scale
from repro.experiments.registry import EXPERIMENTS, EXTENSIONS, run_timed
from repro.experiments.runner import DEFAULT_RETRY_DELAY


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures.")
    parser.add_argument("ids", nargs="*",
                        help="experiment ids (default: all paper "
                             "artifacts); one of: "
                             + ", ".join(list(EXPERIMENTS)
                                         + list(EXTENSIONS)))
    parser.add_argument("--scale", type=float, default=None,
                        help="population scale (default: HBMSIM_SCALE "
                             "env or 1.0)")
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="worker processes to fan experiments over "
                             "(default 1 = serial; results always print "
                             "in request order)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-experiment attempt timeout; hung "
                             "attempts are killed (forces worker "
                             "processes even with -j 1)")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="retries per experiment after a failure, "
                             "timeout, or worker crash (default 0)")
    parser.add_argument("--retry-delay", type=float,
                        default=DEFAULT_RETRY_DELAY, metavar="SECONDS",
                        help="base delay of the exponential retry "
                             f"backoff (default {DEFAULT_RETRY_DELAY})")
    parser.add_argument("--keep-going", action="store_true",
                        help="run every experiment even if some fail; "
                             "report partial results and exit 1")
    parser.add_argument("--run-dir", default=None, metavar="DIR",
                        help="checkpoint directory: completed results "
                             "are persisted atomically as the sweep "
                             "progresses")
    parser.add_argument("--resume", action="store_true",
                        help="with --run-dir: skip invocations whose "
                             "results were already checkpointed under "
                             "the same inputs (scale, shard, fault plan)")
    parser.add_argument("--shard", default=None, metavar="I/N",
                        help="run only shard I of N (0-based) of each "
                             "shardable experiment's sweep; partial "
                             "results merge byte-identically when all "
                             "N shards are concatenated")
    parser.add_argument("--bench", nargs="?", const=bench.DEFAULT_BENCH_PATH,
                        default=None, metavar="PATH",
                        help="append per-experiment wall times to PATH "
                             f"(default {bench.DEFAULT_BENCH_PATH})")
    parser.add_argument("--bench-repeats", type=int, default=3,
                        metavar="N",
                        help="timing samples per experiment when "
                             "--bench is given: the first sweep prints "
                             "reports as usual, N-1 silent re-runs "
                             "follow, and the recorded seconds are the "
                             "per-experiment median (the run entry "
                             "carries 'repeats'; default 3, use 1 to "
                             "skip re-runs)")
    parser.add_argument("--bench-compare", nargs=2, default=None,
                        metavar=("A", "B"),
                        help="compare the last runs of two bench files "
                             "(A = baseline, B = candidate) and print "
                             "per-experiment speedup/regression; no "
                             "experiments are run")
    parser.add_argument("--list", action="store_true",
                        help="list experiment ids and exit")
    args = parser.parse_args(argv)
    if args.bench_compare is not None:
        try:
            print(bench.compare_runs(*args.bench_compare))
        except HbmSimError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    if args.list:
        for experiment_id in EXPERIMENTS:
            print(experiment_id)
        for experiment_id in EXTENSIONS:
            print(experiment_id)
        return 0
    scale = args.scale if args.scale is not None else default_scale()
    ids = args.ids or list(EXPERIMENTS)
    sweep_start = time.perf_counter()
    try:
        __, records = run_timed(
            ids, scale, jobs=args.jobs, timeout=args.timeout,
            retries=args.retries, retry_delay=args.retry_delay,
            keep_going=args.keep_going, run_dir=args.run_dir,
            resume=args.resume, shard=args.shard)
    except UnknownExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExperimentError as exc:
        if exc.cause_traceback:
            print(exc.cause_traceback, file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HbmSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = 0
    for record in records:
        if record.result is not None:
            note = ""
            if record.status == "cached":
                note = ", resumed from checkpoint"
            elif record.status == "retried":
                note = f", {record.attempts} attempts"
            print(f"\n=== {record.experiment_id}: {record.result.title} "
                  f"({record.elapsed:.1f}s, scale {scale}{note}) ===")
            print(record.result.text)
        else:
            failures += 1
            print(f"\n=== {record.experiment_id}: {record.status.upper()} "
                  f"after {record.attempts} attempt"
                  f"{'s' if record.attempts != 1 else ''} ===")
            if record.error:
                print(record.error.rstrip(), file=sys.stderr)
    if failures:
        ok = len(records) - failures
        print(f"\n{ok}/{len(records)} experiments succeeded, "
              f"{failures} failed", file=sys.stderr)
    if args.bench is not None:
        wall = time.perf_counter() - sweep_start
        timed = [record for record in records
                 if record.succeeded and record.status != "cached"]
        if timed:
            samples = [timed]
            # Median-of-N: extra silent sweeps (no checkpoint resume —
            # a cached repeat would time nothing).  The wall clock
            # describes the first, printed sweep.
            repeat_ids = [record.experiment_id for record in timed]
            for __ in range(max(1, args.bench_repeats) - 1):
                try:
                    __, extra = run_timed(
                        repeat_ids, scale, jobs=args.jobs,
                        timeout=args.timeout, retries=args.retries,
                        retry_delay=args.retry_delay, keep_going=True,
                        shard=args.shard)
                except HbmSimError as exc:
                    print(f"bench: repeat sweep failed ({exc}); "
                          f"recording {len(samples)} sample(s)",
                          file=sys.stderr)
                    break
                samples.append([record for record in extra
                                if record.succeeded])
            entries = bench.median_entries(samples)
            path = bench.record_run(entries, scale, jobs=args.jobs,
                                    path=args.bench,
                                    wall_seconds=wall,
                                    repeats=len(samples))
            print(f"\nbench: recorded {len(entries)} timings "
                  f"(median of {len(samples)}) -> {path}",
                  file=sys.stderr)
        else:
            print("\nbench: nothing to record (no timed successes)",
                  file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
