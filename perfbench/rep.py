"""One benchmark repetition, run by ``run.py`` in a fresh interpreter.

Imports the experiment registry, calibrates every chip (the cache
directory the parent passes in ``HBMSIM_CACHE_DIR`` starts empty), then
runs the workload's ids through ``registry.run_timed`` -- the entry point
the CLI uses -- and writes a JSON record: set-up and wall time, peak RSS,
the sha256 of every report, the scorecard claims graded on the reports
and, with ``--trace-dir``, the per-layer metrics of the traced run.
``--setup-only`` stops before the first experiment call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from workloads import WORKLOADS  # noqa: E402


def _peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for worker."""
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kib / 1024.0


def _grade_claims(results):
    """(graded, deviating) over the scorecard claims of ``results``."""
    from repro.experiments.scorecard import CLAIMS
    graded = deviating = 0
    for claim in CLAIMS:
        result = results.get(claim.experiment_id)
        if result is None:
            continue
        graded += 1
        try:
            passed = claim.evaluate(result).passed
        except Exception:  # noqa: BLE001 — a claim that cannot grade deviates
            passed = False
        deviating += not passed
    return graded, deviating


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--t0", type=float, required=True,
                        help="parent's perf_counter() just before spawning")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", type=Path, default=None)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    import repro
    from repro.experiments import registry
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    tracer = None
    if args.trace_dir is not None:
        from tracing import Tracer
        tracer = Tracer(args.trace_dir)
        tracer.install()
    from repro.chips.profiles import all_chips
    all_chips()
    first_call = time.perf_counter()
    record = {"setup_s": first_call - args.t0}
    if not args.setup_only:
        __, records = registry.run_timed(list(workload.ids), workload.scale,
                                         jobs=workload.jobs, keep_going=True)
        wall = time.perf_counter() - first_call
        results = {r.experiment_id: r.result for r in records
                   if r.succeeded}
        graded, deviating = _grade_claims(results)
        elapsed = sum(r.elapsed for r in records)
        record.update(
            wall_s=wall,
            status={r.experiment_id: r.status for r in records},
            digests={key: hashlib.sha256(result.text.encode()).hexdigest()
                     for key, result in results.items()},
            errors={r.experiment_id: r.error for r in records
                    if not r.succeeded},
            claims_graded=graded, claims_deviating=deviating,
            runner={"experiments.runner.parallel_efficiency":
                    elapsed / (workload.jobs * wall),
                    "experiments.runner.overhead_s":
                    wall - elapsed / workload.jobs})
        if tracer is not None:
            from tracing import layer_metrics, summarize
            tracer.dump()
            summary = summarize(args.trace_dir)
            record["layer_calls"] = summary["calls"]
            record["layers"] = dict(layer_metrics(summary),
                                    **record["runner"])
    record["peak_rss_mb"] = _peak_rss_mb()
    args.out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
