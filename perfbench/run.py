"""Benchmark driver: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1 [--fault-seed F] [--write-digests]``.

Run from the root of a source checkout.  A single client runs the
workload in a closed loop: each repetition is a fresh interpreter
(``rep.py``) started after the previous one ended, so in-process caches
start empty as they do for a CLI user.  Repetitions continue while the
next one is expected to finish within ``--seconds`` (at least one runs);
extra set-up-only interpreters then bring the set-up samples to
:data:`SETUP_SAMPLES`.  Every child starts with the inherited
``HBMSIM_*`` variables removed, an empty calibration cache directory
and a private temp directory, all under ``.perfbench-out/`` in the
checkout; only the chaos workload sets ``HBMSIM_FAULTS``.

Outputs are checked against the report digests pinned in
``digests.json`` and the paper claims of ``CLAIMS`` in
``repro.experiments.scorecard``.  With ``--trace 0`` the result carries
the end-to-end metrics (medians over the repetitions).  ``--trace 1``
runs pairs of untraced and traced repetitions within ``--seconds`` and
reports the per-layer metrics of the first traced one plus the tracing
overhead; it fails when a layer the workload exercises recorded no
call, or when fault events appear (or, on chaos, do not).  The last
line printed is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--seed`` is accepted for the driver contract but selects nothing:
every experiment is a fixed function of the chip seeds.  The chaos
plan's seed is ``--fault-seed`` (default 7, the CI plan).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
DIGESTS = HERE / "digests.json"
sys.path.insert(0, str(HERE))

from workloads import CHAOS_PLAN, WORKLOADS, Workload  # noqa: E402

#: Set-up time samples per untraced run (repetitions + set-up probes).
SETUP_SAMPLES = 5
#: Hard ceiling on one run's own duration, in seconds.
RUN_LIMIT_S = 170.0


def _child_env(workload: Workload, fault_seed: int, scratch: Path
               ) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("HBMSIM_")}
    cache = scratch / "cache"
    tmp = scratch / "tmp"
    cache.mkdir(parents=True)
    tmp.mkdir()
    env.update(HBMSIM_CACHE_DIR=str(cache), TMPDIR=str(tmp),
               PYTHONPATH=str(ROOT / "src"))
    plan = workload.fault_plan(fault_seed)
    if plan is not None:
        env["HBMSIM_FAULTS"] = json.dumps(plan, sort_keys=True)
    return env


def _stop_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait it out."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


class Runner:
    """Spawns repetitions for one benchmark run."""

    def __init__(self, workload: Workload, fault_seed: int) -> None:
        self.workload = workload
        self.fault_seed = fault_seed
        self.started = time.perf_counter()
        self.scratch = OUT / f"run-{os.getpid()}"
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.count = 0

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def spawn(self, setup_only: bool = False,
              trace_dir: Optional[Path] = None) -> Optional[Dict[str, Any]]:
        """Run one child; its record, or None if it failed or timed out."""
        self.count += 1
        scratch = self.scratch / f"rep-{self.count}"
        env = _child_env(self.workload, self.fault_seed, scratch)
        out = scratch / "record.json"
        log = scratch / "stderr.txt"
        command = [sys.executable, str(HERE / "rep.py"),
                   "--workload", self.workload.name, "--out", str(out)]
        if setup_only:
            command.append("--setup-only")
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        with log.open("wb") as stderr:
            t0 = time.perf_counter()
            child = subprocess.Popen(
                command + ["--t0", repr(t0)], cwd=ROOT, env=env,
                stdin=subprocess.DEVNULL, stdout=stderr, stderr=stderr,
                start_new_session=True)
            try:
                code = child.wait(timeout=max(1.0, self.remaining()))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                _stop_group(child.pid)
                child.wait()
        if code != 0 or not out.exists():
            reason = "timed out" if code is None else f"exit code {code}"
            tail = log.read_text(errors="replace")[-2000:]
            print(f"perfbench: repetition {self.count} {reason}\n{tail}",
                  file=sys.stderr)
            return None
        record = json.loads(out.read_text())
        shutil.rmtree(scratch / "cache", ignore_errors=True)
        return record

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


class Check:
    """Failed invocations and claim grades across repetitions."""

    def __init__(self, workload: Workload, pins: Optional[Dict[str, str]]
                 ) -> None:
        self.workload = workload
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.claims_graded = 0
        self.claims_deviating = 0
        self.problems: List[str] = []
        self.digests: Dict[str, str] = {}

    def add(self, record: Optional[Dict[str, Any]]) -> None:
        ids = self.workload.ids
        self.attempted += len(ids)
        if record is None:
            self.failed += len(ids)
            self.problems.append("a repetition crashed or timed out")
            return
        for experiment_id in ids:
            digest = record["digests"].get(experiment_id)
            self.digests.setdefault(experiment_id, digest or "-")
            pinned = None if self.pins is None else self.pins.get(
                experiment_id)
            if digest is None:
                self.failed += 1
                status = record["status"].get(experiment_id, "missing")
                error = (record["errors"].get(experiment_id) or "").strip()
                self.problems.append(
                    f"{experiment_id}: {status}: "
                    f"{error.splitlines()[-1] if error else ''}")
            elif self.pins is not None and digest != pinned:
                self.failed += 1
                self.problems.append(
                    f"{experiment_id}: digest {digest[:16]} != pinned "
                    f"{(pinned or 'none')[:16]}")
        self.claims_graded = max(self.claims_graded, record["claims_graded"])
        self.claims_deviating = max(self.claims_deviating,
                                    record["claims_deviating"])

    @property
    def correct(self) -> bool:
        # Every failed invocation also logs a problem.
        return self.claims_deviating == 0 and not self.problems


def _layer_problems(workload: Workload, record: Dict[str, Any]
                    ) -> List[str]:
    """Wrappers or fault plans that never took effect on this workload."""
    problems = [f"layer {layer} recorded no call"
                for layer in workload.exercised
                if record["layer_calls"][layer] == 0]
    events = record["layers"]["faults.events"]
    if workload.faults and events == 0:
        problems.append("faults.events is 0 under the chaos plan")
    if not workload.faults and events != 0:
        problems.append(f"faults.events is {events} without a fault plan")
    return problems


def _measure(runner: Runner, check: Check, seconds: float
             ) -> Dict[str, float]:
    """End-to-end metrics: medians over the repetitions of one run."""
    records = []
    while True:
        record = runner.spawn()
        check.add(record)
        if record is None:
            return {}
        records.append(record)
        spent = time.perf_counter() - runner.started
        if spent + spent / len(records) > min(seconds, RUN_LIMIT_S - 30):
            break
    setups = [record["setup_s"] for record in records]
    while len(setups) < SETUP_SAMPLES and runner.remaining() > 30:
        probe = runner.spawn(setup_only=True)
        if probe is None:
            check.problems.append("a set-up probe failed")
            break
        setups.append(probe["setup_s"])
    print(f"repetitions={len(records)} setup_samples={len(setups)}")
    return {"wall_s": statistics.median(r["wall_s"] for r in records),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in records)}


def _measure_traced(runner: Runner, check: Check, seconds: float
                    ) -> Dict[str, float]:
    """Per-layer metrics of the first traced repetition, plus the tracing
    overhead: the median traced over the median untraced wall time of
    untraced/traced pairs run while time remains (at least one pair),
    alternating which side of a pair runs first."""
    trace_dir = OUT / f"trace-{runner.workload.name}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    first = None
    walls: Dict[bool, List[float]] = {False: [], True: []}
    while True:
        pair = len(walls[True])
        spans = (trace_dir if pair == 0
                 else runner.scratch / f"spans-{pair}")
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            record = runner.spawn(trace_dir=spans if traced else None)
            check.add(record)
            if record is None:
                return {}
            walls[traced].append(record["wall_s"])
            if traced and first is None:
                first = record
        spent = time.perf_counter() - runner.started
        if spent + spent / (pair + 1) > min(seconds, RUN_LIMIT_S - 30):
            break
    check.problems += _layer_problems(runner.workload, first)
    print(f"pairs={len(walls[True])} spans written to {trace_dir}")
    return dict(first["layers"], **{
        "trace.overhead_frac": statistics.median(walls[True])
        / statistics.median(walls[False]) - 1.0})


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault-seed", type=int, default=CHAOS_PLAN["seed"])
    parser.add_argument("--write-digests", action="store_true",
                        help="pin this run's report digests in "
                             "digests.json instead of checking them")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    pin_set = workload.pin_set(args.fault_seed)
    pins_all = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    pins = None if args.write_digests else pins_all.get(pin_set)
    # Byte-compile up front so no repetition pays for it.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    print(f"perfbench workload={workload.name} ids={len(workload.ids)} "
          f"scale={workload.scale} jobs={workload.jobs} seed={args.seed} "
          f"fault_plan={json.dumps(workload.fault_plan(args.fault_seed))}")
    runner = Runner(workload, args.fault_seed)
    check = Check(workload, pins)
    try:
        if args.trace:
            values = _measure_traced(runner, check, args.seconds)
        else:
            values = _measure(runner, check, args.seconds)
    finally:
        runner.close()
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {entry["name"]: {"value": values[entry["name"]],
                               "unit": entry["unit"]}
               for entry in spec[kind]} if values else {}

    for experiment_id, digest in check.digests.items():
        print(f"digest {experiment_id} {digest} ({pin_set})")
    if args.write_digests and check.failed == 0:
        pins_all[pin_set] = dict(pins_all.get(pin_set, {}), **check.digests)
        DIGESTS.write_text(json.dumps(pins_all, indent=2, sort_keys=True)
                           + "\n")
        print(f"pinned {len(check.digests)} digests in {pin_set!r}")
    elif pins is None:
        print(f"perfbench: no digests pinned for {pin_set!r}; printed, "
              "not checked", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']!r} {entry['unit']}")
    print(f"metric failed_frac = {check.failed / check.attempted!r} ratio")
    print(f"metric claims_deviating = {check.claims_deviating} count "
          f"(of {check.claims_graded} graded)")
    for problem in check.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"correct": check.correct and bool(metrics),
                      "attempted": check.attempted, "failed": check.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
