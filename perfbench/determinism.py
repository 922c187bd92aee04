"""Check that two traced runs of one tree report identical counts.

``python3 perfbench/determinism.py [--workload W ...]`` runs
``run.py --trace 1`` twice per workload (every workload by default) and
compares every per-layer count: ``*.calls``, ``dram.*``,
``faults.events`` and the count ratios ``*_frac`` -- all but
``trace.overhead_frac``, which is a ratio of times.  A later change may
claim a gain on such a count only because it repeats exactly.  Exits 1
on any difference or on an incorrect run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def is_count(name: str) -> bool:
    return (name.endswith(".calls") or name == "faults.events"
            or (name.startswith("dram.") and not name.endswith("_s"))
            or (name.endswith("_frac") and name != "trace.overhead_frac"))


def traced_counts(workload: str) -> Dict[str, float]:
    output = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--trace", "1"],
        cwd=HERE.parent, check=True, stdout=subprocess.PIPE,
        text=True).stdout
    result = json.loads(output.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run was not correct")
    return {name: entry["value"]
            for name, entry in result["metrics"].items() if is_count(name)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    differing = 0
    for workload in args.workload or list(WORKLOADS):
        first, second = traced_counts(workload), traced_counts(workload)
        for name in sorted(first):
            same = first[name] == second[name]
            differing += not same
            print(f"{workload} {name} {first[name]!r} "
                  f"{'==' if same else '!='} {second[name]!r}")
    print(f"{differing} count(s) differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
