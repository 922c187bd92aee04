"""Baseline (allowlist) machinery for intentional lint exceptions.

Some findings are intentional: a configuration helper *is* the place an
``HBMSIM_*`` environment variable is read.  Rather than weakening the
rules, every such exception is an explicit, reviewed entry in
``lint/baseline.json``:

.. code-block:: json

    {
      "version": 1,
      "suppressions": [
        {"rule": "D105", "location": "repro/experiments/bench.py",
         "reason": "bench config module: HBMSIM_BENCH_PATH surface"}
      ]
    }

A suppression matches a finding when the rule id is equal and the
finding's line-stripped location *ends with* the suppression location
(so baselines are stable against line-number churn and against whether
the tree was linted as ``src/repro`` or an absolute path).  Unused
suppressions are reported by the CLI so the baseline cannot silently
rot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.findings import Finding

#: The repository's reviewed baseline, packaged next to this module.
DEFAULT_BASELINE_PATH = Path(__file__).with_name("baseline.json")


class BaselineError(ValueError):
    """A malformed baseline file."""


@dataclass(frozen=True)
class Suppression:
    """One reviewed exception."""

    rule: str
    location: str
    reason: str = ""

    def matches(self, finding: Finding) -> bool:
        return finding.rule == self.rule \
            and finding.suppression_path.endswith(self.location)


@dataclass
class Baseline:
    """A set of reviewed suppressions."""

    suppressions: List[Suppression] = field(default_factory=list)
    source: Optional[Path] = None

    def apply(self, findings: Sequence[Finding]
              ) -> Tuple[List[Finding], List[Suppression]]:
        """Split findings into (surviving, used-suppressions)."""
        surviving: List[Finding] = []
        used: Dict[Suppression, bool] = {}
        for finding in findings:
            suppressed = False
            for suppression in self.suppressions:
                if suppression.matches(finding):
                    used[suppression] = True
                    suppressed = True
                    break
            if not suppressed:
                surviving.append(finding)
        return surviving, list(used)

    def unused(self, used: Sequence[Suppression]) -> List[Suppression]:
        """Suppressions that matched nothing (baseline rot)."""
        used_set = set(used)
        return [s for s in self.suppressions if s not in used_set]


def save_baseline(baseline: Baseline, path: Path) -> None:
    """Write a baseline back to disk (the ``--prune`` helper).

    Emits the documented file shape (version + suppressions with rule,
    location, reason) with stable ordering, so a pruned baseline diffs
    minimally against the reviewed one.
    """
    payload = {
        "version": 1,
        "suppressions": [
            {"rule": s.rule, "location": s.location, "reason": s.reason}
            for s in baseline.suppressions],
    }
    path.write_text(json.dumps(payload, indent=1) + "\n",
                    encoding="utf-8")


def load_baseline(path: Optional[Path] = None) -> Baseline:
    """Load a baseline file (the packaged default when ``path=None``)."""
    baseline_path = path if path is not None else DEFAULT_BASELINE_PATH
    if not baseline_path.exists():
        return Baseline(source=baseline_path)
    try:
        payload = json.loads(baseline_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise BaselineError(
            f"{baseline_path}: invalid JSON: {error}") from error
    if not isinstance(payload, dict) or "suppressions" not in payload:
        raise BaselineError(
            f"{baseline_path}: expected an object with 'suppressions'")
    suppressions = []
    for index, entry in enumerate(payload["suppressions"]):
        if not isinstance(entry, dict) or "rule" not in entry \
                or "location" not in entry:
            raise BaselineError(
                f"{baseline_path}: suppression #{index} needs 'rule' "
                f"and 'location'")
        suppressions.append(Suppression(
            rule=str(entry["rule"]),
            location=str(entry["location"]),
            reason=str(entry.get("reason", ""))))
    return Baseline(suppressions=suppressions, source=baseline_path)
