"""Fig. 10: hammer counts for the first 10 bitflips, normalized.

Paper headlines (Observations 18-19):

- across 1152 tested rows, HC_tenth ranges from 1.15x to 5.22x HC_first,
- fewer than 2x HC_first hammers induce 10 bitflips on average,
- mean normalized HC_2nd/4th/8th/10th = 1.19/1.41/1.66/1.76 (Rowstripe1),
- pattern effect on mean normalized HC_tenth: 12.59% between Rowstripe0
  (largest) and Rowstripe1 (smallest).
"""

from __future__ import annotations

from repro.analysis.reporting import render_table
from repro.chips.profiles import all_chips
from repro.core.hcnth import hcnth_study
from repro.experiments.base import ExperimentResult, scaled


def run(scale: float = 1.0) -> ExperimentResult:
    """Run the Fig. 10 study at the requested population scale."""
    chips = all_chips()
    study = hcnth_study(chips, rows_per_segment=scaled(32, scale, 8))
    rows = []
    data = {"mean_normalized": {}}
    for pattern in ("Rowstripe0", "Rowstripe1", "Checkered0",
                    "Checkered1"):
        means = study.mean_normalized(pattern)
        data["mean_normalized"][pattern] = means.tolist()
        rows.append([pattern] + [f"{m:.2f}" for m in means])
    lo, hi = study.normalized_range()
    data["normalized_range"] = (lo, hi)
    effect = study.pattern_effect()
    largest = max(effect, key=effect.get)
    smallest = min(effect, key=effect.get)
    data["pattern_effect"] = effect
    data["pattern_effect_percent"] = 100.0 * (
        effect[largest] - effect[smallest]) / effect[smallest]
    r1 = study.mean_normalized("Rowstripe1")
    footer = [
        "",
        f"Rows measured: {len(study.measurements) // 4} per pattern "
        "(paper: 1152)",
        f"Normalized HC_tenth range: {lo:.2f}x .. {hi:.2f}x "
        "(paper: 1.15x .. 5.22x)",
        f"Mean normalized HC_2/4/8/10 (Rowstripe1): "
        f"{r1[1]:.2f}/{r1[3]:.2f}/{r1[7]:.2f}/{r1[9]:.2f} "
        "(paper: 1.19/1.41/1.66/1.76)",
        f"Pattern effect on mean HC_tenth: "
        f"{data['pattern_effect_percent']:.1f}% between {largest} and "
        f"{smallest} (paper: 12.59% between Rowstripe0 and Rowstripe1)",
    ]
    headers = ["Pattern"] + [f"HC_{k}" for k in range(1, study.n + 1)]
    text = render_table(headers, rows,
                        title="Fig. 10: normalized hammer counts to "
                              "induce 1..10 bitflips") \
        + "\n" + "\n".join(footer)
    paper = {
        "normalized_range": (1.15, 5.22),
        "rowstripe1_means": {"HC2": 1.19, "HC4": 1.41, "HC8": 1.66,
                             "HC10": 1.76},
        "pattern_effect_percent": 12.59,
        "average_below_2x": True,
    }
    return ExperimentResult("fig10", "HC_nth normalized", text, data,
                            paper)
