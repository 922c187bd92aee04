"""Fig. 13: HC_first with increasing aggressor-row on-time.

Paper headlines (Observation 23, Takeaway 7):

- average (minimum) HC_first across chips: 83689 (29183) at tRAS,
  1519 (335) at tREFI, 376 (123) at 9*tREFI, and 1 (1) at 16 ms,
- the average HC_first reduction at 35.1 us is 222.57x,
- only rows observable within a 32 ms refresh window at every on-time are
  included (the paper's grey row-count boxes).

The sweep is rng-free and shards by studied channel (units = the three
channels of :data:`CHANNELS`): a shard of :data:`SWEEP` measures a
channel subset for every chip and the merge concatenates the kept
HC_first arrays back in channel order bit-identically to the unsharded
sweep.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import duration_label, render_table
from repro.chips.profiles import all_chips
from repro.core.rowpress import (ROWPRESS_HCFIRST_T_ONS,
                                 RowPressHcFirstStudy,
                                 rowpress_hcfirst_study)
from repro.experiments.base import ExperimentResult, scaled
from repro.experiments.sharding import SweepExperiment

#: Paper's mean (min) HC_first at the four on-times.
PAPER_MEANS = {29.0: 83689, 3.9e3: 1519, 35.1e3: 376, 16.0e6: 1}
PAPER_MINS = {29.0: 29183, 3.9e3: 335, 35.1e3: 123, 16.0e6: 1}

#: The paper's three studied channels (one bank, PC 0, every chip).
CHANNELS: Tuple[int, ...] = (0, 1, 2)


def channel_series(scale: float,
                   unit_range: Optional[Tuple[int, int]] = None
                   ) -> Dict[str, Dict[str, Any]]:
    """Chip label -> kept HC_first arrays + included count for a range."""
    study = rowpress_hcfirst_study(
        all_chips(), rows_per_channel=scaled(384, scale, 32),
        channel_range=unit_range)
    return {label: {"per_t": study.hc_by_chip[label],
                    "included": study.included_rows[label]}
            for label in study.hc_by_chip}


def combine_series(payloads: Sequence[Dict[str, Dict[str, Any]]]
                   ) -> Dict[str, Dict[str, Any]]:
    """Concatenate kept arrays in shard (= channel) order; sum counts."""
    merged: Dict[str, Dict[str, Any]] = {}
    for payload in payloads:
        for label, entry in payload.items():
            into = merged.setdefault(
                label, {"per_t": {t: [] for t in entry["per_t"]},
                        "included": 0})
            for t_on, values in entry["per_t"].items():
                into["per_t"][t_on].append(values)
            into["included"] += entry["included"]
    return {label: {"per_t": {t: np.concatenate(parts)
                              for t, parts in entry["per_t"].items()},
                    "included": entry["included"]}
            for label, entry in merged.items()}


def _render(series: Dict[str, Dict[str, Any]],
            scale: float) -> ExperimentResult:
    """Build the full Fig. 13 report from the per-chip kept arrays."""
    study = RowPressHcFirstStudy(
        "Checkered0", tuple(ROWPRESS_HCFIRST_T_ONS),
        {label: entry["per_t"] for label, entry in series.items()},
        {label: entry["included"] for label, entry in series.items()})
    rows = []
    data = {"mean": {}, "min": {}, "included_rows": study.included_rows}
    for t_on in study.t_ons:
        mean = study.mean_at(t_on)
        minimum = study.min_at(t_on)
        data["mean"][t_on] = mean
        data["min"][t_on] = minimum
        rows.append([duration_label(t_on), f"{mean:.0f}", f"{minimum:.0f}",
                     f"{PAPER_MEANS[t_on]}", f"{PAPER_MINS[t_on]}"])
    reduction = study.reduction_factor(35.1e3)
    data["reduction_at_35us"] = reduction
    data["hc_first_of_one_at_16ms"] = data["mean"][16.0e6] <= 1.5
    footer = [
        "",
        f"Mean HC_first reduction at 35.1 us: {reduction:.1f}x "
        "(paper: 222.57x)",
        f"HC_first reaches 1 at 16 ms: {data['hc_first_of_one_at_16ms']} "
        "(paper: yes, for every chip)",
        "Included rows per chip (observable within the refresh window at "
        f"every on-time): {study.included_rows}",
    ]
    text = render_table(
        ["t_AggON", "Mean HC_first", "Min HC_first", "Paper mean",
         "Paper min"], rows,
        title="Fig. 13: HC_first vs aggressor row on-time (Checkered0)") \
        + "\n" + "\n".join(footer)
    paper = {"mean": PAPER_MEANS, "min": PAPER_MINS,
             "reduction_at_35us": 222.57}
    return ExperimentResult("fig13", "RowPress HC_first sweep", text,
                            data, paper)


SWEEP = SweepExperiment(
    experiment_id="fig13",
    title="RowPress HC_first sweep",
    payload_key="series",
    # One sweep unit per studied channel.
    units=len(CHANNELS),
    compute=channel_series,
    combine=combine_series,
    render=_render,
)
