"""Fig. 5: HC_first across the six HBM2 chips and four patterns.

Paper headlines (Observations 4-6, Takeaway 2):

- the most vulnerable row flips after only 14531 activations (Chip 5),
- per-chip minimum HC_first: 18087, 16611, 15500, 17164, 15500, 14531,
- minimum HC_first differs by up to 3556 across chips,
- mean HC_first of Chip 5 is 10.59% above Chip 2 for Rowstripe0.

The sweep is shardable: a shard of :data:`SWEEP` measures one
contiguous range of (channel, pseudo channel) units and the merge
concatenates the per-shard flats back into the full population —
byte-identical to the unsharded sweep because the flat layout is
combo-major (see :func:`repro.core.spatial.hcfirst_flat`).  The
sharding protocol lives in
:class:`~repro.experiments.sharding.SweepExperiment`; this module
supplies compute/combine/render.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import render_table
from repro.chips.profiles import all_chips
from repro.core.spatial import (PATTERN_COLUMNS, ChipHcFirstStudy,
                                hcfirst_flat)
from repro.dram.geometry import DEFAULT_GEOMETRY
from repro.experiments.base import ExperimentResult, scaled
from repro.experiments.sharding import SweepExperiment

#: Paper Table of per-chip minima (Obsv. 4/5).
PAPER_MINIMA = {
    "Chip 0": 18087, "Chip 1": 16611, "Chip 2": 15500,
    "Chip 3": 17164, "Chip 4": 15500, "Chip 5": 14531,
}

#: Table 2 sweep coordinates (shared with Fig. 7).
SWEEP_BANKS: Tuple[int, ...] = (0, 5, 11)
SWEEP_PSEUDO_CHANNELS: Tuple[int, ...] = (0, 1)


def chip_flats(scale: float,
               unit_range: Optional[Tuple[int, int]] = None
               ) -> Dict[str, Dict[str, np.ndarray]]:
    """Chip label -> pattern -> flat HC_first over a unit range."""
    rows_per_bank = scaled(3072, scale, 64)
    return {chip.label: hcfirst_flat(chip, rows_per_bank, SWEEP_BANKS,
                                     SWEEP_PSEUDO_CHANNELS, unit_range)
            for chip in all_chips()}


def combine_flats(payloads: Sequence[Dict[str, Dict[str, np.ndarray]]]
                  ) -> Dict[str, Dict[str, np.ndarray]]:
    """Concatenate per-shard flats in shard order (shared with Fig. 7).

    The combo-major layout makes the result bit-identical to an
    unsharded sweep.
    """
    return {
        label: {name: np.concatenate(
            [payload[label][name] for payload in payloads])
            for name in PATTERN_COLUMNS}
        for label in payloads[0]}


def _render(flats: Dict[str, Dict[str, np.ndarray]],
            scale: float) -> ExperimentResult:
    """Build the full Fig. 5 report from per-chip flat measurements."""
    study = ChipHcFirstStudy.from_flats(flats)
    rows = []
    data = {}
    for label, by_pattern in study.summaries.items():
        for pattern in PATTERN_COLUMNS:
            summary = by_pattern[pattern]
            rows.append([label, pattern, round(summary.mean),
                         round(summary.median), round(summary.minimum)])
            data.setdefault(label, {})[pattern] = {
                "mean": summary.mean, "median": summary.median,
                "min": summary.minimum}
    minima = {label: by_pattern["WCDP"].minimum
              for label, by_pattern in study.summaries.items()}
    data["minima"] = minima
    data["minimum_spread"] = study.minimum_spread()
    r0_ratio = (study.summaries["Chip 5"]["Rowstripe0"].mean
                / study.summaries["Chip 2"]["Rowstripe0"].mean)
    data["chip5_over_chip2_rowstripe0"] = r0_ratio
    footer_lines = ["", "Per-chip minimum HC_first (WCDP) vs paper:"]
    for label, minimum in minima.items():
        footer_lines.append(
            f"  {label}: measured {minimum:.0f}  paper "
            f"{PAPER_MINIMA[label]}")
    footer_lines.append(
        f"Minimum spread across chips: {data['minimum_spread']:.0f} "
        "(paper: 3556)")
    footer_lines.append(
        f"Chip5/Chip2 mean HC_first (Rowstripe0): {r0_ratio:.3f} "
        "(paper: 1.106)")
    text = render_table(
        ["Chip", "Pattern", "Mean", "Median", "Min"], rows,
        title="Fig. 5: HC_first across chips and data patterns")
    text += "\n" + "\n".join(footer_lines)
    paper = {"minima": PAPER_MINIMA, "minimum_spread": 3556,
             "chip5_over_chip2_rowstripe0": 1.1059}
    return ExperimentResult("fig05", "HC_first across chips", text, data,
                            paper)


SWEEP = SweepExperiment(
    experiment_id="fig05",
    title="HC_first across chips",
    payload_key="flats",
    # One independently computable unit per (channel, PC) pair.
    units=DEFAULT_GEOMETRY.channels * len(SWEEP_PSEUDO_CHANNELS),
    compute=chip_flats,
    combine=combine_flats,
    render=_render,
)
