"""Fig. 4: RowHammer BER across the six HBM2 chips and four patterns.

Paper headlines (Observations 1-3, Takeaway 1):

- every tested row in every chip exhibits bitflips,
- Chip 0 rows reach up to 3.02% BER (mean 1.04%) and Chip 5 up to 1.82%
  (mean 0.66%) for Checkered0; largest chip-mean difference 0.49 pp (WCDP),
- checkered patterns beat rowstripes: mean 0.76% vs 0.67% across rows.

The sweep is shardable by channel: binomial sampling is unit-local per
(channel, pattern) grid (see :func:`repro.core.spatial.chip_ber_flats`),
so a shard of :data:`SWEEP` measures one contiguous channel range for
every chip and the merge concatenates the per-shard flats back into the
full population bit-identically to the unsharded sweep.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.analysis.reporting import percent, render_table
from repro.chips.profiles import all_chips
from repro.core.spatial import PATTERN_COLUMNS, ChipBerStudy, chip_ber_flats
from repro.dram.geometry import DEFAULT_GEOMETRY
from repro.experiments.base import ExperimentResult, scaled
from repro.experiments.sharding import SweepExperiment
from repro.experiments import fig05_hcfirst_chips as _hc_sweep


def chip_flats(scale: float,
               unit_range: Optional[Tuple[int, int]] = None
               ) -> Dict[str, Dict[str, np.ndarray]]:
    """Chip label -> pattern -> channel-major BER flat over a unit range."""
    return chip_ber_flats(all_chips(),
                          rows_per_channel=scaled(16384, scale, 64),
                          unit_range=unit_range)


def _render(flats: Dict[str, Dict[str, np.ndarray]],
            scale: float) -> ExperimentResult:
    """Build the full Fig. 4 report from per-chip flat measurements."""
    chips = all_chips()
    study = ChipBerStudy.from_flats(flats)
    rows = []
    data: Dict[str, Any] = {}
    for label, by_pattern in study.summaries.items():
        for pattern in PATTERN_COLUMNS:
            summary = by_pattern[pattern]
            rows.append([label, pattern, percent(summary.mean),
                         percent(summary.maximum), percent(summary.minimum)])
            data.setdefault(label, {})[pattern] = {
                "mean": summary.mean, "max": summary.maximum,
                "min": summary.minimum}
    checkered = [study.summaries[c.label]["Checkered0"].mean
                 for c in chips] + [study.summaries[c.label]["Checkered1"]
                                    .mean for c in chips]
    rowstripe = [study.summaries[c.label]["Rowstripe0"].mean
                 for c in chips] + [study.summaries[c.label]["Rowstripe1"]
                                    .mean for c in chips]
    data["mean_checkered"] = sum(checkered) / len(checkered)
    data["mean_rowstripe"] = sum(rowstripe) / len(rowstripe)
    data["wcdp_chip_mean_spread"] = study.mean_spread("WCDP")
    footer = (
        f"\nMean across rows: Checkered {percent(data['mean_checkered'])} "
        f"vs Rowstripe {percent(data['mean_rowstripe'])} "
        "(paper: 0.76% vs 0.67%)\n"
        f"Chip-mean WCDP spread: {percent(data['wcdp_chip_mean_spread'])} "
        "(paper: 0.49 pp)")
    text = render_table(
        ["Chip", "Pattern", "Mean BER", "Max BER", "Min BER"], rows,
        title="Fig. 4: BER across chips and data patterns") + footer
    paper = {
        "chip0_checkered0": {"mean": 0.0104, "max": 0.0302},
        "chip5_checkered0": {"mean": 0.0066, "max": 0.0182},
        "wcdp_chip_mean_spread": 0.0049,
        "mean_checkered": 0.0076,
        "mean_rowstripe": 0.0067,
    }
    return ExperimentResult("fig04", "BER across chips", text, data, paper)


SWEEP = SweepExperiment(
    experiment_id="fig04",
    title="BER across chips",
    payload_key="flats",
    # One independently sampled sweep unit per channel.
    units=DEFAULT_GEOMETRY.channels,
    compute=chip_flats,
    combine=_hc_sweep.combine_flats,
    render=_render,
)
