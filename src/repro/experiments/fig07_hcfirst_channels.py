"""Fig. 7: HC_first across the 3D-stacked channels of each chip.

Paper headlines (Observations 12-13):

- channels differ in their HC_first distributions; in Chip 1 the CH3/CH4
  pair holds more small-HC_first rows (matching its higher BER in Fig. 6),
- the distribution shifts with the data pattern; in Chip 1 CH0 the median
  HC_first is 103905 for Rowstripe0 vs 75990 for Rowstripe1 (1.37x).

The sweep shares Fig. 5's shardable flat layout (the same Table 2
population): a shard of :data:`SWEEP` measures a contiguous (channel,
pseudo channel) unit range and the merge reassembles the full
per-channel report byte-identically to the unsharded sweep.
:data:`SWEEP` is built from Fig. 5's units and compute/combine with this
module's renderer.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.analysis.reporting import render_table
from repro.chips.profiles import all_chips
from repro.core import analytic
from repro.core.spatial import ChannelStudy, channel_summaries_from_flat
from repro.experiments import fig05_hcfirst_chips as _sweep
from repro.experiments.base import ExperimentResult, scaled
from repro.experiments.sharding import SweepExperiment


def _render(flats: Dict[str, Dict[str, np.ndarray]],
            scale: float) -> ExperimentResult:
    """Build the full Fig. 7 report from per-chip flat measurements."""
    chips = all_chips()
    rows_per_bank = scaled(3072, scale, 64)
    rows = []
    data: Dict[str, Dict] = {}
    for chip in chips:
        sample = analytic.stratified_rows(chip.geometry.rows,
                                          rows_per_bank)
        study = ChannelStudy(
            chip.label, "hc_first",
            channel_summaries_from_flat(
                flats[chip.label], sample.size, _sweep.SWEEP_BANKS,
                _sweep.SWEEP_PSEUDO_CHANNELS,
                channels=chip.geometry.channels))
        per_channel = {}
        for channel in range(chip.geometry.channels):
            summary = study.summaries["WCDP"][channel]
            rows.append([chip.label, f"CH{channel}",
                         round(summary.median), round(summary.minimum)])
            per_channel[channel] = {
                "median": summary.median, "min": summary.minimum}
        data[chip.label] = {
            "wcdp_by_channel": per_channel,
            "rowstripe_medians_ch0": {
                "Rowstripe0": study.summaries["Rowstripe0"][0].median,
                "Rowstripe1": study.summaries["Rowstripe1"][0].median,
            },
        }
    chip1 = data["Chip 1"]["rowstripe_medians_ch0"]
    ratio = max(chip1["Rowstripe0"], chip1["Rowstripe1"]) \
        / min(chip1["Rowstripe0"], chip1["Rowstripe1"])
    data["chip1_ch0_rowstripe_ratio"] = ratio
    chip1_mins = {ch: v["min"]
                  for ch, v in data["Chip 1"]["wcdp_by_channel"].items()}
    vulnerable = sorted(chip1_mins, key=chip1_mins.get)[:2]
    data["chip1_most_vulnerable_channels"] = vulnerable
    footer = [
        "",
        "Chip 1 CH0 Rowstripe0 vs Rowstripe1 median HC_first: "
        f"{chip1['Rowstripe0']:.0f} vs {chip1['Rowstripe1']:.0f} "
        f"(ratio {ratio:.2f}; paper: 103905 vs 75990, 1.37x)",
        f"Chip 1 channels with smallest HC_first: {vulnerable} "
        "(paper: the CH3/CH4 die pair)",
    ]
    text = render_table(
        ["Chip", "Channel", "Median WCDP HC_first", "Min WCDP HC_first"],
        rows, title="Fig. 7: HC_first across channels") \
        + "\n" + "\n".join(footer)
    paper = {
        "chip1_ch0_rowstripe0_median": 103905,
        "chip1_ch0_rowstripe1_median": 75990,
        "chip1_most_vulnerable_channels": [3, 4],
    }
    return ExperimentResult("fig07", "HC_first across channels", text,
                            data, paper)


SWEEP = SweepExperiment(
    experiment_id="fig07",
    title="HC_first across channels",
    payload_key="flats",
    # Same sweep units as Fig. 5 (both run the Table 2 HC_first
    # population).
    units=_sweep.SWEEP.units,
    compute=_sweep.chip_flats,
    combine=_sweep.combine_flats,
    render=_render,
)
