"""Fig. 6: BER across the 3D-stacked channels of each chip.

Paper headlines (Observations 7-11, Takeaway 3):

- Chip 0's CH7 shows 1.99x the mean WCDP BER of CH3,
- channels pair into groups of two (per die); CH3/CH4 behave alike in
  every chip,
- the most vulnerable channel differs across chips (CH0/CH7 in Chip 0,
  CH3/CH4 in Chip 1),
- channel-level spread of mean BER (0.88 pp in Chip 4, Checkered0)
  exceeds the chip-level spread (0.38 pp) — except in Chip 5.

The study uses closed-form (noise-free) BER, so one per-channel flat
serves both the channel-level and chip-level statistics, and the sweep
shards by channel: a shard of :data:`SWEEP` computes one contiguous
channel range for every chip, and the merge concatenates the flats back
bit-identically to the unsharded sweep.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.reporting import percent, render_table
from repro.chips.profiles import all_chips
from repro.core.spatial import (ChannelStudy, ChipBerStudy,
                                channel_ber_summaries, chip_ber_flats,
                                die_pairs)
from repro.dram.geometry import DEFAULT_GEOMETRY
from repro.experiments.base import ExperimentResult, scaled
from repro.experiments.sharding import SweepExperiment
from repro.experiments import fig05_hcfirst_chips as _hc_sweep


def chip_flats(scale: float,
               unit_range: Optional[Tuple[int, int]] = None
               ) -> Dict[str, Dict[str, np.ndarray]]:
    """Chip label -> pattern -> channel-major closed-form BER flats."""
    return chip_ber_flats(all_chips(),
                          rows_per_channel=scaled(16384, scale, 64),
                          sampled=False, unit_range=unit_range)


def _render(flats: Dict[str, Dict[str, np.ndarray]],
            scale: float) -> ExperimentResult:
    """Build the full Fig. 6 report from per-chip flat measurements."""
    chips = all_chips()
    rows = []
    data: Dict[str, Dict] = {}
    channel_spreads = {}
    for chip in chips:
        study = ChannelStudy(chip.label, "ber", channel_ber_summaries(
            flats[chip.label], chip.geometry.channels))
        means = study.channel_means("WCDP")
        for channel in sorted(means):
            summary = study.summaries["WCDP"][channel]
            rows.append([chip.label, f"CH{channel}",
                         percent(summary.mean), percent(summary.maximum)])
        data[chip.label] = {
            "wcdp_channel_means": means,
            "extreme_ratio_wcdp": study.extreme_ratio("WCDP"),
            "checkered0_channel_spread": study.mean_spread("Checkered0"),
        }
        channel_spreads[chip.label] = data[chip.label][
            "checkered0_channel_spread"]
    chip_study = ChipBerStudy.from_flats(flats)
    chip_spread = chip_study.mean_spread("Checkered0")
    data["chip_level_spread_checkered0"] = chip_spread
    chip0 = data["Chip 0"]["wcdp_channel_means"]
    data["chip0_ch7_over_ch3"] = chip0[7] / chip0[3]
    pairs = die_pairs(chips[0])
    footer = [
        "",
        f"Chip 0 CH7/CH3 mean WCDP BER ratio: "
        f"{data['chip0_ch7_over_ch3']:.2f}x (paper: 1.99x)",
        f"Chip-level Checkered0 spread: {percent(chip_spread)} "
        "(paper: 0.38 pp)",
        "Channel-level Checkered0 spread per chip "
        "(paper: 0.88 pp for Chip 4; exceeds chip spread except Chip 5):",
    ]
    for label, spread in channel_spreads.items():
        marker = ">" if spread > chip_spread else "<"
        footer.append(f"  {label}: {percent(spread)} "
                      f"({marker} chip spread)")
    footer.append(f"Die channel pairs: {pairs}")
    text = render_table(
        ["Chip", "Channel", "Mean WCDP BER", "Max WCDP BER"], rows,
        title="Fig. 6: BER across channels") + "\n" + "\n".join(footer)
    paper = {
        "chip0_ch7_over_ch3": 1.99,
        "chip4_channel_spread_checkered0": 0.0088,
        "chip_level_spread_checkered0": 0.0038,
        "chip5_exception": True,
    }
    return ExperimentResult("fig06", "BER across channels", text, data,
                            paper)


SWEEP = SweepExperiment(
    experiment_id="fig06",
    title="BER across channels",
    payload_key="flats",
    # One deterministic sweep unit per channel.
    units=DEFAULT_GEOMETRY.channels,
    compute=chip_flats,
    combine=_hc_sweep.combine_flats,
    render=_render,
)
