"""High-level characterization campaign: one call, one chip report.

``characterize_chip`` runs the paper's core per-chip analyses (BER and
HC_first distributions, channel ranking, subarray resilience, RowPress
sensitivity) at a configurable scale and bundles them into a single
report — the entry point a downstream user wants before deciding, e.g.,
which channels to avoid for security-critical allocations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.analysis.reporting import percent, render_table
from repro.chips.profiles import ChipProfile
from repro.core import analytic
from repro.core.rowpress import ROWPRESS_HCFIRST_T_ONS
from repro.core.spatial import (channel_ber_study, channel_hcfirst_study,
                                row_ber_profile)
from repro.experiments.base import scaled


@dataclass
class ChipCharacterizationReport:
    """Everything a user needs to know about one chip's vulnerability."""

    chip_label: str
    scale: float
    #: channel -> (mean WCDP BER, min WCDP HC_first).
    channels: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    #: Channels ordered worst-first by mean BER.
    channel_ranking: List[int] = field(default_factory=list)
    #: (resilient subarray mean BER) / (normal subarray mean BER).
    subarray_resilience: float = 1.0
    #: t_AggON (ns) -> mean HC_first over sampled rows.
    rowpress_hc: Dict[float, float] = field(default_factory=dict)
    chip_mean_ber: float = 0.0
    chip_min_hc_first: float = 0.0

    @property
    def most_vulnerable_channel(self) -> int:
        return self.channel_ranking[0]

    @property
    def safest_channel(self) -> int:
        return self.channel_ranking[-1]

    def render(self) -> str:
        """Plain-text report."""
        rows = [[f"CH{channel}", percent(ber), f"{hc:,.0f}"]
                for channel, (ber, hc) in sorted(self.channels.items())]
        text = render_table(
            ["Channel", "Mean WCDP BER", "Min WCDP HC_first"], rows,
            title=f"{self.chip_label} characterization "
                  f"(scale {self.scale})")
        lines = [
            text,
            "",
            f"Chip mean WCDP BER: {percent(self.chip_mean_ber)}; "
            f"min HC_first: {self.chip_min_hc_first:,.0f}",
            f"Channel ranking (worst first): "
            f"{['CH%d' % c for c in self.channel_ranking]}",
            f"Resilient subarrays at "
            f"{self.subarray_resilience:.2f}x the normal BER",
            "RowPress HC_first: " + ", ".join(
                f"{t / 1000:.1f}us -> {hc:,.0f}"
                for t, hc in self.rowpress_hc.items()),
        ]
        return "\n".join(lines)


def characterize_chip(chip: ChipProfile,
                      scale: float = 0.05) -> ChipCharacterizationReport:
    """Run the per-chip characterization campaign."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    report = ChipCharacterizationReport(chip.label, scale)
    rows_per_channel = scaled(16384, scale, 64)
    ber_study = channel_ber_study(chip,
                                  rows_per_channel=rows_per_channel,
                                  sampled=False)
    hc_study = channel_hcfirst_study(
        chip, rows_per_bank=scaled(3072, scale, 64), banks=(0,),
        pseudo_channels=(0,))
    for channel in range(chip.geometry.channels):
        mean_ber = ber_study.summaries["WCDP"][channel].mean
        min_hc = hc_study.summaries["WCDP"][channel].minimum
        report.channels[channel] = (mean_ber, min_hc)
    report.channel_ranking = sorted(
        report.channels, key=lambda c: report.channels[c][0],
        reverse=True)
    report.chip_mean_ber = float(np.mean(
        [ber for ber, __ in report.channels.values()]))
    report.chip_min_hc_first = float(min(
        hc for __, hc in report.channels.values()))
    # Measure subarray resilience on the most vulnerable channel, where
    # the weak-population contrast is not masked by CDF saturation
    # differences (same choice Fig. 8 makes by showing CH0/CH7).
    profile = row_ber_profile(chip, channels=(report.channel_ranking[0],),
                              row_stride=max(1, int(round(1 / scale))))
    channel = profile.channels[0]
    means = profile.subarray_means(channel)
    layout = chip.geometry.subarrays
    resilient = {layout.middle_subarray, layout.last_subarray}
    resilient_mean = np.mean([means[i] for i in resilient])
    normal_mean = np.mean([m for i, m in enumerate(means)
                           if i not in resilient])
    report.subarray_resilience = float(resilient_mean / normal_mean)
    rows = analytic.stratified_rows(chip.geometry.rows,
                                    scaled(384, scale, 32))
    grid = analytic.combo_population(chip, [(0, 0, 0)], rows, "Checkered0")
    for t_on in ROWPRESS_HCFIRST_T_ONS:
        amplification = chip.disturbance.amplification(t_on)
        report.rowpress_hc[t_on] = float(
            grid.hc_first(amplification).mean())
    return report
