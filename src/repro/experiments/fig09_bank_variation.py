"""Fig. 9: BER variation across banks and pseudo channels (Chip 0).

Paper headlines (Observations 16-17, Takeaway 5):

- 300 rows (first/middle/last 100) tested in each of the 256 banks,
- banks form two clusters: higher mean BER with lower coefficient of
  variation, and vice versa (bimodal),
- up to 0.23 pp mean-BER difference across banks within channel 7,
- bank-to-bank variation is dominated by channel-to-channel variation.

The sweep shards by (channel, PC, bank) combo — sampling is unit-local
per combo (see :func:`repro.core.spatial.bank_variation_study`), so a
shard of :data:`SWEEP` measures a contiguous combo range and the merge
concatenates the per-shard point lists back into the full 256-bank
cloud bit-identically to the unsharded sweep.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import percent, render_table
from repro.analysis.stats import bimodality_coefficient
from repro.chips.profiles import make_chip
from repro.core.spatial import BankPoint, BankVariationStudy, \
    bank_variation_study
from repro.dram.geometry import DEFAULT_GEOMETRY
from repro.experiments.base import ExperimentResult, scaled
from repro.experiments.sharding import SweepExperiment


def bank_points(scale: float,
                unit_range: Optional[Tuple[int, int]] = None
                ) -> List[BankPoint]:
    """The study's BankPoint list over a contiguous combo range."""
    # Floor of 24 rows/segment: below that the unit-local binomial
    # noise (~1/sqrt(8192*rows)) swamps the bank clusters' mean-BER gap
    # and Obsv. 16's ordering becomes unstable at tiny scales.
    study = bank_variation_study(make_chip(0),
                                 rows_per_segment=scaled(100, scale, 24),
                                 combo_range=unit_range)
    return study.points


def combine_points(payloads: Sequence[List[BankPoint]]) -> List[BankPoint]:
    """Concatenate per-shard point lists in shard (= combo) order."""
    return [point for payload in payloads for point in payload]


def _render(points: List[BankPoint], scale: float) -> ExperimentResult:
    """Build the full Fig. 9 report from the bank point cloud."""
    chip = make_chip(0)
    study = BankVariationStudy(chip.label, list(points))
    low_cv, high_cv = study.cluster_split()
    mean_low = float(np.mean([p.mean_ber for p in low_cv]))
    mean_high = float(np.mean([p.mean_ber for p in high_cv]))
    bimodality = bimodality_coefficient([p.cv for p in study.points])
    rows = []
    for channel in range(chip.geometry.channels):
        channel_points = [p for p in study.points if p.channel == channel]
        rows.append([
            f"CH{channel}",
            percent(float(np.mean([p.mean_ber for p in channel_points]))),
            percent(study.intra_channel_spread(channel)),
            f"{np.mean([p.cv for p in channel_points]):.2f}",
        ])
    data = {
        "bank_count": len(study.points),
        "low_cv_cluster_mean_ber": mean_low,
        "high_cv_cluster_mean_ber": mean_high,
        "bimodality_coefficient": bimodality,
        "channel7_bank_spread": study.intra_channel_spread(7),
        "channel_spread": study.channel_spread(),
    }
    footer = [
        "",
        f"Banks tested: {data['bank_count']} (paper: 256)",
        f"Low-CV cluster mean BER {percent(mean_low)} vs high-CV "
        f"{percent(mean_high)} (paper: higher-mean banks vary less)",
        f"CV bimodality coefficient: {bimodality:.3f} "
        "(> 0.555 indicates two clusters)",
        f"Bank spread within CH7: {percent(data['channel7_bank_spread'])} "
        "(paper: up to 0.23 pp)",
        f"Channel-level spread: {percent(data['channel_spread'])} "
        "(dominates bank-level variation; Obsv. 17)",
    ]
    text = render_table(
        ["Channel", "Mean bank BER", "Bank spread", "Mean CV"], rows,
        title="Fig. 9: BER variation across banks (Chip 0, Checkered0)") \
        + "\n" + "\n".join(footer)
    paper = {
        "bank_count": 256,
        "channel7_bank_spread": 0.0023,
        "bimodal": True,
        "higher_mean_lower_cv": True,
    }
    return ExperimentResult("fig09", "Bank variation", text, data, paper)


SWEEP = SweepExperiment(
    experiment_id="fig09",
    title="Bank variation",
    payload_key="points",
    # One independently sampled sweep unit per (channel, PC, bank).
    units=(DEFAULT_GEOMETRY.channels * DEFAULT_GEOMETRY.pseudo_channels
           * DEFAULT_GEOMETRY.banks),
    compute=bank_points,
    combine=combine_points,
    render=_render,
)
