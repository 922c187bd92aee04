"""Fig. 12: BER with increasing aggressor-row on-time (RowPress).

Paper headlines (Observations 21-22, Takeaway 7):

- at a fixed 150K hammer count, mean BER across all channels/chips rises
  monotonically with t_AggON: 0.08 / 0.24 / 0.40 / 0.73 / 31.00 / 50.35 %
  at 29 ns / 58 ns / 87 ns / 116 ns / 3.9 us / 35.1 us,
- BER converges to ~50% at 35.1 us (victim polarity cap),
- channels rank consistently across on-times.

The sweep shards by channel: sampling is unit-local per (channel, t_on)
(see :func:`repro.core.rowpress.rowpress_ber_study`), so a shard of
:data:`SWEEP` measures one contiguous channel range for every chip and
the merge puts the per-channel means back into the full study
bit-identically to the unsharded sweep.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.reporting import duration_label, percent, render_table
from repro.chips.profiles import all_chips
from repro.core import metrics
from repro.core.rowpress import (ROWPRESS_BER_T_ONS, RowPressBerStudy,
                                 rowpress_ber_study)
from repro.dram.geometry import DEFAULT_GEOMETRY
from repro.experiments.base import ExperimentResult, scaled
from repro.experiments.sharding import SweepExperiment

#: Paper's mean BER series (%) at the six on-times.
PAPER_SERIES = (0.08, 0.24, 0.40, 0.73, 31.00, 50.35)

#: chip label -> t_on -> channel -> mean BER (one of "sampled"/"expected").
MeanTable = Dict[str, Dict[float, Dict[int, float]]]


def channel_tables(scale: float,
                   unit_range: Optional[Tuple[int, int]] = None
                   ) -> Dict[str, MeanTable]:
    """Sampled and closed-form channel means over a channel range."""
    study = rowpress_ber_study(all_chips(),
                               rows_per_segment=scaled(128, scale, 16),
                               channel_range=unit_range)
    return {"sampled": study.channel_means,
            "expected": study.expected_means}


def combine_tables(payloads: Sequence[Dict[str, MeanTable]]
                   ) -> Dict[str, MeanTable]:
    """Merge per-shard channel means (channels never overlap)."""
    merged: Dict[str, MeanTable] = {"sampled": {}, "expected": {}}
    for payload in payloads:
        for kind in ("sampled", "expected"):
            for label, by_t in payload[kind].items():
                table = merged[kind].setdefault(label, {})
                for t_on, channels in by_t.items():
                    table.setdefault(t_on, {}).update(channels)
    return merged


def _render(tables: Dict[str, MeanTable], scale: float) -> ExperimentResult:
    """Build the full Fig. 12 report from the per-channel mean tables."""
    chips = all_chips()
    study = RowPressBerStudy(metrics.ROWPRESS_BER_HAMMERS, "Checkered0",
                             tuple(ROWPRESS_BER_T_ONS),
                             tables["sampled"], tables["expected"])
    series = study.series()
    rows = [[duration_label(t_on), percent(mean), f"{paper:.2f}%"]
            for (t_on, mean), paper in zip(series, PAPER_SERIES)]
    means = [mean for __, mean in series]
    monotone = all(b >= a for a, b in zip(means, means[1:]))
    rank_stability = {chip.label: study.channel_rank_stability(chip.label)
                      for chip in chips}
    data = {
        "series": {t: m for t, m in series},
        "monotone": monotone,
        "converges_to_half": abs(means[-1] - 0.5) < 0.05,
        "channel_rank_stability": rank_stability,
        "relative_growth_29_to_116": (
            study.expected_mean_at(116.0)
            / study.expected_mean_at(29.0)),
    }
    footer = [
        "",
        f"Monotone increase with t_AggON: {monotone} (Obsv. 21)",
        f"BER at 35.1 us: {percent(means[-1])} "
        "(paper: converges to ~50%, the polarity cap)",
        f"Relative growth 29 ns -> 116 ns: "
        f"{data['relative_growth_29_to_116']:.1f}x (paper: 9.1x)",
        "Channel-rank stability (Spearman between smallest and largest "
        "t_AggON; Obsv. 22):",
    ] + [f"  {label}: {value:.2f}"
         for label, value in rank_stability.items()]
    text = render_table(
        ["t_AggON", "Mean BER (measured)", "Mean BER (paper)"], rows,
        title="Fig. 12: BER vs aggressor row on-time "
              "(150K hammers, Checkered0)") + "\n" + "\n".join(footer)
    paper = {
        "series_percent": dict(zip(ROWPRESS_BER_T_ONS, PAPER_SERIES)),
        "monotone": True,
        "converges_to_half": True,
    }
    return ExperimentResult("fig12", "RowPress BER sweep", text, data,
                            paper)


SWEEP = SweepExperiment(
    experiment_id="fig12",
    title="RowPress BER sweep",
    payload_key="tables",
    # One independently sampled sweep unit per channel.
    units=DEFAULT_GEOMETRY.channels,
    compute=channel_tables,
    combine=combine_tables,
    render=_render,
)
