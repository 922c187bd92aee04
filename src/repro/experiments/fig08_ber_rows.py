"""Fig. 8: BER for every row across a bank; subarray structure.

Paper headlines (Observations 14-15, Takeaway 4):

- BER rises and falls periodically across rows: higher mid-subarray,
  lower toward the subarray edges,
- subarrays hold 832 or 768 rows (reverse engineered with single-sided
  RowHammer),
- the middle and last subarrays (832 rows each) show markedly lower BER
  than the rest of the bank.

The sweep shards by studied channel (units = the three channels of
:data:`CHANNELS`): sampling is unit-local per channel, so a shard of
:data:`SWEEP` profiles a channel subset and the merge reassembles the
full study bit-identically to the unsharded sweep.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import percent, render_table
from repro.chips.profiles import make_chip
from repro.core.spatial import RowProfileStudy, row_ber_profile
from repro.experiments.base import ExperimentResult
from repro.experiments.sharding import SweepExperiment

#: The paper's three studied channels (one bank, PC 0, Chip 0).
CHANNELS: Tuple[int, ...] = (0, 3, 7)


def _stride(scale: float) -> int:
    return max(1, int(round(1.0 / scale)))


def channel_profiles(scale: float,
                     unit_range: Optional[Tuple[int, int]] = None
                     ) -> Dict[int, np.ndarray]:
    """Channel -> per-row WCDP BER over a unit range of CHANNELS."""
    channels = CHANNELS if unit_range is None \
        else CHANNELS[unit_range[0]:unit_range[1]]
    if not channels:
        return {}
    study = row_ber_profile(make_chip(0), channels=channels,
                            row_stride=_stride(scale))
    return dict(study.ber_by_channel)


def combine_profiles(payloads: Sequence[Dict[int, np.ndarray]]
                     ) -> Dict[int, np.ndarray]:
    """Merge per-shard channel dicts (channels never overlap)."""
    merged: Dict[int, np.ndarray] = {}
    for payload in payloads:
        merged.update(payload)
    return merged


def _render(ber_by_channel: Dict[int, np.ndarray],
            scale: float) -> ExperimentResult:
    """Build the full Fig. 8 report from per-channel BER profiles."""
    chip = make_chip(0)
    study = RowProfileStudy(
        chip_label=chip.label,
        channels=CHANNELS,
        rows=np.arange(0, chip.geometry.rows, _stride(scale)),
        ber_by_channel=ber_by_channel,
        subarray_boundaries=chip.geometry.subarrays.boundaries,
    )
    layout = chip.geometry.subarrays
    rows = []
    data = {"subarray_sizes": list(layout.sizes),
            "per_channel": {}}
    resilient = {layout.middle_subarray, layout.last_subarray}
    for channel in study.channels:
        means = study.subarray_means(channel)
        normal = [m for i, m in enumerate(means) if i not in resilient]
        special = [m for i, m in enumerate(means) if i in resilient]
        ratio = float(np.mean(special) / np.mean(normal))
        data["per_channel"][channel] = {
            "subarray_means": means,
            "resilient_over_normal": ratio,
        }
        rows.append([f"CH{channel}", percent(float(np.mean(normal))),
                     percent(float(np.mean(special))), f"{ratio:.2f}"])
    # Within-subarray shape: mid-subarray rows vs edge rows of normal
    # SAs, measured on the least vulnerable studied channel (the worst
    # channels saturate at the per-row BER cap, flattening the profile).
    channel = min(study.channels,
                  key=lambda ch: float(study.ber_by_channel[ch].mean()))
    ber = study.ber_by_channel[channel]
    bounds = layout.boundaries
    mid_vals, edge_vals = [], []
    for index, (start, end) in enumerate(zip(bounds, bounds[1:])):
        if index in resilient:
            continue
        size = end - start
        mask_mid = (study.rows >= start + size // 3) \
            & (study.rows < end - size // 3)
        mask_edge = ((study.rows >= start)
                     & (study.rows < start + size // 8)) \
            | ((study.rows >= end - size // 8) & (study.rows < end))
        mid_vals.append(ber[mask_mid].mean())
        edge_vals.append(ber[mask_edge].mean())
    data["mid_over_edge"] = float(np.mean(mid_vals)
                                  / np.mean(edge_vals))
    footer = [
        "",
        f"Subarray sizes: {sorted(set(layout.sizes))} rows "
        "(paper: 832 and 768)",
        f"Middle subarray index {layout.middle_subarray}, last "
        f"{layout.last_subarray} (both 832 rows, resilient)",
        f"Mid-subarray / edge BER ratio (CH{channel}): "
        f"{data['mid_over_edge']:.2f} (paper: BER peaks mid-subarray)",
    ]
    text = render_table(
        ["Channel", "Normal-SA mean BER", "Resilient-SA mean BER",
         "Resilient/normal"],
        rows, title="Fig. 8: BER across a bank's rows (Chip 0, WCDP)") \
        + "\n" + "\n".join(footer)
    paper = {
        "subarray_sizes": [768, 832],
        "resilient_subarrays": "middle and last (832 rows each)",
        "mid_peak": "BER peaks toward the middle of a subarray",
    }
    return ExperimentResult("fig08", "BER across a bank", text, data, paper)


SWEEP = SweepExperiment(
    experiment_id="fig08",
    title="BER across a bank",
    payload_key="profiles",
    # One independently sampled sweep unit per studied channel.
    units=len(CHANNELS),
    compute=channel_profiles,
    combine=combine_profiles,
    render=_render,
)
