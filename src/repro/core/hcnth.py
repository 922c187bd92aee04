"""Section 5: hammer count to induce the first 10 bitflips in a row.

The paper measures, for 1152 rows (32 rows from each of the beginning,
middle, and end of one bank in the two most vulnerable channels of every
chip), the hammer counts ``HC_first .. HC_tenth`` at which the 1st..10th
bitflip appears, and studies

- the distribution of ``HC_nth`` normalized to ``HC_first`` (Fig. 10), and
- the *additional* hammers ``HC_tenth - HC_first`` as a function of
  ``HC_first`` (Fig. 11), which correlates negatively: rows that flip late
  need proportionally fewer extra hammers for the next nine bitflips
  (Obsv. 20, Pearson -0.34 .. -0.45 across chips).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chips.profiles import ChipProfile
from repro.core import analytic
from repro.core.patterns import ALL_PATTERNS
from repro.analysis.fits import pearson_correlation, polynomial_fit

#: Paper population: 32 rows per segment, 3 segments, 2 channels per chip.
ROWS_PER_SEGMENT = 32
SEGMENTS = ("first", "middle", "last")


def most_vulnerable_channels(chip: ChipProfile, count: int = 2,
                             probe_rows: int = 256) -> List[int]:
    """Channels with the smallest minimum HC_first (the paper's choice)."""
    rows = analytic.stratified_rows(chip.geometry.rows, probe_rows)
    combos = [(channel, 0, 0) for channel in range(chip.geometry.channels)]
    wcdp = analytic.wcdp_hc_first_multi(chip, combos, rows)["WCDP"]
    minima = {channel: float(wcdp[channel].min())
              for channel in range(chip.geometry.channels)}
    ordered = sorted(minima, key=minima.get)
    return ordered[:count]


@dataclass
class RowHcNth:
    """HC_1..HC_n measurements of one row under one pattern."""

    chip_label: str
    channel: int
    row: int
    pattern: str
    hc_nth: np.ndarray

    @property
    def hc_first(self) -> float:
        return float(self.hc_nth[0])

    @property
    def normalized(self) -> np.ndarray:
        """HC_nth / HC_first (Fig. 10 y-axis)."""
        return self.hc_nth / self.hc_nth[0]

    @property
    def additional_to_last(self) -> float:
        """HC_nth[-1] - HC_first (Fig. 11 y-axis)."""
        return float(self.hc_nth[-1] - self.hc_nth[0])


@dataclass
class HcNthStudy:
    """Sections 5's full measurement set."""

    n: int
    measurements: List[RowHcNth] = field(default_factory=list)

    def normalized_matrix(self, pattern: Optional[str] = None) -> np.ndarray:
        """(rows, n) matrix of normalized hammer counts."""
        rows = [m.normalized for m in self.measurements
                if pattern is None or m.pattern == pattern]
        if not rows:
            raise ValueError("no measurements match the filter")
        return np.stack(rows)

    def mean_normalized(self, pattern: Optional[str] = None) -> np.ndarray:
        """Mean normalized HC_nth per bitflip index (Obsv. 18 examples)."""
        return self.normalized_matrix(pattern).mean(axis=0)

    def normalized_range(self, pattern: Optional[str] = None
                         ) -> Tuple[float, float]:
        """(min, max) of the last normalized hammer count (Obsv. 18)."""
        last = self.normalized_matrix(pattern)[:, -1]
        return float(last.min()), float(last.max())

    def pattern_effect(self) -> Dict[str, float]:
        """Mean normalized HC_nth[last] per pattern (Obsv. 19)."""
        return {p.name: float(self.normalized_matrix(p.name)[:, -1].mean())
                for p in ALL_PATTERNS}

    def chip_correlations(self, pattern: Optional[str] = "Checkered0"
                          ) -> Dict[str, float]:
        """Fig. 11: Pearson(HC_first, additional) per chip (Obsv. 20).

        Computed on one data pattern by default: pooling patterns mixes
        per-pattern threshold scales into the scatter, which would
        measure pattern spread rather than the row-level effect.
        """
        by_chip: Dict[str, List[RowHcNth]] = {}
        for m in self.measurements:
            if pattern is None or m.pattern == pattern:
                by_chip.setdefault(m.chip_label, []).append(m)
        correlations = {}
        for label, rows in by_chip.items():
            hc1 = np.array([m.hc_first for m in rows])
            add = np.array([m.additional_to_last for m in rows])
            correlations[label] = pearson_correlation(hc1, add)
        return correlations

    def chip_fit(self, chip_label: str, degree: int = 2,
                 pattern: Optional[str] = None) -> np.ndarray:
        """Fig. 11's orange curve: polynomial fit of additional vs HC1."""
        rows = [m for m in self.measurements
                if m.chip_label == chip_label
                and (pattern is None or m.pattern == pattern)]
        hc1 = np.array([m.hc_first for m in rows])
        add = np.array([m.additional_to_last for m in rows])
        return polynomial_fit(hc1, add, degree)


def hcnth_study(chips: Sequence[ChipProfile], n: int = 10,
                rows_per_segment: int = ROWS_PER_SEGMENT,
                patterns: Optional[Sequence[str]] = None,
                bank: int = 0, pseudo_channel: int = 0) -> HcNthStudy:
    """Run the Section 5 study over the paper's row population."""
    if patterns is None:
        patterns = [p.name for p in ALL_PATTERNS]
    study = HcNthStudy(n)
    for chip in chips:
        channels = most_vulnerable_channels(chip)
        rows = np.concatenate([
            analytic.segment_rows(chip.geometry.rows, segment,
                                  rows_per_segment)
            for segment in SEGMENTS])
        # One batch per pattern over both channels; hc_nth draws no
        # shared RNG, so compute-then-emit keeps the channel-major,
        # pattern-minor measurement order.
        combos = [(channel, pseudo_channel, bank) for channel in channels]
        by_pattern = {}
        for pattern in patterns:
            batch = analytic.combo_population(chip, combos, rows, pattern)
            by_pattern[pattern] = batch.hc_nth(n).reshape(
                len(channels), rows.size, n)
        for index, channel in enumerate(channels):
            for pattern in patterns:
                hc = by_pattern[pattern][index]
                for i, row in enumerate(rows):
                    study.measurements.append(RowHcNth(
                        chip_label=chip.label, channel=channel,
                        row=int(row), pattern=pattern, hc_nth=hc[i]))
    return study
