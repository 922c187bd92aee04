"""Vulnerability-aware mitigation (Section 8.2, first implication).

"A RowHammer defense mechanism can adapt to the heterogeneous
distribution of the RowHammer and RowPress vulnerability across channels
and subarrays, which may allow the defense mechanism to more efficiently
prevent read disturbance bitflips."

:class:`HeterogeneousGraphene` does exactly that: it profiles the chip
once (the vendor or an at-boot characterization pass would), derives a
per-(channel, subarray) detection threshold from the *local* minimum
HC_first instead of the global worst case, and spends preventive
refreshes only where the silicon is actually weak.  The
``test_ablation_defenses`` benchmark quantifies the refresh savings.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.chips.profiles import ChipProfile
from repro.core import analytic
from repro.defenses.graphene import Graphene
from repro.dram.geometry import RowAddress
from repro.dram.row_mapping import RowMapping


def profile_local_thresholds(chip: ChipProfile, rows_per_subarray: int = 24,
                             safety_divisor: float = 4.0,
                             floor: int = 512) -> Dict[Tuple[int, int], int]:
    """Per-(channel, subarray) Graphene thresholds from profiling.

    Samples each subarray's WCDP HC_first and sets the local detection
    threshold to ``local_min / safety_divisor`` — the same margin a
    uniform design would apply to the *global* minimum.
    """
    geometry = chip.geometry
    layout = geometry.subarrays
    thresholds: Dict[Tuple[int, int], int] = {}
    for channel in range(geometry.channels):
        for subarray in range(layout.count):
            rows_range = layout.rows_of(subarray)
            rows = np.unique(np.linspace(
                rows_range.start, rows_range.stop - 1,
                rows_per_subarray).astype(int))
            hc = analytic.wcdp_hc_first(chip, channel, 0, 0, rows)["WCDP"]
            local = float(hc.min())
            thresholds[(channel, subarray)] = max(
                floor, int(local / safety_divisor))
    return thresholds


class HeterogeneousGraphene(Graphene):
    """Graphene with per-(channel, subarray) thresholds."""

    def __init__(self, chip: ChipProfile, entries: int = 64,
                 believed_mapping: Optional[RowMapping] = None,
                 safety_divisor: float = 4.0,
                 rows_per_subarray: int = 24) -> None:
        self.chip = chip
        self.local_thresholds = profile_local_thresholds(
            chip, rows_per_subarray=rows_per_subarray,
            safety_divisor=safety_divisor)
        uniform = min(self.local_thresholds.values())
        super().__init__(threshold=uniform, entries=entries,
                         rows=chip.geometry.rows,
                         believed_mapping=believed_mapping)
        self._layout = chip.geometry.subarrays
        # threshold_for is a pure function of (channel, logical row);
        # memoizing it keeps the inherited observe step from re-walking
        # the believed mapping and subarray layout for every call.
        # Bit-identical by purity.
        self._threshold_memo: Dict[Tuple[int, int], int] = {}

    def threshold_for(self, address: RowAddress) -> int:
        key = (address.channel, address.row)
        cached = self._threshold_memo.get(key)
        if cached is None:
            subarray = self._layout.subarray_of(
                self.believed_mapping.to_physical(address.row))
            cached = self.local_thresholds.get(
                (address.channel, subarray), self.threshold)
            self._threshold_memo[key] = cached
        return cached

    def uniform_equivalent_threshold(self) -> int:
        """The single threshold a vulnerability-blind design must use
        (the global minimum of the local ones)."""
        return min(self.local_thresholds.values())

    def mean_threshold(self) -> float:
        """Average local threshold — the headroom heterogeneity buys."""
        return float(np.mean(list(self.local_thresholds.values())))
