"""Data patterns used in the experiments (Table 1).

Four patterns are used throughout the paper, widely adopted in memory
reliability testing:

============= ========== ============ ==============
Row            Rowstripe0 Rowstripe1   Checkered0/1
============= ========== ============ ==============
Victim (V)     0x00       0xFF         0x55 / 0xAA
Aggr. (V +- 1) 0xFF       0x00         0xAA / 0x55
V +- [2:8]     0x00       0xFF         0x55 / 0xAA
============= ========== ============ ==============

For each DRAM row, the **worst-case data pattern (WCDP)** is the pattern
with the smallest HC_first, ties broken by the largest BER at a hammer
count of 256K (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.metrics import WCDP_TIE_BREAK_HAMMERS

__all__ = [
    "DataPattern", "ROWSTRIPE0", "ROWSTRIPE1", "CHECKERED0", "CHECKERED1",
    "ALL_PATTERNS", "PATTERNS_BY_NAME", "WCDP_TIE_BREAK_HAMMERS",
    "pattern_by_name", "select_wcdp",
]


@dataclass(frozen=True)
class DataPattern:
    """One victim/aggressor data-pattern assignment."""

    name: str
    victim_byte: int
    aggressor_byte: int
    far_byte: int  # rows at V +- [2:8]

    def __post_init__(self) -> None:
        for byte in (self.victim_byte, self.aggressor_byte, self.far_byte):
            if not 0 <= byte <= 0xFF:
                raise ValueError("pattern bytes must fit in 8 bits")

    def victim_row(self, row_bytes: int = 1024) -> np.ndarray:
        """Row image for the victim row."""
        return np.full(row_bytes, self.victim_byte, dtype=np.uint8)

    def aggressor_row(self, row_bytes: int = 1024) -> np.ndarray:
        """Row image for the two adjacent aggressor rows."""
        return np.full(row_bytes, self.aggressor_byte, dtype=np.uint8)

    def far_row(self, row_bytes: int = 1024) -> np.ndarray:
        """Row image for rows at distance 2..8 from the victim."""
        return np.full(row_bytes, self.far_byte, dtype=np.uint8)

    def row_image(self, distance: int, row_bytes: int = 1024) -> np.ndarray:
        """Row image for a row ``distance`` away from the victim."""
        magnitude = abs(distance)
        if magnitude == 0:
            return self.victim_row(row_bytes)
        if magnitude == 1:
            return self.aggressor_row(row_bytes)
        if magnitude <= 8:
            return self.far_row(row_bytes)
        raise ValueError("pattern defined only for distances within 8 rows")

    @property
    def is_checkered(self) -> bool:
        """Whether the victim byte alternates bits (0x55/0xAA)."""
        return self.victim_byte in (0x55, 0xAA)

    @property
    def victim_polarity(self) -> int:
        """Dominant victim bit value: 1 for 0xFF/0xAA, 0 for 0x00/0x55.

        Used by the chip profiles to model per-channel true-/anti-cell
        composition (Rowstripe0 vs Rowstripe1 HC_first asymmetry,
        Observation 13).
        """
        return 1 if self.victim_byte in (0xFF, 0xAA) else 0


ROWSTRIPE0 = DataPattern("Rowstripe0", 0x00, 0xFF, 0x00)
ROWSTRIPE1 = DataPattern("Rowstripe1", 0xFF, 0x00, 0xFF)
CHECKERED0 = DataPattern("Checkered0", 0x55, 0xAA, 0x55)
CHECKERED1 = DataPattern("Checkered1", 0xAA, 0x55, 0xAA)

#: Table 1 order.
ALL_PATTERNS: Tuple[DataPattern, ...] = (
    ROWSTRIPE0, ROWSTRIPE1, CHECKERED0, CHECKERED1)

PATTERNS_BY_NAME: Dict[str, DataPattern] = {
    pattern.name: pattern for pattern in ALL_PATTERNS}

def pattern_by_name(name: str) -> DataPattern:
    """Look up one of the four canonical patterns by name."""
    if name not in PATTERNS_BY_NAME:
        raise ValueError(
            f"unknown pattern {name!r}; expected one of "
            f"{sorted(PATTERNS_BY_NAME)}")
    return PATTERNS_BY_NAME[name]


def select_wcdp(hc_firsts: Dict[str, float],
                bers_at_tiebreak: Dict[str, float]) -> str:
    """Select the worst-case data pattern for one row.

    ``hc_firsts`` maps pattern name to the row's HC_first under that
    pattern; ``bers_at_tiebreak`` maps pattern name to the BER at the 256K
    tie-break hammer count.  Returns the WCDP name per Section 3.1: the
    smallest HC_first, ties broken by the largest BER.
    """
    if not hc_firsts:
        raise ValueError("hc_firsts must not be empty")
    minimum = min(hc_firsts.values())
    tied = [name for name, value in hc_firsts.items() if value == minimum]
    if len(tied) == 1:
        return tied[0]
    missing = [name for name in tied if name not in bers_at_tiebreak]
    if missing:
        raise ValueError(f"tie-break BER missing for patterns {missing}")
    return max(tied, key=lambda name: bers_at_tiebreak[name])
