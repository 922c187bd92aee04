"""Logical-to-physical DRAM row address mapping.

DRAM manufacturers remap memory-controller-visible (logical) row addresses
to internal physical rows for repair and layout reasons.  To identify
physically adjacent aggressor rows, the paper reverse-engineers the mapping
following prior work (Section 3.1).  We implement the common mapping
families seen in real chips; each simulated chip is assigned one, and the
reverse-engineering routine in
:mod:`repro.bender.routines.mapping_reveng` recovers it from single-sided
hammer experiments alone.
"""

from __future__ import annotations

import abc

import numpy as np


class RowMapping(abc.ABC):
    """Bijective logical <-> physical row mapping within a bank.

    Each family writes its permutation once, as bit arithmetic that
    reads the same on a Python int and on an int64 array:
    :meth:`to_physical` checks one row and applies it;
    :meth:`to_physical_array` applies it to a whole array of rows.
    """

    def __init__(self, rows: int) -> None:
        if rows <= 0:
            raise ValueError("rows must be positive")
        self.rows = rows

    @abc.abstractmethod
    def _forward(self, logical):
        """Logical -> physical, on an int or an int64 array."""

    @abc.abstractmethod
    def _inverse(self, physical):
        """Physical -> logical, on an int or an int64 array."""

    def to_physical(self, logical: int) -> int:
        """Map a logical row to its physical row."""
        self._check(logical)
        return self._forward(logical)

    def to_logical(self, physical: int) -> int:
        """Map a physical row back to the logical address."""
        self._check(physical)
        return self._inverse(physical)

    def to_physical_array(self, logical: np.ndarray) -> np.ndarray:
        """:meth:`to_physical` of every row of an in-range int64 array
        (the caller checks the range)."""
        return self._forward(np.asarray(logical, dtype=np.int64))

    def _check(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} out of range [0, {self.rows})")

    def physical_neighbors(self, logical: int, radius: int = 1):
        """Logical addresses of the rows physically adjacent to ``logical``.

        This is the operation an attacker needs: given a victim's logical
        address, find the logical addresses to activate so the *physical*
        neighbors are hammered.
        """
        self._check(logical)
        physical = self.to_physical(logical)
        neighbors = []
        for offset in range(-radius, radius + 1):
            if offset == 0:
                continue
            candidate = physical + offset
            if 0 <= candidate < self.rows:
                neighbors.append(self.to_logical(candidate))
        return neighbors

    @property
    def name(self) -> str:
        """Family name used by the reverse-engineering report."""
        return type(self).__name__


class IdentityMapping(RowMapping):
    """Logical addresses equal physical addresses."""

    def _forward(self, logical):
        return logical

    _inverse = _forward


class XorScrambleMapping(RowMapping):
    """Vendor-style XOR scramble: one address bit is XORed with another.

    A common real-chip scheme flips row address bit ``target`` whenever bit
    ``source`` is set, which shuffles adjacency within 8-row groups.  The
    transform is an involution, so forward and inverse coincide.
    """

    def __init__(self, rows: int, target_bit: int = 1,
                 source_bit: int = 2) -> None:
        super().__init__(rows)
        if target_bit == source_bit:
            raise ValueError("target and source bits must differ")
        if rows <= max(1 << target_bit, 1 << source_bit):
            raise ValueError("scrambled bits exceed the row address width")
        self.target_bit = target_bit
        self.source_bit = source_bit

    def _forward(self, logical):
        return logical ^ (((logical >> self.source_bit) & 1)
                          << self.target_bit)

    _inverse = _forward  # involution


class MirrorOddMapping(RowMapping):
    """Low-bit swap inside 4-row groups (the "mirrored" vendor layout).

    Odd/even pairs inside each 4-row group are reordered as
    ``0, 1, 2, 3 -> 0, 2, 1, 3`` physically (address bits 0 and 1
    swap), a pattern observed on several DDR4 vendors and adopted here
    as a third distinct family.
    """

    def _forward(self, logical):
        return (logical & ~0x3) | ((logical & 0x1) << 1) \
            | ((logical >> 1) & 0x1)

    _inverse = _forward  # the bit swap is an involution


class BlockInterleaveMapping(RowMapping):
    """Even/odd interleave inside 8-row groups.

    Physically, logical rows ``0..7`` of each group land at
    ``0, 2, 4, 6, 1, 3, 5, 7`` (the low three address bits rotate left
    by one) — the layout some vendors use to pair true- and anti-cell
    rows.  Unlike the XOR/mirror involutions, the displacement between
    logically and physically adjacent rows can exceed 2, so a memory
    controller that assumes an identity mapping refreshes rows that are
    *never* the real victims (the hiding-internal-topology cost
    quantified in the defense ablation).
    """

    def _forward(self, logical):
        return (logical & ~0x7) | ((logical & 0x3) << 1) \
            | ((logical >> 2) & 0x1)

    def _inverse(self, physical):
        return (physical & ~0x7) | ((physical & 0x1) << 2) \
            | ((physical >> 1) & 0x3)


MAPPING_FAMILIES = {
    "IdentityMapping": IdentityMapping,
    "XorScrambleMapping": XorScrambleMapping,
    "MirrorOddMapping": MirrorOddMapping,
    "BlockInterleaveMapping": BlockInterleaveMapping,
}


def make_mapping(family: str, rows: int) -> RowMapping:
    """Instantiate a mapping family by name."""
    if family not in MAPPING_FAMILIES:
        raise ValueError(f"unknown mapping family {family!r}")
    return MAPPING_FAMILIES[family](rows)
