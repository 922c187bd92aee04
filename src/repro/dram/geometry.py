"""HBM2 stack geometry and addressing.

All tested HBM2 chips in the paper share the same organization (Section 3):

- stack density of 4 GiB,
- 8 channels (paired two-per-die across four 3D-stacked DRAM dies),
- 2 pseudo channels per channel,
- 16 banks per pseudo channel,
- 16384 rows per bank,
- 1 KiB (8192 bits) of storage per row.

Banks are partitioned into subarrays of either 832 or 768 rows (Section 4.2,
footnote 3).  The paper reports that the *middle* and the *last* subarray of
a bank contain 832 rows and are significantly more RowHammer resilient than
the others (Observation 15); the canonical layout below satisfies both
constraints while summing to exactly 16384 rows.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, Tuple

#: Canonical subarray sizes for one bank: sixteen 832-row and four 768-row
#: subarrays (16 * 832 + 4 * 768 == 16384).  Row 8192 starts subarray 10
#: (the "middle" subarray) and the last subarray holds 832 rows, matching
#: Observation 15.
DEFAULT_SUBARRAY_SIZES: Tuple[int, ...] = (
    832, 832, 768, 832, 832, 768, 832, 832, 832, 832,
    832, 832, 768, 832, 832, 768, 832, 832, 832, 832,
)


@dataclass(frozen=True)
class SubarrayLayout:
    """Partition of a bank's rows into subarrays.

    The layout is the ground truth that the reverse-engineering routine in
    :mod:`repro.bender.routines.subarray_reveng` rediscovers via single-sided
    RowHammer (an aggressor at a subarray edge only disturbs the one victim
    that shares its subarray).
    """

    sizes: Tuple[int, ...] = DEFAULT_SUBARRAY_SIZES
    #: radius -> :meth:`clipped_rows` (a pure function of the sizes).
    _clipped: Dict[int, FrozenSet[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if any(size <= 0 for size in self.sizes):
            raise ValueError("subarray sizes must be positive")

    @functools.cached_property
    def rows(self) -> int:
        """Total number of rows covered by the layout."""
        return sum(self.sizes)

    @property
    def count(self) -> int:
        """Number of subarrays in the bank."""
        return len(self.sizes)

    @functools.cached_property
    def boundaries(self) -> Tuple[int, ...]:
        """Starting row of each subarray, plus the end sentinel."""
        starts = [0]
        for size in self.sizes:
            starts.append(starts[-1] + size)
        return tuple(starts)

    def subarray_of(self, row: int) -> int:
        """Return the subarray index containing ``row``."""
        self._check_row(row)
        return bisect.bisect_right(self.boundaries, row) - 1

    def position_in_subarray(self, row: int) -> Tuple[int, int, int]:
        """Return ``(subarray_index, offset, size)`` for ``row``."""
        index = self.subarray_of(row)
        return index, row - self.boundaries[index], self.sizes[index]

    def neighbors(self, row: int,
                  radius: int) -> Tuple[Tuple[int, int], ...]:
        """``(row, distance)`` pairs an aggressor at ``row`` disturbs.

        The one definition of disturbance reach: rows within ``radius``,
        in ascending row order, never across a subarray boundary.  Sense
        amplifier stripes isolate neighboring subarrays, which is what
        the paper's subarray reverse engineering exploits (footnote 3).
        Subarrays partition the bank, so this also clips to the bank.
        The relation is symmetric: ``row`` is in the neighborhood of
        each row it returns.
        """
        index = self.subarray_of(row)
        low = max(self.boundaries[index], row - radius)
        high = min(self.boundaries[index + 1], row + radius + 1)
        return tuple((other, abs(other - row))
                     for other in range(low, high) if other != row)

    def clipped_rows(self, radius: int) -> FrozenSet[int]:
        """Rows whose :meth:`neighbors` within ``radius`` a subarray
        boundary clips: those fewer than ``radius`` rows from either end
        of their subarray.  Every other row disturbs the full range
        ``row - radius .. row + radius``."""
        clipped = self._clipped.get(radius)
        if clipped is None:
            bounds = self.boundaries
            clipped = self._clipped[radius] = frozenset(
                row for start, end in zip(bounds, bounds[1:])
                for row in itertools.chain(
                    range(start, min(end, start + radius)),
                    range(max(start, end - radius), end)))
        return clipped

    def rows_of(self, subarray: int) -> range:
        """Return the row range of subarray ``subarray``."""
        if not 0 <= subarray < self.count:
            raise ValueError(f"subarray {subarray} out of range")
        bounds = self.boundaries
        return range(bounds[subarray], bounds[subarray + 1])

    def is_edge_row(self, row: int) -> bool:
        """Whether ``row`` is the first or last row of its subarray."""
        __, offset, size = self.position_in_subarray(row)
        return offset == 0 or offset == size - 1

    @property
    def middle_subarray(self) -> int:
        """Index of the subarray containing the bank's middle row."""
        return self.subarray_of(self.rows // 2)

    @property
    def last_subarray(self) -> int:
        """Index of the last subarray in the bank."""
        return self.count - 1

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} out of range [0, {self.rows})")


@dataclass(frozen=True)
class HBM2Geometry:
    """Dimensions of one HBM2 stack, as characterized in the paper."""

    channels: int = 8
    pseudo_channels: int = 2
    banks: int = 16
    rows: int = 16384
    row_bits: int = 8192
    dies: int = 4
    subarrays: SubarrayLayout = field(default_factory=SubarrayLayout)

    def __post_init__(self) -> None:
        if self.subarrays.rows != self.rows:
            raise ValueError(
                f"subarray layout covers {self.subarrays.rows} rows, "
                f"bank has {self.rows}"
            )
        if self.channels % self.dies:
            raise ValueError("channels must spread evenly across dies")

    @property
    def row_bytes(self) -> int:
        """Row size in bytes (1 KiB for all tested chips)."""
        return self.row_bits // 8

    @property
    def total_banks(self) -> int:
        """Banks across the whole stack."""
        return self.channels * self.pseudo_channels * self.banks

    @property
    def density_bytes(self) -> int:
        """Stack density in bytes (4 GiB for all tested chips)."""
        return self.total_banks * self.rows * self.row_bytes

    def die_of_channel(self, channel: int) -> int:
        """Map a channel to the die it lives on.

        The paper observes channels cluster into groups of two with similar
        read-disturbance behaviour and hypothesizes each group shares a die
        (Observation 8).  The reported groups — CH0/CH7 together in Chip 0,
        CH3/CH4 together in every chip — imply the mirrored pairing
        (0,7), (1,6), (2,5), (3,4), which we adopt.
        """
        self._check(channel, self.channels, "channel")
        return min(channel, self.channels - 1 - channel)

    def contains(self, channel: int, pseudo_channel: int, bank: int,
                 row: int) -> bool:
        """Whether a full row address lies inside the stack."""
        return (0 <= channel < self.channels
                and 0 <= pseudo_channel < self.pseudo_channels
                and 0 <= bank < self.banks and 0 <= row < self.rows)

    def check_address(self, channel: int, pseudo_channel: int, bank: int,
                      row: int) -> None:
        """Validate a full row address; raise :class:`ValueError` if bad."""
        if self.contains(channel, pseudo_channel, bank, row):
            return
        # Name the first coordinate out of range.
        self._check(channel, self.channels, "channel")
        self._check(pseudo_channel, self.pseudo_channels, "pseudo channel")
        self._check(bank, self.banks, "bank")
        self._check(row, self.rows, "row")

    def iter_banks(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate ``(channel, pseudo_channel, bank)`` across the stack."""
        return itertools.product(
            range(self.channels), range(self.pseudo_channels),
            range(self.banks))

    @staticmethod
    def _check(value: int, limit: int, label: str) -> None:
        if not 0 <= value < limit:
            raise ValueError(f"{label} {value} out of range [0, {limit})")


@dataclass(frozen=True, order=True)
class RowAddress:
    """Fully qualified physical row address inside one HBM2 stack."""

    channel: int
    pseudo_channel: int
    bank: int
    row: int

    def validate(self, geometry: HBM2Geometry) -> "RowAddress":
        """Return self after bounds-checking against ``geometry``."""
        geometry.check_address(
            self.channel, self.pseudo_channel, self.bank, self.row)
        return self

    def neighbor(self, offset: int) -> "RowAddress":
        """Row at ``row + offset`` in the same bank (may be out of range)."""
        return RowAddress(
            self.channel, self.pseudo_channel, self.bank, self.row + offset)

    def with_row(self, row: int) -> "RowAddress":
        """Same bank coordinates with a different row index."""
        return RowAddress(self.channel, self.pseudo_channel, self.bank, row)

    @property
    def bank_key(self) -> Tuple[int, int, int]:
        """Hashable bank identity ``(channel, pseudo_channel, bank)``."""
        return (self.channel, self.pseudo_channel, self.bank)


#: Geometry shared by every chip the paper tests.
DEFAULT_GEOMETRY = HBM2Geometry()
