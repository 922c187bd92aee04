"""Memory templating: finding exploitable bitflips (Section 8.1).

Practical RowHammer exploits need bitflips at *specific* bit offsets with
a *specific* direction (e.g. flipping a physical-page-number bit of a
page-table entry mapped into the victim row).  Templating is the scan for
rows that deliver such flips.  The paper's second implication: an
attacker should template the most vulnerable channel first — this module
quantifies exactly that speedup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.bender.host import BenderSession
from repro.bender.routines.ber_test import measure_row_ber
from repro.chips.profiles import ChipProfile
from repro.core.patterns import CHECKERED0, DataPattern
from repro.dram.geometry import RowAddress


@dataclass(frozen=True)
class ExploitTemplate:
    """What a specific exploit needs from a bitflip.

    ``bit_offsets`` are the usable positions within a 64-bit word (e.g.
    the PPN bits of a page-table entry); ``word_stride`` spaces the
    words that would hold PTEs when the victim row backs a page table.
    """

    name: str
    bit_offsets: Tuple[int, ...]
    word_stride: int = 1

    def __post_init__(self) -> None:
        if not self.bit_offsets:
            raise ValueError("need at least one usable bit offset")
        if any(not 0 <= b < 64 for b in self.bit_offsets):
            raise ValueError("bit offsets must lie within a 64-bit word")
        if self.word_stride < 1:
            raise ValueError("word_stride must be positive")

    def matches(self, flip_positions: np.ndarray) -> np.ndarray:
        """The subset of row bit positions usable by this exploit."""
        positions = np.asarray(flip_positions, dtype=int)
        words = positions // 64
        offsets = positions % 64
        usable = np.isin(offsets, self.bit_offsets) \
            & (words % self.word_stride == 0)
        return positions[usable]


#: A page-table-entry-style template: flips in the low PPN bits of the
#: words an attacker can steer a page-table entry into (the classic
#: privilege-escalation target).  Deliberately narrow — most rows with
#: bitflips do NOT qualify, which is why templating takes time.
PTE_TEMPLATE = ExploitTemplate("pte-ppn", bit_offsets=tuple(range(12, 19)),
                               word_stride=16)


@dataclass
class TemplatingResult:
    """Outcome of scanning one channel for exploitable rows."""

    channel: int
    rows_scanned: int
    #: (physical row, usable bit positions) for each exploitable row.
    exploitable: List[Tuple[int, np.ndarray]] = field(default_factory=list)
    simulated_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Exploitable rows per scanned row."""
        if self.rows_scanned == 0:
            return 0.0
        return len(self.exploitable) / self.rows_scanned


class TemplatingCampaign:
    """Scan rows of one chip for exploit-grade bitflips."""

    def __init__(self, chip: ChipProfile,
                 template: ExploitTemplate = PTE_TEMPLATE,
                 hammer_count: int = 200_000,
                 pattern: DataPattern = CHECKERED0) -> None:
        self.chip = chip
        self.template = template
        self.hammer_count = hammer_count
        self.pattern = pattern

    def scan_channel(self, channel: int, rows: Sequence[int],
                     bank: int = 0,
                     pseudo_channel: int = 0) -> TemplatingResult:
        """Hammer every row in ``rows`` and collect exploitable hits."""
        session = BenderSession(self.chip.make_device(),
                                mapping=self.chip.row_mapping())
        start_ns = session.device.now_ns
        result = TemplatingResult(channel=channel, rows_scanned=len(rows))
        for row in rows:
            victim = RowAddress(channel, pseudo_channel, bank, int(row))
            measurement = measure_row_ber(
                session, victim, self.pattern,
                hammer_count=self.hammer_count)
            usable = self.template.matches(measurement.flip_positions)
            if usable.size:
                result.exploitable.append((int(row), usable))
        result.simulated_seconds = (session.device.now_ns
                                    - start_ns) / 1.0e9
        return result

    def best_channel_first(self, rows_per_channel: int = 64,
                           probe_rows: int = 128) -> List[int]:
        """Channel scan order by decreasing vulnerability (Section 8.1).

        Uses a cheap analytic probe (the attacker equivalent: a coarse
        pre-scan) to order channels by mean WCDP BER.
        """
        from repro.core import analytic

        rows = analytic.stratified_rows(self.chip.geometry.rows,
                                        probe_rows)
        means = {}
        for channel in range(self.chip.geometry.channels):
            bers = analytic.wcdp_ber(self.chip, channel, 0, 0, rows,
                                     sampled=False)
            means[channel] = float(bers["WCDP"].mean())
        return sorted(means, key=means.get, reverse=True)
