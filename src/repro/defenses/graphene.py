"""Graphene: Misra-Gries frequent-item counting (Park et al., MICRO 2020).

A small table of counters tracks the most-activated rows per bank.  The
Misra-Gries guarantee: any row activated more than ``W / (entries + 1)``
times in a window of ``W`` activations is in the table with a count no
more than ``W / (entries + 1)`` below its true count.  When a counter
crosses the threshold, both neighbors are refreshed and the counter
resets — so no row can accumulate ``threshold * (spills + 1)``
activations undetected.  Deterministic protection, unlike PARA.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.defenses.base import MitigationController
from repro.dram.geometry import RowAddress
from repro.dram.row_mapping import RowMapping


@dataclass
class _BankTable:
    """One bank's Misra-Gries counter table."""

    entries: int
    counters: Dict[int, int] = field(default_factory=dict)
    #: Misra-Gries spill base: subtracted implicitly from all rows.
    spill: int = 0

    def add(self, row: int, count: int) -> int:
        """Add activations; return the row's current estimated count."""
        if row in self.counters:
            self.counters[row] += count
            return self.counters[row]
        if len(self.counters) < self.entries:
            self.counters[row] = count
            return count
        # Misra-Gries decrement-all: consume the smallest counters.
        remaining = count
        while remaining > 0 and len(self.counters) >= self.entries:
            smallest = min(self.counters.values())
            step = min(remaining, smallest)
            self.spill += step
            remaining -= step
            for key in [k for k, v in self.counters.items()
                        if v == smallest]:
                self.counters[key] -= step
                if self.counters[key] <= 0:
                    del self.counters[key]
        if remaining > 0:
            self.counters[row] = remaining
            return remaining
        return 0

    def reset(self, row: int) -> None:
        """Reset a row's counter after its victims were refreshed."""
        self.counters.pop(row, None)

    def clear(self) -> None:
        self.counters.clear()
        self.spill = 0


class Graphene(MitigationController):
    """Graphene-style deterministic tracker.

    ``threshold`` should sit near a quarter of the chip's minimum
    HC_first: victims are refreshed every ``threshold`` activations, so
    the worst-case accumulation between refreshes stays well below the
    first bitflip.
    """

    def __init__(self, threshold: int = 4096, entries: int = 64,
                 rows: int = 16384,
                 believed_mapping: Optional[RowMapping] = None) -> None:
        super().__init__(rows, believed_mapping)
        if threshold < 1:
            raise ValueError("threshold must be positive")
        if entries < 1:
            raise ValueError("entries must be positive")
        self.threshold = threshold
        self.entries = entries
        self._tables: Dict[Tuple[int, int, int], _BankTable] = {}

    def threshold_for(self, address: RowAddress) -> int:
        """Detection threshold for this address (uniform by default;
        the heterogeneity-aware subclass overrides this)."""
        return self.threshold

    def observe(self, address: RowAddress, count: int,
                t_on: Optional[float], now_ns: float) -> List[int]:
        table = self._tables.setdefault(address.bank_key,
                                        _BankTable(self.entries))
        estimated = table.add(address.row, count)
        if estimated >= self.threshold_for(address):
            table.reset(address.row)
            return self.victims_of(address.row)
        return []

    def on_window_rollover(self, now_ns: float) -> None:
        """Counters reset every refresh window (all cells refreshed)."""
        for table in self._tables.values():
            table.clear()
