"""Data-retention fault model.

Two of the paper's methodologies depend on retention behaviour:

- Section 6 (footnote 6): long-``t_AggON`` experiments exceed the 32 ms
  refresh window, so retention-induced bitflips must be profiled and
  *scrubbed* out of the observed flips.
- Section 7: the U-TRR methodology uses rows with known retention times as
  a **side channel** — a side-channel row initialized and left unrefreshed
  for its retention time ``T`` shows bitflips *unless* the in-DRAM TRR
  mechanism refreshed it in between.

The model assigns each row a weakest-cell retention time drawn from a
log-normal distribution (floored just above the guaranteed 32 ms window)
plus a small ladder of progressively leakier cells, all deterministic in
the row coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.dram.geometry import RowAddress
from repro.dram.seeding import generator_for

#: Nanoseconds per millisecond, for readability.
_MS = 1.0e6

#: Manufacturer-guaranteed retention: no failures within the refresh window.
GUARANTEED_RETENTION_NS = 32.0 * _MS

#: Floor of every row's weakest-cell retention time (33 ms): a row left
#: unrefreshed for less than this cannot have lost data, whatever its draw.
RETENTION_FLOOR_NS = GUARANTEED_RETENTION_NS * 1.03125


@dataclass(frozen=True)
class RetentionModel:
    """Per-row retention-time distribution for one chip.

    ``median_ns`` and ``sigma_log10`` shape the weakest-cell retention time
    across rows; U-TRR-style profiling at 64 ms granularity finds a usable
    population of side-channel rows (retention in the hundreds of ms) for
    any reasonable parameterization.
    """

    #: Median weakest-cell retention time across rows (ns).
    median_ns: float = 1.2e9
    #: log10 spread of weakest-cell retention across rows.
    sigma_log10: float = 0.45
    #: Number of leaky cells modelled per row (the retention "ladder").
    ladder_size: int = 64
    #: Mean log10 spacing between successive ladder cells.
    ladder_spacing: float = 0.25
    #: Seed namespace separating retention draws from threshold draws.
    seed: int = 0x52455445
    #: ``(channel, pc, bank, row)`` -> :meth:`row_retention_ns`, shared
    #: by every device built on this model (a pure function of the key).
    _floors: Dict[Tuple[int, int, int, int], float] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def _rng(self, address: RowAddress) -> np.random.Generator:
        return generator_for(self.seed, address.channel,
                             address.pseudo_channel, address.bank,
                             address.row)

    def row_retention_ns(self, address: RowAddress) -> float:
        """Weakest-cell retention time of the row (ns), floored at 33 ms."""
        key = (address.channel, address.pseudo_channel, address.bank,
               address.row)
        floor = self._floors.get(key)
        if floor is None:
            rng = self._rng(address)
            draw = self.median_ns * 10.0 ** rng.normal(0.0,
                                                       self.sigma_log10)
            floor = max(draw, RETENTION_FLOOR_NS)
            self._floors[key] = floor
        return floor

    def cell_ladder(self, address: RowAddress) -> Tuple[np.ndarray,
                                                        np.ndarray]:
        """Retention times and bit positions of the row's leaky cells.

        Returns ``(times_ns, bit_positions)`` sorted by increasing
        retention time; ``times_ns[0]`` equals :meth:`row_retention_ns`.
        """
        rng = self._rng(address)
        base = self.median_ns * 10.0 ** rng.normal(0.0, self.sigma_log10)
        base = max(base, RETENTION_FLOOR_NS)
        spacings = rng.exponential(self.ladder_spacing,
                                   size=self.ladder_size - 1)
        times = base * 10.0 ** np.concatenate(([0.0], np.cumsum(spacings)))
        positions = rng.choice(8192, size=self.ladder_size, replace=False)
        return times, positions

    def failing_bits(self, address: RowAddress,
                     elapsed_ns: float) -> np.ndarray:
        """Bit positions that lose data after ``elapsed_ns`` unrefreshed."""
        if elapsed_ns < 0:
            raise ValueError("elapsed_ns must be non-negative")
        times, positions = self.cell_ladder(address)
        return positions[times <= elapsed_ns]

    def failure_count(self, address: RowAddress, elapsed_ns: float) -> int:
        """Number of retention bitflips after ``elapsed_ns`` unrefreshed."""
        return int(self.failing_bits(address, elapsed_ns).size)

    def has_failed(self, address: RowAddress, elapsed_ns: float) -> bool:
        """Whether the row shows at least one retention bitflip."""
        return elapsed_ns >= self.row_retention_ns(address)

    def profile_retention_ns(self, address: RowAddress,
                             step_ns: float = 64.0 * _MS,
                             max_steps: int = 256) -> float:
        """Measure row retention the way U-TRR does.

        Starting at ``step_ns`` (64 ms) and incrementing by ``step_ns``,
        return the first tested time at which the row exhibits a bitflip.
        Returns ``inf`` if no failure occurs within ``max_steps`` steps.
        """
        true_time = self.row_retention_ns(address)
        for step in range(1, max_steps + 1):
            tested = step * step_ns
            if tested >= true_time:
                return tested
        return float("inf")


#: Default retention model; chips may override the median/spread.
DEFAULT_RETENTION = RetentionModel()
