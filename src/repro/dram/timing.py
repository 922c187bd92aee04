"""HBM2 command timing parameters (JESD235-style).

The testing infrastructure in the paper controls HBM2 command timings at the
granularity of the 600 MHz interface clock (1.66 ns).  The parameters below
are chosen to be consistent with every timing-derived number in the paper:

- minimum ``t_AggON`` of 29.0 ns, set by ``tRAS`` (Section 6),
- ``tREFI`` of 3.9 us and refresh window ``tREFW`` of 32 ms (Section 2.2),
- maximum REF postponement of ``9 * tREFI`` = 35.1 us,
- activation budget between two REFs of
  ``floor((tREFI - tRFC) / tRC) == 78`` (Section 7),
- 8205 REF commands per refresh window (the bypass attack repeats its
  pattern ``8205 * 2`` times to cover two tREFW).

All times are expressed in nanoseconds (float).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

# Re-homed into the shared taxonomy (repro.errors); re-exported here so
# the historical `from repro.dram.timing import TimingError` keeps working.
from repro.errors import TimingError

__all__ = ["TimingError", "TimingParameters", "DEFAULT_TIMINGS"]


@dataclass(frozen=True)
class TimingParameters:
    """Timing parameter set for one HBM2 channel."""

    #: Interface clock period (600 MHz command clock).
    t_ck: float = 1.0e3 / 600.0
    #: Minimum time a row stays open before PRE (charge restoration).
    t_ras: float = 29.0
    #: Precharge latency (row close to next ACT in the same bank).
    t_rp: float = 16.0
    #: ACT-to-ACT cycle time in the same bank (t_ras + t_rp).
    t_rc: float = 45.0
    #: ACT to column command (RD/WR) delay.
    t_rcd: float = 14.0
    #: Average periodic refresh interval.
    t_refi: float = 3900.0
    #: Refresh cycle time (REF command execution time).
    t_rfc: float = 350.0
    #: Refresh window: every cell refreshed once per window.
    t_refw: float = 32.0e6
    #: Maximum REF postponement allowed by the standard (9 * tREFI).
    max_ref_postpone: float = 9 * 3900.0

    def __post_init__(self) -> None:
        if not math.isclose(self.t_rc, self.t_ras + self.t_rp):
            raise ValueError("t_rc must equal t_ras + t_rp")
        if self.t_refi <= self.t_rfc:
            raise ValueError("t_refi must exceed t_rfc")

    # Cached: the dataclass is frozen, so caching on first read is safe
    # (cached_property writes to __dict__ directly, bypassing the frozen
    # __setattr__).  How many rows each REF sweeps depends on the bank's
    # row count, so the device derives it
    # (``HBM2Stack.rows_refreshed_per_ref``).
    @cached_property
    def refs_per_window(self) -> int:
        """Number of REF commands issued per refresh window."""
        return int(self.t_refw // self.t_refi)

    @property
    def activation_budget(self) -> int:
        """Maximum ACTs between two REF commands.

        This is the ``floor((tREFI - tRFC) / tRC) == 78`` budget the
        Section 7 bypass attack fully utilizes.
        """
        return int((self.t_refi - self.t_rfc) // self.t_rc)

    def act_to_act(self, t_aggr_on: float) -> float:
        """Time consumed by one open-close cycle with on-time ``t_aggr_on``.

        The aggressor row stays open for ``max(t_aggr_on, t_ras)`` and the
        bank then needs ``t_rp`` to precharge before the next ACT.
        """
        return max(t_aggr_on, self.t_ras) + self.t_rp

    def hammer_duration(self, hammer_count: int, t_aggr_on: float,
                        sides: int = 2) -> float:
        """Wall-clock time of a multi-sided hammer with per-side count.

        A double-sided pattern with hammer count ``N`` performs ``2 * N``
        row activations in total (Section 3.1).
        """
        if hammer_count < 0:
            raise ValueError("hammer_count must be non-negative")
        if sides < 1:
            raise ValueError("sides must be at least 1")
        return hammer_count * sides * self.act_to_act(t_aggr_on)

    def hammers_within(self, duration: float, t_aggr_on: float,
                       sides: int = 2) -> int:
        """Largest per-side hammer count whose pattern fits in ``duration``."""
        per_cycle = sides * self.act_to_act(t_aggr_on)
        return int(duration // per_cycle)

    def quantize(self, time_ns: float) -> float:
        """Round a time up to the next interface clock edge."""
        return math.ceil(time_ns / self.t_ck) * self.t_ck

    def scaled(self, **overrides: float) -> "TimingParameters":
        """Copy with selected fields replaced (keeps t_rc consistent)."""
        params = replace(self, **overrides)
        return params


#: Default timings used by every simulated chip.
DEFAULT_TIMINGS = TimingParameters()
