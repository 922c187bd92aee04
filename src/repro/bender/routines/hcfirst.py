"""HC_first / HC_nth search routines (Sections 3.1 and 5).

``search_hc_first`` finds the minimum hammer count inducing the first
bitflip with a geometric ramp followed by a binary search; each probe
re-initializes the pattern window (the device model, like real DRAM,
re-arms cells on write).  ``measure_hc_nth`` extends the search to the
hammer counts at which the 2nd..n-th bitflips appear (Section 5's study),
exploiting that bitflip count is monotone in hammer count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.bender.host import BenderSession
from repro.bender.routines.hammer import double_sided_hammer
from repro.bender.routines.rowinit import initialize_window
from repro.core import metrics
from repro.core.patterns import DataPattern
from repro.dram.geometry import RowAddress


@dataclass(frozen=True)
class HcFirstResult:
    """Outcome of an HC_first search on one row."""

    victim: RowAddress
    pattern: str
    t_on: Optional[float]
    hc_first: Optional[int]
    probes: int

    @property
    def found(self) -> bool:
        """Whether a bitflip was induced within the search budget."""
        return self.hc_first is not None


def _flips_at(session: BenderSession, victim: RowAddress,
              pattern: DataPattern, count: int,
              t_on: Optional[float]) -> int:
    geometry = session.device.geometry
    initialize_window(session, victim, pattern)
    double_sided_hammer(session, victim, count, t_on)
    observed = session.read_physical_row(victim)
    expected = pattern.victim_row(geometry.row_bytes)
    return metrics.count_bitflips(expected, observed)


def search_hc_first(session: BenderSession,
                    victim_physical: RowAddress,
                    pattern: DataPattern,
                    t_on: Optional[float] = None,
                    start: int = 4096,
                    max_hammers: int = 1_500_000,
                    tolerance: float = 0.01) -> HcFirstResult:
    """Find the row's HC_first to within ``tolerance`` (relative).

    Geometric ramp (x2) until the first probe shows a bitflip, then binary
    search between the last clean count and the first flipping count.
    """
    if start < 1:
        raise ValueError("start must be at least 1")
    probes = 0
    low, high = 0, None
    count = start
    while count <= max_hammers:
        probes += 1
        if _flips_at(session, victim_physical, pattern, count, t_on):
            high = count
            break
        low = count
        count *= 2
    if high is None:
        return HcFirstResult(victim_physical, pattern.name, t_on, None,
                             probes)
    while high - low > max(1, int(tolerance * high)):
        mid = (low + high) // 2
        probes += 1
        if _flips_at(session, victim_physical, pattern, mid, t_on):
            high = mid
        else:
            low = mid
    return HcFirstResult(victim_physical, pattern.name, t_on, high, probes)


def search_hc_first_rows(session: BenderSession,
                         victims: Sequence[RowAddress],
                         pattern: DataPattern,
                         t_on: Optional[float] = None,
                         start: int = 4096,
                         max_hammers: int = 1_500_000,
                         tolerance: float = 0.01) -> List[HcFirstResult]:
    """:func:`search_hc_first` on each victim, in order.

    The name stays only because the benchmark's span tracer resolves it
    when it installs; a caller can loop over :func:`search_hc_first`
    just as well.
    """
    return [search_hc_first(session, victim, pattern, t_on, start,
                            max_hammers, tolerance)
            for victim in victims]


@dataclass(frozen=True)
class HcNthResult:
    """Hammer counts inducing the first ``n`` bitflips in one row."""

    victim: RowAddress
    pattern: str
    #: hc_nth[k-1] is the hammer count at which the k-th bitflip appears.
    hc_nth: List[int]
    probes: int

    @property
    def hc_first(self) -> int:
        """Hammer count of the first bitflip."""
        return self.hc_nth[0]

    def normalized(self) -> List[float]:
        """Each HC_nth normalized to HC_first (Fig. 10's y-axis)."""
        first = float(self.hc_first)
        return [value / first for value in self.hc_nth]

    @property
    def additional_to_last(self) -> int:
        """Fig. 11's y-axis: HC_nth[last] - HC_first."""
        return self.hc_nth[-1] - self.hc_first


def measure_hc_nth(session: BenderSession,
                   victim_physical: RowAddress,
                   pattern: DataPattern,
                   n: int = 10,
                   t_on: Optional[float] = None,
                   max_hammers: int = 4_000_000,
                   tolerance: float = 0.01) -> Optional[HcNthResult]:
    """Measure the hammer counts inducing the first ``n`` bitflips.

    Returns ``None`` when even the first bitflip is out of budget.  For
    each k, binary-searches the smallest count with at least ``k`` flips,
    warm-starting from the previous threshold.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    first = search_hc_first(session, victim_physical, pattern, t_on,
                            max_hammers=max_hammers, tolerance=tolerance)
    if not first.found:
        return None
    probes = first.probes
    thresholds = [first.hc_first]
    low = first.hc_first
    for k in range(2, n + 1):
        high = None
        count = max(low, 1)
        while count <= max_hammers:
            probes += 1
            if _flips_at(session, victim_physical, pattern, count,
                         t_on) >= k:
                high = count
                break
            low = count
            count = int(count * 1.3) + 1
        if high is None:
            return None
        while high - low > max(1, int(tolerance * high)):
            mid = (low + high) // 2
            probes += 1
            if _flips_at(session, victim_physical, pattern, mid,
                         t_on) >= k:
                high = mid
            else:
                low = mid
        thresholds.append(high)
        low = high
    return HcNthResult(victim_physical, pattern.name, thresholds, probes)
