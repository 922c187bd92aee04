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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bender.host import BenderSession
from repro.bender.routines.hammer import double_sided_hammer
from repro.bender.routines.rowinit import initialize_window
from repro.core import metrics
from repro.core.patterns import DataPattern
from repro.dram.batch import RowBatchProfile
from repro.dram.geometry import RowAddress
from repro.faults.injector import FaultyStack


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


def _batched_search(profile: RowBatchProfile, n: int,
                    t_on: Optional[float], start: int, max_hammers: int,
                    tolerance: float
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fault-free vectorized ramp + bisection over all ``n`` rows.

    Visits the exact per-row probe sequence of :func:`search_hc_first`,
    evaluated one batched :meth:`RowBatchProfile.hammer` per level.
    Returns ``(found, high, probes)``.
    """
    low = np.zeros(n, dtype=np.int64)
    high = np.zeros(n, dtype=np.int64)
    found = np.zeros(n, dtype=bool)
    probes = np.zeros(n, dtype=np.int64)
    count = np.full(n, start, dtype=np.int64)
    ramping = np.ones(n, dtype=bool)
    while True:
        active = np.flatnonzero(ramping & (count <= max_hammers))
        if active.size == 0:
            break
        flips = profile.hammer(count[active], t_on, subset=active).bitflips
        probes[active] += 1
        hit = flips > 0
        hit_rows = active[hit]
        high[hit_rows] = count[hit_rows]
        found[hit_rows] = True
        ramping[hit_rows] = False
        miss_rows = active[~hit]
        low[miss_rows] = count[miss_rows]
        count[miss_rows] *= 2
    while True:
        # Same stop rule as the scalar search: int() truncation included.
        slack = np.maximum(1, (tolerance * high).astype(np.int64))
        active = np.flatnonzero(found & (high - low > slack))
        if active.size == 0:
            break
        mid = (low[active] + high[active]) // 2
        flips = profile.hammer(mid, t_on, subset=active).bitflips
        probes[active] += 1
        hit = flips > 0
        high[active[hit]] = mid[hit]
        low[active[~hit]] = mid[~hit]
    return found, high, probes


def search_hc_first_rows(session: BenderSession,
                         victims: Sequence[RowAddress],
                         pattern: DataPattern,
                         t_on: Optional[float] = None,
                         start: int = 4096,
                         max_hammers: int = 1_500_000,
                         tolerance: float = 0.01) -> List[HcFirstResult]:
    """HC_first search over many rows, bisecting all simultaneously.

    Per-row results are identical to calling :func:`search_hc_first` on
    each victim — the ramp and bisection visit the same per-row probe
    sequence, evaluated one batched :meth:`RowBatchProfile.hammer` per
    level instead of one command sequence per probe.

    Runs the scalar loop when the session cannot batch (``HBMSIM_BATCH=0``
    or an unsupported device subclass) and under a device-fault plan:
    there each probe issues its commands only after the previous probe's
    verdict, so the command counters a fault draws at are known only as
    the search runs, and the per-row search is the one way to fire the
    plan's faults where the scalar run fires them.
    """
    victims = list(victims)
    if start < 1:
        raise ValueError("start must be at least 1")
    if not victims:
        return []
    if not session.batching_active() \
            or isinstance(session.device, FaultyStack):
        return [search_hc_first(session, victim, pattern, t_on, start,
                                max_hammers, tolerance)
                for victim in victims]
    profile = session.profile_rows(victims, pattern)
    found, high, probes = _batched_search(
        profile, len(victims), t_on, start, max_hammers, tolerance)
    return [HcFirstResult(victim, pattern.name, t_on,
                          int(high[index]) if found[index] else None,
                          int(probes[index]))
            for index, victim in enumerate(victims)]


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
