"""Read-disturbance physics: RowHammer/RowPress amplification and coupling.

The central quantity is the **amplification factor** ``d(t_AggON)``: how much
more disturbance one aggressor activation delivers when the row stays open
for ``t_AggON`` instead of the minimal ``tRAS``.  RowHammer is the
``d == 1`` regime; RowPress is the observation that ``d`` grows by orders of
magnitude with on-time (Section 6).  The curve is a monotone log-log
interpolation through anchors calibrated to the paper:

- ``1x`` at ``tRAS`` (29 ns) by definition,
- ``~55x`` at ``tREFI`` (3.9 us): mean HC_first drops 83689 -> 1519,
- ``222.57x`` at ``9 * tREFI`` (35.1 us): the paper quotes this factor,
- ``>= 1.5e5x`` at 16 ms (half tREFW), where HC_first reaches 1 for every
  tested row (Observation 23, Takeaway 7),
- intermediate small-on-time anchors (58/87/116 ns) set so Fig. 12's BER
  growth at 150K hammers follows the reported 0.08/0.24/0.40/0.73% series.

Disturbance is measured in *baseline hammer units*: one unit equals the
disturbance a victim receives from one full double-sided hammer (one ACT on
each neighbor at minimal on-time).  A single neighbor activation therefore
contributes 0.5 units, scaled by amplification and by a distance factor
(rows at +-2 receive a small fraction; disturbance never crosses subarray
boundaries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

#: (t_AggON ns, amplification) anchor points; must be increasing in both.
DEFAULT_AMPLIFICATION_ANCHORS: Tuple[Tuple[float, float], ...] = (
    (29.0, 1.0),
    (58.0, 1.45),
    (87.0, 1.75),
    (116.0, 2.50),
    (3.9e3, 55.09),
    (35.1e3, 222.57),
    (16.0e6, 1.5e5),
)

#: Relative disturbance received by victims at each physical distance.
DEFAULT_DISTANCE_FACTORS: Dict[int, float] = {1: 1.0, 2: 0.015}

#: Entries :meth:`DisturbanceModel.units_per_activation` memoizes before
#: it starts over (jittered on-times make the key space unbounded).
_UNITS_MEMO_SIZE = 4096


@dataclass(frozen=True)
class DisturbanceModel:
    """RowPress amplification curve plus distance coupling."""

    anchors: Tuple[Tuple[float, float], ...] = DEFAULT_AMPLIFICATION_ANCHORS
    distance_factors: Dict[int, float] = field(
        default_factory=lambda: dict(DEFAULT_DISTANCE_FACTORS))
    #: ``(t_on, distance)`` -> :meth:`units_per_activation`, shared by
    #: every device built on this model (a pure function of the key).
    _units: Dict[Tuple[float, int], float] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        times = [t for t, __ in self.anchors]
        amps = [a for __, a in self.anchors]
        if len(self.anchors) < 2:
            raise ValueError("need at least two amplification anchors")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("anchor times must be strictly increasing")
        if any(b < a for a, b in zip(amps, amps[1:])):
            raise ValueError("anchor amplifications must be non-decreasing")
        if times[0] <= 0 or amps[0] <= 0:
            raise ValueError("anchors must be positive")

    @property
    def min_t_on(self) -> float:
        """Smallest anchored on-time (the tRAS baseline)."""
        return self.anchors[0][0]

    @property
    def blast_radius(self) -> int:
        """Largest distance at which an aggressor disturbs a victim."""
        return max(self.distance_factors)

    def amplification(self, t_on: float) -> float:
        """Disturbance amplification at aggressor on-time ``t_on`` (ns).

        On-times at or below the baseline return 1.0 (a row cannot stay
        open for less than tRAS); on-times beyond the last anchor
        extrapolate along the final log-log segment.
        """
        if t_on <= self.min_t_on:
            return 1.0
        log_times = np.log10([t for t, __ in self.anchors])
        log_amps = np.log10([a for __, a in self.anchors])
        log_t = np.log10(t_on)
        if log_t >= log_times[-1]:
            slope = ((log_amps[-1] - log_amps[-2])
                     / (log_times[-1] - log_times[-2]))
            return float(10.0 ** (log_amps[-1]
                                  + slope * (log_t - log_times[-1])))
        return float(10.0 ** np.interp(log_t, log_times, log_amps))

    def amplification_array(self, t_on: Sequence[float]) -> np.ndarray:
        """Vectorized :meth:`amplification`, element-wise bit-identical.

        The interpolation and extrapolation run through one log-log
        :func:`numpy.interp` call instead of a Python loop.  The final
        ``10 ** x`` step goes through C ``pow`` per element (not numpy's
        SIMD power kernel, which rounds differently on ~5% of inputs by
        1 ulp) so every element equals the scalar method exactly —
        studies may freely mix the two without perturbing report hashes.
        """
        values = np.asarray(t_on, dtype=float)
        flat = values.reshape(-1)
        result = np.ones(flat.shape, dtype=float)
        above = flat > self.min_t_on
        if above.any():
            log_times = np.log10([t for t, __ in self.anchors])
            log_amps = np.log10([a for __, a in self.anchors])
            log_t = np.log10(flat[above])
            log_result = np.interp(log_t, log_times, log_amps)
            beyond = log_t >= log_times[-1]
            if beyond.any():
                slope = ((log_amps[-1] - log_amps[-2])
                         / (log_times[-1] - log_times[-2]))
                log_result[beyond] = (log_amps[-1]
                                      + slope * (log_t[beyond]
                                                 - log_times[-1]))
            result[above] = [10.0 ** value
                             for value in log_result.tolist()]
        return result.reshape(values.shape)

    def distance_factor(self, distance: int) -> float:
        """Coupling at ``abs(row delta)`` = ``distance`` (0 beyond radius)."""
        if distance <= 0:
            raise ValueError("distance must be positive")
        return self.distance_factors.get(distance, 0.0)

    def units_per_activation(self, t_on: float, distance: int = 1) -> float:
        """Baseline hammer units one neighbor ACT delivers to a victim.

        One *double-sided* hammer (one ACT on each side) delivers one unit,
        so a single activation at distance 1 delivers 0.5 units, scaled by
        the on-time amplification.
        """
        key = (t_on, distance)
        units = self._units.get(key)
        if units is None:
            if len(self._units) >= _UNITS_MEMO_SIZE:
                self._units.clear()
            units = 0.5 * self.amplification(t_on) \
                * self.distance_factor(distance)
            self._units[key] = units
        return units

    def effective_hammers(self, hammer_count: float, t_on: float,
                          sides: int = 2, distance: int = 1) -> float:
        """Effective baseline units of a multi-sided hammer pattern.

        ``hammer_count`` is the per-side activation count (the paper's
        convention, Section 3.1).  A double-sided pattern at baseline
        on-time maps to exactly ``hammer_count`` units.
        """
        if hammer_count < 0:
            raise ValueError("hammer_count must be non-negative")
        if sides < 1:
            raise ValueError("sides must be at least 1")
        per_act = self.units_per_activation(t_on, distance)
        return hammer_count * sides * per_act


#: Model shared by all chips (per-chip variation enters via cell thresholds).
DEFAULT_DISTURBANCE = DisturbanceModel()
