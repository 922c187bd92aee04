"""PARA: Probabilistic Adjacent Row Activation (Kim et al., ISCA 2014).

Stateless: with probability ``p`` per activation, refresh one neighbor
of the activated row.  No counters, no SRAM — protection is statistical:
an aggressor activated N times leaves a victim unrefreshed with
probability ``(1 - p/2)^N``, which vanishes long before a RowHammer-scale
N when ``p`` is chosen against the chip's minimum HC_first.

``RowPressAwarePara`` additionally scales the sampling probability by the
RowPress amplification of the observed on-time (Takeaway 7's defense
implication): a single 35.1 us activation disturbs like ~223 ordinary
ones and is sampled accordingly.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.defenses.base import MitigationController
from repro.dram.disturbance import DEFAULT_DISTURBANCE, DisturbanceModel
from repro.dram.geometry import RowAddress
from repro.dram.row_mapping import RowMapping


def para_probability_for(hc_first_min: float,
                         failure_probability: float = 1.0e-9) -> float:
    """Choose p so an HC_first-strength attack fails w.h.p.

    Solves ``(1 - p/2)^N <= failure_probability`` for N = hc_first_min.
    """
    if hc_first_min <= 0:
        raise ValueError("hc_first_min must be positive")
    if not 0.0 < failure_probability < 1.0:
        raise ValueError("failure_probability must be in (0, 1)")
    return min(1.0, 2.0 * (1.0 - failure_probability
                           ** (1.0 / hc_first_min)))


class Para(MitigationController):
    """Classic PARA with a deterministic (seeded) sampler."""

    def __init__(self, probability: float = 0.001, rows: int = 16384,
                 believed_mapping: Optional[RowMapping] = None,
                 seed: int = 0x9A7A,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(rows, believed_mapping)
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        self.probability = probability
        # An injected generator lets campaigns share one seeded stream;
        # the default remains the fixed per-controller seed.
        self._rng = rng if rng is not None else np.random.default_rng(seed)

    def _samples(self, count: int, probability: float) -> int:
        if count <= 0:
            return 0
        # Fused hammers batch the per-ACT Bernoulli draws binomially.
        return int(self._rng.binomial(count, min(1.0, probability)))

    def observe(self, address: RowAddress, count: int,
                t_on: Optional[float], now_ns: float) -> List[int]:
        samples = self._samples(count, self.probability)
        if samples == 0:
            return []
        neighbors = self.victims_of(address.row)
        if not neighbors:
            return []
        picks = self._rng.integers(0, len(neighbors), size=samples)
        return [neighbors[int(pick)] for pick in picks]

class RowPressAwarePara(Para):
    """PARA whose sampling probability scales with the on-time.

    Plain PARA undersamples RowPress: a 35.1 us activation delivers
    ~223x the disturbance but is sampled once.  Scaling ``p`` by the
    amplification restores the designed failure probability (capped at
    1, i.e. always refresh, for extreme on-times).
    """

    def __init__(self, probability: float = 0.001, rows: int = 16384,
                 believed_mapping: Optional[RowMapping] = None,
                 disturbance: DisturbanceModel = DEFAULT_DISTURBANCE,
                 seed: int = 0x9A7B,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(probability, rows, believed_mapping, seed, rng)
        self.disturbance = disturbance

    def observe(self, address: RowAddress, count: int,
                t_on: Optional[float], now_ns: float) -> List[int]:
        amplification = 1.0
        if t_on is not None:
            amplification = self.disturbance.amplification(t_on)
        samples = self._samples(count, self.probability * amplification)
        if samples == 0:
            return []
        neighbors = self.victims_of(address.row)
        if not neighbors:
            return []
        picks = self._rng.integers(0, len(neighbors), size=samples)
        return [neighbors[int(pick)] for pick in picks]
