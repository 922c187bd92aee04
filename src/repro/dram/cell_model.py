"""Statistical cell fault model for read disturbance.

The model replaces the physical DRAM cells of the paper's six HBM2 chips.
Each DRAM cell has a *hammer threshold*: the accumulated effective
disturbance (expressed in units of baseline double-sided hammer counts) at
which the cell flips.  Thresholds follow a **two-population mixture**:

- a *weak* population (a small per-row fraction ``f_weak``) with log-normal
  thresholds around 10**mu_weak.  These cells produce the paper's RowHammer
  regime: HC_first in the tens of thousands and BER around one percent at
  256K hammers.  The log-spread ``sigma_weak`` controls the HC_nth /
  HC_first ratios of Section 5 (mean HC_tenth about 1.76x HC_first).
- a *strong* population (everything else) with much higher thresholds that
  only become reachable when RowPress amplification multiplies effective
  disturbance (Section 6), driving BER toward the ~50% polarity cap.

A single log-normal population cannot satisfy the paper's joint constraints;
the ablation benchmark ``benchmarks/test_ablation_mixture.py`` demonstrates
this quantitatively.

Randomness is deterministic: every row derives its cells from a Philox
counter keyed by the row coordinates, so re-testing a row reproduces the
same cells without storing the 4 GiB array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.special import ndtr, ndtri

from repro.dram.seeding import uniforms_from_seeds

#: Default log10 spread of the weak population.  Together with the
#: row-level sigma couplings in :mod:`repro.chips.profiles`, chosen so the
#: 10th order statistic of the weak-cell thresholds sits ~1.6-1.8x above
#: the minimum for typical weak-population sizes (Section 5, Obsv. 18).
DEFAULT_SIGMA_WEAK = 0.25

#: Default strong-population parameters (log10 of baseline hammer units);
#: calibrated so Fig. 12's BER reaches ~31% at t_AggON = tREFI and ~50%
#: (the polarity cap) at 9*tREFI with 150K hammers.
DEFAULT_MU_STRONG = 6.85
DEFAULT_SIGMA_STRONG = 0.388

#: Weak cells cluster spatially within 64-bit words (Section 8: most words
#: with at least one bitflip have more than one, defeating SECDED).  Word
#: weights are Gamma(alpha)-distributed; smaller alpha = stronger
#: clustering.  Calibrated against Fig. 15's word histogram.
WORD_BITS = 64
WORD_CLUSTER_ALPHA = 0.18


def order_stats_from_draws(n: int, draws: np.ndarray) -> np.ndarray:
    """The ``k`` smallest order statistics of ``n`` iid U(0,1).

    Uses the sequential conditional-spacings method on ``k = len(draws)``
    raw uniforms: ``U_(1)`` is ``1 - (1 - V)**(1/n)`` and, given ``U_(j)``,
    the next order statistic is
    ``U_(j) + (1 - U_(j)) * (1 - (1 - V)**(1/(n - j)))``.  This avoids
    materializing all ``n`` draws (n is the weak-cell count of a row) and,
    crucially, makes the first ``k1 < k2`` outputs identical across calls
    that share the same draw stream.

    ``draws`` may be 1-D (one row) or 2-D of shape ``(rows, k)`` for a
    vectorized batch; the order statistics are computed along the last
    axis.
    """
    draws = np.asarray(draws, dtype=float)
    k = draws.shape[-1]
    n = np.asarray(n)
    if np.any(n < 1):
        raise ValueError("n must be at least 1")
    if k < 1 or np.any(k > n):
        raise ValueError("number of draws must be in [1, n]")
    order_stats = np.empty_like(draws)
    current = np.zeros(draws.shape[:-1], dtype=float)
    for j in range(k):
        remaining = n - j
        step = 1.0 - (1.0 - draws[..., j]) ** (1.0 / remaining)
        current = current + (1.0 - current) * step
        order_stats[..., j] = current
    return order_stats


def disturbance_floors(mu_weak: np.ndarray, sigma_weak: np.ndarray,
                       n_weak: np.ndarray, mu_strong: np.ndarray,
                       seeds: np.ndarray,
                       sigma_strong: float = DEFAULT_SIGMA_STRONG
                       ) -> np.ndarray:
    """Per-row lower bound on every cell threshold (baseline units).

    The floor is ``min(HC_first, strong floor)``: the weak population's
    minimum from the first draw of each row's order-statistics stream
    (``uniform_for(seed, 0x0D, 0)``, see
    :meth:`RowDisturbanceProfile.order_stat_draws`), and the strong
    population truncated at -3 sigma.  This is the one floor
    implementation; :meth:`RowDisturbanceProfile.disturbance_floor` is
    its one-element call, so a floor is bit-identical whether it was
    derived alone or in a block.  Two steps run per element because the
    single-row formula rounds them with C ``pow``, where numpy's array
    power differs by 1 ulp on a few percent of inputs; the threshold
    exponent was always an array power and stays one.
    """
    draws = uniforms_from_seeds(seeds, (0x0D, 0)).tolist()
    first = np.array([1.0 - (1.0 - draw) ** (1.0 / n)
                      for draw, n in zip(draws, np.asarray(n_weak).tolist())])
    weak = np.maximum(1.0, 10.0 ** (mu_weak + sigma_weak * ndtri(first)))
    strong = np.array([10.0 ** (mu - 3.0 * sigma_strong)
                       for mu in np.asarray(mu_strong).tolist()])
    return np.minimum(weak, strong)


def sample_smallest_uniforms(n: int, k: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Sample the ``k`` smallest order statistics of ``n`` iid U(0,1)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 1 <= k <= n:
        raise ValueError("k must be in [1, n]")
    return order_stats_from_draws(n, rng.random(k))


@dataclass(frozen=True)
class CellPopulation:
    """Mixture parameters for one row under one data pattern.

    Thresholds are expressed in *baseline hammer units*: the per-side
    activation count of a standard double-sided pattern at minimal on-time
    (t_AggON = tRAS) that delivers the same disturbance.  Effective hammers
    for arbitrary tests are ``hammer_count * amplification * coupling``.
    """

    #: Fraction of the row's cells in the weak population (sets the
    #: RowHammer-regime BER plateau, ~0.5..3%).
    f_weak: float
    #: log10 median threshold of the weak population.
    mu_weak: float
    #: log10 spread of the weak population.
    sigma_weak: float = DEFAULT_SIGMA_WEAK
    #: log10 median threshold of the strong population.
    mu_strong: float = DEFAULT_MU_STRONG
    #: log10 spread of the strong population.
    sigma_strong: float = DEFAULT_SIGMA_STRONG
    #: Fraction of strong cells storing their vulnerable (charged) polarity
    #: under the active data pattern; caps extreme-t_AggON BER near 50%
    #: (Observation 22).
    flippable_strong_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.f_weak < 1.0:
            raise ValueError("f_weak must be in (0, 1)")
        if self.sigma_weak <= 0 or self.sigma_strong <= 0:
            raise ValueError("sigmas must be positive")
        if not 0.0 <= self.flippable_strong_fraction <= 1.0:
            raise ValueError("flippable_strong_fraction must be in [0, 1]")

    def weak_cell_count(self, row_bits: int) -> int:
        """Number of weak cells in a row of ``row_bits`` bits (at least 1)."""
        return max(1, int(round(self.f_weak * row_bits)))

    def ber(self, effective_hammers: float) -> float:
        """Expected bit error rate after ``effective_hammers`` disturbance.

        Closed form: the mixture CDF of cell thresholds evaluated at the
        accumulated disturbance.
        """
        if effective_hammers <= 0:
            return 0.0
        log_h = math.log10(effective_hammers)
        weak = self.f_weak * ndtr(
            (log_h - self.mu_weak) / self.sigma_weak)
        strong = ((1.0 - self.f_weak) * self.flippable_strong_fraction
                  * ndtr((log_h - self.mu_strong) / self.sigma_strong))
        return float(weak + strong)

    def ber_array(self, effective_hammers: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`ber` over an array of disturbances."""
        hammers = np.asarray(effective_hammers, dtype=float)
        out = np.zeros_like(hammers)
        positive = hammers > 0
        log_h = np.log10(hammers[positive])
        weak = self.f_weak * ndtr(
            (log_h - self.mu_weak) / self.sigma_weak)
        strong = ((1.0 - self.f_weak) * self.flippable_strong_fraction
                  * ndtr((log_h - self.mu_strong) / self.sigma_strong))
        out[positive] = weak + strong
        return out

    def hammers_for_ber(self, target_ber: float) -> float:
        """Invert :meth:`ber` for the weak-population regime.

        Only valid for targets below the weak-population plateau
        (``target_ber < f_weak``); raises :class:`ValueError` otherwise.
        """
        if not 0.0 < target_ber < self.f_weak:
            raise ValueError(
                "target BER must be in (0, f_weak) for the weak regime")
        z = ndtri(target_ber / self.f_weak)
        return 10.0 ** (self.mu_weak + self.sigma_weak * z)

    def sample_smallest_thresholds(self, row_bits: int, k: int,
                                   rng: np.random.Generator) -> np.ndarray:
        """Sample the ``k`` smallest cell thresholds of a row.

        These are the hammer counts (in baseline units) at which the 1st,
        2nd, ..., k-th bitflip appears — the quantity Section 5 studies.
        """
        n = self.weak_cell_count(row_bits)
        if k > n:
            raise ValueError(
                f"row has only {n} weak cells; cannot sample {k} smallest")
        uniforms = sample_smallest_uniforms(n, k, rng)
        return 10.0 ** (self.mu_weak + self.sigma_weak * ndtri(uniforms))

    def smallest_thresholds_from_draws(self, row_bits: int,
                                       draws: np.ndarray) -> np.ndarray:
        """Smallest cell thresholds from externally supplied uniforms.

        The deterministic draw stream (see
        :meth:`RowDisturbanceProfile.order_stat_draws`) guarantees the
        analytic HC_first/HC_nth values and the exact device engine's
        materialized thresholds agree bit-for-bit.
        """
        n = self.weak_cell_count(row_bits)
        uniforms = order_stats_from_draws(n, draws)
        return 10.0 ** (self.mu_weak + self.sigma_weak * ndtri(uniforms))

    def materialize_thresholds(self, row_bits: int,
                               rng: np.random.Generator,
                               weak_draws: Optional[np.ndarray] = None
                               ) -> np.ndarray:
        """Materialize per-cell thresholds for an exact simulation.

        Returns an array of ``row_bits`` thresholds in baseline hammer
        units.  Strong cells that store their non-vulnerable polarity are
        assigned an infinite threshold.

        ``weak_draws`` optionally supplies the raw uniforms feeding the
        weak-population order statistics; when it comes from the same
        deterministic stream as :meth:`RowDisturbanceProfile.hc_nth`, the
        exact device engine and the analytic HC paths agree bit-for-bit.
        """
        n_weak = self.weak_cell_count(row_bits)
        if weak_draws is None:
            weak_draws = rng.random(n_weak)
        if weak_draws.shape != (n_weak,):
            raise ValueError(f"expected {n_weak} weak draws")
        weak_values = self.smallest_thresholds_from_draws(
            row_bits, weak_draws)
        thresholds = np.full(row_bits, np.inf)
        strong_mask = np.ones(row_bits, dtype=bool)
        weak_indices = sample_clustered_positions(row_bits, n_weak, rng)
        strong_mask[weak_indices] = False
        thresholds[weak_indices] = weak_values
        strong_indices = np.flatnonzero(strong_mask)
        flippable = rng.random(strong_indices.size) \
            < self.flippable_strong_fraction
        chosen = strong_indices[flippable]
        # Truncate the strong population at -3 sigma: its extreme lower
        # tail would otherwise occasionally undercut the weak minimum and
        # break the HC_first consistency between the exact and analytic
        # engines (the closed-form BER ignores the same 0.13% tail mass).
        strong_z = np.maximum(rng.normal(size=chosen.size), -3.0)
        thresholds[chosen] = 10.0 ** (self.mu_strong
                                      + self.sigma_strong * strong_z)
        return thresholds

    def with_coupling(self, coupling: float) -> "CellPopulation":
        """Fold a disturbance-coupling factor into the thresholds.

        A coupling of ``c`` divides every threshold by ``c`` (equivalently
        shifts both log-medians down by ``log10(c)``), so callers can keep
        passing raw hammer counts.
        """
        if coupling <= 0:
            raise ValueError("coupling must be positive")
        shift = math.log10(coupling)
        return replace(self, mu_weak=self.mu_weak - shift,
                       mu_strong=self.mu_strong - shift)


@dataclass(frozen=True)
class RowDisturbanceProfile:
    """Bound pair of a row's cell population and its deterministic RNG seed.

    Produced by :class:`repro.chips.profiles.ChipProfile` for a
    ``(row address, data pattern)`` pair; consumed by the device engine and
    the analytic experiment paths.
    """

    population: CellPopulation
    seed: int
    row_bits: int = 8192

    def rng(self, namespace: int = 0x3A7) -> np.random.Generator:
        """Deterministic generator for this row/pattern combination."""
        from repro.dram.seeding import generator_for

        return generator_for(self.seed, namespace)

    def order_stat_draws(self, k: int) -> np.ndarray:
        """Deterministic raw uniforms feeding the weak order statistics.

        Draw ``j`` is a pure function of ``(seed, j)``, so requesting
        ``k1 < k2`` draws yields identical prefixes — the property that
        keeps HC_first, HC_nth, and the materialized thresholds mutually
        consistent (and makes all three vectorizable across rows).
        """
        from repro.dram.seeding import uniform_array_for

        return uniform_array_for((self.seed, 0x0D), np.arange(k))

    def expected_ber(self, effective_hammers: float) -> float:
        """Closed-form expected BER (see :meth:`CellPopulation.ber`)."""
        return self.population.ber(effective_hammers)

    def sampled_ber(self, effective_hammers: float,
                    rng: Optional[np.random.Generator] = None) -> float:
        """Binomially sampled BER, adding finite-row sampling noise."""
        generator = rng if rng is not None else self.rng(0x5B)
        p = self.population.ber(effective_hammers)
        flips = generator.binomial(self.row_bits, p)
        return flips / self.row_bits

    def hc_first(self, amplification: float = 1.0) -> float:
        """The row's HC_first under disturbance ``amplification``.

        Deterministic for a fixed profile: the row's minimum cell
        threshold divided by the amplification, floored at one activation
        (RowPress at 16 ms reaches HC_first = 1; Observation 23).
        """
        return float(self.hc_nth(1, amplification)[0])

    def disturbance_floor(self) -> float:
        """Lower bound on every cell threshold of the row.

        The analytic weak minimum equals :meth:`materialize`'s weakest
        weak cell bit-for-bit (shared order-statistics stream), and the
        strong population is truncated at -3 sigma, so the combined
        bound is exact: accumulated disturbance below it flips nothing.
        One-element call of :func:`disturbance_floors`.
        """
        population = self.population
        return float(disturbance_floors(
            np.array([population.mu_weak]),
            np.array([population.sigma_weak]),
            [population.weak_cell_count(self.row_bits)],
            [population.mu_strong], [self.seed],
            population.sigma_strong)[0])

    def hc_nth(self, n: int, amplification: float = 1.0) -> np.ndarray:
        """Hammer counts at which the first ``n`` bitflips appear."""
        thresholds = self.population.smallest_thresholds_from_draws(
            self.row_bits, self.order_stat_draws(n))
        return np.maximum(1.0, thresholds / amplification)

    def materialize(self) -> np.ndarray:
        """Per-cell thresholds for the exact device engine.

        Bit-consistent with :meth:`hc_nth`: the weak-population values
        come from the same deterministic draw stream.
        """
        n_weak = self.population.weak_cell_count(self.row_bits)
        return self.population.materialize_thresholds(
            self.row_bits, self.rng(), self.order_stat_draws(n_weak))


def sample_clustered_positions(row_bits: int, count: int,
                               rng: np.random.Generator,
                               word_bits: int = WORD_BITS,
                               alpha: float = WORD_CLUSTER_ALPHA
                               ) -> np.ndarray:
    """Sample ``count`` distinct bit positions with word-level clustering.

    Words receive Gamma(``alpha``)-distributed weights and cells land in
    words proportionally (without replacement within a word), reproducing
    the paper's observation that RowHammer bitflips concentrate in a few
    64-bit words (Fig. 15) rather than spreading uniformly.
    """
    if count > row_bits:
        raise ValueError("cannot place more cells than bits")
    words = row_bits // word_bits
    weights = rng.gamma(alpha, size=words)
    weights_sum = weights.sum()
    if weights_sum <= 0:
        weights = np.full(words, 1.0 / words)
    else:
        weights = weights / weights_sum
    positions: list = []
    counts = rng.multinomial(count, weights)
    # A word holds at most word_bits cells; spill any excess uniformly.
    excess = 0
    for word, word_count in enumerate(counts):
        take = min(word_count, word_bits)
        excess += word_count - take
        if take:
            offsets = rng.choice(word_bits, size=take, replace=False)
            positions.extend(word * word_bits + offsets)
    if excess:
        remaining = np.setdiff1d(np.arange(row_bits),
                                 np.asarray(positions, dtype=int))
        positions.extend(rng.choice(remaining, size=excess, replace=False))
    return np.asarray(positions, dtype=np.int64)


def solve_mu_weak(target_hc_first: float, f_weak: float, row_bits: int,
                  sigma_weak: float = DEFAULT_SIGMA_WEAK) -> float:
    """Calibrate ``mu_weak`` so the median HC_first lands on a target.

    Used by the chip profiles: given the paper's per-chip minimum/typical
    HC_first and BER plateau, solve for the weak-population median.
    """
    if target_hc_first <= 0:
        raise ValueError("target_hc_first must be positive")
    n = max(1, int(round(f_weak * row_bits)))
    median_min_u = 1.0 - 0.5 ** (1.0 / n)
    z = ndtri(median_min_u)
    return math.log10(target_hc_first) - sigma_weak * z


def expected_hc_first(mu_weak: float, f_weak: float, row_bits: int,
                      sigma_weak: float = DEFAULT_SIGMA_WEAK) -> float:
    """Median HC_first implied by a parameter set (inverse of the solver)."""
    n = max(1, int(round(f_weak * row_bits)))
    median_min_u = 1.0 - 0.5 ** (1.0 / n)
    return 10.0 ** (mu_weak + sigma_weak * ndtri(median_min_u))
