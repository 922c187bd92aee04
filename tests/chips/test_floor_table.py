"""The subarray floor table against the single-row floor formula.

:meth:`ChipProfile.disturbance_floor` derives a whole subarray's floors
in one population batch and one :func:`disturbance_floors` call.  Every
entry must equal the formula the single-row profile has always used,
spelled out below with its original rounding: the first order statistic
on numpy scalars (C ``pow``), the threshold exponent on a one-element
array, and the strong floor in Python floats.
"""

import numpy as np
import pytest
from scipy.special import ndtri

from repro.chips.profiles import CHIP_SPECS, ChipProfile
from repro.chips.vectorized import population_batch
from repro.dram.cell_model import (CellPopulation, disturbance_floors,
                                   order_stats_from_draws)
from repro.dram.geometry import RowAddress
from repro.dram.seeding import uniform_array_for

PATTERNS = ("Rowstripe0", "Rowstripe1", "Checkered0", "Checkered1",
            "custom")


def scalar_floor(population: CellPopulation, seed: int,
                 row_bits: int) -> float:
    """The single-row floor as written before the block kernel."""
    n = population.weak_cell_count(row_bits)
    uniforms = order_stats_from_draws(
        n, uniform_array_for((seed, 0x0D), np.arange(1)))
    hc_first = float(np.maximum(1.0, 10.0 ** (
        population.mu_weak + population.sigma_weak * ndtri(uniforms)))[0])
    strong_floor = 10.0 ** (population.mu_strong
                            - 3.0 * population.sigma_strong)
    return min(hc_first, strong_floor)


def chip_scalar_floor(chip: ChipProfile, address: RowAddress,
                      pattern: str) -> float:
    """Fully scalar reference: ``cell_population`` plus the formula."""
    profile = chip.profile(address, pattern)
    return scalar_floor(profile.population, profile.seed,
                        chip.geometry.row_bits)


def table_floors(chip, channel, pseudo_channel, bank, rows, pattern):
    return np.array([chip.disturbance_floor(
        RowAddress(channel, pseudo_channel, bank, int(row)), pattern)
        for row in rows])


@pytest.mark.parametrize("pattern", PATTERNS)
def test_every_row_of_a_bank(pattern):
    """Chip 0, bank (3, 1, 7): all 16384 rows.  This bank has rows whose
    strong floor undercuts HC_first under three of the patterns."""
    chip = ChipProfile(CHIP_SPECS[0])
    rows = np.arange(chip.geometry.rows)
    # Per-row parameters from the scalar-faithful batch (equal to
    # cell_population field by field: see test_vectorized.py).
    batch = population_batch(chip, 3, 1, 7, rows, pattern)
    seeds = batch.profile_seeds.tolist()
    expected = np.array([
        scalar_floor(CellPopulation(
            f_weak=float(batch.f_weak[i]), mu_weak=float(batch.mu_weak[i]),
            sigma_weak=float(batch.sigma_weak[i]),
            mu_strong=float(batch.mu_strong[i])), seeds[i],
            chip.geometry.row_bits)
        for i in range(rows.size)])
    got = table_floors(chip, 3, 1, 7, rows, pattern)
    mismatches = np.flatnonzero(got != expected)
    assert mismatches.size == 0, mismatches[:10]


@pytest.mark.parametrize("chip_index, channel, pseudo_channel, bank",
                         [(0, 0, 0, 0), (4, 0, 0, 0)])
def test_sampled_rows_of_other_banks(chip_index, channel, pseudo_channel,
                                     bank):
    chip = ChipProfile(CHIP_SPECS[chip_index])
    reference = ChipProfile(CHIP_SPECS[chip_index])
    rows = np.random.default_rng(chip_index).choice(
        chip.geometry.rows, 160, replace=False)
    for pattern in PATTERNS:
        expected = np.array([chip_scalar_floor(
            reference, RowAddress(channel, pseudo_channel, bank, int(row)),
            pattern) for row in rows])
        got = table_floors(chip, channel, pseudo_channel, bank, rows,
                           pattern)
        mismatches = np.flatnonzero(got != expected)
        assert mismatches.size == 0, (pattern, rows[mismatches[:10]])


def test_single_row_profile_is_the_kernel(chip0):
    for row in range(0, chip0.geometry.rows, 997):
        address = RowAddress(2, 0, 5, row)
        profile = chip0.profile(address, "Checkered1")
        assert profile.disturbance_floor() == chip_scalar_floor(
            chip0, address, "Checkered1")


def test_kernel_where_the_strong_floor_wins():
    """Random parameters spanning both regimes: on a good share of the
    rows the strong floor (a Python-float power) is the minimum."""
    rng = np.random.default_rng(3)
    populations = [CellPopulation(
        f_weak=float(f_weak), mu_weak=float(mu_weak),
        sigma_weak=float(sigma_weak), mu_strong=float(mu_strong))
        for f_weak, mu_weak, sigma_weak, mu_strong in zip(
            rng.uniform(0.002, 0.05, 4096), rng.uniform(5.0, 7.5, 4096),
            rng.uniform(0.1, 0.3, 4096), rng.normal(6.85, 0.05, 4096))]
    seeds = rng.integers(0, 2**63, len(populations), dtype=np.uint64)
    expected = np.array([scalar_floor(population, int(seed), 8192)
                         for population, seed in zip(populations, seeds)])

    def field(name):
        return np.array([getattr(p, name) for p in populations])

    got = disturbance_floors(
        field("mu_weak"), field("sigma_weak"),
        [p.weak_cell_count(8192) for p in populations],
        field("mu_strong"), seeds)
    strong = np.array([10.0 ** (p.mu_strong - 3.0 * p.sigma_strong)
                       for p in populations])
    assert np.count_nonzero(got == strong) > len(populations) // 4
    assert np.array_equal(got, expected)
