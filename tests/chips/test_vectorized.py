"""Tests for the vectorized population grids (scalar/vector identity)."""

import numpy as np
import pytest

from repro.chips.profiles import CHIP_SPECS, ChipProfile
from repro.chips.vectorized import population_batch, population_grid
from repro.dram.geometry import RowAddress

ROWS = np.array([0, 1, 100, 831, 832, 4096, 8191, 8192, 12000, 16383])


class TestScalarVectorIdentity:
    @pytest.mark.parametrize("pattern", ["Checkered0", "Rowstripe1"])
    def test_population_parameters_bit_identical(self, chip0, pattern):
        grid = population_grid(chip0, 7, 1, 3, ROWS, pattern)
        for i, row in enumerate(ROWS):
            address = RowAddress(7, 1, 3, int(row))
            population = chip0.cell_population(address, pattern)
            assert population.f_weak == pytest.approx(
                grid.f_weak[i], abs=1e-14)
            assert population.mu_weak == pytest.approx(
                grid.mu_weak[i], abs=1e-12)
            assert population.sigma_weak == pytest.approx(
                grid.sigma_weak[i], abs=1e-14)
            assert population.mu_strong == pytest.approx(
                grid.mu_strong[i], abs=1e-12)
            assert population.flippable_strong_fraction == pytest.approx(
                grid.flippable[i], abs=1e-14)

    def test_profile_seeds_identical(self, chip0):
        grid = population_grid(chip0, 2, 0, 5, ROWS, "Checkered0")
        for i, row in enumerate(ROWS):
            profile = chip0.profile(RowAddress(2, 0, 5, int(row)),
                                    "Checkered0")
            assert profile.seed == int(grid.profile_seeds[i])

    def test_hc_first_identical(self, chip0):
        grid = population_grid(chip0, 2, 0, 5, ROWS, "Checkered0")
        vector = grid.hc_first()
        for i, row in enumerate(ROWS):
            profile = chip0.profile(RowAddress(2, 0, 5, int(row)),
                                    "Checkered0")
            assert vector[i] == pytest.approx(profile.hc_first(),
                                              rel=1e-9)

    def test_hc_nth_identical(self, chip0):
        grid = population_grid(chip0, 2, 0, 5, ROWS[:4], "Checkered0")
        matrix = grid.hc_nth(10)
        for i, row in enumerate(ROWS[:4]):
            profile = chip0.profile(RowAddress(2, 0, 5, int(row)),
                                    "Checkered0")
            assert np.allclose(matrix[i], profile.hc_nth(10))

    def test_ber_matches_population(self, chip0):
        grid = population_grid(chip0, 2, 0, 5, ROWS, "Checkered0")
        vector = grid.ber(512_000)
        for i, row in enumerate(ROWS):
            population = chip0.cell_population(
                RowAddress(2, 0, 5, int(row)), "Checkered0")
            assert vector[i] == pytest.approx(population.ber(512_000),
                                              rel=1e-9)


class TestBatchBitIdentity:
    """population_batch must equal per-address cell_population *exactly*
    (not approximately): the vectorized calibration and the floor
    tables rely on it."""

    @staticmethod
    def assert_fields_identical(chip, batch, addresses, pattern):
        populations = [chip.cell_population(address, pattern)
                       for address in addresses]
        row_bits = chip.geometry.row_bits
        fields = {
            "f_weak": (batch.f_weak, [p.f_weak for p in populations]),
            "mu_weak": (batch.mu_weak, [p.mu_weak for p in populations]),
            "sigma_weak": (batch.sigma_weak,
                           [p.sigma_weak for p in populations]),
            "mu_strong": (batch.mu_strong,
                          [p.mu_strong for p in populations]),
            "flippable": (batch.flippable,
                          [p.flippable_strong_fraction
                           for p in populations]),
            "n_weak": (batch.n_weak,
                       [p.weak_cell_count(row_bits) for p in populations]),
        }
        for name, (vector, scalar) in fields.items():
            mismatches = np.flatnonzero(vector != np.array(scalar))
            assert mismatches.size == 0, (name, mismatches[:10])

    def test_parameters_bit_identical(self, chip0):
        rows = np.arange(chip0.geometry.rows)
        batch = population_batch(chip0, 3, 1, 7, rows, "Checkered0")
        self.assert_fields_identical(
            chip0, batch, [RowAddress(3, 1, 7, int(row)) for row in rows],
            "Checkered0")

    def test_parameters_bit_identical_across_banks(self, chip0):
        channels = np.array([0, 3, 7, 2, 5, 1])
        pcs = np.array([0, 1, 1, 0, 1, 0])
        banks = np.array([0, 5, 15, 9, 3, 12])
        rows = np.array([0, 831, 832, 8191, 12000, 16383])
        batch = population_batch(chip0, channels, pcs, banks, rows,
                                 "Checkered0")
        self.assert_fields_identical(
            chip0, batch,
            [RowAddress(*map(int, coords))
             for coords in zip(channels, pcs, banks, rows)],
            "Checkered0")

    def test_ber_bit_identical(self, chip0):
        channels = np.array([1, 4, 6])
        batch = population_batch(chip0, channels, 0, 7, 5000,
                                 "Rowstripe1")
        for i, channel in enumerate(channels):
            population = chip0.cell_population(
                RowAddress(int(channel), 0, 7, 5000), "Rowstripe1")
            assert population.ber(512_000.0) == batch.ber(512_000.0)[i]

    def test_broadcasting(self, chip0):
        batch = population_batch(chip0, 0, 0, 0, ROWS, "Checkered0")
        assert batch.f_weak.shape == ROWS.shape

    def test_out_of_range_rejected(self, chip0):
        with pytest.raises(ValueError):
            population_batch(chip0, np.array([8]), 0, 0, 0, "Checkered0")


class TestRefineEquivalence:
    """The vectorized calibration must land on the scalar loop's fixed
    point bit-for-bit."""

    def test_vectorized_refine_matches_scalar(self):
        for spec in CHIP_SPECS:
            vectorized = ChipProfile(spec)
            scalar = ChipProfile(spec)
            scalar.base_f_weak = scalar._calibrate_f_weak()
            scalar._refine_f_weak(vectorized=False)
            assert vectorized.base_f_weak == scalar.base_f_weak, spec.label


class TestGridBehaviour:
    def test_len(self, chip0):
        grid = population_grid(chip0, 0, 0, 0, ROWS, "Checkered0")
        assert len(grid) == ROWS.size

    def test_ber_monotone_in_hammers(self, chip0):
        grid = population_grid(chip0, 0, 0, 0, ROWS, "Checkered0")
        low = grid.ber(1e5)
        high = grid.ber(1e6)
        assert np.all(high >= low)

    def test_sampled_ber_close_to_expected(self, chip0, rng):
        rows = np.arange(0, 16384, 64)
        grid = population_grid(chip0, 0, 0, 0, rows, "Checkered0")
        expected = grid.ber(512_000).mean()
        sampled = grid.sampled_ber(512_000, rng).mean()
        assert sampled == pytest.approx(expected, rel=0.1)

    def test_hc_first_amplification(self, chip0):
        grid = population_grid(chip0, 0, 0, 0, ROWS, "Checkered0")
        base = grid.hc_first()
        amplified = grid.hc_first(amplification=55.09)
        assert np.allclose(amplified, np.maximum(1.0, base / 55.09))

    def test_hc_nth_monotone_per_row(self, chip0):
        grid = population_grid(chip0, 0, 0, 0, ROWS, "Checkered0")
        matrix = grid.hc_nth(10)
        assert np.all(np.diff(matrix, axis=1) >= 0)

    def test_out_of_range_rows_rejected(self, chip0):
        with pytest.raises(ValueError):
            population_grid(chip0, 0, 0, 0, np.array([16384]),
                            "Checkered0")

    def test_bad_bank_rejected(self, chip0):
        with pytest.raises(ValueError):
            population_grid(chip0, 0, 0, 16, ROWS, "Checkered0")
