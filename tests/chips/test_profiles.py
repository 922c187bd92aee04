"""Tests for the calibrated chip profiles."""

import os

import numpy as np
import pytest

from repro.chips.profiles import (CHIP_SPECS, ChipProfile, all_chips,
                                  chip_labels, make_chip)
from repro.dram.geometry import RowAddress


class TestTable3:
    def test_six_chips(self):
        assert len(CHIP_SPECS) == 6

    def test_chip0_on_bittware(self):
        assert chip_labels()["Chip 0"] == "Bittware XUPVVH"

    def test_chips_1_to_5_on_alveo(self):
        labels = chip_labels()
        for index in range(1, 6):
            assert labels[f"Chip {index}"] == "AMD Xilinx Alveo U50"

    def test_only_chip0_has_trr(self):
        assert CHIP_SPECS[0].has_undocumented_trr
        assert not any(spec.has_undocumented_trr
                       for spec in CHIP_SPECS[1:])

    def test_only_chip0_temperature_controlled(self):
        assert CHIP_SPECS[0].temperature_controlled
        assert CHIP_SPECS[0].nominal_temperature_c == 82.0
        assert not any(spec.temperature_controlled
                       for spec in CHIP_SPECS[1:])

    def test_make_chip_cached(self):
        assert make_chip(0) is make_chip(0)

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            make_chip(6)


class TestCalibration:
    def test_base_f_weak_reasonable(self, chips):
        for chip in chips:
            assert 0.002 < chip.base_f_weak < 0.06

    def test_chip5_least_vulnerable_by_f_weak(self, chips):
        """Chip 5 has the smallest weak-cell fraction (lowest mean BER)."""
        assert chips[5].base_f_weak == min(c.base_f_weak for c in chips)
        assert chips[0].base_f_weak > chips[5].base_f_weak * 1.4

    def test_mean_ber_hits_target(self, chip0):
        """The Monte-Carlo refinement lands the chip mean on spec."""
        from repro.chips.vectorized import population_grid

        rng = np.random.default_rng(0)
        bers = []
        for channel in range(8):
            rows = rng.integers(0, 16384, 60)
            bank = int(rng.integers(0, 16))
            grid = population_grid(chip0, channel, 0, bank,
                                   np.sort(rows), "Checkered0")
            bers.append(grid.ber(512_000))
        measured = float(np.concatenate(bers).mean())
        assert measured == pytest.approx(chip0.spec.mean_ber_target,
                                         rel=0.15)

    def test_calibration_writes_no_files(self, tmp_path, monkeypatch):
        """Calibration runs in memory: nothing lands under the home
        directory (where every XDG base directory falls back once unset),
        and a second construction lands on the same value."""
        monkeypatch.setenv("HOME", str(tmp_path))
        for name in [name for name in os.environ if name.startswith("XDG_")]:
            monkeypatch.delenv(name)
        first = ChipProfile(CHIP_SPECS[1])
        assert list(tmp_path.iterdir()) == []
        assert ChipProfile(CHIP_SPECS[1]).base_f_weak == first.base_f_weak


class TestSpatialFactors:
    def test_channel_factors_mean_one(self, chip0):
        factors = [chip0.channel_ber_factor(ch) for ch in range(8)]
        assert np.mean(factors) == pytest.approx(1.0, rel=0.05)

    def test_chip0_ch7_over_ch3_near_paper(self, chip0):
        """Obsv. 8: CH7 has ~1.99x the mean BER of CH3 in Chip 0.  The
        raw factor ratio is larger because the per-row BER cap compresses
        the worst channel's realized mean (the fig06 experiment lands the
        measured ratio near 1.9)."""
        ratio = chip0.channel_ber_factor(7) / chip0.channel_ber_factor(3)
        assert 1.9 < ratio < 3.2

    def test_die_pairs_share_factors(self, chip0):
        """Paired channels differ only by small intra-pair jitter, far
        less than the up-to-2x spread across dies."""
        for a, b in ((0, 7), (1, 6), (2, 5), (3, 4)):
            ratio = chip0.channel_ber_factor(a) / chip0.channel_ber_factor(b)
            assert 0.75 < ratio < 1.33

    def test_channel_hc_anticorrelates_with_ber(self, chip0):
        """Obsv. 12: vulnerable channels have smaller HC_first."""
        bers = [chip0.channel_ber_factor(ch) for ch in range(8)]
        hcs = [chip0.channel_hc_factor(ch) for ch in range(8)]
        correlation = np.corrcoef(bers, hcs)[0, 1]
        assert correlation < -0.8

    def test_resilient_subarrays(self, chip0):
        layout = chip0.geometry.subarrays
        for subarray in (layout.middle_subarray, layout.last_subarray):
            ber, hc = chip0.subarray_factors(subarray)
            assert ber == pytest.approx(0.30)
            assert hc == pytest.approx(1.30)

    def test_normal_subarrays_near_one(self, chip0):
        layout = chip0.geometry.subarrays
        resilient = {layout.middle_subarray, layout.last_subarray}
        for subarray in range(layout.count):
            if subarray in resilient:
                continue
            ber, __ = chip0.subarray_factors(subarray)
            assert 0.6 < ber < 1.6

    def test_row_position_peaks_mid_subarray(self, chip0):
        """Obsv. 14: BER higher mid-subarray, lower at the edges."""
        mid = chip0.row_position_ber_factor(416, 832)
        edge = chip0.row_position_ber_factor(0, 832)
        assert mid > edge
        assert mid == pytest.approx(1.25, rel=0.01)
        assert edge < 0.8

    def test_row_position_rejects_bad_offset(self, chip0):
        with pytest.raises(ValueError):
            chip0.row_position_ber_factor(832, 832)

    def test_bank_groups_bimodal(self, chip0):
        groups = [chip0.bank_group(ch, pc, bank)
                  for ch, pc, bank in chip0.geometry.iter_banks()]
        counts = np.bincount(groups, minlength=2)
        assert counts[0] > 60 and counts[1] > 60

    def test_bank_factors_follow_group(self, chip0):
        ber, sigma = chip0.bank_factors(0, 0, 0)
        assert (ber, sigma) in ((1.18, 0.14), (0.78, 0.34))

    def test_pattern_factors_checkered_strongest(self, chip0):
        checkered, __ = chip0.pattern_factors("Checkered0", 0)
        rowstripe, __ = chip0.pattern_factors("Rowstripe0", 0)
        assert checkered > rowstripe

    def test_pattern_polarity_differentiates_rowstripes(self, chip0):
        """Obsv. 13: Rowstripe0 and Rowstripe1 differ per channel."""
        ratios = []
        for channel in range(8):
            __, hc0 = chip0.pattern_factors("Rowstripe0", channel)
            __, hc1 = chip0.pattern_factors("Rowstripe1", channel)
            ratios.append(hc0 / hc1)
        assert max(ratios) > 1.05 or min(ratios) < 0.95


class TestCellPopulations:
    def test_deterministic(self, chip0, sample_address):
        a = chip0.cell_population(sample_address, "Checkered0")
        b = chip0.cell_population(sample_address, "Checkered0")
        assert a == b

    def test_pattern_changes_population(self, chip0, sample_address):
        a = chip0.cell_population(sample_address, "Checkered0")
        b = chip0.cell_population(sample_address, "Rowstripe0")
        assert a != b

    def test_rows_differ(self, chip0):
        a = chip0.cell_population(RowAddress(0, 0, 0, 100), "Checkered0")
        b = chip0.cell_population(RowAddress(0, 0, 0, 101), "Checkered0")
        assert a != b

    def test_f_weak_within_bounds(self, chip0):
        rng = np.random.default_rng(1)
        cap = 2.4 * chip0.base_f_weak
        for __ in range(50):
            address = RowAddress(int(rng.integers(0, 8)),
                                 int(rng.integers(0, 2)),
                                 int(rng.integers(0, 16)),
                                 int(rng.integers(0, 16384)))
            population = chip0.cell_population(address, "Checkered0")
            assert 0.002 <= population.f_weak <= cap + 1e-12

    def test_profile_seed_unique_per_row(self, chip0):
        seeds = {chip0.profile(RowAddress(0, 0, 0, row), "Checkered0").seed
                 for row in range(100)}
        assert len(seeds) == 100


class TestDeviceConstruction:
    def test_make_device_installs_provider(self, chip0):
        device = chip0.make_device()
        assert device.profile_provider is chip0

    def test_make_device_trr_only_chip0(self, chip0, chip5):
        assert chip0.make_device().trr_config.enabled
        assert not chip5.make_device().trr_config.enabled

    def test_make_device_mapping_family(self, chip0):
        device = chip0.make_device()
        assert device.row_mapping.name == chip0.spec.mapping_family

    def test_make_device_without_mapping(self, chip0):
        device = chip0.make_device(with_mapping=False)
        assert device.row_mapping.name == "IdentityMapping"
