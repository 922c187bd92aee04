"""Tests for the analytic measurement engine."""

import numpy as np
import pytest

from repro.core import analytic, metrics
from repro.dram.geometry import RowAddress


class TestEffectiveHammers:
    def test_baseline_identity(self, chip0):
        assert analytic.effective_hammers(chip0, 1000) == \
            pytest.approx(1000.0)

    def test_rowpress_amplifies(self, chip0):
        assert analytic.effective_hammers(chip0, 1000, t_on=35.1e3) == \
            pytest.approx(222_570.0, rel=1e-6)

    def test_amplification_none_is_one(self, chip0):
        assert analytic.amplification(chip0, None) == 1.0


def one_bank(chip, channel, pseudo_channel, bank, rows,
             pattern="Checkered0"):
    """Noise-free BER at the BER test count and HC_first of one bank."""
    batch = analytic.combo_population(
        chip, [(channel, pseudo_channel, bank)], rows, pattern)
    eff = analytic.effective_hammers(chip, metrics.BER_TEST_HAMMERS)
    return batch.ber(eff), batch.hc_first(analytic.amplification(chip,
                                                                  None))


class TestMeasure:
    """One-bank analytic measurement through :func:`combo_population`."""

    def test_ber_and_hc(self, chip0):
        rows = np.arange(1000, 1100)
        ber, hc = one_bank(chip0, 0, 0, 0, rows)
        assert ber.shape == rows.shape
        assert hc.shape == rows.shape
        assert np.all(ber > 0)
        assert np.all(hc > 1000)

    def test_device_agreement(self, chip0, session):
        """Analytic BER equals the device-measured BER within binomial
        noise, and HC_first agrees within search tolerance."""
        from repro.bender.routines import measure_row_ber, search_hc_first
        from repro.core.patterns import CHECKERED0

        victim = RowAddress(1, 0, 2, 7000)
        ber, hc = one_bank(chip0, 1, 0, 2, np.array([7000]))
        device_ber = measure_row_ber(session, victim, CHECKERED0,
                                     hammer_count=metrics.BER_TEST_HAMMERS
                                     ).ber
        assert device_ber == pytest.approx(float(ber[0]), abs=0.008)
        device_hc = search_hc_first(session, victim, CHECKERED0).hc_first
        assert device_hc == pytest.approx(float(hc[0]), rel=0.02)


class TestWcdp:
    def test_wcdp_is_minimum(self, chip0):
        rows = np.arange(2000, 2050)
        hc = analytic.wcdp_hc_first(chip0, 0, 0, 0, rows)
        stacked = np.stack([hc[name] for name in
                            ("Rowstripe0", "Rowstripe1", "Checkered0",
                             "Checkered1")])
        assert np.allclose(hc["WCDP"], stacked.min(axis=0))

    def test_wcdp_ber_uses_worst_pattern(self, chip0):
        rows = np.arange(2000, 2020)
        bers = analytic.wcdp_ber(chip0, 0, 0, 0, rows, sampled=False)
        hc = analytic.wcdp_hc_first(chip0, 0, 0, 0, rows)
        names = ("Rowstripe0", "Rowstripe1", "Checkered0", "Checkered1")
        for i in range(rows.size):
            worst = min(names, key=lambda name: hc[name][i])
            assert bers["WCDP"][i] == bers[worst][i]


class TestRowSelection:
    def test_stratified_rows_cover_range(self):
        rows = analytic.stratified_rows(16384, 100)
        assert rows[0] == 0
        assert rows[-1] == 16383
        assert rows.size == 100

    def test_stratified_full_population(self):
        rows = analytic.stratified_rows(100, 1000)
        assert np.array_equal(rows, np.arange(100))

    def test_segment_rows(self):
        assert np.array_equal(analytic.segment_rows(16384, "first", 3),
                              np.array([0, 1, 2]))
        last = analytic.segment_rows(16384, "last", 3)
        assert np.array_equal(last, np.array([16381, 16382, 16383]))
        middle = analytic.segment_rows(16384, "middle", 4)
        assert 8192 in middle

    def test_unknown_segment_rejected(self):
        with pytest.raises(ValueError):
            analytic.segment_rows(16384, "bogus", 3)
