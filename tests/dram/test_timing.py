"""Tests for HBM2 timing parameters."""

import math

import pytest

from repro.dram.timing import DEFAULT_TIMINGS, TimingParameters


class TestPaperDerivedValues:
    def test_interface_clock_is_600mhz(self):
        assert DEFAULT_TIMINGS.t_ck == pytest.approx(1.0e3 / 600.0)

    def test_minimum_on_time_is_tras_29ns(self):
        assert DEFAULT_TIMINGS.t_ras == 29.0

    def test_trc_is_tras_plus_trp(self):
        t = DEFAULT_TIMINGS
        assert t.t_rc == t.t_ras + t.t_rp

    def test_trefi_is_3_9_us(self):
        assert DEFAULT_TIMINGS.t_refi == 3900.0

    def test_refresh_window_is_32_ms(self):
        assert DEFAULT_TIMINGS.t_refw == 32.0e6

    def test_max_ref_postpone_is_9_trefi(self):
        assert DEFAULT_TIMINGS.max_ref_postpone == pytest.approx(35.1e3)

    def test_activation_budget_is_78(self):
        """Section 7: floor((tREFI - tRFC) / tRC) == 78."""
        assert DEFAULT_TIMINGS.activation_budget == 78

    def test_refs_per_window_is_8205(self):
        """Section 7: the bypass pattern repeats 8205 times per tREFW."""
        assert DEFAULT_TIMINGS.refs_per_window == 8205


class TestDurations:
    def test_act_to_act_at_baseline(self):
        t = DEFAULT_TIMINGS
        assert t.act_to_act(t.t_ras) == t.t_rc

    def test_act_to_act_clamps_below_tras(self):
        t = DEFAULT_TIMINGS
        assert t.act_to_act(1.0) == t.t_rc

    def test_act_to_act_with_large_on_time(self):
        t = DEFAULT_TIMINGS
        assert t.act_to_act(3900.0) == 3900.0 + t.t_rp

    def test_hammer_duration_double_sided(self):
        t = DEFAULT_TIMINGS
        assert t.hammer_duration(1000, t.t_ras) == pytest.approx(
            1000 * 2 * t.t_rc)

    def test_hammer_duration_single_sided(self):
        t = DEFAULT_TIMINGS
        assert t.hammer_duration(1000, t.t_ras, sides=1) == pytest.approx(
            1000 * t.t_rc)

    def test_paper_example_1_3ms_for_14531_hammers(self):
        """Obsv. 4: inducing the 14531-hammer bitflip takes ~1.3 ms."""
        duration_ms = DEFAULT_TIMINGS.hammer_duration(
            14531, DEFAULT_TIMINGS.t_ras) / 1.0e6
        assert duration_ms == pytest.approx(1.3, rel=0.01)

    def test_hammers_within_inverts_duration(self):
        t = DEFAULT_TIMINGS
        for count in (1, 77, 14531, 355_000):
            duration = t.hammer_duration(count, t.t_ras)
            assert t.hammers_within(duration, t.t_ras) == count

    def test_hammers_within_refresh_window_at_baseline(self):
        t = DEFAULT_TIMINGS
        budget = t.hammers_within(t.t_refw, t.t_ras)
        assert 350_000 < budget < 360_000

    def test_negative_hammer_count_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_TIMINGS.hammer_duration(-1, 29.0)

    def test_zero_sides_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_TIMINGS.hammer_duration(10, 29.0, sides=0)


class TestQuantization:
    def test_quantize_rounds_up_to_clock_edge(self):
        t = DEFAULT_TIMINGS
        quantized = t.quantize(1.0)
        assert quantized == pytest.approx(t.t_ck)

    def test_quantize_exact_multiple_unchanged(self):
        t = DEFAULT_TIMINGS
        assert t.quantize(10 * t.t_ck) == pytest.approx(10 * t.t_ck)


class TestValidation:
    def test_inconsistent_trc_rejected(self):
        with pytest.raises(ValueError):
            TimingParameters(t_rc=100.0)

    def test_trefi_must_exceed_trfc(self):
        with pytest.raises(ValueError):
            TimingParameters(t_refi=100.0, t_rfc=200.0)

    def test_scaled_copy(self):
        params = DEFAULT_TIMINGS.scaled(t_refw=64.0e6)
        assert params.t_refw == 64.0e6
        assert params.t_refi == DEFAULT_TIMINGS.t_refi
