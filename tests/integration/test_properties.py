"""Hypothesis property tests on cross-module invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chips.vectorized import population_grid
from repro.core import analytic
from repro.dram.cell_model import CellPopulation, RowDisturbanceProfile
from repro.dram.geometry import DEFAULT_GEOMETRY, RowAddress
from repro.dram.timing import DEFAULT_TIMINGS

_row = st.integers(min_value=0, max_value=16383)
_channel = st.integers(min_value=0, max_value=7)
_bank = st.integers(min_value=0, max_value=15)
_pattern = st.sampled_from(["Rowstripe0", "Rowstripe1", "Checkered0",
                            "Checkered1"])


class TestProfileInvariants:
    @given(_channel, _bank, _row, _pattern)
    @settings(max_examples=40, deadline=None)
    def test_hc_nth_monotone_everywhere(self, chip0_cached, channel, bank,
                                        row, pattern):
        chip = chip0_cached
        profile = chip.profile(RowAddress(channel, 0, bank, row), pattern)
        hc = profile.hc_nth(10)
        assert np.all(np.diff(hc) >= 0)
        assert hc[0] >= 1.0

    @given(_channel, _bank, _row)
    @settings(max_examples=40, deadline=None)
    def test_ber_bounded_by_mixture_mass(self, chip0_cached, channel,
                                         bank, row):
        chip = chip0_cached
        population = chip.cell_population(
            RowAddress(channel, 0, bank, row), "Checkered0")
        ber = population.ber(1.0e15)
        cap = population.f_weak \
            + (1 - population.f_weak) * population.flippable_strong_fraction
        assert 0.0 <= ber <= cap + 1e-12

    @given(_row, st.floats(min_value=29.0, max_value=1.0e6))
    @settings(max_examples=40, deadline=None)
    def test_rowpress_never_increases_hc_first(self, chip0_cached, row,
                                               t_on):
        chip = chip0_cached
        profile = chip.profile(RowAddress(0, 0, 0, row), "Checkered0")
        amplification = chip.disturbance.amplification(t_on)
        assert profile.hc_first(amplification) <= profile.hc_first() + 1e-9


class TestGridInvariants:
    @given(_channel, _bank, _pattern)
    @settings(max_examples=20, deadline=None)
    def test_grid_matches_scalar_on_random_banks(self, chip0_cached,
                                                 channel, bank, pattern):
        chip = chip0_cached
        rows = np.array([17, 900, 8200])
        grid = population_grid(chip, channel, 0, bank, rows, pattern)
        for i, row in enumerate(rows):
            population = chip.cell_population(
                RowAddress(channel, 0, bank, int(row)), pattern)
            assert population.f_weak == pytest.approx(grid.f_weak[i],
                                                      abs=1e-14)
            assert population.mu_weak == pytest.approx(grid.mu_weak[i],
                                                       abs=1e-12)


class TestTimingInvariants:
    @given(st.integers(min_value=1, max_value=500_000),
           st.floats(min_value=29.0, max_value=1.0e5))
    @settings(max_examples=60)
    def test_hammers_within_is_floor_inverse(self, count, t_on):
        duration = DEFAULT_TIMINGS.hammer_duration(count, t_on)
        recovered = DEFAULT_TIMINGS.hammers_within(duration, t_on)
        assert recovered in (count, count - 1) or recovered == count

    @given(st.floats(min_value=0.1, max_value=1.0e6))
    @settings(max_examples=60)
    def test_quantize_rounds_up_within_one_clock(self, time_ns):
        # Idempotence only holds up to float division noise; quantizing
        # twice may add at most one extra clock tick.
        once = DEFAULT_TIMINGS.quantize(time_ns)
        twice = DEFAULT_TIMINGS.quantize(once)
        assert once >= time_ns - 1e-9
        assert 0.0 <= twice - once <= DEFAULT_TIMINGS.t_ck + 1e-9


class TestDeviceInvariants:
    @given(st.integers(min_value=1, max_value=16382),
           st.integers(min_value=1, max_value=3000))
    @settings(max_examples=25, deadline=None)
    def test_accumulation_additivity(self, plain_device_factory, row,
                                     count):
        """Two hammer bursts accumulate exactly like one combined one."""
        device_a = plain_device_factory()
        device_b = plain_device_factory()
        aggressor = RowAddress(0, 0, 0, row)
        victim = aggressor.neighbor(1)
        if (victim.row, 1) not in DEFAULT_GEOMETRY.subarrays.neighbors(
                aggressor.row, 1):
            return
        device_a.hammer(aggressor, count)
        device_a.hammer(aggressor, count)
        device_b.hammer(aggressor, 2 * count)
        assert device_a.accumulated_units(victim) == pytest.approx(
            device_b.accumulated_units(victim))

    @given(st.integers(min_value=0, max_value=255))
    @settings(max_examples=30, deadline=None)
    def test_write_read_roundtrip_arbitrary_byte(self,
                                                 plain_device_factory,
                                                 byte):
        device = plain_device_factory()
        address = RowAddress(0, 0, 0, 100)
        image = np.full(1024, byte, dtype=np.uint8)
        device.write_row(address, image)
        assert np.array_equal(device.read_row(address), image)


class TestAnalyticInvariants:
    @given(st.integers(min_value=1, max_value=16384),
           st.integers(min_value=1, max_value=16384))
    @settings(max_examples=50)
    def test_stratified_rows_valid(self, total, count):
        rows = analytic.stratified_rows(total, count)
        assert rows.size <= min(total, count)
        assert rows.size >= 1
        assert np.all(np.diff(rows) > 0)
        assert rows[0] >= 0 and rows[-1] < total


@pytest.fixture(scope="module")
def chip0_cached():
    from repro.chips.profiles import make_chip

    return make_chip(0)


@pytest.fixture(scope="module")
def plain_device_factory():
    from repro.dram.device import HBM2Stack, UniformProfileProvider

    def factory():
        return HBM2Stack(
            profile_provider=UniformProfileProvider(
                CellPopulation(f_weak=0.014, mu_weak=5.0)),
            retention=None)

    return factory
