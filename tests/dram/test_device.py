"""Tests for the HBM2 device engine."""

import numpy as np
import pytest

from repro.dram.cell_model import CellPopulation
from repro.dram.commands import CommandKind, act, hammer, pre, rd, ref, wait, wr
from repro.dram.device import (HBM2Stack, UniformProfileProvider,
                               classify_victim_pattern)
from repro.dram.geometry import (DEFAULT_SUBARRAY_SIZES, HBM2Geometry,
                                 RowAddress, SubarrayLayout)
from repro.dram.timing import TimingError
from repro.dram.trr import TrrConfig


def make_device(**kwargs) -> HBM2Stack:
    kwargs.setdefault("profile_provider", UniformProfileProvider(
        CellPopulation(f_weak=0.014, mu_weak=5.0)))
    kwargs.setdefault("retention", None)
    return HBM2Stack(**kwargs)


def image(byte: int) -> np.ndarray:
    return np.full(1024, byte, dtype=np.uint8)


VICTIM = RowAddress(0, 0, 0, 5000)


class TestPatternClassification:
    @pytest.mark.parametrize("byte,name", [
        (0x00, "Rowstripe0"), (0xFF, "Rowstripe1"),
        (0x55, "Checkered0"), (0xAA, "Checkered1")])
    def test_canonical(self, byte, name):
        assert classify_victim_pattern(image(byte)) == name

    def test_non_uniform_is_custom(self):
        data = image(0x00)
        data[5] = 1
        assert classify_victim_pattern(data) == "custom"

    def test_unknown_byte_is_custom(self):
        assert classify_victim_pattern(image(0x12)) == "custom"


class TestReadWrite:
    def test_roundtrip(self):
        device = make_device()
        device.write_row(VICTIM, image(0x55))
        assert np.array_equal(device.read_row(VICTIM), image(0x55))

    def test_unwritten_row_reads_zero(self):
        device = make_device()
        assert np.array_equal(device.read_row(VICTIM), image(0x00))

    def test_wrong_size_rejected(self):
        device = make_device()
        with pytest.raises(ValueError):
            device.write_row(VICTIM, np.zeros(100, dtype=np.uint8))

    def test_time_advances(self):
        device = make_device()
        before = device.now_ns
        device.write_row(VICTIM, image(0x55))
        assert device.now_ns > before


class TestHammering:
    def test_hammer_induces_flips_in_neighbors(self):
        device = make_device()
        device.write_row(VICTIM, image(0x55))
        for offset in (-1, 1):
            device.hammer(VICTIM.neighbor(offset), 400_000)
        observed = device.read_row(VICTIM)
        assert not np.array_equal(observed, image(0x55))

    def test_small_hammer_no_flips(self):
        device = make_device()
        device.write_row(VICTIM, image(0x55))
        for offset in (-1, 1):
            device.hammer(VICTIM.neighbor(offset), 100)
        assert np.array_equal(device.read_row(VICTIM), image(0x55))

    def test_flips_monotone_in_count(self):
        flips = []
        for count in (200_000, 400_000, 800_000):
            device = make_device()
            device.write_row(VICTIM, image(0x55))
            for offset in (-1, 1):
                device.hammer(VICTIM.neighbor(offset), count)
            observed = device.read_row(VICTIM)
            diff = np.unpackbits(observed ^ image(0x55)).sum()
            flips.append(int(diff))
        assert flips[0] <= flips[1] <= flips[2]

    def test_rewrite_rearms_cells(self):
        device = make_device()
        device.write_row(VICTIM, image(0x55))
        for offset in (-1, 1):
            device.hammer(VICTIM.neighbor(offset), 400_000)
        device.read_row(VICTIM)
        device.write_row(VICTIM, image(0x55))
        assert np.array_equal(device.read_row(VICTIM), image(0x55))

    def test_accumulation_units(self):
        device = make_device()
        device.hammer(VICTIM.neighbor(1), 1000)
        # One-sided: 0.5 units per activation at baseline.
        assert device.accumulated_units(VICTIM) == pytest.approx(500.0)

    def test_rowpress_amplifies(self):
        device = make_device()
        device.hammer(VICTIM.neighbor(1), 1000, t_on=3.9e3)
        assert device.accumulated_units(VICTIM) == pytest.approx(
            500.0 * 55.09, rel=1e-6)

    def test_disturbance_stops_at_subarray_boundary(self):
        device = make_device()
        edge = RowAddress(0, 0, 0, 831)  # last row of subarray 0
        device.hammer(edge, 1000)
        assert device.accumulated_units(RowAddress(0, 0, 0, 830)) > 0
        assert device.accumulated_units(RowAddress(0, 0, 0, 832)) == 0

    def test_blast_radius_two(self):
        device = make_device()
        device.hammer(VICTIM, 1000)
        near = device.accumulated_units(VICTIM.neighbor(1))
        far = device.accumulated_units(VICTIM.neighbor(2))
        assert far > 0
        assert far < near * 0.05

    def test_flipped_cells_do_not_flip_back(self):
        device = make_device()
        device.write_row(VICTIM, image(0x55))
        for offset in (-1, 1):
            device.hammer(VICTIM.neighbor(offset), 600_000)
        first = device.read_row(VICTIM)
        for offset in (-1, 1):
            device.hammer(VICTIM.neighbor(offset), 600_000)
        second = device.read_row(VICTIM)
        # Bits flipped in the first round stay flipped.
        first_flips = np.unpackbits(first ^ image(0x55)).astype(bool)
        second_flips = np.unpackbits(second ^ image(0x55)).astype(bool)
        assert np.all(second_flips[first_flips])


class TestBankStateMachine:
    def test_act_to_open_bank_rejected(self):
        device = make_device()
        device.execute(act(0, 0, 0, 100))
        with pytest.raises(TimingError):
            device.execute(act(0, 0, 0, 200))

    def test_act_pre_cycle(self):
        device = make_device()
        device.execute(act(0, 0, 0, 100))
        device.execute(pre(0, 0, 0))
        device.execute(act(0, 0, 0, 200))  # now legal

    def test_pre_enforces_tras(self):
        device = make_device()
        device.execute(act(0, 0, 0, 100))
        before = device.now_ns
        device.execute(pre(0, 0, 0))
        assert device.now_ns - before >= device.timings.t_ras

    def test_pre_on_closed_bank_is_noop(self):
        device = make_device()
        device.execute(pre(0, 0, 0))  # must not raise

    def test_act_wait_pre_applies_rowpress(self):
        device = make_device()
        aggressor = VICTIM.neighbor(1)
        device.execute(act(aggressor.channel, aggressor.pseudo_channel,
                           aggressor.bank, aggressor.row))
        device.execute(wait(35.1e3))
        device.execute(pre(aggressor.channel, aggressor.pseudo_channel,
                           aggressor.bank))
        assert device.accumulated_units(VICTIM) == pytest.approx(
            0.5 * 222.57, rel=0.02)

    def test_hammer_requires_closed_bank(self):
        device = make_device()
        device.execute(act(0, 0, 0, 100))
        with pytest.raises(TimingError):
            device.hammer(RowAddress(0, 0, 0, 500), 10)

    def test_rd_different_open_row_rejected(self):
        device = make_device()
        device.execute(act(0, 0, 0, 100))
        with pytest.raises(TimingError):
            device.read_row(RowAddress(0, 0, 0, 200))


class TestRefresh:
    def test_ref_restores_charge(self):
        device = make_device()
        device.hammer(VICTIM.neighbor(1), 1000)
        # Refresh pointer starts at 0; advance until it covers row 5000.
        for __ in range(2501):
            device.refresh(0, 0)
        assert device.accumulated_units(VICTIM) == 0.0

    def test_ref_does_not_unflip(self):
        device = make_device()
        device.write_row(VICTIM, image(0x55))
        for offset in (-1, 1):
            device.hammer(VICTIM.neighbor(offset), 600_000)
        flipped = device.inspect_row(VICTIM)
        for __ in range(2501):
            device.refresh(0, 0)
        assert np.array_equal(device.read_row(VICTIM), flipped)

    # Per-side activations per REF window: low enough that a TRR victim
    # refresh every 17 REFs keeps accumulation below the weakest cell
    # (~24K units for the uniform test population), high enough that 60
    # unprotected windows exceed it.
    _ACTS_PER_WINDOW = 800
    _WINDOWS = 60

    def test_trr_victim_refresh_protects(self):
        """With TRR enabled and no dummies, the victim is saved."""
        device = make_device(trr_config=TrrConfig(enabled=True))
        device.write_row(VICTIM, image(0x55))
        aggressors = [VICTIM.neighbor(-1), VICTIM.neighbor(1)]
        for round_index in range(self._WINDOWS):
            for aggressor in aggressors:
                device.hammer(aggressor, self._ACTS_PER_WINDOW)
            device.refresh(0, 0)
        assert device.stats.trr_victim_refreshes > 0
        assert np.array_equal(device.read_row(VICTIM), image(0x55))

    def test_without_trr_same_pattern_flips(self):
        device = make_device(trr_config=TrrConfig(enabled=False))
        device.write_row(VICTIM, image(0x55))
        aggressors = [VICTIM.neighbor(-1), VICTIM.neighbor(1)]
        for round_index in range(self._WINDOWS):
            for aggressor in aggressors:
                device.hammer(aggressor, self._ACTS_PER_WINDOW)
            device.refresh(0, 0)
        assert not np.array_equal(device.read_row(VICTIM), image(0x55))

    def test_last_rolling_refresh_time(self):
        device = make_device()
        device.wait(1000.0)
        device.refresh(0, 0)
        swept = device.rows_refreshed_per_ref
        assert device.last_rolling_refresh_ns(VICTIM.with_row(0)) == 1000.0
        assert device.last_rolling_refresh_ns(
            VICTIM.with_row(swept - 1)) == 1000.0
        assert device.last_rolling_refresh_ns(VICTIM.with_row(swept)) == 0.0
        rows = device.geometry.rows
        for row in (-1, rows):
            with pytest.raises(ValueError, match="out of range"):
                device.last_rolling_refresh_ns(VICTIM.with_row(row))
        with pytest.raises(ValueError, match="pseudo channel"):
            device.last_rolling_refresh_ns(RowAddress(0, 9, 0, 0))


class TestRollingRefreshGeometry:
    """One tREFW's REFs sweep every row of the bank, each REF taking the
    fewest rows that achieve it."""

    def test_rows_refreshed_per_ref(self):
        assert HBM2Stack().rows_refreshed_per_ref == 2

    @pytest.mark.parametrize("rows, sizes", [
        pytest.param(1024, (512, 512), id="1024-rows"),
        pytest.param(32768, DEFAULT_SUBARRAY_SIZES * 2, id="32768-rows"),
    ])
    @pytest.mark.parametrize("burst", [False, True],
                             ids=["refresh", "refresh_burst"])
    def test_one_window_sweeps_every_row(self, rows, sizes, burst):
        geometry = HBM2Geometry(channels=1, pseudo_channels=1, banks=1,
                                dies=1, rows=rows,
                                subarrays=SubarrayLayout(sizes))
        device = make_device(geometry=geometry)
        refs = device.timings.refs_per_window
        per_ref = device.rows_refreshed_per_ref
        assert refs * (per_ref - 1) < rows <= refs * per_ref
        device.wait(1.0)
        if burst:
            device.refresh_burst(0, 0, refs)
        else:
            for __ in range(refs):
                device.refresh(0, 0)
        swept = [device.last_rolling_refresh_ns(RowAddress(0, 0, 0, row))
                 for row in range(rows)]
        assert min(swept) >= 1.0


class TestRetention:
    def test_retention_flips_appear_after_long_wait(self, chip0):
        device = chip0.make_device()
        # Find a row with a short retention time.
        address = None
        for row in range(3000, 3200):
            candidate = RowAddress(0, 0, 0, row)
            if chip0.retention.row_retention_ns(candidate) < 0.5e9:
                address = candidate
                break
        assert address is not None
        logical = address.with_row(
            chip0.row_mapping().to_logical(address.row))
        device.write_row(logical, image(0xFF))
        device.wait(1.0e9)
        observed = device.read_row(logical)
        assert not np.array_equal(observed, image(0xFF))

    def test_no_retention_failures_within_window(self, chip0):
        device = chip0.make_device()
        device.write_row(VICTIM, image(0xFF))
        device.wait(30.0e6)  # within the 32 ms guarantee
        assert np.array_equal(device.read_row(VICTIM), image(0xFF))


class TestOnDieEcc:
    def _hammered_device(self, ecc: bool) -> HBM2Stack:
        device = make_device()
        device.mode_registers.set_field(4, "ecc_enable", ecc)
        device.write_row(VICTIM, image(0x55))
        for offset in (-1, 1):
            device.hammer(VICTIM.neighbor(offset), 300_000)
        return device

    def test_ecc_masks_single_bit_words(self):
        """With on-die ECC left enabled (the power-up state), words with
        a single flipped bit read back clean — the reason the paper
        disables ECC (Section 3.1)."""
        raw = self._hammered_device(ecc=False)
        masked = self._hammered_device(ecc=True)
        raw_flips = np.unpackbits(raw.read_row(VICTIM)
                                  ^ image(0x55)).sum()
        masked_flips = np.unpackbits(masked.read_row(VICTIM)
                                     ^ image(0x55)).sum()
        assert masked_flips < raw_flips
        assert masked.stats.ecc_corrections > 0

    def test_ecc_cannot_mask_multi_bit_words(self):
        """Words holding 2+ flips pass through uncorrected (the
        Section 8 security argument)."""
        device = self._hammered_device(ecc=True)
        observed = device.read_row(VICTIM)
        flips = np.unpackbits(observed ^ image(0x55))
        words = flips.reshape(-1, 64).sum(axis=1)
        surviving = words[words > 0]
        if surviving.size:
            assert np.all(surviving >= 2)

    def test_disable_ecc_default_matches_paper(self):
        assert not make_device().mode_registers.ecc_enabled

    def test_power_up_state_available(self):
        device = HBM2Stack(disable_ecc=False, retention=None)
        assert device.mode_registers.ecc_enabled

    def test_vectorized_correction_matches_scalar_reference(self):
        """The index-arithmetic ECC path must byte-match a per-word
        scalar corrector on arbitrary flip masks."""
        from repro.dram.device import _RowState

        device = make_device()
        rng = np.random.default_rng(7)
        for density in (0.0005, 0.01, 0.2):
            flipped = rng.random(8192) < density
            state = _RowState(data=image(0x55), already_flipped=flipped)
            data = rng.integers(0, 256, 1024).astype(np.uint8)

            expected = data.copy()
            corrections = 0
            for word in range(128):
                bits = np.flatnonzero(flipped[word * 64:(word + 1) * 64])
                if bits.size == 1:
                    bit = word * 64 + int(bits[0])
                    expected[bit // 8] ^= np.uint8(1 << (7 - bit % 8))
                    corrections += 1

            before = device.stats.ecc_corrections
            observed = device._apply_on_die_ecc(state, data)
            assert np.array_equal(observed, expected)
            assert device.stats.ecc_corrections - before == corrections


class TestTrrRefreshDisturbance:
    def test_trr_victim_refresh_disturbs_its_neighbors(self):
        """A TRR victim refresh internally activates the row, delivering
        distance-1 disturbance to *its* neighbors — the HalfDouble lever
        (Section 8.1)."""
        device = make_device(trr_config=TrrConfig(enabled=True))
        aggressor = RowAddress(0, 0, 0, 5002)
        outer_victim = RowAddress(0, 0, 0, 5000)  # neighbor of 5001
        device.hammer(aggressor, 10)  # sampled by the CAM
        for __ in range(17):
            device.refresh(0, 0)
        # TRR refreshed 5001 and 5003; 5001's refresh disturbs 5000.
        assert device.stats.trr_victim_refreshes >= 2
        units = device.accumulated_units(outer_victim)
        assert units == pytest.approx(0.5 + 10 * 0.5 * 0.015, rel=0.05)


class TestCommandInterface:
    def test_run_program_of_commands(self):
        device = make_device()
        results = device.run([
            wr(0, 0, 0, 10, image(0xAA)),
            rd(0, 0, 0, 10),
            ref(0, 0),
        ])
        assert results[0] is None
        assert np.array_equal(results[1], image(0xAA))

    def test_stats_counters(self):
        device = make_device()
        device.run([
            wr(0, 0, 0, 10, image(0xAA)),
            rd(0, 0, 0, 10),
            hammer(0, 0, 0, 100, 50),
            ref(0, 0),
        ])
        assert device.stats.writes == 1
        assert device.stats.reads == 1
        assert device.stats.refs == 1
        assert device.stats.acts >= 52

    def test_wr_requires_data(self):
        from repro.dram.commands import Command

        device = make_device()
        with pytest.raises(ValueError):
            device.execute(Command(CommandKind.WR, 0, 0, 0, 10))


class TestMapping:
    def test_logical_physical_translation(self, chip0):
        device = chip0.make_device()
        mapping = chip0.row_mapping()
        physical = RowAddress(0, 0, 0, 5000)
        logical = physical.with_row(mapping.to_logical(physical.row))
        device.write_row(logical, image(0x55))
        # Hammering the *physical* neighbors must disturb the victim.
        for offset in (-1, 1):
            neighbor_physical = physical.row + offset
            neighbor_logical = mapping.to_logical(neighbor_physical)
            device.hammer(physical.with_row(neighbor_logical), 700_000)
        observed = device.read_row(logical)
        assert not np.array_equal(observed, image(0x55))
