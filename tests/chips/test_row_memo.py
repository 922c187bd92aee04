"""The per-chip row memos, asserted as call counts.

A :class:`ChipProfile` derives each materialized row's cell population
once per ``(channel, pc, bank, physical row, pattern)``, and the
disturbance floors of a whole subarray once per ``(channel, pc, bank,
subarray, pattern)``; both are shared with every device built from the
chip.  The counts below make a silent memo miss (or a key collision)
fail, and every floor is checked against an unmemoized derivation.
"""

import dataclasses

import numpy as np
import pytest

from repro.chips import profiles
from repro.chips.profiles import CHIP_SPECS, ChipProfile
from repro.defenses import (Para, defended_session, pick_vulnerable_victim,
                            rowpress_burst)
from repro.dram.device import HBM2Stack
from repro.dram.geometry import RowAddress
from repro.dram.retention import (GUARANTEED_RETENTION_NS,
                                  RETENTION_FLOOR_NS, RetentionModel)
from repro.workloads.overhead import measure_benign_overhead
from repro.workloads.traces import benign_trace

ROW = RowAddress(1, 0, 3, 4321)


def counting_chip(index, monkeypatch):
    """A fresh chip (empty memos) logging every ``cell_population`` key."""
    chip = ChipProfile(CHIP_SPECS[index])
    keys = []
    derive = chip.cell_population

    def cell_population(address, pattern):
        keys.append((address.channel, address.pseudo_channel,
                     address.bank, address.row, pattern))
        return derive(address, pattern)

    monkeypatch.setattr(chip, "cell_population", cell_population)
    return chip, keys


def counting_fills(monkeypatch):
    """Log the block size of every floor-table fill (one kernel call
    each; the single-row profile calls the kernel from its own module)."""
    fills = []
    derive = profiles.disturbance_floors

    def disturbance_floors(mu_weak, *args):
        fills.append(len(mu_weak))
        return derive(mu_weak, *args)

    monkeypatch.setattr(profiles, "disturbance_floors", disturbance_floors)
    return fills


def unmemoized_floor(index, address, pattern):
    return ChipProfile(CHIP_SPECS[index]).profile(
        address, pattern).disturbance_floor()


def test_two_chips_never_share_an_entry(monkeypatch):
    chip_a, keys_a = counting_chip(0, monkeypatch)
    chip_b, keys_b = counting_chip(1, monkeypatch)
    fills = counting_fills(monkeypatch)
    floor_a = chip_a.disturbance_floor(ROW, "Checkered0")
    floor_b = chip_b.disturbance_floor(ROW, "Checkered0")
    assert floor_a != floor_b
    assert floor_a == unmemoized_floor(0, ROW, "Checkered0")
    assert floor_b == unmemoized_floor(1, ROW, "Checkered0")
    assert keys_a == keys_b == []
    assert len(fills) == 2
    assert len(chip_a._floor_tables) == len(chip_b._floor_tables) == 1


def test_two_patterns_of_one_row_never_share_an_entry(monkeypatch):
    chip, keys = counting_chip(0, monkeypatch)
    fills = counting_fills(monkeypatch)
    floors = {pattern: chip.disturbance_floor(ROW, pattern)
              for pattern in ("Checkered0", "Rowstripe0")}
    assert floors["Checkered0"] != floors["Rowstripe0"]
    for pattern, floor in floors.items():
        assert floor == unmemoized_floor(0, ROW, pattern)
        assert chip.disturbance_floor(ROW, pattern) == floor
    assert keys == []
    assert len(fills) == len(chip._floor_tables) == 2


def test_one_fill_serves_the_whole_subarray(monkeypatch):
    chip, keys = counting_chip(0, monkeypatch)
    fills = counting_fills(monkeypatch)
    rows = chip.geometry.subarrays.rows_of(
        chip.geometry.subarrays.subarray_of(ROW.row))
    for row in (rows[0], ROW.row, rows[-1]):
        address = ROW.with_row(row)
        assert chip.disturbance_floor(address, "Checkered0") \
            == unmemoized_floor(0, address, "Checkered0")
    assert keys == []
    assert fills == [len(rows)]
    chip.disturbance_floor(ROW.with_row(rows[-1] + 1), "Checkered0")
    assert len(fills) == 2


def test_second_device_reuses_the_first_devices_rows(monkeypatch):
    chip, keys = counting_chip(0, monkeypatch)
    fills = counting_fills(monkeypatch)
    victim = pick_vulnerable_victim(chip)
    outcomes = []
    for __ in range(2):
        calls_before, fills_before = len(keys), len(fills)
        session = defended_session(chip, None)
        flips = rowpress_burst(session, victim)
        outcomes.append((flips, dataclasses.asdict(session.device.stats),
                         len(keys) - calls_before,
                         len(fills) - fills_before))
    ((flips_a, stats_a, calls_a, fills_a),
     (flips_b, stats_b, calls_b, fills_b)) = outcomes
    assert flips_a > 0 and calls_a > 0 and fills_a > 0
    assert (flips_b, stats_b) == (flips_a, stats_a)
    assert calls_b == fills_b == 0


def test_ext_defenses_derives_each_key_once(monkeypatch):
    from repro.experiments import ext_defense_matrix

    chip, keys = counting_chip(0, monkeypatch)
    fills = counting_fills(monkeypatch)
    monkeypatch.setattr(ext_defense_matrix, "make_chip", lambda index: chip)
    ext_defense_matrix.run(scale=0.01)
    assert keys and fills
    assert len(keys) == len(set(keys)) == len(chip._populations)
    assert len(fills) == len(chip._floor_tables)


def test_benign_replay_fills_each_subarray_once(monkeypatch):
    """A benign trace touches thousands of rows and flips none, so no
    row is materialized and each touched (subarray, pattern) is one
    block fill."""
    chip, keys = counting_chip(0, monkeypatch)
    fills = counting_fills(monkeypatch)
    report = measure_benign_overhead(chip, Para, "PARA",
                                     benign_trace(total_activations=10_000))
    assert report.corrupted_rows == 0
    assert keys == []
    assert 0 < len(fills) == len(chip._floor_tables)
    assert {key[:3] for key in chip._floor_tables} == {(0, 0, 0)}
    for key, floors in chip._floor_tables.items():
        channel, pseudo_channel, bank, subarray, pattern = key
        rows = chip.geometry.subarrays.rows_of(subarray)
        assert len(floors) == len(rows)
        address = RowAddress(channel, pseudo_channel, bank, rows[7])
        assert floors[7] == unmemoized_floor(0, address, pattern)


def counting_retention(monkeypatch):
    """Log the address of every ``RetentionModel.row_retention_ns`` call."""
    calls = []
    derive = RetentionModel.row_retention_ns

    def row_retention_ns(self, address):
        calls.append(address)
        return derive(self, address)

    monkeypatch.setattr(RetentionModel, "row_retention_ns",
                        row_retention_ns)
    return calls


def test_short_benign_replay_draws_no_retention_floor(monkeypatch):
    calls = counting_retention(monkeypatch)
    chip = ChipProfile(CHIP_SPECS[0])
    report = measure_benign_overhead(chip, Para, "PARA",
                                     benign_trace(total_activations=20_000))
    assert 0 < report.elapsed_ns < GUARANTEED_RETENTION_NS
    assert report.corrupted_rows == 0
    assert calls == []


@pytest.mark.parametrize("at_bound", [True, False])
def test_row_at_the_retention_bound_still_fails(monkeypatch, at_bound):
    """Every row's floor is RETENTION_FLOOR_NS at least, so commits below
    it skip the per-row draw; at the bound the draw (and the flips) stay."""
    # A median far below the floor pins this row's retention to it.
    model = RetentionModel(median_ns=1.0e6)
    assert model.row_retention_ns(ROW) == RETENTION_FLOOR_NS
    calls = counting_retention(monkeypatch)
    device = HBM2Stack(retention=model)
    device.write_row(ROW, np.zeros(device.geometry.row_bytes,
                                   dtype=np.uint8))
    device.now_ns = RETENTION_FLOOR_NS if at_bound \
        else float(np.nextafter(RETENTION_FLOOR_NS, 0.0))
    flipped = np.unpackbits(device.inspect_row(ROW)).sum()
    if at_bound:
        assert calls == [ROW]
        assert flipped == model.failure_count(ROW, RETENTION_FLOOR_NS) > 0
    else:
        assert calls == []
        assert flipped == 0
