"""``HBM2Stack.refresh_burst`` vs ``count`` sequential ``refresh()``.

The burst is a drop-in replacement on the hot REF catch-up paths, so the
bar is full-state bit-identity: clocks, stats, rolling-refresh pointer
and ref-time books, TRR engine state, and every touched row's physics
(data, accumulator, restore clock, latched flips) — on devices with and
without TRR, across bursts that sweep the rolling pointer over
materialized rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.device import HBM2Stack
from repro.dram.geometry import RowAddress
from repro.dram.trr import TrrConfig


def make_pair(trr=False):
    config = TrrConfig(enabled=trr)
    return (HBM2Stack(trr_config=config), HBM2Stack(trr_config=config))


def row_image(device, byte):
    return np.full(device.geometry.row_bytes, byte, dtype=np.uint8)


def apply_ops(device, ops):
    for op in ops:
        kind = op[0]
        if kind == "write":
            __, bank, row, byte = op
            device.write_row(RowAddress(0, 0, bank, row),
                             row_image(device, byte))
        elif kind == "hammer":
            __, bank, row, count = op
            device.hammer(RowAddress(0, 0, bank, row), count)
        elif kind == "wait":
            device.wait(op[1])
        elif kind == "ref":
            device.refresh(0, 0)


def assert_identical(burst, scalar):
    assert burst.now_ns == scalar.now_ns
    assert burst.stats == scalar.stats
    assert burst._ref_pointer == scalar._ref_pointer
    assert burst._pc_ref_time.keys() == scalar._pc_ref_time.keys()
    for pc_key, times in scalar._pc_ref_time.items():
        assert np.array_equal(burst._pc_ref_time[pc_key], times)
    for pc_key, engine in scalar._trr.items():
        twin = burst._trr[pc_key]
        assert twin.ref_count == engine.ref_count
        assert twin.detection_log == engine.detection_log
        for mine, theirs in zip(twin._trackers, engine._trackers):
            assert mine.cam == theirs.cam
            assert mine.window_counts == theirs.window_counts
            assert sorted(mine.pending) == sorted(theirs.pending)
    assert set(burst._rows) == set(scalar._rows)
    for bank_key, bank_rows in scalar._rows.items():
        assert set(burst._rows[bank_key]) == set(bank_rows)
        for row, state in bank_rows.items():
            mine = burst._rows[bank_key][row]
            assert np.array_equal(mine.data, state.data), (bank_key, row)
            assert mine.acc_units == state.acc_units, (bank_key, row)
            assert mine.restored_at == state.restored_at, (bank_key, row)
            if state.already_flipped is None:
                assert mine.already_flipped is None \
                    or not mine.already_flipped.any()
            else:
                assert mine.already_flipped is not None
                assert np.array_equal(mine.already_flipped,
                                      state.already_flipped)


ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 1),
                  st.integers(0, 90), st.sampled_from([0x55, 0xFF])),
        st.tuples(st.just("hammer"), st.integers(0, 1),
                  st.integers(1, 90), st.integers(1, 60_000)),
        st.tuples(st.just("wait"), st.floats(0.0, 5.0e6)),
        st.tuples(st.just("ref"))),
    max_size=12)


@settings(max_examples=40, deadline=None)
@given(ops=ops_strategy, count=st.integers(0, 80), trr=st.booleans())
def test_burst_matches_scalar_loop(ops, count, trr):
    burst_device, scalar_device = make_pair(trr)
    apply_ops(burst_device, ops)
    apply_ops(scalar_device, ops)
    burst_device.refresh_burst(0, 0, count)
    for __ in range(count):
        scalar_device.refresh(0, 0)
    assert_identical(burst_device, scalar_device)
    # And they stay in lockstep through one more command round.
    for device in (burst_device, scalar_device):
        apply_ops(device, [("hammer", 0, 5, 40_000), ("ref",)])
    assert_identical(burst_device, scalar_device)


def test_burst_sweeps_pointer_over_hammered_rows():
    """Rolling refresh must commit pending flips at exact REF times."""
    burst_device, scalar_device = make_pair(trr=False)
    victim = RowAddress(0, 0, 0, 6)
    for device in (burst_device, scalar_device):
        for row in (5, 6, 7):
            device.write_row(victim.with_row(row), row_image(device, 0x55))
        device.hammer(victim.with_row(5), 120_000)
        device.hammer(victim.with_row(7), 120_000)
    burst_device.refresh_burst(0, 0, 64)
    for __ in range(64):
        scalar_device.refresh(0, 0)
    assert_identical(burst_device, scalar_device)
    assert np.array_equal(burst_device.read_row(victim),
                          scalar_device.read_row(victim))
    assert burst_device.stats.committed_bitflips > 0


def test_burst_with_trr_victims():
    """Capable REFs inside the burst emit the same victim refreshes."""
    burst_device, scalar_device = make_pair(trr=True)
    aggressor = RowAddress(0, 0, 0, 50)
    for device in (burst_device, scalar_device):
        device.write_row(aggressor.with_row(49), row_image(device, 0xFF))
        device.write_row(aggressor.with_row(51), row_image(device, 0xFF))
        device.hammer(aggressor, 30)
    burst_device.refresh_burst(0, 0, 40)
    for __ in range(40):
        scalar_device.refresh(0, 0)
    assert_identical(burst_device, scalar_device)
    assert burst_device.stats.trr_victim_refreshes > 0


def test_burst_respects_tracing_fallback():
    device, = (HBM2Stack(),)
    device.enable_tracing()
    device.refresh_burst(0, 0, 6)
    assert sum(1 for entry in device.trace() if entry.kind == "REF") == 6
    assert device.stats.refs == 6


def test_burst_validates_arguments():
    device = HBM2Stack()
    with pytest.raises(ValueError):
        device.refresh_burst(0, 0, -1)
    with pytest.raises(ValueError):
        device.refresh_burst(7, 3, 1)
