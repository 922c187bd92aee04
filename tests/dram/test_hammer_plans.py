"""The hammer plan table: ``hammer_plans`` == the scalar ACT arithmetic.

``HBM2Stack.hammer_plans`` resolves many HAMMERs in one pass (array
row mapping, per-count units, the subarray clip only where it bites),
and ``hammer_plan`` resolves one HAMMER with the same helpers.  Both
must equal, field for field and float for float, the scalar
expression a HAMMER always evaluated: map the row, ask
``SubarrayLayout.neighbors``, give each neighbor ``(count * temp) *
upa(t_on, distance)`` (zeros omitted) and take ``count *
act_to_act(t_on)``.
"""

import random

import pytest

from repro.dram.device import HBM2Stack
from repro.dram.disturbance import DisturbanceModel
from repro.dram.geometry import DEFAULT_GEOMETRY, RowAddress
from repro.dram.row_mapping import MAPPING_FAMILIES, make_mapping

ROWS = DEFAULT_GEOMETRY.rows


def reference_plan(device, address, count, t_on):
    """The scalar HAMMER arithmetic, written out as the ACT path does."""
    timings = device.timings
    effective = timings.t_ras if t_on is None else max(t_on, timings.t_ras)
    row = device.row_mapping.to_physical(address.row)
    model = device.disturbance
    scale = count * device.temperature_disturbance_factor()
    pairs = []
    for other, distance in device.geometry.subarrays.neighbors(
            row, model.blast_radius):
        units = scale * model.units_per_activation(effective, distance)
        if units > 0:
            pairs.append((other - row, units))
    return (address, count, t_on, address.with_row(row),
            tuple(offset for offset, __ in pairs),
            tuple(units for __, units in pairs),
            count * timings.act_to_act(effective))


def probe_rows():
    """Bank edges, every subarray boundary +-2, and a random sample."""
    rows = {0, 1, 2, ROWS - 3, ROWS - 2, ROWS - 1}
    for boundary in DEFAULT_GEOMETRY.subarrays.boundaries[1:-1]:
        rows.update(range(boundary - 2, boundary + 2))
    rows.update(random.Random(7).sample(range(ROWS), 200))
    return sorted(rows)


def make_device(family, disturbance=None):
    device = HBM2Stack(row_mapping=make_mapping(family, ROWS),
                       calibration_temperature_c=82.0,
                       **({} if disturbance is None
                          else {"disturbance": disturbance}))
    # Away from calibration, so the temperature factor is not 1.0.
    device.set_temperature(91.5)
    assert device.temperature_disturbance_factor() != 1.0
    return device


@pytest.mark.parametrize("t_on", [None, 35.1e3], ids=["tRAS", "35.1us"])
@pytest.mark.parametrize("family", sorted(MAPPING_FAMILIES))
def test_table_matches_scalar_arithmetic(family, t_on):
    device = make_device(family)
    addresses = []
    counts = []
    for row in probe_rows():
        for count in (1, 2, 3):
            addresses.append(RowAddress(3, 1, 7, row))
            counts.append(count)
    plans = device.hammer_plans(addresses, counts, t_on)
    assert len(plans) == len(addresses)
    for plan, address, count in zip(plans, addresses, counts):
        expected = reference_plan(device, address, count, t_on)
        assert tuple(plan) == expected, (address, count)
        assert tuple(device.hammer_plan(address, count, t_on)) == expected
        assert plan.address is address


def test_clipped_rows_keep_their_side():
    device = make_device("IdentityMapping")
    first = DEFAULT_GEOMETRY.subarrays.boundaries[1]
    plans = device.hammer_plans(
        [RowAddress(0, 0, 0, row) for row in (0, first - 1, first)],
        [1, 1, 1])
    assert [plan.offsets for plan in plans] == \
        [(1, 2), (-2, -1), (1, 2)]


def test_zero_units_are_omitted():
    """A distance without coupling delivers nothing, so it is not a
    neighbor of the plan, as on the ACT path."""
    model = DisturbanceModel(distance_factors={1: 1.0, 3: 0.01})
    device = make_device("XorScrambleMapping", disturbance=model)
    addresses = [RowAddress(0, 0, 0, row) for row in probe_rows()]
    plans = device.hammer_plans(addresses, [2] * len(addresses))
    for plan, address in zip(plans, addresses):
        assert tuple(plan) == reference_plan(device, address, 2, None)
        assert not {-2, 2} & set(plan.offsets)


def test_plans_span_banks():
    device = make_device("BlockInterleaveMapping")
    addresses = [RowAddress(channel, pc, bank, row)
                 for channel, pc, bank, row in
                 ((0, 0, 0, 5), (7, 1, 15, ROWS - 1), (2, 1, 3, 833))]
    plans = device.hammer_plans(addresses, [1, 2, 3], 35.1e3)
    for plan, address, count in zip(plans, addresses, [1, 2, 3]):
        assert tuple(plan) == reference_plan(device, address, count,
                                             35.1e3)


@pytest.mark.parametrize("address,count", [
    (RowAddress(0, 0, 0, -1), 1),
    (RowAddress(0, 0, 0, ROWS), 1),
    (RowAddress(0, 0, 16, 10), 1),
    (RowAddress(8, 0, 0, 10), 1),
    (RowAddress(0, 0, 0, 10), 0),
    (RowAddress(0, 0, 0, 10), -3),
], ids=["row-below", "row-above", "bank", "channel", "zero-count",
        "negative-count"])
def test_invalid_entries_have_no_plan(address, count):
    """An entry ``hammer_plan`` rejects gets ``None``; its neighbors in
    the same pass still resolve."""
    device = make_device("MirrorOddMapping")
    good = RowAddress(0, 0, 0, 100)
    plans = device.hammer_plans([good, address, good], [1, count, 2])
    assert plans[1] is None
    assert tuple(plans[0]) == reference_plan(device, good, 1, None)
    assert tuple(plans[2]) == reference_plan(device, good, 2, None)
    with pytest.raises(ValueError):
        device.hammer_plan(address, count)


def precharge_units(device, bank, row, open_ns):
    """Open ``row`` of ``bank`` for ``open_ns``, close it, and return
    the units the PRE gave each neighbor, by offset."""
    device.activate(RowAddress(0, 0, bank, row))
    device.wait(open_ns)
    device.precharge(0, 0, bank)
    return {other - row: state.acc_units
            for other, state in device._rows[(0, 0, bank)].items()
            if other != row}


def expected_units(device, row, t_on):
    plan = reference_plan(device, RowAddress(0, 0, 0, row), 1, t_on)
    return dict(zip(plan[4], plan[5]))


@pytest.mark.parametrize("open_ns", [35.1e3, 1234.5])
def test_precharge_after_set_temperature_equals_fresh(open_ns):
    """A PRE's reach is memoized per temperature factor: after
    ``set_temperature`` it equals a device that was never warm."""
    row = 5000
    warm = make_device("IdentityMapping")
    before = precharge_units(warm, 1, row, open_ns)
    warm.set_temperature(70.0)
    after = precharge_units(warm, 2, row, open_ns)
    fresh = make_device("IdentityMapping")
    fresh.set_temperature(70.0)
    assert after == precharge_units(fresh, 2, row, open_ns)
    assert after == expected_units(fresh, row, open_ns)
    assert after != before


def test_precharge_on_clipped_row_equals_fresh():
    """A warm memo serves the full reach; a PRE on a row a subarray
    boundary clips still disturbs only its own subarray."""
    first = DEFAULT_GEOMETRY.subarrays.boundaries[1]
    device = make_device("IdentityMapping")
    precharge_units(device, 1, 5000, 35.1e3)
    for bank, row in enumerate((first - 1, first), start=2):
        units = precharge_units(device, bank, row, 35.1e3)
        assert units == expected_units(device, row, 35.1e3)
        fresh = make_device("IdentityMapping")
        assert units == precharge_units(fresh, bank, row, 35.1e3)
    assert set(units) == {1, 2}
