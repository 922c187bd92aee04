"""Tests for HBM2 geometry and addressing."""

import pytest

from repro.dram.geometry import (DEFAULT_GEOMETRY, DEFAULT_SUBARRAY_SIZES,
                                 HBM2Geometry, RowAddress, SubarrayLayout)

#: Small layout with odd sizes and 1-row subarrays (rows with no
#: neighbors at all), one inside the bank and one at its end.
ODD_LAYOUT = SubarrayLayout(sizes=(3, 1, 5, 2, 1))


class TestSubarrayLayout:
    def test_default_sizes_match_paper(self):
        layout = SubarrayLayout()
        assert set(layout.sizes) == {832, 768}

    def test_total_rows(self):
        assert SubarrayLayout().rows == 16384

    def test_subarray_count(self):
        assert SubarrayLayout().count == len(DEFAULT_SUBARRAY_SIZES)

    def test_boundaries_start_at_zero_and_end_at_rows(self):
        layout = SubarrayLayout()
        assert layout.boundaries[0] == 0
        assert layout.boundaries[-1] == layout.rows

    def test_middle_subarray_is_832_rows(self):
        layout = SubarrayLayout()
        assert layout.sizes[layout.middle_subarray] == 832

    def test_last_subarray_is_832_rows(self):
        layout = SubarrayLayout()
        assert layout.sizes[layout.last_subarray] == 832

    def test_subarray_of_first_and_last_row(self):
        layout = SubarrayLayout()
        assert layout.subarray_of(0) == 0
        assert layout.subarray_of(layout.rows - 1) == layout.count - 1

    def test_position_in_subarray_roundtrip(self):
        layout = SubarrayLayout()
        for row in (0, 831, 832, 8191, 8192, 16383):
            index, offset, size = layout.position_in_subarray(row)
            assert layout.boundaries[index] + offset == row
            assert layout.sizes[index] == size

    def test_rows_of_covers_every_row_exactly_once(self):
        layout = SubarrayLayout()
        seen = []
        for index in range(layout.count):
            seen.extend(layout.rows_of(index))
        assert seen == list(range(layout.rows))

    def test_edge_rows(self):
        layout = SubarrayLayout()
        assert layout.is_edge_row(0)
        assert layout.is_edge_row(831)
        assert not layout.is_edge_row(416)

    def test_same_subarray(self):
        layout = SubarrayLayout()
        assert layout.subarray_of(0) == layout.subarray_of(831)
        assert layout.subarray_of(831) != layout.subarray_of(832)

    def test_out_of_range_row_rejected(self):
        layout = SubarrayLayout()
        with pytest.raises(ValueError):
            layout.subarray_of(layout.rows)
        with pytest.raises(ValueError):
            layout.subarray_of(-1)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            SubarrayLayout(sizes=(0, 16384))


class TestHBM2Geometry:
    def test_paper_dimensions(self):
        geometry = DEFAULT_GEOMETRY
        assert geometry.channels == 8
        assert geometry.pseudo_channels == 2
        assert geometry.banks == 16
        assert geometry.rows == 16384
        assert geometry.row_bits == 8192
        assert geometry.row_bytes == 1024

    def test_stack_density_is_4gib(self):
        assert DEFAULT_GEOMETRY.density_bytes == 4 * 1024 ** 3

    def test_total_banks(self):
        assert DEFAULT_GEOMETRY.total_banks == 256

    def test_die_pairing_is_mirrored(self):
        geometry = DEFAULT_GEOMETRY
        assert geometry.die_of_channel(0) == geometry.die_of_channel(7)
        assert geometry.die_of_channel(3) == geometry.die_of_channel(4)
        assert geometry.die_of_channel(0) != geometry.die_of_channel(3)

    def test_every_die_has_two_channels(self):
        geometry = DEFAULT_GEOMETRY
        counts = {}
        for channel in range(geometry.channels):
            die = geometry.die_of_channel(channel)
            counts[die] = counts.get(die, 0) + 1
        assert all(count == 2 for count in counts.values())

    def test_check_address_accepts_valid(self):
        DEFAULT_GEOMETRY.check_address(7, 1, 15, 16383)

    @pytest.mark.parametrize("kwargs", [
        {"channel": 8, "pseudo_channel": 0, "bank": 0, "row": 0},
        {"channel": 0, "pseudo_channel": 2, "bank": 0, "row": 0},
        {"channel": 0, "pseudo_channel": 0, "bank": 16, "row": 0},
        {"channel": 0, "pseudo_channel": 0, "bank": 0, "row": 16384},
    ])
    def test_check_address_rejects_invalid(self, kwargs):
        assert not DEFAULT_GEOMETRY.contains(**kwargs)
        with pytest.raises(ValueError):
            DEFAULT_GEOMETRY.check_address(**kwargs)

    @pytest.mark.parametrize("coordinate", ["channel", "pseudo_channel",
                                            "bank", "row"])
    def test_contains_is_each_coordinate_in_range(self, coordinate):
        """``contains`` and ``check_address`` apply one rule: every
        coordinate at -1, 0, limit - 1 and limit, the others valid."""
        limit = {"channel": 8, "pseudo_channel": 2, "bank": 16,
                 "row": 16384}[coordinate]
        for value in (-1, 0, limit - 1, limit):
            address = {"channel": 0, "pseudo_channel": 0, "bank": 0,
                       "row": 0, coordinate: value}
            inside = 0 <= value < limit
            assert DEFAULT_GEOMETRY.contains(**address) is inside
            if inside:
                DEFAULT_GEOMETRY.check_address(**address)
            else:
                with pytest.raises(ValueError, match="out of range"):
                    DEFAULT_GEOMETRY.check_address(**address)

    def test_iter_banks_counts(self):
        assert len(list(DEFAULT_GEOMETRY.iter_banks())) == 256

    def test_mismatched_subarray_layout_rejected(self):
        with pytest.raises(ValueError):
            HBM2Geometry(rows=1000)


class TestRowAddress:
    def test_validate_returns_self(self):
        address = RowAddress(0, 0, 0, 0)
        assert address.validate(DEFAULT_GEOMETRY) is address

    def test_neighbor(self):
        address = RowAddress(1, 0, 2, 100)
        assert address.neighbor(1).row == 101
        assert address.neighbor(-1).row == 99
        assert address.neighbor(1).bank_key == address.bank_key

    def test_with_row(self):
        address = RowAddress(1, 1, 2, 100)
        moved = address.with_row(55)
        assert moved.row == 55
        assert moved.bank_key == address.bank_key

    def test_ordering(self):
        assert RowAddress(0, 0, 0, 1) < RowAddress(0, 0, 0, 2)

    def test_bank_key(self):
        assert RowAddress(3, 1, 7, 9).bank_key == (3, 1, 7)


def reference_neighbors(layout, row, radius):
    """Brute force: offsets -radius..radius, bank-clipped, same subarray."""
    return tuple(
        (row + offset, abs(offset))
        for offset in range(-radius, radius + 1)
        if offset != 0 and 0 <= row + offset < layout.rows
        and layout.subarray_of(row + offset) == layout.subarray_of(row))


class TestNeighbors:
    @pytest.mark.parametrize("layout, row, radius, expected", [
        pytest.param(SubarrayLayout(), 100, 1, ((99, 1), (101, 1)),
                     id="middle-row"),
        pytest.param(SubarrayLayout(), 0, 1, ((1, 1),), id="bank-edge"),
        # Row 831 is the last row of subarray 0; row 832 starts subarray 1.
        pytest.param(SubarrayLayout(), 831, 1, ((830, 1),),
                     id="subarray-boundary"),
        pytest.param(SubarrayLayout(), 830, 2,
                     ((828, 2), (829, 1), (831, 1)),
                     id="radius-two-boundary"),
    ] + [
        pytest.param(layout, None, radius, None,
                     id=f"{name}-every-row-radius{radius}")
        for name, layout in (("default", SubarrayLayout()),
                             ("odd", ODD_LAYOUT))
        for radius in (1, 2, 3)
    ])
    def test_matches_reference(self, layout, row, radius, expected):
        """``neighbors`` equals the brute-force clip, same rows in the
        same (ascending) order; ``row=None`` checks every row."""
        rows = range(layout.rows) if row is None else [row]
        for victim in rows:
            assert layout.neighbors(victim, radius) == \
                reference_neighbors(layout, victim, radius), victim
        if expected is not None:
            assert layout.neighbors(row, radius) == expected

    @pytest.mark.parametrize("layout", [SubarrayLayout(), ODD_LAYOUT],
                             ids=["default", "odd"])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_clipped_rows_are_the_short_neighborhoods(self, layout,
                                                      radius):
        """``clipped_rows`` names exactly the rows whose neighborhood
        is not the full ``row - radius .. row + radius`` range."""
        clipped = layout.clipped_rows(radius)
        for row in range(layout.rows):
            full = tuple((row + offset, abs(offset))
                         for offset in range(-radius, radius + 1)
                         if offset)
            assert (layout.neighbors(row, radius) != full) == \
                (row in clipped), row
