"""Tests for logical-to-physical row mappings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.row_mapping import (MAPPING_FAMILIES, IdentityMapping,
                                    MirrorOddMapping, XorScrambleMapping,
                                    make_mapping)

_ROWS = 16384
_row = st.integers(min_value=0, max_value=_ROWS - 1)


def all_mappings():
    return [make_mapping(name, _ROWS) for name in MAPPING_FAMILIES]


class TestBijectivity:
    @given(_row)
    @settings(max_examples=150)
    def test_roundtrip_all_families(self, row):
        for mapping in all_mappings():
            assert mapping.to_logical(mapping.to_physical(row)) == row
            assert mapping.to_physical(mapping.to_logical(row)) == row

    def test_full_permutation(self):
        for mapping in all_mappings():
            image = {mapping.to_physical(r) for r in range(2048)}
            assert image == set(range(2048))


class TestArrayForm:
    @pytest.mark.parametrize("family", sorted(MAPPING_FAMILIES))
    def test_array_matches_scalar_on_every_row(self, family):
        """The array form is the scalar mapping, row for row."""
        mapping = make_mapping(family, _ROWS)
        rows = np.arange(_ROWS, dtype=np.int64)
        physical = mapping.to_physical_array(rows)
        assert physical.dtype == np.int64
        assert physical.tolist() == [mapping.to_physical(row)
                                     for row in range(_ROWS)]
        assert mapping.to_physical_array([5]).tolist() == \
            [mapping.to_physical(5)]

    @pytest.mark.parametrize("family", sorted(MAPPING_FAMILIES))
    def test_families_keep_their_permutations(self, family):
        """The bit arithmetic spells each family's documented 8-row
        pattern (repeated every 8 rows)."""
        pattern = {
            "IdentityMapping": (0, 1, 2, 3, 4, 5, 6, 7),
            "XorScrambleMapping": (0, 1, 2, 3, 6, 7, 4, 5),
            "MirrorOddMapping": (0, 2, 1, 3, 4, 6, 5, 7),
            "BlockInterleaveMapping": (0, 2, 4, 6, 1, 3, 5, 7),
        }[family]
        mapping = make_mapping(family, _ROWS)
        for base in (0, 8, _ROWS - 8):
            assert [mapping.to_physical(base + low) for low in range(8)] \
                == [base + value for value in pattern]
            assert [mapping.to_logical(base + value) for value in pattern] \
                == [base + low for low in range(8)]


class TestIdentity:
    def test_identity(self):
        mapping = IdentityMapping(_ROWS)
        assert mapping.to_physical(123) == 123
        assert mapping.physical_neighbors(100) == [99, 101]


class TestXorScramble:
    def test_scramble_changes_some_rows(self):
        mapping = XorScrambleMapping(_ROWS)
        changed = sum(mapping.to_physical(r) != r for r in range(64))
        assert changed == 32  # half the rows have the source bit set

    def test_neighbors_not_always_adjacent_logically(self):
        mapping = XorScrambleMapping(_ROWS)
        neighbor_sets = [tuple(mapping.physical_neighbors(r))
                         for r in range(16)]
        plain = [(r - 1, r + 1) for r in range(16)]
        assert any(n != p for n, p in zip(neighbor_sets[1:], plain[1:]))

    def test_same_bits_rejected(self):
        with pytest.raises(ValueError):
            XorScrambleMapping(_ROWS, target_bit=2, source_bit=2)

    def test_bits_beyond_width_rejected(self):
        with pytest.raises(ValueError):
            XorScrambleMapping(4, target_bit=1, source_bit=2)


class TestMirrorOdd:
    def test_permutation_within_groups(self):
        mapping = MirrorOddMapping(_ROWS)
        assert [mapping.to_physical(r) for r in range(4)] == [0, 2, 1, 3]
        assert [mapping.to_physical(r) for r in range(4, 8)] == [4, 6, 5, 7]


class TestNeighbors:
    def test_bank_edges_have_one_neighbor(self):
        for mapping in all_mappings():
            low_edge_logical = mapping.to_logical(0)
            assert len(mapping.physical_neighbors(low_edge_logical)) == 1
            high_edge_logical = mapping.to_logical(_ROWS - 1)
            assert len(mapping.physical_neighbors(high_edge_logical)) == 1

    @given(_row)
    @settings(max_examples=100)
    def test_neighbors_are_physically_adjacent(self, row):
        for mapping in all_mappings():
            physical = mapping.to_physical(row)
            for neighbor in mapping.physical_neighbors(row):
                assert abs(mapping.to_physical(neighbor) - physical) == 1


class TestFactory:
    def test_known_families(self):
        for name in ("IdentityMapping", "XorScrambleMapping",
                     "MirrorOddMapping"):
            assert make_mapping(name, _ROWS).name == name

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            make_mapping("Nonsense", _ROWS)

    def test_nonpositive_rows_rejected(self):
        with pytest.raises(ValueError):
            IdentityMapping(0)
