"""Tests for the Section 4 spatial-variation studies."""

import numpy as np
import pytest

from repro.core import spatial


@pytest.fixture(scope="module")
def two_chips():
    from repro.chips.profiles import make_chip

    return (make_chip(0), make_chip(5))


def ber_study(chips, rows_per_channel):
    """The Fig. 4 study: one bank, one PC, every channel."""
    return spatial.ChipBerStudy.from_flats(
        spatial.chip_ber_flats(chips, rows_per_channel=rows_per_channel))


def hcfirst_study(chips, rows_per_bank):
    """The Fig. 5 study: banks 0/5/11 of both PCs in every channel."""
    return spatial.ChipHcFirstStudy.from_flats(
        {chip.label: spatial.hcfirst_flat(chip, rows_per_bank, (0, 5, 11),
                                          (0, 1))
         for chip in chips})


class TestChipBerStudy:
    def test_structure(self, two_chips):
        study = ber_study(two_chips, 64)
        assert set(study.summaries) == {"Chip 0", "Chip 5"}
        for by_pattern in study.summaries.values():
            assert set(by_pattern) == set(spatial.PATTERN_COLUMNS)

    def test_obsv1_bitflips_everywhere(self, two_chips):
        """Obsv. 1: RowHammer bitflips in all tested rows of all chips."""
        study = ber_study(two_chips, 64)
        for by_pattern in study.summaries.values():
            assert by_pattern["WCDP"].minimum > 0

    def test_obsv2_chip0_worse_than_chip5(self, two_chips):
        study = ber_study(two_chips, 128)
        assert study.chip_mean("Chip 0", "Checkered0") > \
            study.chip_mean("Chip 5", "Checkered0")

    def test_obsv3_checkered_beats_rowstripe(self, two_chips):
        study = ber_study(two_chips, 128)
        for label in ("Chip 0", "Chip 5"):
            checkered = study.summaries[label]["Checkered0"].mean
            rowstripe = study.summaries[label]["Rowstripe0"].mean
            assert checkered > rowstripe

    def test_wcdp_tracks_worst_patterns(self, two_chips):
        """WCDP (the min-HC_first pattern per row) has mean BER close to
        or above any single pattern's mean."""
        study = ber_study(two_chips, 64)
        for by_pattern in study.summaries.values():
            for name in ("Rowstripe0", "Checkered0"):
                assert by_pattern["WCDP"].mean >= by_pattern[name].mean \
                    * 0.9


class TestChipHcFirstStudy:
    def test_minima_in_paper_ballpark(self, two_chips):
        study = hcfirst_study(two_chips, 256)
        for label in ("Chip 0", "Chip 5"):
            minimum = study.chip_minimum(label)
            assert 10_000 < minimum < 80_000

    def test_wcdp_minimum_not_above_patterns(self, two_chips):
        study = hcfirst_study(two_chips, 128)
        for by_pattern in study.summaries.values():
            for name in ("Rowstripe0", "Checkered1"):
                assert by_pattern["WCDP"].minimum <= \
                    by_pattern[name].minimum


class TestChannelStudies:
    def test_chip0_worst_pair_is_ch0_ch7(self, two_chips):
        """Obsv. 8: CH0/CH7 (one die) dominate Chip 0's BER."""
        study = spatial.channel_ber_study(two_chips[0],
                                          rows_per_channel=256)
        means = study.channel_means("WCDP")
        worst = max(means, key=means.get)
        assert worst in (0, 7)
        assert study.extreme_ratio("WCDP") > 1.5

    def test_die_pairs_behave_alike(self, two_chips):
        study = spatial.channel_ber_study(two_chips[0],
                                          rows_per_channel=256)
        means = study.channel_means("WCDP")
        for a, b in spatial.die_pairs(two_chips[0]):
            assert means[a] == pytest.approx(means[b], rel=0.25)

    def test_hcfirst_channels_anticorrelate_with_ber(self, two_chips):
        ber = spatial.channel_ber_study(two_chips[0],
                                        rows_per_channel=128)
        hc = spatial.channel_hcfirst_study(two_chips[0],
                                           rows_per_bank=128)
        ber_means = [ber.channel_means("WCDP")[c] for c in range(8)]
        hc_means = [hc.channel_means("WCDP")[c] for c in range(8)]
        assert np.corrcoef(ber_means, hc_means)[0, 1] < -0.4


class TestRowProfile:
    def test_resilient_subarrays_lower(self, two_chips):
        study = spatial.row_ber_profile(two_chips[0], channels=(0,),
                                        row_stride=16)
        means = study.subarray_means(0)
        layout = two_chips[0].geometry.subarrays
        resilient = [means[layout.middle_subarray],
                     means[layout.last_subarray]]
        normal = [m for i, m in enumerate(means)
                  if i not in (layout.middle_subarray,
                               layout.last_subarray)]
        assert np.mean(resilient) < 0.7 * np.mean(normal)

    def test_boundaries_exposed(self, two_chips):
        study = spatial.row_ber_profile(two_chips[0], channels=(0,),
                                        row_stride=64)
        assert study.subarray_boundaries == \
            two_chips[0].geometry.subarrays.boundaries


class TestBankVariation:
    def test_bimodal_clusters(self, two_chips):
        study = spatial.bank_variation_study(two_chips[0],
                                             rows_per_segment=24)
        assert len(study.points) == 256
        low_cv, high_cv = study.cluster_split()
        mean_low = np.mean([p.mean_ber for p in low_cv])
        mean_high = np.mean([p.mean_ber for p in high_cv])
        # Obsv. 16: lower-CV banks have the higher mean BER.
        assert mean_low > mean_high

    def test_channel_dominates_banks(self, two_chips):
        """Obsv. 17 direction: channel spread >= typical intra-channel
        bank spread."""
        study = spatial.bank_variation_study(two_chips[0],
                                             rows_per_segment=24)
        intra = np.mean([study.intra_channel_spread(c) for c in range(8)])
        assert study.channel_spread() > 0.5 * intra
