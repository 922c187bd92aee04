"""Tests for the Section 8 word-level / ECC analysis."""

import hashlib
from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.wordlevel import (_distribute_flips, secded_outcomes,
                                  word_level_study)
from repro.dram.cell_model import WORD_BITS, WORD_CLUSTER_ALPHA
from repro.experiments.registry import run_experiment

#: sha256 of fig15's report text at the scorecard's scale (0.06).
FIG15_SHA256_AT_0_06 = (
    "0c1cb22a0726de4b631dbabca18e270c0f7bd122b63f50a7b73c2fefd919ebad")


def per_row_oracle(flips_per_row: np.ndarray, words_per_row: int,
                   rng: np.random.Generator,
                   alpha: float = WORD_CLUSTER_ALPHA) -> Dict[int, int]:
    """The original per-row sampler, kept verbatim as the oracle."""
    histogram: Dict[int, int] = {}
    for flips in flips_per_row:
        if flips <= 0:
            continue
        weights = rng.gamma(alpha, size=words_per_row)
        total = weights.sum()
        if total <= 0:
            weights = np.full(words_per_row, 1.0 / words_per_row)
        else:
            weights = weights / total
        counts = rng.multinomial(int(flips), weights)
        counts = np.minimum(counts, WORD_BITS)
        for value in counts[counts > 0]:
            histogram[int(value)] = histogram.get(int(value), 0) + 1
    return histogram


def assert_matches_oracle(flips, words_per_row, seed, alpha):
    flips = np.asarray(flips, dtype=np.int64)
    oracle_rng = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    expected = per_row_oracle(flips, words_per_row, oracle_rng, alpha)
    assert _distribute_flips(flips, words_per_row, rng, alpha) == expected
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestDistributeFlips:
    """The sampler is bit-identical to the per-row loop: same histogram
    and the same RNG stream consumed (fig15's digest depends on both)."""

    @settings(max_examples=60, deadline=None)
    @given(flips=st.lists(st.integers(0, 400), max_size=40),
           words_per_row=st.integers(1, 128),
           seed=st.integers(0, 2**32 - 1),
           alpha=st.sampled_from([WORD_CLUSTER_ALPHA, 0.01, 1.0, 5.0,
                                  1e-300]))
    def test_matches_per_row_oracle(self, flips, words_per_row, seed,
                                    alpha):
        assert_matches_oracle(flips, words_per_row, seed, alpha)

    @settings(max_examples=30, deadline=None)
    @given(flips=st.lists(st.sampled_from([0, 65, 130, 260, 1000]),
                          min_size=1, max_size=12),
           words_per_row=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_clipped_words_match_oracle(self, flips, words_per_row,
                                        seed):
        assert_matches_oracle(flips, words_per_row, seed,
                              WORD_CLUSTER_ALPHA)

    def test_clipping_fires(self):
        histogram = _distribute_flips(np.array([1000]), 2,
                                      np.random.default_rng(0))
        assert max(histogram) == WORD_BITS

    def test_zero_gamma_total_falls_back_to_uniform(self):
        # Gamma(1e-300) draws underflow to 0.0, so the weights sum to 0.
        assert np.random.default_rng(3).gamma(1e-300, size=8).sum() == 0.0
        assert_matches_oracle([0, 5, 16, 0, 40], 8, 3, 1e-300)

    def test_block_boundaries_match_oracle(self):
        flips = np.random.default_rng(9).integers(0, 12, size=2500)
        assert_matches_oracle(flips, 16, 11, WORD_CLUSTER_ALPHA)


def test_fig15_report_digest():
    """fig15's RNG draw order is a contract: this pin moves only with a
    deliberate change to the sampler."""
    text = run_experiment("fig15", 0.06).text
    assert hashlib.sha256(text.encode()).hexdigest() == FIG15_SHA256_AT_0_06


@pytest.fixture(scope="module")
def study():
    from repro.chips.profiles import make_chip

    return word_level_study(make_chip(4), rows_per_channel=512)


class TestHistogram:
    def test_all_patterns_present(self, study):
        assert set(study.histogram) == {
            "Rowstripe0", "Rowstripe1", "Checkered0", "Checkered1"}

    def test_buckets_structure(self, study):
        for buckets in study.histogram.values():
            assert set(buckets) == {1, 2, 3}
            assert all(v >= 0 for v in buckets.values())

    def test_substantial_words_beyond_secded(self, study):
        """Section 8: words with >2 bitflips are plentiful (974,935 of
        18M, i.e. ~5%, for Checkered0 in the paper)."""
        beyond = study.words_beyond_secded("Checkered0")
        fraction = beyond / study.total_words
        assert 0.005 < fraction < 0.15

    def test_most_flipped_words_have_multiple_flips(self, study):
        """'Most words with at least one bitflip actually have more than
        one' (Section 8.1)."""
        assert study.multi_flip_fraction("Checkered0") > 0.5

    def test_max_flips_reaches_double_digits(self, study):
        """The paper finds a word with 16 bitflips."""
        assert study.max_flips["Checkered0"] >= 8

    def test_max_flips_bounded_by_word(self, study):
        assert all(value <= 64 for value in study.max_flips.values())

    def test_secded_classes(self, study):
        classes = study.secded_classes("Checkered0")
        assert classes["correctable"] == study.histogram["Checkered0"][1]
        assert classes["potentially_undetectable"] == \
            study.histogram["Checkered0"][3]


class TestPopulationBases:
    def test_one_base_per_chunk(self, monkeypatch, study):
        """Each chunk of channels builds one pattern-independent base
        that all four patterns share, not one base per (pattern,
        channel), and the chunking moves no count."""
        from repro.chips import vectorized
        from repro.chips.profiles import make_chip
        from repro.core import analytic, metrics

        chip = make_chip(4)
        analytic.effective_hammers(chip, metrics.BER_TEST_HAMMERS)
        built = []
        init = vectorized._PopulationBase.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        vectorized._BASE_SLOT.clear()
        # Four of the eight channels per chunk: two chunks.
        monkeypatch.setenv("HBMSIM_CELLS_CHUNK", str(4 * 512))
        monkeypatch.setattr(vectorized._PopulationBase, "__init__", spy)
        chunked = word_level_study(chip, rows_per_channel=512)
        vectorized._BASE_SLOT.clear()
        assert len(built) == 2
        assert chunked.histogram == study.histogram
        assert chunked.max_flips == study.max_flips


class TestSecdedOutcomes:
    def test_outcomes_sum(self, study):
        outcomes = secded_outcomes(study, "Checkered0", sample_size=200)
        total = (outcomes.ok + outcomes.corrected + outcomes.detected
                 + outcomes.miscorrected)
        assert total == outcomes.sampled_words == 200

    def test_single_flips_always_corrected(self, study):
        outcomes = secded_outcomes(study, "Checkered0", sample_size=300)
        assert outcomes.corrected > 0

    def test_silent_failures_exist(self, study):
        """>2-flip words can silently miscorrect — the security payload
        of the Section 8 argument."""
        outcomes = secded_outcomes(study, "Checkered0", sample_size=400)
        assert outcomes.miscorrected > 0
        assert outcomes.silent_failure_fraction > 0.0
