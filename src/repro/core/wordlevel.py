"""Section 8: word-level bitflip distribution and ECC implications.

Fig. 15 counts, over all ~18M non-overlapping 64-bit words of Chip 4, how
many words contain exactly one, exactly two, and more than two RowHammer
bitflips per data pattern.  The security argument: SECDED(72,64) corrects
one and detects two flips per word, so the observed abundance of >2-flip
words (974,935 for Checkered0) means widely deployed ECC cannot contain
RowHammer in HBM2; a Hamming(7,4)-per-nibble code could, but at 75%
storage overhead.

Bitflips cluster within words (most words with at least one flip have
more than one), which the cell model reproduces via Gamma-weighted word
occupancy (:func:`repro.dram.cell_model.sample_clustered_positions`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.chips.profiles import ChipProfile
from repro.core import analytic, metrics
from repro.core.patterns import ALL_PATTERNS
from repro.dram.cell_model import WORD_BITS, WORD_CLUSTER_ALPHA
from repro.dram.ecc import DecodeStatus, SecdedCodec


@dataclass
class WordLevelStudy:
    """Fig. 15 histogram plus ECC outcome counts."""

    chip_label: str
    hammer_count: int
    total_words: int
    #: pattern -> {1: words with exactly 1 flip, 2: exactly 2, 3: > 2}.
    histogram: Dict[str, Dict[int, int]] = field(default_factory=dict)
    #: pattern -> maximum flips observed in any single word.
    max_flips: Dict[str, int] = field(default_factory=dict)

    def words_beyond_secded(self, pattern: str) -> int:
        """Words with more than two bitflips (undetectable by SECDED)."""
        return self.histogram[pattern][3]

    def multi_flip_fraction(self, pattern: str) -> float:
        """Fraction of flipped words with more than one flip.

        The paper observes most words with at least one bitflip have more
        than one (Section 8.1).
        """
        h = self.histogram[pattern]
        flipped = h[1] + h[2] + h[3]
        if flipped == 0:
            return 0.0
        return (h[2] + h[3]) / flipped

    def secded_classes(self, pattern: str) -> Dict[str, int]:
        """Counts per SECDED guarantee class."""
        h = self.histogram[pattern]
        return {
            "correctable": h[1],
            "detectable_uncorrectable": h[2],
            "potentially_undetectable": h[3],
        }


#: Rows tallied per block of :func:`_distribute_flips`' count buffer
#: (1 MiB of int64 at 128 words per row).
_TALLY_ROWS = 1024


def _distribute_flips(flips_per_row: np.ndarray, words_per_row: int,
                      rng: np.random.Generator,
                      alpha: float = WORD_CLUSTER_ALPHA) -> Dict[int, int]:
    """Histogram of per-word flip counts given per-row flip totals.

    Uses the same Gamma-weighted word occupancy as the device's
    materialized cell positions
    (:func:`repro.dram.cell_model.sample_clustered_positions`).  A word
    is clipped at ``WORD_BITS`` flips and the excess dropped, where the
    cell model spills it uniformly over the row.  The two differ only in
    such words: at scale 1.0, 6 of the 14.1M flipped words exceed 64
    flips (61 flips dropped in all).

    The RNG draw order is a contract (fig15's report digest pins it):
    each row with flips draws one ``gamma(alpha, size=words_per_row)``
    and one ``multinomial(flips, weights)``, in row order.  Rows' counts
    land in a bounded buffer that is tallied once per block.
    """
    gamma, multinomial = rng.gamma, rng.multinomial
    rows = [flips for flips in flips_per_row.tolist() if flips > 0]
    tally = np.zeros(WORD_BITS + 1, dtype=np.int64)
    counts = np.empty((min(len(rows), _TALLY_ROWS), words_per_row),
                      dtype=np.int64)
    for start in range(0, len(rows), _TALLY_ROWS):
        block = rows[start:start + _TALLY_ROWS]
        for slot, flips in enumerate(block):
            weights = gamma(alpha, size=words_per_row)
            total = weights.sum()
            if total <= 0:
                weights = np.full(words_per_row, 1.0 / words_per_row)
            else:
                weights /= total
            counts[slot] = multinomial(flips, weights)
        tally += np.bincount(
            np.minimum(counts[:len(block)], WORD_BITS).ravel(),
            minlength=WORD_BITS + 1)
    return {value: words for value, words in enumerate(tally.tolist())
            if value and words}


def word_level_study(chip: ChipProfile,
                     rows_per_channel: int = 16384,
                     hammer_count: int = metrics.BER_TEST_HAMMERS,
                     patterns: Optional[Sequence[str]] = None,
                     bank: int = 0, pseudo_channel: int = 0,
                     seed: int = 37) -> WordLevelStudy:
    """Run the Fig. 15 study on one chip (Chip 4 in the paper)."""
    if patterns is None:
        patterns = [p.name for p in ALL_PATTERNS]
    geometry = chip.geometry
    words_per_row = geometry.row_bits // WORD_BITS
    rng = np.random.default_rng(seed + chip.spec.index)
    rows = analytic.stratified_rows(geometry.rows, rows_per_channel)
    total_words = int(rows.size * geometry.channels * words_per_row)
    study = WordLevelStudy(chip.label, hammer_count, total_words)
    eff = analytic.effective_hammers(chip, hammer_count)
    combos = [(channel, pseudo_channel, bank)
              for channel in range(geometry.channels)]
    bers = analytic.combo_ber_matrices(chip, combos, rows, patterns, eff)
    for pattern in patterns:
        buckets = {1: 0, 2: 0, 3: 0}
        max_flips = 0
        for ber in bers[pattern]:
            flips = rng.binomial(geometry.row_bits, ber)
            histogram = _distribute_flips(flips, words_per_row, rng)
            for count, words in histogram.items():
                max_flips = max(max_flips, count)
                if count == 1:
                    buckets[1] += words
                elif count == 2:
                    buckets[2] += words
                else:
                    buckets[3] += words
        study.histogram[pattern] = buckets
        study.max_flips[pattern] = max_flips
    return study


@dataclass(frozen=True)
class SecdedOutcomes:
    """Exact SECDED decode outcomes over sampled flipped words."""

    sampled_words: int
    ok: int
    corrected: int
    detected: int
    miscorrected: int

    @property
    def silent_failure_fraction(self) -> float:
        """Fraction of sampled flipped words that decode wrongly but look
        fine to the system (the dangerous case)."""
        if self.sampled_words == 0:
            return 0.0
        return self.miscorrected / self.sampled_words


def secded_outcomes(study: WordLevelStudy, pattern: str,
                    sample_size: int = 400,
                    seed: int = 41) -> SecdedOutcomes:
    """Decode a sample of flipped words through a real SECDED codec.

    Draws words according to the study's flip-count histogram, applies
    that many random flips to encoded 64-bit words, and tallies what the
    decoder actually does — corroborating the classify-by-count argument
    with bit-exact behaviour.
    """
    codec = SecdedCodec()
    histogram = study.histogram[pattern]
    counts = []
    weights = []
    for bucket, words in histogram.items():
        if words > 0:
            counts.append(bucket if bucket < 3 else 3)
            weights.append(words)
    if not counts:
        return SecdedOutcomes(0, 0, 0, 0, 0)
    weights = np.asarray(weights, dtype=float)
    weights /= weights.sum()
    rng = np.random.default_rng(seed)
    tallies = {status: 0 for status in DecodeStatus}
    for __ in range(sample_size):
        bucket = int(rng.choice(counts, p=weights))
        flips = bucket if bucket < 3 else int(rng.integers(3, 7))
        data = rng.integers(0, 2, codec.data_bits).astype(np.uint8)
        positions = rng.choice(codec.codeword_bits, size=flips,
                               replace=False)
        outcome = codec.evaluate_flips(data, positions)
        tallies[outcome] += 1
    return SecdedOutcomes(
        sampled_words=sample_size,
        ok=tallies[DecodeStatus.OK],
        corrected=tallies[DecodeStatus.CORRECTED],
        detected=tallies[DecodeStatus.DETECTED],
        miscorrected=tallies[DecodeStatus.MISCORRECTED],
    )
