"""Section 6: RowHammer and RowPress sensitivity to aggressor-row on-time.

Two studies:

- **Fig. 12** — BER at a fixed hammer count of 150K while sweeping
  ``t_AggON`` from the minimal tRAS (29 ns) through 58/87/116 ns up to
  tREFI (3.9 us) and 9*tREFI (35.1 us), over the first/middle/last 128
  rows of one bank in all 8 channels (Checkered0).
- **Fig. 13** — HC_first while sweeping ``t_AggON`` over
  {tRAS, tREFI, 9*tREFI, 16 ms} for 384 rows in 3 channels, keeping only
  rows whose first bitflip is observable within one 32 ms refresh window
  at every tested on-time (the paper's grey row-count boxes).

Experiments whose duration exceeds the refresh window must remove
retention-induced bitflips; ``measure_scrubbed_row_ber`` implements the
paper's footnote-6 methodology on the exact device engine (profile the
row's retention failures at the same elapsed time, 5 repetitions, and
subtract them from the observed flips).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bender.host import BenderSession
from repro.bender.routines.ber_test import RowBerResult, measure_row_ber
from repro.bender.routines.rowinit import initialize_window
from repro.chips.profiles import ChipProfile
from repro.core import analytic, metrics
from repro.dram.geometry import RowAddress
from repro.dram.timing import DEFAULT_TIMINGS

#: Fig. 12's swept on-times (ns): four "RowHammer-like" and two large.
ROWPRESS_BER_T_ONS: Tuple[float, ...] = (29.0, 58.0, 87.0, 116.0,
                                         3.9e3, 35.1e3)

#: Fig. 13's swept on-times (ns): tRAS, tREFI, 9*tREFI, half tREFW.
ROWPRESS_HCFIRST_T_ONS: Tuple[float, ...] = (29.0, 3.9e3, 35.1e3, 16.0e6)


@dataclass
class RowPressBerStudy:
    """Fig. 12 results."""

    hammer_count: int
    pattern: str
    t_ons: Tuple[float, ...]
    #: chip label -> t_on -> channel -> mean BER (fraction).
    channel_means: Dict[str, Dict[float, Dict[int, float]]]
    #: Same structure with closed-form (noise-free) means, used for the
    #: channel-rank consistency check (Obsv. 22).
    expected_means: Dict[str, Dict[float, Dict[int, float]]] = None

    def mean_at(self, t_on: float) -> float:
        """Average BER across every channel of every chip (Obsv. 21)."""
        values = [mean
                  for by_t in self.channel_means.values()
                  for channel_means in [by_t[t_on]]
                  for mean in channel_means.values()]
        return float(np.mean(values))

    def series(self) -> List[Tuple[float, float]]:
        """The paper's 0.08 .. 50.35 (%) series as (t_on, mean BER)."""
        return [(t_on, self.mean_at(t_on)) for t_on in self.t_ons]

    def expected_mean_at(self, t_on: float) -> float:
        """Noise-free mean BER (for ratio statistics on tiny values)."""
        source = self.expected_means or self.channel_means
        values = [mean
                  for by_t in source.values()
                  for mean in by_t[t_on].values()]
        return float(np.mean(values))

    def channel_rank_stability(self, chip_label: str) -> float:
        """Obsv. 22: rank correlation of channel BER at min vs large t_on.

        Uses the closed-form channel means when available — the sampled
        means carry row-subsampling noise that swamps the tiny channel
        spread of near-homogeneous chips.
        """
        source = self.expected_means or self.channel_means
        by_t = source[chip_label]
        first = by_t[self.t_ons[0]]
        last = by_t[self.t_ons[-2]] if len(self.t_ons) > 1 else first
        channels = sorted(first)
        rank_a = np.argsort(np.argsort([first[c] for c in channels]))
        rank_b = np.argsort(np.argsort([last[c] for c in channels]))
        a = rank_a - rank_a.mean()
        b = rank_b - rank_b.mean()
        return float((a * b).sum() / np.sqrt((a * a).sum()
                                             * (b * b).sum()))


def rowpress_ber_study(chips: Sequence[ChipProfile],
                       t_ons: Sequence[float] = ROWPRESS_BER_T_ONS,
                       rows_per_segment: int = 128,
                       hammer_count: int = metrics.ROWPRESS_BER_HAMMERS,
                       pattern: str = "Checkered0",
                       bank: int = 0, pseudo_channel: int = 0,
                       channel_range: Optional[Tuple[int, int]] = None
                       ) -> RowPressBerStudy:
    """Run the Fig. 12 study.

    Sampling noise is unit-local per (channel, t_on) — each draw comes
    from a fresh generator seeded by the channel population's first
    profile seed, exactly a per-bank grid's ``sampled_ber(eff, None)``
    default — so a ``channel_range`` slice measures exactly the matching
    channels of the full study (the shard-parallel Fig. 12 contract).
    """
    channel_means: Dict[str, Dict[float, Dict[int, float]]] = {}
    expected_means: Dict[str, Dict[float, Dict[int, float]]] = {}
    for chip in chips:
        rows = np.concatenate([
            analytic.segment_rows(chip.geometry.rows, segment,
                                  rows_per_segment)
            for segment in ("first", "middle", "last")])
        by_t: Dict[float, Dict[int, float]] = {t: {} for t in t_ons}
        expected_by_t: Dict[float, Dict[int, float]] = {
            t: {} for t in t_ons}
        channels = list(range(chip.geometry.channels))
        if channel_range is not None:
            start, stop = channel_range
            if not 0 <= start <= stop <= len(channels):
                raise ValueError(f"channel range {channel_range} outside "
                                 f"[0, {len(channels)}]")
            channels = channels[start:stop]
        combos = [(channel, pseudo_channel, bank) for channel in channels]
        batch = analytic.combo_population(chip, combos, rows, pattern)
        first_seeds = batch.profile_seeds.reshape(len(channels),
                                                  rows.size)[:, 0]
        for t_on in t_ons:
            eff = analytic.effective_hammers(chip, hammer_count, t_on)
            probabilities = batch.ber(eff).reshape(len(channels), rows.size)
            for index, channel in enumerate(channels):
                rng = np.random.default_rng(
                    int(first_seeds[index]) & 0x7FFFFFFF)
                by_t[t_on][channel] = float((rng.binomial(
                    8192, probabilities[index]) / 8192.0).mean())
                expected_by_t[t_on][channel] = float(
                    probabilities[index].mean())
        channel_means[chip.label] = by_t
        expected_means[chip.label] = expected_by_t
    return RowPressBerStudy(hammer_count, pattern, tuple(t_ons),
                            channel_means, expected_means)


@dataclass
class RowPressHcFirstStudy:
    """Fig. 13 results."""

    pattern: str
    t_ons: Tuple[float, ...]
    #: chip label -> t_on -> HC_first array over the *included* rows.
    hc_by_chip: Dict[str, Dict[float, np.ndarray]]
    #: chip label -> number of rows shown (the grey boxes).
    included_rows: Dict[str, int]

    def mean_at(self, t_on: float) -> float:
        """Mean HC_first across all chips at one on-time (Obsv. 23)."""
        values = np.concatenate([by_t[t_on]
                                 for by_t in self.hc_by_chip.values()])
        return float(values.mean())

    def min_at(self, t_on: float) -> float:
        """Minimum HC_first across all chips at one on-time."""
        values = np.concatenate([by_t[t_on]
                                 for by_t in self.hc_by_chip.values()])
        return float(values.min())

    def reduction_factor(self, t_on: float) -> float:
        """Mean HC_first reduction vs the tRAS baseline (222.57x at
        35.1 us in the paper)."""
        return self.mean_at(self.t_ons[0]) / self.mean_at(t_on)


def rowpress_hcfirst_study(chips: Sequence[ChipProfile],
                           t_ons: Sequence[float] = ROWPRESS_HCFIRST_T_ONS,
                           rows_per_channel: int = 384,
                           channels: Tuple[int, ...] = (0, 1, 2),
                           pattern: str = "Checkered0",
                           bank: int = 0, pseudo_channel: int = 0,
                           channel_range: Optional[Tuple[int, int]] = None
                           ) -> RowPressHcFirstStudy:
    """Run the Fig. 13 study.

    A row is included only when, at *every* tested on-time, its first
    bitflip can be induced within the 32 ms refresh window (HC_first times
    the double-sided cycle time fits in tREFW).  The sweep is rng-free
    and per-channel, so a ``channel_range`` slice of ``channels``
    measures exactly the matching block of the full study's arrays.
    """
    if channel_range is not None:
        start, stop = channel_range
        if not 0 <= start <= stop <= len(channels):
            raise ValueError(f"channel range {channel_range} outside "
                             f"[0, {len(channels)}]")
        channels = channels[start:stop]
    hc_by_chip: Dict[str, Dict[float, np.ndarray]] = {}
    included: Dict[str, int] = {}
    for chip in chips:
        rows = analytic.stratified_rows(chip.geometry.rows,
                                        rows_per_channel)
        timings = DEFAULT_TIMINGS
        per_t: Dict[float, List[np.ndarray]] = {t: [] for t in t_ons}
        keep_masks = []
        amplifications = dict(zip(
            t_ons, chip.disturbance.amplification_array(list(t_ons))))
        combos = [(channel, pseudo_channel, bank) for channel in channels]
        batch = analytic.combo_population(chip, combos, rows, pattern)
        hc_matrix = {
            t: batch.hc_first(amplifications[t]).reshape(
                len(channels), rows.size)
            for t in t_ons}
        for index, channel in enumerate(channels):
            hc_per_t = {t: hc_matrix[t][index] for t in t_ons}
            mask = np.ones(rows.size, dtype=bool)
            for t in t_ons:
                # At t_AggON = 16 ms each aggressor fits exactly once in
                # tREFW (the paper's construction); the floor-and-clamp
                # keeps that single-activation budget despite the tRP
                # overhead.
                budget = max(1, timings.hammers_within(timings.t_refw, t))
                mask &= hc_per_t[t] <= budget
            keep_masks.append(mask)
            for t in t_ons:
                per_t[t].append(hc_per_t[t][mask])
        hc_by_chip[chip.label] = {
            t: np.concatenate(values) if values else np.empty(0)
            for t, values in per_t.items()}
        included[chip.label] = int(sum(mask.sum() for mask in keep_masks))
    return RowPressHcFirstStudy(pattern, tuple(t_ons), hc_by_chip, included)


@dataclass(frozen=True)
class ScrubbedBerResult:
    """Footnote-6 methodology outcome for one row on the exact device."""

    raw: RowBerResult
    retention_positions: np.ndarray
    scrubbed_bitflips: int

    @property
    def scrubbed_ber(self) -> float:
        """Read-disturbance-only BER after retention scrubbing."""
        return self.scrubbed_bitflips / self.raw.total_bits


def measure_scrubbed_row_ber(session: BenderSession,
                             victim_physical: RowAddress,
                             pattern, hammer_count: int, t_on: float,
                             repetitions: int = 5) -> ScrubbedBerResult:
    """Device-exact Fig. 12 measurement with retention scrubbing.

    Profiles the victim's retention failures at the experiment's elapsed
    time (``repetitions`` times, union of failing cells — a cell counts as
    a retention failure if it fails in *any* repetition) and removes them
    from the hammer run's observed flips.
    """
    timings = session.device.timings
    duration = timings.hammer_duration(hammer_count, t_on)
    geometry = session.device.geometry
    retention_positions: Set[int] = set()
    for __ in range(repetitions):
        initialize_window(session, victim_physical, pattern)
        session.device.wait(duration)
        observed = session.read_physical_row(victim_physical)
        expected = pattern.victim_row(geometry.row_bytes)
        positions = metrics.bitflip_positions(expected, observed)
        retention_positions.update(int(p) for p in positions)
    raw = measure_row_ber(session, victim_physical, pattern, hammer_count,
                          t_on)
    scrubbed = [p for p in raw.flip_positions
                if int(p) not in retention_positions]
    return ScrubbedBerResult(
        raw=raw,
        retention_positions=np.array(sorted(retention_positions),
                                     dtype=int),
        scrubbed_bitflips=len(scrubbed),
    )
