"""Section 4: spatial variation of RowHammer across the HBM2 hierarchy.

Implements the four analyses of the paper's Section 4 against the chip
population:

- across chips (Fig. 4 BER, Fig. 5 HC_first),
- across channels (Fig. 6 BER, Fig. 7 HC_first),
- across rows within a bank, exposing the subarray structure (Fig. 8),
- across banks and pseudo channels (Fig. 9).

Tested populations follow Table 2; every study takes explicit population
sizes so benchmarks can run scaled-down versions of the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chips.profiles import ChipProfile
from repro.core import analytic, metrics
from repro.core.patterns import ALL_PATTERNS

#: Pattern columns reported by the figures (Table 1 order plus WCDP).
PATTERN_COLUMNS = tuple(p.name for p in ALL_PATTERNS) + ("WCDP",)


def spatial_units(channels: int,
                  pseudo_channels: Sequence[int]) -> List[Tuple[int, int]]:
    """The (channel, pseudo channel) sweep units, in combo-major order.

    The HC_first studies cross these units with their bank tuple to get
    the combo list (channel-major, pseudo-channel-mid, bank-minor), so
    a *contiguous range of units* is a contiguous block of combos — the
    property the shard-parallel experiment path relies on to merge
    per-shard arrays by plain concatenation.
    """
    return [(channel, pc) for channel in range(channels)
            for pc in pseudo_channels]


def unit_combos(units: Sequence[Tuple[int, int]],
                banks: Sequence[int]) -> List[Tuple[int, int, int]]:
    """Cross sweep units with the bank tuple (bank-minor combo order)."""
    return [(channel, pc, bank) for channel, pc in units
            for bank in banks]


@dataclass(frozen=True)
class DistributionSummary:
    """Summary statistics of a BER or HC_first distribution."""

    mean: float
    median: float
    minimum: float
    maximum: float
    std: float
    count: int

    @classmethod
    def of(cls, values: np.ndarray) -> "DistributionSummary":
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            raise ValueError("cannot summarize an empty distribution")
        return cls(
            mean=float(values.mean()),
            median=float(np.median(values)),
            minimum=float(values.min()),
            maximum=float(values.max()),
            std=float(values.std()),
            count=int(values.size),
        )


# ----------------------------------------------------------------------
# Across chips (Figs. 4 and 5)
# ----------------------------------------------------------------------

def _chip_summaries(flats: Dict[str, Dict[str, np.ndarray]]
                    ) -> Dict[str, Dict[str, DistributionSummary]]:
    """Chip label -> pattern -> summary of that chip's flat."""
    return {label: {name: DistributionSummary.of(flat[name])
                    for name in PATTERN_COLUMNS}
            for label, flat in flats.items()}


@dataclass
class ChipBerStudy:
    """Fig. 4: BER distribution across rows, per chip and pattern."""

    hammer_count: int
    #: chip label -> pattern -> distribution across tested rows.
    summaries: Dict[str, Dict[str, DistributionSummary]]

    @classmethod
    def from_flats(cls, flats: Dict[str, Dict[str, np.ndarray]],
                   hammer_count: int = metrics.BER_TEST_HAMMERS
                   ) -> "ChipBerStudy":
        """Summarize :func:`chip_ber_flats` output."""
        return cls(hammer_count, _chip_summaries(flats))

    def chip_mean(self, label: str, pattern: str = "WCDP") -> float:
        """Chip-level mean BER for one pattern."""
        return self.summaries[label][pattern].mean

    def mean_spread(self, pattern: str = "Checkered0") -> float:
        """Obsv. 11's chip-level spread: max - min of chip mean BER."""
        means = [by_pattern[pattern].mean
                 for by_pattern in self.summaries.values()]
        return max(means) - min(means)


def chip_ber_flats(chips: Sequence[ChipProfile],
                   rows_per_channel: int = 16384,
                   hammer_count: int = metrics.BER_TEST_HAMMERS,
                   bank: int = 0, pseudo_channel: int = 0,
                   sampled: bool = True,
                   unit_range: Optional[Tuple[int, int]] = None
                   ) -> Dict[str, Dict[str, np.ndarray]]:
    """Chip label -> pattern -> flat channel-major BER over a unit range.

    The BER row sweeps (Figs. 4 and 6) decompose into one unit per
    channel.  Sampling is *unit-local* — each (channel, pattern) grid
    draws its binomial noise from a generator seeded by its own first
    profile seed (``rng=None`` down the stack) — so a unit's values do
    not depend on which other units share the call.  Concatenating the
    flats of consecutive unit ranges therefore reproduces the
    whole-sweep flat bit-for-bit — the contract of the shard-parallel
    experiment path.
    """
    flats: Dict[str, Dict[str, np.ndarray]] = {}
    for chip in chips:
        channels = list(range(chip.geometry.channels))
        if unit_range is not None:
            start, stop = unit_range
            if not 0 <= start <= stop <= len(channels):
                raise ValueError(
                    f"unit range {unit_range} outside [0, {len(channels)}]")
            channels = channels[start:stop]
        rows = analytic.stratified_rows(chip.geometry.rows,
                                        rows_per_channel)
        combos = [(channel, pseudo_channel, bank) for channel in channels]
        bers = analytic.wcdp_ber_multi(chip, combos, rows, hammer_count,
                                       rng=None, sampled=sampled)
        flats[chip.label] = {name: np.asarray(bers[name]).reshape(-1)
                             for name in PATTERN_COLUMNS}
    return flats


@dataclass
class ChipHcFirstStudy:
    """Fig. 5: HC_first distribution across rows, per chip and pattern."""

    summaries: Dict[str, Dict[str, DistributionSummary]]

    @classmethod
    def from_flats(cls, flats: Dict[str, Dict[str, np.ndarray]]
                   ) -> "ChipHcFirstStudy":
        """Summarize per-chip :func:`hcfirst_flat` output."""
        return cls(_chip_summaries(flats))

    def chip_minimum(self, label: str, pattern: str = "WCDP") -> float:
        """The chip's minimum HC_first (Obsv. 4/5)."""
        return self.summaries[label][pattern].minimum

    def minimum_spread(self, pattern: str = "WCDP") -> float:
        """Takeaway 2: spread of minimum HC_first across chips."""
        minima = [by_pattern[pattern].minimum
                  for by_pattern in self.summaries.values()]
        return max(minima) - min(minima)


def hcfirst_flat(chip: ChipProfile, rows_per_bank: int,
                 banks: Tuple[int, ...],
                 pseudo_channels: Tuple[int, ...],
                 unit_range: Optional[Tuple[int, int]] = None
                 ) -> Dict[str, np.ndarray]:
    """Per-pattern HC_first over a (channel, pseudo channel) unit range.

    Returns pattern name (plus ``"WCDP"``) -> one flat combo-major
    array of ``len(combos) * rows`` values, where the combos cross the
    selected units (all of them when ``unit_range`` is ``None``) with
    ``banks``.  The flat layout is the contract of the shard-parallel
    experiment path: concatenating the flats of consecutive unit ranges
    reproduces the whole-sweep flat bit-for-bit.
    """
    rows = analytic.stratified_rows(chip.geometry.rows, rows_per_bank)
    units = spatial_units(chip.geometry.channels, pseudo_channels)
    if unit_range is not None:
        start, stop = unit_range
        if not 0 <= start <= stop <= len(units):
            raise ValueError(
                f"unit range {unit_range} outside [0, {len(units)}]")
        units = units[start:stop]
    hc = analytic.wcdp_hc_first_multi(chip, unit_combos(units, banks),
                                      rows)
    return {name: np.asarray(hc[name]).reshape(-1)
            for name in PATTERN_COLUMNS}


# ----------------------------------------------------------------------
# Across channels (Figs. 6 and 7)
# ----------------------------------------------------------------------

@dataclass
class ChannelStudy:
    """Figs. 6/7: per-channel distributions for one chip."""

    chip_label: str
    metric: str  # "ber" or "hc_first"
    #: pattern -> channel -> distribution summary.
    summaries: Dict[str, Dict[int, DistributionSummary]]

    def channel_means(self, pattern: str = "WCDP") -> Dict[int, float]:
        """Channel -> mean of the metric."""
        return {channel: summary.mean
                for channel, summary in self.summaries[pattern].items()}

    def extreme_ratio(self, pattern: str = "WCDP") -> float:
        """Highest / lowest channel mean (Obsv. 8: 1.99x in Chip 0)."""
        means = list(self.channel_means(pattern).values())
        return max(means) / min(means)

    def mean_spread(self, pattern: str = "Checkered0") -> float:
        """Max - min channel mean (Obsv. 11's channel-level spread)."""
        means = list(self.channel_means(pattern).values())
        return max(means) - min(means)


def channel_ber_study(chip: ChipProfile, rows_per_channel: int = 16384,
                      hammer_count: int = metrics.BER_TEST_HAMMERS,
                      bank: int = 0, pseudo_channel: int = 0,
                      sampled: bool = True) -> ChannelStudy:
    """Run the Fig. 6 study for one chip (``sampled=False`` removes the
    finite-row binomial noise; sampling noise is unit-local per channel,
    see :func:`chip_ber_flats`)."""
    flats = chip_ber_flats([chip], rows_per_channel, hammer_count, bank,
                           pseudo_channel, sampled)
    return ChannelStudy(chip.label, "ber", channel_ber_summaries(
        flats[chip.label], chip.geometry.channels))


def channel_ber_summaries(flat: Dict[str, np.ndarray], channels: int
                          ) -> Dict[str, Dict[int, DistributionSummary]]:
    """Per-channel summaries from one chip's channel-major BER flat."""
    summaries: Dict[str, Dict[int, DistributionSummary]] = {
        name: {} for name in PATTERN_COLUMNS}
    for name in PATTERN_COLUMNS:
        matrix = np.asarray(flat[name]).reshape(channels, -1)
        for channel in range(channels):
            summaries[name][channel] = DistributionSummary.of(
                matrix[channel])
    return summaries


def channel_summaries_from_flat(flat: Dict[str, np.ndarray],
                                rows_size: int,
                                banks: Tuple[int, ...],
                                pseudo_channels: Tuple[int, ...],
                                unit_range: Optional[Tuple[int, int]]
                                = None, channels: int = 8
                                ) -> Dict[str, Dict[
                                    int, DistributionSummary]]:
    """Per-channel distribution summaries from a combo-major flat.

    Units are channel-major, so each channel's measurements occupy one
    contiguous run of the flat; grouping by the unit list handles
    partial unit ranges (shard slices that split a channel's pseudo
    channels) with the same arithmetic as the full sweep — for the full
    range this reproduces the historical per-channel slab reshape,
    value for value.
    """
    units = spatial_units(channels, pseudo_channels)
    if unit_range is not None:
        units = units[unit_range[0]:unit_range[1]]
    block = len(banks) * rows_size
    summaries: Dict[str, Dict[int, DistributionSummary]] = {
        name: {} for name in PATTERN_COLUMNS}
    for name in PATTERN_COLUMNS:
        values = flat[name]
        cursor = 0
        spans: Dict[int, List[np.ndarray]] = {}
        for channel, __ in units:
            spans.setdefault(channel, []).append(
                values[cursor:cursor + block])
            cursor += block
        for channel, pieces in spans.items():
            merged = pieces[0] if len(pieces) == 1 \
                else np.concatenate(pieces)
            summaries[name][channel] = DistributionSummary.of(merged)
    return summaries


def channel_hcfirst_study(chip: ChipProfile, rows_per_bank: int = 3072,
                          banks: Tuple[int, ...] = (0, 5, 11),
                          pseudo_channels: Tuple[int, ...] = (0, 1)
                          ) -> ChannelStudy:
    """Run the Fig. 7 study for one chip."""
    rows = analytic.stratified_rows(chip.geometry.rows, rows_per_bank)
    flat = hcfirst_flat(chip, rows_per_bank, banks, pseudo_channels)
    summaries = channel_summaries_from_flat(
        flat, rows.size, banks, pseudo_channels,
        channels=chip.geometry.channels)
    return ChannelStudy(chip.label, "hc_first", summaries)


def die_pairs(chip: ChipProfile) -> List[Tuple[int, int]]:
    """Channel pairs sharing a die (Obsv. 8's groups of two)."""
    by_die: Dict[int, List[int]] = {}
    for channel in range(chip.geometry.channels):
        by_die.setdefault(chip.geometry.die_of_channel(channel),
                          []).append(channel)
    return [tuple(channels) for channels in by_die.values()]


# ----------------------------------------------------------------------
# Across rows in a bank (Fig. 8)
# ----------------------------------------------------------------------

@dataclass
class RowProfileStudy:
    """Fig. 8: WCDP BER for every row of a bank in several channels."""

    chip_label: str
    channels: Tuple[int, ...]
    rows: np.ndarray
    #: channel -> per-row BER array (aligned with ``rows``).
    ber_by_channel: Dict[int, np.ndarray]
    #: Ground-truth subarray boundaries (for plot shading / validation).
    subarray_boundaries: Tuple[int, ...]

    def subarray_means(self, channel: int) -> List[float]:
        """Mean BER of each fully covered subarray."""
        ber = self.ber_by_channel[channel]
        means = []
        bounds = self.subarray_boundaries
        for start, end in zip(bounds, bounds[1:]):
            mask = (self.rows >= start) & (self.rows < end)
            if mask.any():
                means.append(float(ber[mask].mean()))
        return means


def row_ber_profile(chip: ChipProfile,
                    channels: Tuple[int, ...] = (0, 3, 7),
                    bank: int = 0, pseudo_channel: int = 0,
                    row_stride: int = 1,
                    hammer_count: int = metrics.BER_TEST_HAMMERS
                    ) -> RowProfileStudy:
    """Run the Fig. 8 study: per-row WCDP BER across a bank.

    Sampling noise is unit-local per channel, so a channel's profile is
    the same whether measured alone or alongside the others — the
    property the shard-parallel Fig. 8 path relies on.
    """
    rows = np.arange(0, chip.geometry.rows, row_stride)
    combos = [(channel, pseudo_channel, bank) for channel in channels]
    wcdp = analytic.wcdp_ber_multi(chip, combos, rows, hammer_count,
                                   rng=None)["WCDP"]
    ber_by_channel = {channel: wcdp[index]
                      for index, channel in enumerate(channels)}
    return RowProfileStudy(
        chip_label=chip.label,
        channels=tuple(channels),
        rows=rows,
        ber_by_channel=ber_by_channel,
        subarray_boundaries=chip.geometry.subarrays.boundaries,
    )


# ----------------------------------------------------------------------
# Across banks and pseudo channels (Fig. 9)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BankPoint:
    """One marker of Fig. 9: a bank's mean BER and CV across its rows."""

    channel: int
    pseudo_channel: int
    bank: int
    mean_ber: float
    cv: float


@dataclass
class BankVariationStudy:
    """Fig. 9: BER variation across the 256 banks of one chip."""

    chip_label: str
    points: List[BankPoint] = field(default_factory=list)

    def cluster_split(self) -> Tuple[List[BankPoint], List[BankPoint]]:
        """Split the bimodal cloud at the median CV (Obsv. 16)."""
        cvs = sorted(point.cv for point in self.points)
        threshold = cvs[len(cvs) // 2]
        low = [p for p in self.points if p.cv <= threshold]
        high = [p for p in self.points if p.cv > threshold]
        return low, high

    def channel_spread(self) -> float:
        """Max - min of per-channel mean BER (Obsv. 17)."""
        by_channel: Dict[int, List[float]] = {}
        for point in self.points:
            by_channel.setdefault(point.channel, []).append(point.mean_ber)
        means = [float(np.mean(v)) for v in by_channel.values()]
        return max(means) - min(means)

    def intra_channel_spread(self, channel: int) -> float:
        """Max - min mean BER across banks within one channel."""
        values = [p.mean_ber for p in self.points if p.channel == channel]
        return max(values) - min(values)


def bank_variation_study(chip: ChipProfile, rows_per_segment: int = 100,
                         pattern: str = "Checkered0",
                         hammer_count: int = metrics.BER_TEST_HAMMERS,
                         combo_range: Optional[Tuple[int, int]] = None
                         ) -> BankVariationStudy:
    """Run the Fig. 9 study (first/middle/last 100 rows of all 256 banks).

    Sampling noise is unit-local per (channel, PC, bank) combo — each
    combo draws from a generator seeded by its own first profile seed —
    so a ``combo_range`` slice measures exactly the matching slice of
    the full study's points (the shard-parallel Fig. 9 contract).
    """
    geometry = chip.geometry
    rows = np.concatenate([
        analytic.segment_rows(geometry.rows, "first", rows_per_segment),
        analytic.segment_rows(geometry.rows, "middle", rows_per_segment),
        analytic.segment_rows(geometry.rows, "last", rows_per_segment),
    ])
    study = BankVariationStudy(chip.label)
    eff = analytic.effective_hammers(chip, hammer_count)
    combos = list(geometry.iter_banks())
    if combo_range is not None:
        start, stop = combo_range
        if not 0 <= start <= stop <= len(combos):
            raise ValueError(
                f"combo range {combo_range} outside [0, {len(combos)}]")
        combos = combos[start:stop]
    # Chunk-streamed: the 256-bank cross is the largest single
    # population of the suite and must not materialize whole-device.
    probabilities = analytic.combo_ber_matrix(chip, combos, rows, pattern,
                                              eff)
    first_seeds = analytic.combo_first_seeds(chip, combos, rows, pattern)
    for index, (channel, pc, bank) in enumerate(combos):
        # The generator a per-bank grid's ``sampled_ber(eff, None)`` seeds.
        rng = np.random.default_rng(int(first_seeds[index]) & 0x7FFFFFFF)
        ber = rng.binomial(8192, probabilities[index]) / 8192.0
        mean = float(ber.mean())
        cv = float(ber.std() / mean) if mean > 0 else 0.0
        study.points.append(BankPoint(channel, pc, bank, mean, cv))
    return study
