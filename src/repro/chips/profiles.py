"""Calibrated profiles of the six tested HBM2 chips.

Each :class:`ChipSpec` captures a chip's published headline statistics
(Table 3, Observations 2, 5, 6, 8, 10, 11) and each :class:`ChipProfile`
turns them into a deterministic, spatially modulated cell-population
provider for the device engine and the analytic experiment paths.

The modulation structure (multiplicative factors on the weak-cell fraction
``f_weak`` and on the hammer-threshold scale) encodes the paper's spatial
findings:

- **dies/channels**: channels pair up per die with the mirrored pairing
  (0,7), (1,6), (2,5), (3,4); per-die BER factors are set per chip so e.g.
  Chip 0's CH7/CH3 mean-BER ratio lands near the reported 1.99x and Chip 4
  shows the largest channel spread (Obsv. 8, 10, 11),
- **banks/pseudo channels**: banks split into two groups — higher mean BER
  with lower row-to-row variation vs lower mean with higher variation —
  reproducing Fig. 9's bimodal clusters (Obsv. 16),
- **subarrays**: the middle and last 832-row subarrays are resilient
  (Obsv. 15); BER peaks mid-subarray and dips at the edges (Obsv. 14),
- **patterns**: checkered patterns couple more strongly than rowstripes
  (Obsv. 3), and a per-channel polarity bias differentiates Rowstripe0
  from Rowstripe1 (Obsv. 13).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.special import ndtr, ndtri

from repro.core.metrics import BER_TEST_HAMMERS
from repro.core.patterns import PATTERNS_BY_NAME
from repro.dram.cell_model import (DEFAULT_MU_STRONG, DEFAULT_SIGMA_WEAK,
                                   CellPopulation, RowDisturbanceProfile,
                                   disturbance_floors)
from repro.dram.disturbance import DEFAULT_DISTURBANCE, DisturbanceModel
from repro.dram.geometry import DEFAULT_GEOMETRY, HBM2Geometry, RowAddress
from repro.dram.retention import RetentionModel
from repro.dram.row_mapping import RowMapping, make_mapping
from repro.dram.seeding import (derive_seed, hash_pattern, normal_for,
                                uniform_for)
from repro.dram.trr import TrrConfig

#: ``(channel, pseudo channel, bank, physical row, pattern)``.
_RowKey = Tuple[int, int, int, int, str]
#: ``(channel, pseudo channel, bank, subarray, pattern)``.
_SubarrayKey = Tuple[int, int, int, int, str]

#: Pattern-level BER coupling factors (mean Checkered 0.76% vs mean
#: Rowstripe 0.67% across rows; Obsv. 3).
_PATTERN_BER = {
    "Rowstripe0": 0.92,
    "Rowstripe1": 0.96,
    "Checkered0": 1.06,
    "Checkered1": 1.02,
    "custom": 1.00,
}

#: Pattern-level HC_first factors (mildly inverse to the BER factors).
_PATTERN_HC = {
    "Rowstripe0": 1.04,
    "Rowstripe1": 1.02,
    "Checkered0": 0.97,
    "Checkered1": 0.99,
    "custom": 1.00,
}

#: Bank groups: (BER factor, per-row log10 BER noise sigma).  Fig. 9's
#: bimodal clusters: higher-mean banks vary less across their rows.
_BANK_GROUPS = ((1.18, 0.14), (0.78, 0.34))

#: Resilient subarray factors (middle + last 832-row subarrays; Obsv. 15).
_RESILIENT_BER_FACTOR = 0.30
_RESILIENT_HC_FACTOR = 1.30

#: Rows with fewer weak cells have proportionally *tighter* weak-threshold
#: spreads: sigma_weak_row = sigma0 * (n_weak / n_ref)^beta, clamped.
#: Physically: a sparse weak population comes from a single tight defect
#: cluster, so once its first cell flips the rest follow closely.  This is
#: what produces the paper's negative HC_first <-> additional-hammer
#: correlation (Obsv. 20, Pearson -0.45..-0.34): low-n rows have high
#: HC_first (fewer chances at a deep minimum) *and* small HC_10th/HC_first
#: ratios.
_SIGMA_N_COUPLING = 0.9
#: Rows whose threshold scale sits above (below) the channel's typical
#: value get a tighter (wider) weak spread; gamma > 1 makes the
#: *additional* hammer count fall as HC_first rises along every pure
#: threshold-noise axis, which is Obsv. 20's negative correlation.
_SIGMA_HC_COUPLING = 2.2
_SIGMA_WEAK_CLAMP = (0.30, 1.12)


def _sigma_weak_for(n_weak: int, n_reference: int,
                    hc_relative: float) -> float:
    """Row-level weak-population spread.

    ``hc_relative`` is the row's threshold scale relative to its
    channel's typical value (pattern and channel factors divided out).
    """
    ratio = max(1, n_weak) / max(1, n_reference)
    shrink = (ratio ** _SIGMA_N_COUPLING
              * hc_relative ** -_SIGMA_HC_COUPLING)
    low, high = _SIGMA_WEAK_CLAMP
    return DEFAULT_SIGMA_WEAK * min(max(shrink, low), high)


@dataclass(frozen=True)
class ChipSpec:
    """Published statistics and configuration of one tested chip."""

    index: int
    label: str
    board: str
    seed: int
    #: Per-die BER factors for dies (0,7), (1,6), (2,5), (3,4).
    die_ber_factors: Tuple[float, float, float, float]
    #: Typical (median-row) HC_first in baseline hammer units.
    base_hc_first: float
    #: Chip-level mean BER target (fraction) for Checkered0 at 256K hammers.
    mean_ber_target: float
    #: Paper's observed minimum HC_first (Obsv. 4/5), for reporting.
    min_hc_first_target: int
    #: Per-row log10 spread of the HC_first scale (tunes the minimum).
    hc_row_sigma: float
    nominal_temperature_c: float
    temperature_controlled: bool
    mapping_family: str
    has_undocumented_trr: bool


#: The six chips of Table 3.  Chip 0 sits on the Bittware XUPVVH board
#: (temperature-controlled at 82 C) and carries the undocumented TRR
#: mechanism of Section 7; Chips 1-5 sit on AMD Xilinx Alveo U50 boards.
CHIP_SPECS: Tuple[ChipSpec, ...] = (
    ChipSpec(0, "Chip 0", "Bittware XUPVVH", 0xB0A0,
             (1.800, 0.920, 0.820, 0.710), 144_000.0, 0.0104, 18_087,
             0.010, 82.0, True, "XorScrambleMapping", True),
    ChipSpec(1, "Chip 1", "AMD Xilinx Alveo U50", 0xB1A1,
             (0.850, 0.950, 0.920, 1.280), 165_000.0, 0.0098, 16_611,
             0.010, 48.5, False, "MirrorOddMapping", False),
    ChipSpec(2, "Chip 2", "AMD Xilinx Alveo U50", 0xB2A2,
             (1.180, 0.750, 1.220, 0.850), 149_000.0, 0.0093, 15_500,
             0.065, 51.0, False, "XorScrambleMapping", False),
    ChipSpec(3, "Chip 3", "AMD Xilinx Alveo U50", 0xB3A3,
             (0.740, 1.400, 0.930, 0.930), 136_000.0, 0.0088, 17_164,
             0.050, 46.0, False, "IdentityMapping", False),
    ChipSpec(4, "Chip 4", "AMD Xilinx Alveo U50", 0xB4A4,
             (1.850, 0.900, 0.850, 0.620), 144_000.0, 0.0080, 15_500,
             0.030, 49.5, False, "MirrorOddMapping", False),
    ChipSpec(5, "Chip 5", "AMD Xilinx Alveo U50", 0xB5A5,
             (1.020, 1.000, 0.990, 0.990), 148_000.0, 0.0066, 14_531,
             0.080, 47.0, False, "XorScrambleMapping", False),
)


#: Version stamp of the calibration model.  Folded into the result-store
#: key (:func:`repro.experiments.store.result_key`, through
#: :func:`calibration_fingerprint`): bump it whenever the math feeding
#: ``base_f_weak`` changes (spatial factor tables, sigma couplings, the
#: refinement loop, or the seeding scheme), so results stored under an
#: older model are never served for a newer one.  Version 2: the
#: refinement batch evaluates ``mu_weak`` with ``math.log10`` like the
#: scalar loop, which moves Chip 1's ``base_f_weak`` by 1 ulp.
CALIBRATION_VERSION = 2


def calibration_fingerprint(spec: ChipSpec,
                            geometry: HBM2Geometry) -> dict:
    """Everything ``base_f_weak`` is a function of, JSON-serializable."""
    return {
        "calibration_version": CALIBRATION_VERSION,
        "spec": {
            "index": spec.index,
            "seed": spec.seed,
            "die_ber_factors": list(spec.die_ber_factors),
            "base_hc_first": spec.base_hc_first,
            "mean_ber_target": spec.mean_ber_target,
            "hc_row_sigma": spec.hc_row_sigma,
        },
        "geometry": {
            "channels": geometry.channels,
            "pseudo_channels": geometry.pseudo_channels,
            "banks": geometry.banks,
            "rows": geometry.rows,
            "row_bits": geometry.row_bits,
            "dies": geometry.dies,
            "subarray_sizes": list(geometry.subarrays.sizes),
        },
        "model": {
            "pattern_ber": _PATTERN_BER,
            "pattern_hc": _PATTERN_HC,
            "bank_groups": [list(group) for group in _BANK_GROUPS],
            "resilient": [_RESILIENT_BER_FACTOR, _RESILIENT_HC_FACTOR],
            "sigma_couplings": [_SIGMA_N_COUPLING, _SIGMA_HC_COUPLING,
                                list(_SIGMA_WEAK_CLAMP)],
            "sigma_weak": DEFAULT_SIGMA_WEAK,
            "ber_test_hammers": BER_TEST_HAMMERS,
        },
    }


@functools.lru_cache(maxsize=None)
def _z_median_min(n_weak: int) -> float:
    """z-score of the median minimum of ``n_weak`` uniform order stats."""
    u = 1.0 - 0.5 ** (1.0 / max(1, n_weak))
    return float(ndtri(u))


@dataclass(frozen=True)
class SpatialTables:
    """Precomputed spatial modulation factors of one chip.

    Row-independent factors (channel, pseudo channel, bank, subarray) are
    scalar functions of a handful of coordinates; the vectorized paths
    index these tables instead of re-deriving the splitmix64 chains on
    every call.  Entries are exactly the scalar accessors' outputs, so
    table-driven results stay bit-identical to the per-row API.
    """

    channel_ber: np.ndarray       #: (channels,)
    channel_hc: np.ndarray        #: (channels,)
    pseudo_channel_ber: np.ndarray  #: (channels, pseudo_channels)
    bank_ber: np.ndarray          #: (channels, pseudo_channels, banks)
    bank_sigma: np.ndarray        #: (channels, pseudo_channels, banks)
    subarray_ber: np.ndarray      #: (subarrays,)
    subarray_hc: np.ndarray       #: (subarrays,)


class ChipProfile:
    """Cell-population provider for one chip.

    Implements the provider protocol the device engine expects
    (:meth:`profile`) plus the per-factor accessors the experiments and
    tests use to validate the spatial structure.
    """

    def __init__(self, spec: ChipSpec,
                 geometry: HBM2Geometry = DEFAULT_GEOMETRY,
                 disturbance: DisturbanceModel = DEFAULT_DISTURBANCE
                 ) -> None:
        self.spec = spec
        self.geometry = geometry
        self.disturbance = disturbance
        self.retention = RetentionModel(seed=spec.seed)
        mean_die = sum(spec.die_ber_factors) / len(spec.die_ber_factors)
        self._die_ber = tuple(f / mean_die for f in spec.die_ber_factors)
        self._spatial_tables: Optional[SpatialTables] = None
        self._pattern_hc_tables: Dict[str, np.ndarray] = {}
        #: Memos shared by every device built from this chip, pure
        #: functions of their keys (a hit is bit-identical to a fresh
        #: derivation): each materialized row's cell population, and the
        #: disturbance floors of every row of a subarray, derived as one
        #: block the first time any of its rows is asked for.
        self._populations: Dict[_RowKey, CellPopulation] = {}
        self._floor_tables: Dict[_SubarrayKey, List[float]] = {}
        from repro import perf
        with perf.timed_phase("calibrate"):
            self.base_f_weak = self._calibrate_f_weak()
            self._refine_f_weak()

    @property
    def n_weak_reference(self) -> int:
        """Typical weak-cell count of a row (anchors the sigma coupling)."""
        return max(16, int(round(self.base_f_weak * 1.06
                                 * self.geometry.row_bits)))

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------

    def _calibrate_f_weak(self) -> float:
        """Solve the chip's base weak-cell fraction.

        Fixed point: the chip-level mean Checkered0 BER at the standard
        BER-test hammer count (512K) must hit ``spec.mean_ber_target`` for
        the median row (spatial factors average to ~1 by construction).
        """
        target = self.spec.mean_ber_target
        pattern_factor = _PATTERN_BER["Checkered0"]
        log_h = math.log10(BER_TEST_HAMMERS)
        f = 0.02
        for __ in range(60):
            effective_f = f * pattern_factor
            n_weak = max(1, int(round(effective_f * self.geometry.row_bits)))
            mu = (math.log10(self.spec.base_hc_first
                             * _PATTERN_HC["Checkered0"])
                  - DEFAULT_SIGMA_WEAK * _z_median_min(n_weak))
            phi = ndtr((log_h - mu) / DEFAULT_SIGMA_WEAK)
            if phi <= 0:
                raise RuntimeError("calibration diverged: zero CDF mass")
            f_new = target / (pattern_factor * phi)
            if abs(f_new - f) < 1.0e-9:
                f = f_new
                break
            f = 0.5 * (f + f_new)
        return float(min(max(f, 1.0e-4), 0.2))

    def _refine_f_weak(self, samples_per_channel: int = 48,
                       iterations: int = 3,
                       vectorized: bool = True) -> None:
        """Monte-Carlo correction of the base weak-cell fraction.

        The analytic fixed point targets the median row; because the
        spatial factors enter the BER non-linearly (and f_weak correlates
        with lower thresholds), the *mean* across rows overshoots by
        ~20%.  Measure the sampled chip mean and rescale.

        The default path evaluates the whole sample as one vectorized
        population batch; ``vectorized=False`` keeps the original scalar
        per-address loop.  Both converge to the same fixed point bit for
        bit (the equivalence test asserts it): the batch replays the
        scalar path's exact splitmix64 chains and operation order, and
        the sample mean sums the per-address BERs in the same order.
        """
        rng = np.random.Generator(np.random.Philox(self.spec.seed ^ 0xCA1))
        addresses = []
        for channel in range(self.geometry.channels):
            banks = rng.integers(0, self.geometry.banks,
                                 samples_per_channel)
            rows = rng.integers(0, self.geometry.rows, samples_per_channel)
            pcs = rng.integers(0, self.geometry.pseudo_channels,
                               samples_per_channel)
            addresses.extend(
                RowAddress(channel, int(pc), int(bank), int(row))
                for pc, bank, row in zip(pcs, banks, rows))
        from repro.core.metrics import BER_TEST_HAMMERS as _hammers
        if vectorized:
            from repro.chips.vectorized import population_batch
            channels_arr = np.array([a.channel for a in addresses])
            pcs_arr = np.array([a.pseudo_channel for a in addresses])
            banks_arr = np.array([a.bank for a in addresses])
            rows_arr = np.array([a.row for a in addresses])
        for __ in range(iterations):
            if vectorized:
                batch = population_batch(self, channels_arr, pcs_arr,
                                         banks_arr, rows_arr, "Checkered0")
                bers = batch.ber(_hammers).tolist()
            else:
                bers = [self.cell_population(address, "Checkered0")
                        .ber(_hammers) for address in addresses]
            measured = sum(bers) / len(bers)
            if measured <= 0:
                raise RuntimeError("calibration produced zero mean BER")
            self.base_f_weak *= self.spec.mean_ber_target / measured

    # ------------------------------------------------------------------
    # Spatial modulation factors
    # ------------------------------------------------------------------

    def channel_ber_factor(self, channel: int) -> float:
        """Die factor plus a small intra-pair jitter."""
        die = self.geometry.die_of_channel(channel)
        jitter = 10.0 ** (0.012 * normal_for(
            self.spec.seed, 0xC11, channel))
        return self._die_ber[die] * jitter

    def channel_hc_factor(self, channel: int) -> float:
        """HC_first scale of a channel: inverse-correlated with its BER.

        Channels with more bitflips also contain rows with smaller
        HC_first (Obsv. 12).
        """
        jitter = 10.0 ** (0.03 * normal_for(
            self.spec.seed, 0xC12, channel))
        return self.channel_ber_factor(channel) ** -0.35 * jitter

    def pseudo_channel_factor(self, channel: int, pseudo_channel: int) -> float:
        """Small pseudo-channel BER modulation (Obsv. 16)."""
        return 10.0 ** (0.03 * normal_for(
            self.spec.seed, 0xBC, channel, pseudo_channel))

    def bank_group(self, channel: int, pseudo_channel: int,
                   bank: int) -> int:
        """Bimodal bank group index (0 = high-BER/low-CV, 1 = opposite)."""
        return int(uniform_for(self.spec.seed, 0xBA, channel,
                               pseudo_channel, bank) < 0.5)

    def bank_factors(self, channel: int, pseudo_channel: int,
                     bank: int) -> Tuple[float, float]:
        """(BER factor, per-row log10 BER noise sigma) of a bank."""
        return _BANK_GROUPS[self.bank_group(channel, pseudo_channel, bank)]

    def subarray_factors(self, subarray: int) -> Tuple[float, float]:
        """(BER factor, HC factor) of a subarray.

        The middle and last subarrays are resilient (Obsv. 15); the others
        get a mild deterministic jitter.
        """
        layout = self.geometry.subarrays
        if subarray in (layout.middle_subarray, layout.last_subarray):
            return _RESILIENT_BER_FACTOR, _RESILIENT_HC_FACTOR
        ber = 10.0 ** (0.08 * normal_for(self.spec.seed, 0x5A, subarray))
        return ber, ber ** -0.3

    @staticmethod
    def row_position_ber_factor(offset: int, size: int) -> float:
        """Within-subarray BER profile: peaks mid-subarray (Obsv. 14)."""
        if not 0 <= offset < size:
            raise ValueError("offset must lie within the subarray")
        fraction = (offset + 0.5) / size
        return 0.75 + 0.5 * math.sin(math.pi * fraction)

    def pattern_factors(self, pattern: str,
                        channel: int) -> Tuple[float, float]:
        """(BER factor, HC factor) of a data pattern on a channel.

        Adds a per-channel polarity bias: channels are richer in true- or
        anti-cells, so victim-0 and victim-1 patterns differ (Obsv. 13,
        e.g. Rowstripe0 vs Rowstripe1 median HC_first in Chip 1 CH0).
        """
        ber = _PATTERN_BER.get(pattern, 1.0)
        hc = _PATTERN_HC.get(pattern, 1.0)
        canonical = PATTERNS_BY_NAME.get(pattern)
        if canonical is not None:
            delta = 0.025 * normal_for(self.spec.seed, 0xF0, channel)
            sign = 1.0 if canonical.victim_polarity == 0 else -1.0
            hc *= 10.0 ** (sign * delta)
        return ber, hc

    # ------------------------------------------------------------------
    # Precomputed factor tables (vectorized paths)
    # ------------------------------------------------------------------

    def spatial_tables(self) -> SpatialTables:
        """Row-independent spatial factors as indexable arrays.

        Built lazily from the scalar accessors (a few hundred cheap
        calls) and cached for the chip's lifetime; the vectorized
        population paths index these instead of re-deriving per call.
        """
        if self._spatial_tables is None:
            geometry = self.geometry
            channels = range(geometry.channels)
            bank_pairs = np.array(
                [[[self.bank_factors(channel, pc, bank)
                   for bank in range(geometry.banks)]
                  for pc in range(geometry.pseudo_channels)]
                 for channel in channels])
            subarrays = np.array(
                [self.subarray_factors(index)
                 for index in range(geometry.subarrays.count)])
            self._spatial_tables = SpatialTables(
                channel_ber=np.array([self.channel_ber_factor(channel)
                                      for channel in channels]),
                channel_hc=np.array([self.channel_hc_factor(channel)
                                     for channel in channels]),
                pseudo_channel_ber=np.array(
                    [[self.pseudo_channel_factor(channel, pc)
                      for pc in range(geometry.pseudo_channels)]
                     for channel in channels]),
                bank_ber=bank_pairs[..., 0],
                bank_sigma=bank_pairs[..., 1],
                subarray_ber=subarrays[:, 0],
                subarray_hc=subarrays[:, 1],
            )
        return self._spatial_tables

    def pattern_hc_table(self, pattern: str) -> np.ndarray:
        """Per-channel HC factors of one pattern (Obsv. 13 polarity)."""
        table = self._pattern_hc_tables.get(pattern)
        if table is None:
            table = np.array(
                [self.pattern_factors(pattern, channel)[1]
                 for channel in range(self.geometry.channels)])
            self._pattern_hc_tables[pattern] = table
        return table

    # ------------------------------------------------------------------
    # Row-level population
    # ------------------------------------------------------------------

    def cell_population(self, address: RowAddress,
                        pattern: str) -> CellPopulation:
        """Calibrated cell mixture for one (row, pattern) pair."""
        address.validate(self.geometry)
        spec = self.spec
        layout = self.geometry.subarrays
        subarray, offset, size = layout.position_in_subarray(address.row)
        ch_ber = self.channel_ber_factor(address.channel)
        ch_hc = self.channel_hc_factor(address.channel)
        pc_ber = self.pseudo_channel_factor(address.channel,
                                            address.pseudo_channel)
        bank_ber, row_sigma = self.bank_factors(
            address.channel, address.pseudo_channel, address.bank)
        sa_ber, sa_hc = self.subarray_factors(subarray)
        pos_ber = self.row_position_ber_factor(offset, size)
        patt_ber, patt_hc = self.pattern_factors(pattern, address.channel)
        coords = (address.channel, address.pseudo_channel, address.bank,
                  address.row)
        row_ber_noise = 10.0 ** (row_sigma * normal_for(
            spec.seed, 0xBE, *coords))
        row_hc_noise = 10.0 ** (spec.hc_row_sigma * normal_for(
            spec.seed, 0x4C, *coords))
        affinity = 10.0 ** (0.06 * normal_for(
            spec.seed, 0xAF, *coords, hash_pattern(pattern)))
        # The within-subarray position factor modulates how many weak
        # cells a row has (Fig. 8's periodic BER profile) but not their
        # threshold scale; folding it into hc_target would let the sigma
        # couplings cancel the profile.
        ber_spatial = (ch_ber * pc_ber * bank_ber * sa_ber
                       * patt_ber * row_ber_noise)
        ber_total = ber_spatial * pos_ber
        # The cap pins the chip's worst-row BER: Chip 0's 3.02% maximum
        # corresponds to ~2.4x its base weak fraction (Takeaway 1).
        f_cap = min(2.4 * self.base_f_weak, 0.08)
        f_weak = min(max(self.base_f_weak * ber_total, 2.0e-3), f_cap)
        hc_target = (spec.base_hc_first * ch_hc * sa_hc * patt_hc
                     * row_hc_noise * affinity * ber_spatial ** -0.15)
        n_weak = max(1, int(round(f_weak * self.geometry.row_bits)))
        # The threshold distribution (mu, sigma) is anchored on the
        # position-independent weak count: rows in the middle of a
        # subarray then hold more cells drawn from the *same*
        # distribution, so their first bitflip arrives earlier and their
        # BER is proportionally higher (Obsv. 14's profile).
        f_spatial = min(max(self.base_f_weak * ber_spatial, 2.0e-3),
                        f_cap)
        n_spatial = max(1, int(round(f_spatial * self.geometry.row_bits)))
        hc_relative = hc_target / (spec.base_hc_first * ch_hc * patt_hc)
        sigma_weak = _sigma_weak_for(n_spatial, self.n_weak_reference,
                                     hc_relative)
        mu_weak = (math.log10(hc_target)
                   - sigma_weak * _z_median_min(n_spatial))
        mu_strong = (DEFAULT_MU_STRONG - 0.08 * math.log10(ch_ber)
                     + 0.03 * normal_for(spec.seed, 0x57, *coords))
        flippable = 0.5 + 0.04 * (uniform_for(
            spec.seed, 0xFB, *coords) - 0.5)
        return CellPopulation(
            f_weak=f_weak, mu_weak=mu_weak,
            sigma_weak=sigma_weak, mu_strong=mu_strong,
            flippable_strong_fraction=flippable)

    def profile(self, address: RowAddress,
                pattern: str) -> RowDisturbanceProfile:
        """Provider protocol entry point used by the device engine."""
        key = (address.channel, address.pseudo_channel, address.bank,
               address.row, pattern)
        population = self._populations.get(key)
        if population is None:
            population = self.cell_population(address, pattern)
            self._populations[key] = population
        seed = derive_seed(self.spec.seed, 0xD0, address.channel,
                           address.pseudo_channel, address.bank, address.row,
                           hash_pattern(pattern))
        return RowDisturbanceProfile(population, seed,
                                     self.geometry.row_bits)

    def disturbance_floor(self, address: RowAddress, pattern: str) -> float:
        """The row's weakest cell threshold under ``pattern`` (see
        :meth:`RowDisturbanceProfile.disturbance_floor`).

        Floors are derived a subarray at a time: the scalar-faithful
        population batch equals :meth:`cell_population` bit for bit, and
        :func:`~repro.dram.cell_model.disturbance_floors` is the same
        kernel the single-row profile calls, so every entry of the table
        equals ``self.profile(address, pattern).disturbance_floor()``.
        """
        layout = self.geometry.subarrays
        subarray = layout.subarray_of(address.row)
        key = (address.channel, address.pseudo_channel, address.bank,
               subarray, pattern)
        floors = self._floor_tables.get(key)
        if floors is None:
            from repro.chips.vectorized import population_batch
            batch = population_batch(
                self, address.channel, address.pseudo_channel,
                address.bank, np.asarray(layout.rows_of(subarray)),
                pattern)
            floors = disturbance_floors(
                batch.mu_weak, batch.sigma_weak, batch.n_weak,
                batch.mu_strong, batch.profile_seeds,
                batch.sigma_strong).tolist()
            self._floor_tables[key] = floors
        return floors[address.row - layout.boundaries[subarray]]

    # ------------------------------------------------------------------
    # Device construction
    # ------------------------------------------------------------------

    def row_mapping(self) -> RowMapping:
        """This chip's logical-to-physical row mapping."""
        return make_mapping(self.spec.mapping_family, self.geometry.rows)

    def trr_config(self) -> TrrConfig:
        """TRR configuration (the proprietary mechanism only in Chip 0)."""
        return TrrConfig(enabled=self.spec.has_undocumented_trr)

    def make_device(self, trr_config: Optional[TrrConfig] = None,
                    with_mapping: bool = True):
        """Instantiate the simulated HBM2 stack for this chip."""
        from repro.dram.device import HBM2Stack  # avoid import cycle

        mapping = self.row_mapping() if with_mapping else None
        return HBM2Stack(
            geometry=self.geometry,
            disturbance=self.disturbance,
            retention=self.retention,
            trr_config=trr_config or self.trr_config(),
            profile_provider=self,
            row_mapping=mapping,
            calibration_temperature_c=self.spec.nominal_temperature_c,
        )

    @property
    def label(self) -> str:
        """Paper label ('Chip 0' .. 'Chip 5')."""
        return self.spec.label


@functools.lru_cache(maxsize=None)
def make_chip(index: int) -> ChipProfile:
    """Profile of chip ``index`` (0..5), cached."""
    if not 0 <= index < len(CHIP_SPECS):
        raise ValueError(f"chip index {index} out of range")
    return ChipProfile(CHIP_SPECS[index])


def all_chips() -> Tuple[ChipProfile, ...]:
    """All six chip profiles in Table 3 order."""
    return tuple(make_chip(index) for index in range(len(CHIP_SPECS)))


def chip_labels() -> Dict[str, str]:
    """Table 3: chip label -> FPGA board."""
    return {spec.label: spec.board for spec in CHIP_SPECS}
