"""Vectorized cell populations for whole-bank sweeps.

The spatial-variation experiments touch up to ~10^5 rows per chip; looping
:meth:`ChipProfile.cell_population` row by row would dominate experiment
time.  :class:`PopulationBatch` computes the same quantities for an array
of row addresses in one shot; the seeding helpers replay the exact
splitmix64 chains of the scalar path.  Two constructors build it:

- :func:`population_combos` (and its one-bank form
  :func:`population_grid`) covers the cross-product of (channel, pseudo
  channel, bank) combos and rows, with numpy's fast power kernels: equal
  to the per-row API within ~1 ulp (asserted in tests).  Every sweep
  runs through it.
- :func:`population_batch` takes arbitrary coordinate arrays and is
  bit-identical to the per-row API; the chip calibration
  (:meth:`ChipProfile._refine_f_weak`) and the disturbance floor tables
  rely on that.

Both use :func:`scipy.special.ndtr`/:func:`~scipy.special.ndtri`
directly — bit-identical to ``scipy.stats.norm.cdf``/``ppf`` without the
per-call distribution dispatch overhead.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.special import ndtr, ndtri

from repro.chips.profiles import (_PATTERN_BER, _SIGMA_HC_COUPLING,
                                  _SIGMA_N_COUPLING, _SIGMA_WEAK_CLAMP,
                                  ChipProfile)
from repro.dram.cell_model import (DEFAULT_MU_STRONG, DEFAULT_SIGMA_STRONG,
                                   DEFAULT_SIGMA_WEAK,
                                   order_stats_from_draws)
from repro.dram.seeding import (fold_seed_states, hash_pattern,
                                normals_from_states, seed_array_mixed,
                                uniforms_from_seeds, uniforms_from_states)


def _mixture_ber(f_weak: np.ndarray, mu_weak: np.ndarray,
                 sigma_weak: np.ndarray, mu_strong: np.ndarray,
                 sigma_strong: float, flippable: np.ndarray,
                 effective_hammers: float) -> np.ndarray:
    """Closed-form per-row mixture BER (see :meth:`CellPopulation.ber`)."""
    if effective_hammers <= 0:
        return np.zeros_like(f_weak)
    log_h = math.log10(effective_hammers)
    weak = f_weak * ndtr((log_h - mu_weak) / sigma_weak)
    strong = ((1.0 - f_weak) * flippable
              * ndtr((log_h - mu_strong) / sigma_strong))
    return weak + strong


def _pow(base, exponent, scalar_faithful: bool):
    """Elementwise power, optionally bit-faithful to the scalar path.

    numpy's vectorized ``**`` kernel (SIMD) rounds differently from C
    ``pow`` on ~5% of inputs (1 ulp).  The scalar
    :meth:`ChipProfile.cell_population` path uses Python's ``**`` (C
    ``pow``), so callers needing bit-identity with it — the calibration
    refinement — take the explicit per-element loop; bulk sweep paths
    keep the fast kernel.
    """
    if not scalar_faithful:
        return base ** exponent
    if np.isscalar(base) or np.ndim(base) == 0:
        values = np.asarray(exponent)
        flat = [base ** v for v in values.ravel().tolist()]
    else:
        values = np.asarray(base)
        flat = [v ** exponent for v in values.ravel().tolist()]
    return np.array(flat).reshape(values.shape)


def _log10(values, scalar_faithful: bool):
    """Elementwise log10, optionally bit-faithful to ``math.log10``.

    numpy's array ``log10`` differs from the scalar path's
    ``math.log10`` by 1 ulp on about 1% of ``mu_weak`` inputs, so the
    scalar-faithful batch evaluates it per element (see :func:`_pow`).
    """
    if not scalar_faithful:
        return np.log10(values)
    values = np.asarray(values)
    return np.array([math.log10(v) for v in values.ravel().tolist()]
                    ).reshape(values.shape)


class _FlatChains:
    """Seed chains folding the full coordinate arrays per component.

    One chain per draw tag: ``derive_seed(seed, tag, channel, pc, bank,
    row, *post)`` element-wise over the coordinate arrays, exactly as the
    scalar :meth:`ChipProfile.cell_population` derives its draws.
    """

    def __init__(self, seed: int, coords: tuple):
        self.seed = seed
        self.coords = coords

    def states(self, tag: int, *post):
        return seed_array_mixed(self.seed, tag, *self.coords, *post)

    def normal(self, tag: int, *post) -> np.ndarray:
        return normals_from_states(self.states(tag, *post))

    def uniform(self, tag: int, *post) -> np.ndarray:
        return uniforms_from_states(self.states(tag, *post))


class _BlockChains(_FlatChains):
    """Seed chains for combo batches (rows-fastest cross-products).

    Channel, pseudo channel, and bank are constant within each block of
    ``rows_per_combo`` elements, so each tag's chain prefix is folded once
    per *combo* and repeated, leaving only the varying row (and post
    components) at full batch size.  splitmix64 folds element-wise, so
    this is bit-identical to :class:`_FlatChains` over the expanded
    arrays at a fraction of the array passes.
    """

    def __init__(self, seed: int, combo_channels: np.ndarray,
                 combo_pseudo_channels: np.ndarray,
                 combo_banks: np.ndarray, tiled_rows: np.ndarray,
                 rows_per_combo: int):
        self.seed = seed
        self.combos = (combo_channels, combo_pseudo_channels, combo_banks)
        self.tiled_rows = tiled_rows
        self.rows_per_combo = rows_per_combo

    def states(self, tag: int, *post):
        prefix = np.atleast_1d(seed_array_mixed(self.seed, tag,
                                                *self.combos))
        return fold_seed_states(np.repeat(prefix, self.rows_per_combo),
                                self.tiled_rows, *post)


class _PopulationBase:
    """Pattern-independent intermediates of a :class:`PopulationBatch`.

    The spatial tables, subarray position factors, and the
    0xBE/0x4C/0x57/0xFB draw chains fold no pattern component, so one
    base serves every data pattern of a WCDP sweep bit-identically; only
    the pattern tail (affinity, pattern factors, profile seeds) differs.
    The cached products keep the scalar path's left-to-right association
    so downstream rounding is unchanged.  Coordinates are equal-shape
    int64 arrays and ``chains`` folds the same coordinates.
    """

    def __init__(self, chip: ChipProfile, channels, pseudo_channels,
                 banks, rows, scalar_faithful: bool,
                 chains: _FlatChains):
        geometry = chip.geometry
        spec = chip.spec
        for value, limit, label in (
                (channels, geometry.channels, "channel"),
                (pseudo_channels, geometry.pseudo_channels,
                 "pseudo channel"),
                (banks, geometry.banks, "bank"),
                (rows, geometry.rows, "row")):
            if value.size and (value.min() < 0 or value.max() >= limit):
                raise ValueError(f"{label} index out of range")
        self.chains = chains
        self.channels = channels
        self.rows = rows
        self.scalar_faithful = scalar_faithful

        layout = geometry.subarrays
        bounds = np.asarray(layout.boundaries)
        subarray = np.searchsorted(bounds, rows, side="right") - 1
        offset = rows - bounds[subarray]
        sizes = np.asarray(layout.sizes)[subarray]

        tables = chip.spatial_tables()
        ch_ber = tables.channel_ber[channels]
        ch_hc = tables.channel_hc[channels]
        pc_ber = tables.pseudo_channel_ber[channels, pseudo_channels]
        bank_ber = tables.bank_ber[channels, pseudo_channels, banks]
        row_sigma = tables.bank_sigma[channels, pseudo_channels, banks]
        sa_ber = tables.subarray_ber[subarray]
        sa_hc = tables.subarray_hc[subarray]
        if scalar_faithful:
            # Parenthesized exactly like row_position_ber_factor's
            # math.sin(math.pi * fraction), fraction = (offset+0.5)/size.
            self.pos_ber = 0.75 + 0.5 * np.sin(
                np.pi * ((offset + 0.5) / sizes))
        else:
            self.pos_ber = 0.75 + 0.5 * np.sin(
                np.pi * (offset + 0.5) / sizes)
        self.row_ber_noise = _pow(10.0, row_sigma * chains.normal(0xBE),
                                  scalar_faithful)
        self.row_hc_noise = _pow(
            10.0, spec.hc_row_sigma * chains.normal(0x4C),
            scalar_faithful)
        self.spatial_prefix = ch_ber * pc_ber * bank_ber * sa_ber
        self.hc_denominator_prefix = spec.base_hc_first * ch_hc
        self.hc_prefix = self.hc_denominator_prefix * sa_hc
        self._ch_ber = ch_ber
        self._strong = None

    def strong(self):
        """Strong-population draws, materialized once per base.

        Independent chains, so drawing them later (or never) leaves
        every other draw — and these values — bit-identical.
        """
        if self._strong is None:
            chains = self.chains
            mu_strong = (DEFAULT_MU_STRONG - 0.08 * np.log10(self._ch_ber)
                         + 0.03 * chains.normal(0x57))
            flippable = 0.5 + 0.04 * (chains.uniform(0xFB) - 0.5)
            self._strong = (mu_strong, flippable)
        return self._strong


class PopulationBatch:
    """Cell-population parameters for a batch of row addresses.

    The vectorized mirror of :meth:`ChipProfile.cell_population`: the
    pattern tail over a :class:`_PopulationBase`.  With a
    ``scalar_faithful`` base every intermediate replays the scalar
    path's exact operation order and rounding (see :func:`_pow`), so the
    parameter arrays are bit-identical to per-address
    :meth:`~ChipProfile.cell_population` calls; otherwise they equal
    them to within ~1 ulp.  The strong-population parameters
    (``mu_strong``, ``flippable``) are drawn on first read: HC_first
    sweeps never evaluate the mixture, and skipping those two chains
    saves about a quarter of the chain work.  The measurement methods
    expect 1-D parameter arrays and are elementwise, so a batch over
    several banks returns exactly the concatenation of the per-bank
    results (asserted in ``tests/core/test_batch_equivalence.py``).
    """

    sigma_strong = DEFAULT_SIGMA_STRONG

    def __init__(self, chip: ChipProfile, base: _PopulationBase,
                 pattern: str):
        faithful = base.scalar_faithful
        chains = base.chains
        patt_ber = _PATTERN_BER.get(pattern, 1.0)
        patt_hc = chip.pattern_hc_table(pattern)[base.channels]

        pattern_id = hash_pattern(pattern)
        affinity = _pow(10.0, 0.06 * chains.normal(0xAF, pattern_id),
                        faithful)

        ber_spatial = base.spatial_prefix * patt_ber * base.row_ber_noise
        ber_total = ber_spatial * base.pos_ber
        f_cap = min(2.4 * chip.base_f_weak, 0.08)
        f_weak = np.clip(chip.base_f_weak * ber_total, 2.0e-3, f_cap)
        hc_target = (base.hc_prefix * patt_hc
                     * base.row_hc_noise * affinity
                     * _pow(ber_spatial, -0.15, faithful))
        row_bits = chip.geometry.row_bits
        n_weak = np.maximum(1, np.rint(f_weak * row_bits).astype(np.int64))
        f_spatial = np.clip(chip.base_f_weak * ber_spatial, 2.0e-3, f_cap)
        n_spatial = np.maximum(
            1, np.rint(f_spatial * row_bits).astype(np.int64))
        u_min = 1.0 - _pow(0.5, 1.0 / n_spatial, faithful)
        ratio = n_spatial / max(1, chip.n_weak_reference)
        hc_relative = hc_target / (base.hc_denominator_prefix * patt_hc)
        shrink = np.clip(_pow(ratio, _SIGMA_N_COUPLING, faithful)
                         * _pow(hc_relative, -_SIGMA_HC_COUPLING, faithful),
                         *_SIGMA_WEAK_CLAMP)
        # Per-row weak-population spread (above-typical rows are
        # tighter; see ``profiles._sigma_weak_for``).
        self.sigma_weak = DEFAULT_SIGMA_WEAK * shrink
        self.mu_weak = (_log10(hc_target, faithful)
                        - self.sigma_weak * ndtri(u_min))
        self.f_weak = f_weak
        self.n_weak = n_weak
        self.profile_seeds = chains.states(0xD0, pattern_id)
        self.rows = base.rows
        self._base = base

    @property
    def mu_strong(self) -> np.ndarray:
        return self._base.strong()[0]

    @property
    def flippable(self) -> np.ndarray:
        return self._base.strong()[1]

    def __len__(self) -> int:
        return int(self.rows.size)

    def ber(self, effective_hammers: float) -> np.ndarray:
        """Closed-form per-element BER at one effective hammer count."""
        return _mixture_ber(self.f_weak, self.mu_weak, self.sigma_weak,
                            self.mu_strong, self.sigma_strong,
                            self.flippable, effective_hammers)

    def sampled_ber(self, effective_hammers: float,
                    rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Binomially sampled per-element BER (finite 8192-bit rows)."""
        if rng is None:
            rng = np.random.default_rng(
                int(self.profile_seeds.reshape(-1)[0]) & 0x7FFFFFFF)
        p = self.ber(effective_hammers)
        return rng.binomial(8192, p) / 8192.0

    def _order_draws(self, k: int) -> np.ndarray:
        """(rows, k) raw uniforms matching ``order_stat_draws`` per row."""
        columns = [uniforms_from_seeds(self.profile_seeds, (0x0D, j))
                   for j in range(k)]
        return np.stack(columns, axis=-1)

    def hc_nth(self, n: int, amplification: float = 1.0) -> np.ndarray:
        """(rows, n) hammer counts of the first ``n`` bitflips per row."""
        draws = self._order_draws(n)
        uniforms = order_stats_from_draws(self.n_weak, draws)
        thresholds = 10.0 ** (self.mu_weak[:, None]
                              + self.sigma_weak[:, None]
                              * ndtri(uniforms))
        return np.maximum(1.0, thresholds / amplification)

    def hc_first(self, amplification: float = 1.0) -> np.ndarray:
        """Per-row HC_first (minimum cell threshold / amplification)."""
        return self.hc_nth(1, amplification)[:, 0]


def population_grid(chip: ChipProfile, channel: int, pseudo_channel: int,
                    bank: int, rows: np.ndarray,
                    pattern: str) -> PopulationBatch:
    """One-bank :func:`population_combos` over ``rows``."""
    chip.geometry.check_address(channel, pseudo_channel, bank, 0)
    return population_combos(chip, [channel], [pseudo_channel], [bank],
                             rows, pattern)


def population_batch(chip: ChipProfile, channels, pseudo_channels, banks,
                     rows, pattern: str) -> PopulationBatch:
    """Vectorized :meth:`ChipProfile.cell_population` over coordinate
    arrays (broadcast against each other).

    Bit-identical to per-address :meth:`~ChipProfile.cell_population`
    calls (see :func:`_pow`): the chip calibration and the disturbance
    floor tables rely on it.
    """
    coords = tuple(np.broadcast_arrays(
        *(np.asarray(value, dtype=np.int64)
          for value in (channels, pseudo_channels, banks, rows))))
    base = _PopulationBase(chip, *coords, scalar_faithful=True,
                           chains=_FlatChains(chip.spec.seed, coords))
    return PopulationBatch(chip, base, pattern)


#: The last combo base built (see :class:`_PopulationBase`), keyed by chip
#: and coordinates.  The WCDP chunk loops ask for one chunk's base once
#: per data pattern, back to back, so one slot is all the reuse there
#: is; it is emptied before the next base is built, so at most one
#: chunk's base outlives a call.
_BASE_SLOT: "dict[tuple, _PopulationBase]" = {}


def population_combos(chip: ChipProfile, combo_channels, combo_pseudo_channels,
                      combo_banks, rows, pattern: str) -> PopulationBatch:
    """Batch covering the cross-product of (ch, pc, bank) combos and rows.

    Laid out rows-fastest — element ``c * len(rows) + r`` is row
    ``rows[r]`` of combo ``c`` — with numpy's fast power kernels (equal
    to :func:`population_batch` over the expanded coordinates within
    ~1 ulp).  The block structure lets the seed chains fold their
    coordinate prefix once per combo instead of once per element (see
    :class:`_BlockChains`), which is where large multi-bank sweeps spend
    most of their time.  Back to back calls over the same coordinates
    share one pattern-independent base (:data:`_BASE_SLOT`).
    """
    combo_channels, combo_pseudo_channels, combo_banks = (
        np.asarray(value, dtype=np.int64)
        for value in (combo_channels, combo_pseudo_channels, combo_banks))
    rows = np.asarray(rows, dtype=np.int64)
    key = (chip.spec.index, chip.spec.seed, combo_channels.tobytes(),
           combo_pseudo_channels.tobytes(), combo_banks.tobytes(),
           rows.tobytes())
    base = _BASE_SLOT.get(key)
    if base is None:
        _BASE_SLOT.clear()
        tiled_rows = np.tile(rows, combo_channels.size)
        chains = _BlockChains(chip.spec.seed, combo_channels,
                              combo_pseudo_channels, combo_banks,
                              tiled_rows, rows.size)
        base = _PopulationBase(
            chip, np.repeat(combo_channels, rows.size),
            np.repeat(combo_pseudo_channels, rows.size),
            np.repeat(combo_banks, rows.size), tiled_rows,
            scalar_faithful=False, chains=chains)
        _BASE_SLOT[key] = base
    return PopulationBatch(chip, base, pattern)
