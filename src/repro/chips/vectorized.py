"""Vectorized cell-population grids for whole-bank sweeps.

The spatial-variation experiments touch up to ~10^5 rows per chip; looping
:meth:`ChipProfile.cell_population` row by row would dominate experiment
time.  :func:`population_grid` computes the identical quantities for an
array of rows in one shot — the seeding helpers replay the exact
splitmix64 chains of the scalar path, so the grid is bit-identical to the
per-row API (asserted in tests).

:func:`population_batch` generalizes the grid to arbitrary coordinate
batches where channel, pseudo channel, bank, *and* row all vary per
element; the chip calibration (:meth:`ChipProfile._refine_f_weak`) runs
its whole Monte-Carlo sample through one batch instead of thousands of
scalar :meth:`cell_population` calls.

Both paths use :func:`scipy.special.ndtr`/:func:`~scipy.special.ndtri`
directly — bit-identical to ``scipy.stats.norm.cdf``/``ppf`` without the
per-call distribution dispatch overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtr, ndtri

from repro.chips.profiles import (_PATTERN_BER, _SIGMA_HC_COUPLING,
                                  _SIGMA_N_COUPLING, _SIGMA_WEAK_CLAMP,
                                  ChipProfile, _pattern_id)
from repro.dram.cell_model import (DEFAULT_MU_STRONG, DEFAULT_SIGMA_STRONG,
                                   DEFAULT_SIGMA_WEAK,
                                   order_stats_from_draws)
from repro.dram.seeding import (fold_seed_states, normals_from_states,
                                seed_array_mixed, uniforms_from_seeds,
                                uniforms_from_states)


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
    """Pattern-independent intermediates of :func:`_population_arrays`.

    The spatial tables, subarray position factors, and the
    0xBE/0x4C/0x57/0xFB draw chains fold no pattern component, so one
    base serves every data pattern of a WCDP sweep bit-identically; only
    the pattern tail (affinity, pattern factors, profile seeds) differs.
    The cached products keep the scalar path's left-to-right association
    so downstream rounding is unchanged.
    """

    def __init__(self, chip: ChipProfile, channels, pseudo_channels,
                 banks, rows, scalar_faithful: bool = False,
                 chains: Optional[_FlatChains] = None):
        geometry = chip.geometry
        spec = chip.spec
        channels, pseudo_channels, banks, rows = (
            np.asarray(value, dtype=np.int64)
            for value in (channels, pseudo_channels, banks, rows))
        for value, limit, label in (
                (channels, geometry.channels, "channel"),
                (pseudo_channels, geometry.pseudo_channels,
                 "pseudo channel"),
                (banks, geometry.banks, "bank"),
                (rows, geometry.rows, "row")):
            if value.size and (value.min() < 0 or value.max() >= limit):
                raise ValueError(f"{label} index out of range")
        if chains is None:
            # 0-d coordinates (the fixed-bank grid case) fold through
            # the scalar-prefix fast path of the mixed seeding helpers —
            # pure-Python splitmix64 on ints instead of one array kernel
            # per component.
            coords = tuple(int(value) if value.ndim == 0 else value
                           for value in (channels, pseudo_channels,
                                         banks, rows))
            chains = _FlatChains(spec.seed, coords)
        self.chains = chains
        self.channels = channels
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


def _population_arrays(chip: ChipProfile, channels, pseudo_channels, banks,
                       rows, pattern: str,
                       scalar_faithful: bool = False,
                       chains: Optional[_FlatChains] = None,
                       defer_strong: bool = False,
                       base: Optional[_PopulationBase] = None) -> dict:
    """Shared vectorized mirror of :meth:`ChipProfile.cell_population`.

    All coordinate arguments broadcast against each other.  With
    ``scalar_faithful=True`` every intermediate replays the scalar
    path's exact operation order and rounding (see :func:`_pow`), so the
    returned arrays are bit-identical to per-address
    :meth:`ChipProfile.cell_population` calls; the default keeps the
    historical grid kernels (equal to within ~1 ulp).  A precomputed
    ``base`` (same coordinates, same ``scalar_faithful``) skips the
    pattern-independent work.
    """
    geometry = chip.geometry
    if base is None:
        base = _PopulationBase(chip, channels, pseudo_channels, banks,
                               rows, scalar_faithful, chains)
    chains = base.chains
    patt_ber = _PATTERN_BER.get(pattern, 1.0)
    patt_hc = chip.pattern_hc_table(pattern)[base.channels]

    pattern_id = _pattern_id(pattern)
    affinity = _pow(10.0, 0.06 * chains.normal(0xAF, pattern_id),
                    scalar_faithful)

    ber_spatial = base.spatial_prefix * patt_ber * base.row_ber_noise
    ber_total = ber_spatial * base.pos_ber
    f_cap = min(2.4 * chip.base_f_weak, 0.08)
    f_weak = np.clip(chip.base_f_weak * ber_total, 2.0e-3, f_cap)
    hc_target = (base.hc_prefix * patt_hc
                 * base.row_hc_noise * affinity
                 * _pow(ber_spatial, -0.15, scalar_faithful))
    n_weak = np.maximum(
        1, np.rint(f_weak * geometry.row_bits).astype(np.int64))
    f_spatial = np.clip(chip.base_f_weak * ber_spatial, 2.0e-3, f_cap)
    n_spatial = np.maximum(
        1, np.rint(f_spatial * geometry.row_bits).astype(np.int64))
    u_min = 1.0 - _pow(0.5, 1.0 / n_spatial, scalar_faithful)
    ratio = n_spatial / max(1, chip.n_weak_reference)
    hc_relative = hc_target / (base.hc_denominator_prefix * patt_hc)
    shrink = np.clip(_pow(ratio, _SIGMA_N_COUPLING, scalar_faithful)
                     * _pow(hc_relative, -_SIGMA_HC_COUPLING,
                            scalar_faithful),
                     *_SIGMA_WEAK_CLAMP)
    sigma_weak = DEFAULT_SIGMA_WEAK * shrink
    mu_weak = (_log10(hc_target, scalar_faithful)
               - sigma_weak * ndtri(u_min))

    if defer_strong:
        # HC_first sweeps never evaluate the strong-population mixture;
        # deferring its two draws skips ~a quarter of the chain work.
        mu_strong = flippable = None
        strong_thunk = base.strong
    else:
        mu_strong, flippable = base.strong()
        strong_thunk = None

    profile_seeds = chains.states(0xD0, pattern_id)

    return {
        "f_weak": f_weak,
        "mu_weak": mu_weak,
        "sigma_weak": sigma_weak,
        "mu_strong": mu_strong,
        "flippable": flippable,
        "n_weak": n_weak,
        "profile_seeds": profile_seeds,
        "strong_thunk": strong_thunk,
    }


class _PopulationMeasurements:
    """Measurement surface shared by the grid and batch populations.

    Every method evaluates per-element quantities from the population
    parameter arrays (``f_weak`` .. ``profile_seeds``); the two concrete
    classes only differ in how the coordinates are laid out.  Because
    both feed the same kernels with bit-identical parameter arrays (see
    :func:`_population_arrays`), a batch covering the coordinate
    cross-product of several grids returns exactly the concatenation of
    the per-grid results — the invariant the batched experiment path
    relies on (asserted in ``tests/core/test_batch_equivalence.py``).
    """

    def __len__(self) -> int:
        return int(self.rows.size)

    def ber(self, effective_hammers: float) -> np.ndarray:
        """Closed-form per-element BER at one effective hammer count."""
        if self.mu_strong is None:
            self.mu_strong, self.flippable = self.strong_thunk()
            self.strong_thunk = None
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


@dataclass
class PopulationGrid(_PopulationMeasurements):
    """Cell-population parameters for an array of rows in one bank."""

    chip_index: int
    channel: int
    pseudo_channel: int
    bank: int
    pattern: str
    rows: np.ndarray
    f_weak: np.ndarray
    mu_weak: np.ndarray
    mu_strong: np.ndarray
    flippable: np.ndarray
    n_weak: np.ndarray
    profile_seeds: np.ndarray
    #: Per-row weak-population spread (above-typical rows are tighter;
    #: see ``profiles._sigma_weak_for``).
    sigma_weak: np.ndarray = None
    sigma_strong: float = DEFAULT_SIGMA_STRONG
    #: Deferred strong-population draws (set when ``mu_strong`` is None;
    #: :meth:`_PopulationMeasurements.ber` materializes on first use).
    strong_thunk: Optional[object] = None

    def __post_init__(self) -> None:
        if self.sigma_weak is None:
            self.sigma_weak = np.full_like(self.mu_weak,
                                           DEFAULT_SIGMA_WEAK)


@dataclass
class PopulationBatch(_PopulationMeasurements):
    """Cell-population parameters for an arbitrary coordinate batch.

    Unlike :class:`PopulationGrid` (one bank, varying rows), every
    coordinate varies per element.  Used by the chip calibration, the
    batched experiment path (:mod:`repro.core.analytic`'s multi-bank
    helpers), and any sweep crossing bank boundaries.  The measurement
    methods (:meth:`hc_first` & co.) expect 1-D parameter arrays.
    """

    chip_index: int
    pattern: str
    channels: np.ndarray
    pseudo_channels: np.ndarray
    banks: np.ndarray
    rows: np.ndarray
    f_weak: np.ndarray
    mu_weak: np.ndarray
    sigma_weak: np.ndarray
    mu_strong: np.ndarray
    flippable: np.ndarray
    n_weak: np.ndarray
    profile_seeds: np.ndarray
    sigma_strong: float = DEFAULT_SIGMA_STRONG
    #: Deferred strong-population draws (set when ``mu_strong`` is None;
    #: :meth:`_PopulationMeasurements.ber` materializes on first use).
    strong_thunk: Optional[object] = None


def population_grid(chip: ChipProfile, channel: int, pseudo_channel: int,
                    bank: int, rows: np.ndarray,
                    pattern: str) -> PopulationGrid:
    """Vectorized mirror of :meth:`ChipProfile.cell_population`."""
    geometry = chip.geometry
    rows = np.asarray(rows, dtype=np.int64)
    geometry.check_address(channel, pseudo_channel, bank, 0)
    arrays = _population_arrays(chip, channel, pseudo_channel, bank, rows,
                                pattern)
    return PopulationGrid(
        chip_index=chip.spec.index,
        channel=channel,
        pseudo_channel=pseudo_channel,
        bank=bank,
        pattern=pattern,
        rows=rows,
        **arrays)


def population_batch(chip: ChipProfile, channels, pseudo_channels, banks,
                     rows, pattern: str,
                     scalar_faithful: bool = True) -> PopulationBatch:
    """Vectorized :meth:`ChipProfile.cell_population` over coordinate
    arrays (broadcast against each other).

    By default the batch is bit-identical to per-address
    :meth:`~ChipProfile.cell_population` calls (see :func:`_pow`);
    ``scalar_faithful=False`` trades that for numpy's fast power kernel
    (equal to within ~1 ulp).
    """
    channels, pseudo_channels, banks, rows = np.broadcast_arrays(
        *(np.asarray(value, dtype=np.int64)
          for value in (channels, pseudo_channels, banks, rows)))
    arrays = _population_arrays(chip, channels, pseudo_channels, banks,
                                rows, pattern,
                                scalar_faithful=scalar_faithful)
    return PopulationBatch(
        chip_index=chip.spec.index,
        pattern=pattern,
        channels=channels,
        pseudo_channels=pseudo_channels,
        banks=banks,
        rows=rows,
        **arrays)


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
    ``rows[r]`` of combo ``c`` — and bit-identical to
    :func:`population_batch` over the expanded coordinate arrays (with
    ``scalar_faithful=False``, matching the grid kernels).  The block
    structure lets the seed chains fold their coordinate prefix once per
    combo instead of once per element (see :class:`_BlockChains`), which
    is where large multi-bank sweeps spend most of their time.  Back to
    back calls over the same coordinates share one pattern-independent
    base (:data:`_BASE_SLOT`).
    """
    combo_channels, combo_pseudo_channels, combo_banks = (
        np.asarray(value, dtype=np.int64)
        for value in (combo_channels, combo_pseudo_channels, combo_banks))
    rows = np.asarray(rows, dtype=np.int64)
    channels = np.repeat(combo_channels, rows.size)
    pseudo_channels = np.repeat(combo_pseudo_channels, rows.size)
    banks = np.repeat(combo_banks, rows.size)
    tiled_rows = np.tile(rows, combo_channels.size)
    key = (chip.spec.index, chip.spec.seed, combo_channels.tobytes(),
           combo_pseudo_channels.tobytes(), combo_banks.tobytes(),
           rows.tobytes())
    base = _BASE_SLOT.get(key)
    if base is None:
        _BASE_SLOT.clear()
        chains = _BlockChains(chip.spec.seed, combo_channels,
                              combo_pseudo_channels, combo_banks,
                              tiled_rows, rows.size)
        base = _PopulationBase(chip, channels, pseudo_channels, banks,
                               tiled_rows, scalar_faithful=False,
                               chains=chains)
        _BASE_SLOT[key] = base
    arrays = _population_arrays(chip, channels, pseudo_channels, banks,
                                tiled_rows, pattern, scalar_faithful=False,
                                defer_strong=True, base=base)
    return PopulationBatch(
        chip_index=chip.spec.index,
        pattern=pattern,
        channels=channels,
        pseudo_channels=pseudo_channels,
        banks=banks,
        rows=tiled_rows,
        **arrays)
