"""Analytic measurement engine.

Large-population experiments (Figs. 4-13) evaluate BER and HC_first over
up to hundreds of thousands of (row, pattern) combinations.  Driving the
command-level device for each would be faithful but wasteful: the device
itself computes flips from the same closed-form cell populations.  This
module evaluates those quantities directly from a chip profile via the
vectorized grids — bit-consistent with the device engine (tests assert
it) — and owns the mapping from experiment parameters (hammer count,
t_AggON, sidedness) to effective disturbance.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from collections import OrderedDict

from repro.chips.profiles import ChipProfile
from repro.chips.vectorized import (PopulationBatch, population_combos,
                                    population_grid)
from repro.core import metrics
from repro.core.patterns import ALL_PATTERNS
from repro.dram.cells import cells_chunk_elems, chunk_combo_blocks

#: One (channel, pseudo_channel, bank) coordinate of a study sweep.
Combo = Tuple[int, int, int]


def effective_hammers(chip: ChipProfile, hammer_count: float,
                      t_on: Optional[float] = None,
                      sides: int = 2) -> float:
    """Effective baseline units of a hammer test (per-side count)."""
    baseline = chip.disturbance.min_t_on
    return chip.disturbance.effective_hammers(
        hammer_count, baseline if t_on is None else t_on, sides=sides)


def amplification(chip: ChipProfile, t_on: Optional[float]) -> float:
    """RowPress amplification at ``t_on`` (1.0 at the tRAS baseline)."""
    if t_on is None:
        return 1.0
    return chip.disturbance.amplification(t_on)


def wcdp_hc_first(chip: ChipProfile, channel: int, pseudo_channel: int,
                  bank: int, rows: np.ndarray,
                  t_on: Optional[float] = None) -> Dict[str, np.ndarray]:
    """One-bank :func:`wcdp_hc_first_multi`: per-row arrays by pattern."""
    multi = wcdp_hc_first_multi(chip, [(channel, pseudo_channel, bank)],
                                rows, t_on)
    return {name: values[0] for name, values in multi.items()}


def wcdp_ber(chip: ChipProfile, channel: int, pseudo_channel: int,
             bank: int, rows: np.ndarray,
             hammer_count: int = metrics.BER_TEST_HAMMERS,
             t_on: Optional[float] = None,
             sampled: bool = True,
             rng: Optional[np.random.Generator] = None
             ) -> Dict[str, np.ndarray]:
    """One-bank :func:`wcdp_ber_multi`: per-row arrays by pattern."""
    multi = wcdp_ber_multi(chip, [(channel, pseudo_channel, bank)], rows,
                           hammer_count, t_on, sampled, rng)
    return {name: values[0] for name, values in multi.items()}


#: Memo of recent combo batches.  The WCDP helpers evaluate HC_first and
#: BER over the *same* combos x rows cross-product, one batch per
#: pattern; caching the immutable batches halves the kernel work of a
#: combined study.  Bounded FIFO — a handful of (combos, rows, pattern)
#: keys covers every repeated lookup within one experiment — and, like
#: the base cache in :mod:`repro.chips.vectorized`, bounded in total
#: retained *elements* by a multiple of the ``HBMSIM_CELLS_CHUNK``
#: working-set target, so chunk-streamed sweeps never pin whole-device
#: populations in the memo.
_COMBO_CACHE: "OrderedDict[tuple, PopulationBatch]" = OrderedDict()
_COMBO_CACHE_LIMIT = 12
_COMBO_CACHE_CHUNKS = 16


def _trim_combo_cache() -> None:
    """Evict oldest batches beyond the entry and element budgets."""
    budget = _COMBO_CACHE_CHUNKS * cells_chunk_elems()
    while len(_COMBO_CACHE) > _COMBO_CACHE_LIMIT or (
            len(_COMBO_CACHE) > 1
            and sum(len(batch) for batch in _COMBO_CACHE.values())
            > budget):
        _COMBO_CACHE.popitem(last=False)


def combo_population(chip: ChipProfile, combos: Sequence[Combo],
                     rows: np.ndarray, pattern: str) -> PopulationBatch:
    """One population batch covering ``combos`` x ``rows``.

    The batch is laid out rows-fastest — element ``c * len(rows) + r`` is
    row ``rows[r]`` of ``combos[c]`` — so reshaping any per-element
    result to ``(len(combos), len(rows))`` recovers one
    :func:`population_grid` result per combo, bit-identically (the
    batched and grid kernels share ``_population_arrays``).  Results are
    memoized (treat the returned batch as read-only).  Each distinct
    combo is address-checked before the first evaluation, so a bad
    coordinate names itself (``channel 9 out of range [0, 8)``).
    """
    rows = np.asarray(rows, dtype=np.int64)
    key = (chip.spec.index, chip.spec.seed, tuple(combos),
           rows.tobytes(), pattern)
    batch = _COMBO_CACHE.get(key)
    if batch is not None:
        _COMBO_CACHE.move_to_end(key)
        return batch
    for channel, pseudo_channel, bank in dict.fromkeys(combos):
        chip.geometry.check_address(channel, pseudo_channel, bank, 0)
    batch = population_combos(
        chip,
        [channel for channel, __, __ in combos],
        [pseudo_channel for __, pseudo_channel, __ in combos],
        [bank for __, __, bank in combos],
        rows, pattern)
    _COMBO_CACHE[key] = batch
    _trim_combo_cache()
    return batch


def _combo_chunks(n_combos: int, rows_size: int) -> List[Tuple[int, int]]:
    """Whole-combo chunk ranges under the working-set bound."""
    return chunk_combo_blocks(n_combos, max(1, rows_size),
                              cells_chunk_elems())


def combo_ber_matrix(chip: ChipProfile, combos: Sequence[Combo],
                     rows: np.ndarray, pattern: str,
                     effective_hammers: float) -> np.ndarray:
    """Closed-form BER over ``combos`` x ``rows`` as a ``(C, R)`` matrix.

    The single-pattern analogue of :func:`wcdp_ber_multi`'s probability
    assembly (the Fig. 9 bank sweep's shape): chunk-streamed under the
    ``HBMSIM_CELLS_CHUNK`` working-set bound, bit-identical to one
    all-at-once :func:`combo_population` evaluation at any chunk size.
    """
    rows = np.asarray(rows, dtype=np.int64)
    matrix = np.empty((len(combos), rows.size), dtype=float)
    for start, stop in _combo_chunks(len(combos), rows.size):
        batch = combo_population(chip, list(combos[start:stop]), rows,
                                 pattern)
        matrix[start:stop] = batch.ber(effective_hammers).reshape(
            stop - start, rows.size)
    return matrix


def combo_first_seeds(chip: ChipProfile, combos: Sequence[Combo],
                      rows: np.ndarray, pattern: str) -> np.ndarray:
    """Each combo's first-row profile seed as a ``(C,)`` uint64 array.

    ``first_seeds[c]`` equals ``population_grid(chip, *combos[c], rows,
    pattern).profile_seeds.reshape(-1)[0]`` — the seed
    :meth:`~repro.chips.vectorized._PopulationMeasurements.sampled_ber`
    derives its default generator from — so batched samplers can
    replicate per-grid unit-local noise without building the grids.
    Chunk-streamed under the ``HBMSIM_CELLS_CHUNK`` working-set bound.
    """
    rows = np.asarray(rows, dtype=np.int64)
    seeds = np.empty(len(combos), dtype=np.uint64)
    for start, stop in _combo_chunks(len(combos), rows.size):
        batch = combo_population(chip, list(combos[start:stop]), rows,
                                 pattern)
        seeds[start:stop] = batch.profile_seeds.reshape(
            stop - start, rows.size)[:, 0]
    return seeds


def wcdp_hc_first_multi(chip: ChipProfile, combos: Sequence[Combo],
                        rows: np.ndarray,
                        t_on: Optional[float] = None
                        ) -> Dict[str, np.ndarray]:
    """Per-row HC_first for every pattern plus the WCDP minimum.

    Returns pattern name (plus ``"WCDP"``, the per-row minimum across
    patterns; Section 3.1) -> ``(len(combos), len(rows))`` arrays.

    Populations are evaluated in whole-combo chunks under the
    ``HBMSIM_CELLS_CHUNK`` working-set bound — every kernel is
    elementwise with per-combo seed-chain prefixes, so a chunk is the
    same bits as the matching slice of an all-at-once batch (asserted in
    ``tests/core/test_chunked_population.py``); only the assembled
    output arrays span the full population.
    """
    rows = np.asarray(rows)
    amp = amplification(chip, t_on)
    shape = (len(combos), rows.size)
    per_pattern = {pattern.name: np.empty(shape, dtype=float)
                   for pattern in ALL_PATTERNS}
    wcdp = np.empty(shape, dtype=float)
    for start, stop in _combo_chunks(len(combos), rows.size):
        chunk_combos = list(combos[start:stop])
        running: Optional[np.ndarray] = None
        for pattern in ALL_PATTERNS:
            batch = combo_population(chip, chunk_combos, rows,
                                     pattern.name)
            hc = batch.hc_first(amp).reshape(stop - start, rows.size)
            per_pattern[pattern.name][start:stop] = hc
            if running is None:
                running = hc
            else:
                # Pairwise minimum equals the stacked min reduction
                # exactly (float min is associative and lossless).
                running = np.minimum(running, hc)
        wcdp[start:stop] = running
    per_pattern["WCDP"] = wcdp
    return per_pattern


def wcdp_ber_multi(chip: ChipProfile, combos: Sequence[Combo],
                   rows: np.ndarray,
                   hammer_count: int = metrics.BER_TEST_HAMMERS,
                   t_on: Optional[float] = None,
                   sampled: bool = True,
                   rng: Optional[np.random.Generator] = None
                   ) -> Dict[str, np.ndarray]:
    """Per-row BER for every pattern plus the worst-case (WCDP) BER.

    Returns pattern name (plus ``"WCDP"``) -> ``(len(combos),
    len(rows))`` arrays.  The WCDP of a row is the pattern with the
    smallest HC_first (ties go to the earlier pattern; Section 3.1); its
    BER is reported per row.

    Per chunk, HC_first (for the WCDP argmin) and the closed-form
    probabilities are evaluated together; only the assembled outputs
    span the full population.  The binomial sampling then consumes
    ``rng`` combo-major, pattern-minor over the assembled arrays; with
    ``rng=None`` each (combo, pattern) draws from a fresh generator
    seeded by its first profile seed, so a combo's noise does not depend
    on which other combos share the call.
    """
    rows = np.asarray(rows)
    shape = (len(combos), rows.size)
    eff = effective_hammers(chip, hammer_count, t_on)
    amp = amplification(chip, t_on)
    names = [pattern.name for pattern in ALL_PATTERNS]
    probabilities = {name: np.empty(shape, dtype=float) for name in names}
    first_seeds = {name: np.empty(len(combos), dtype=np.uint64)
                   for name in names}
    wcdp_index = np.empty(shape, dtype=np.int64)
    for start, stop in _combo_chunks(len(combos), rows.size):
        chunk_combos = list(combos[start:stop])
        cshape = (stop - start, rows.size)
        hc_chunk = []
        for name in names:
            batch = combo_population(chip, chunk_combos, rows, name)
            hc_chunk.append(batch.hc_first(amp).reshape(cshape))
            probabilities[name][start:stop] = batch.ber(eff).reshape(cshape)
            first_seeds[name][start:stop] = \
                batch.profile_seeds.reshape(cshape)[:, 0]
        wcdp_index[start:stop] = np.argmin(np.stack(hc_chunk), axis=0)
    if not sampled:
        bers = dict(probabilities)
    else:
        bers = {name: np.empty(shape) for name in names}
        for index in range(len(combos)):
            for name in names:
                generator = rng if rng is not None else \
                    np.random.default_rng(
                        int(first_seeds[name][index]) & 0x7FFFFFFF)
                bers[name][index] = generator.binomial(
                    8192, probabilities[name][index]) / 8192.0
    # Gather the WCDP pattern's BER per element without stacking the
    # full (patterns, combos, rows) cube: selection by argmin index is
    # the same values as the fancy-indexed stack, element for element.
    wcdp = np.empty(shape)
    for position, name in enumerate(names):
        mask = wcdp_index == position
        wcdp[mask] = bers[name][mask]
    bers["WCDP"] = wcdp
    return bers


def sample_rows(total_rows: int, count: int,
                rng: np.random.Generator) -> np.ndarray:
    """Uniform row sample without replacement, sorted."""
    if count >= total_rows:
        return np.arange(total_rows)
    return np.sort(rng.choice(total_rows, size=count, replace=False))


def stratified_rows(total_rows: int, count: int) -> np.ndarray:
    """Deterministic evenly spaced row sample (for scaled experiments)."""
    if count >= total_rows:
        return np.arange(total_rows)
    return np.unique(np.linspace(0, total_rows - 1, count).astype(int))


def segment_rows(total_rows: int, segment: str, count: int) -> np.ndarray:
    """First / middle / last ``count`` rows of a bank (Table 2 usage)."""
    if segment == "first":
        return np.arange(0, min(count, total_rows))
    if segment == "middle":
        start = max(0, total_rows // 2 - count // 2)
        return np.arange(start, min(start + count, total_rows))
    if segment == "last":
        return np.arange(max(0, total_rows - count), total_rows)
    raise ValueError(f"unknown segment {segment!r}")
