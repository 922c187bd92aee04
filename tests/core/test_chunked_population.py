"""Chunk-streamed cell evaluation is bit-identical to all-at-once.

The full-geometry contract (``repro.dram.cells``): every population
kernel is elementwise with per-combo seed-chain prefixes, so evaluating
a sweep in whole-combo chunks — at *any* ``HBMSIM_CELLS_CHUNK`` bound —
produces the same bytes as one monolithic batch.  These tests pin that
equivalence with hypothesis over random sweep shapes and chunk bounds,
plus the knob's strict-parse behaviour.  The chunk loops share one
pattern-independent base per chunk through ``vectorized._BASE_SLOT``,
and nothing more outlives a call: both are pinned here too.
"""

import gc
import os
import tracemalloc
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chips import vectorized
from repro.chips.profiles import make_chip
from repro.core import analytic
from repro.dram import cells
from repro.dram.cells import (DEFAULT_CHUNK_ELEMS, cells_chunk_elems,
                              chunk_combo_blocks)

CHIP = make_chip(0)
#: A 6-combo sweep slice (two channels x three banks) of modest rows —
#: large enough to split into many chunks at small bounds, small enough
#: for hypothesis to re-evaluate repeatedly.
COMBOS = [(0, 0, 0), (0, 0, 5), (0, 0, 11),
          (1, 1, 0), (1, 1, 5), (1, 1, 11)]
ROWS = analytic.stratified_rows(CHIP.geometry.rows, 48)


@contextmanager
def chunk_env(value):
    """Temporarily pin ``HBMSIM_CELLS_CHUNK`` (None = unset)."""
    saved = os.environ.get(cells._CHUNK_ENV)
    try:
        if value is None:
            os.environ.pop(cells._CHUNK_ENV, None)
        else:
            os.environ[cells._CHUNK_ENV] = str(value)
        yield
    finally:
        if saved is None:
            os.environ.pop(cells._CHUNK_ENV, None)
        else:
            os.environ[cells._CHUNK_ENV] = saved


class TestChunkComboBlocks:
    @given(n_combos=st.integers(0, 64), rows=st.integers(1, 512),
           chunk=st.integers(1, 4096))
    @settings(max_examples=60, deadline=None)
    def test_blocks_partition_the_range(self, n_combos, rows, chunk):
        blocks = chunk_combo_blocks(n_combos, rows, chunk)
        if n_combos == 0:
            assert blocks == []
            return
        # Contiguous, ordered, covering exactly [0, n_combos).
        assert blocks[0][0] == 0
        assert blocks[-1][1] == n_combos
        for (_, stop), (start, _) in zip(blocks, blocks[1:]):
            assert stop == start
        per_chunk = max(1, chunk // rows)
        assert all(1 <= stop - start <= per_chunk
                   for start, stop in blocks)

    def test_oversized_combo_still_evaluates(self):
        # One combo larger than the bound: the bound is a target, not
        # a hard split of seed-chain blocks.
        assert chunk_combo_blocks(3, 1000, 10) == [(0, 1), (1, 2),
                                                   (2, 3)]

    def test_bad_rows_per_combo_rejected(self):
        with pytest.raises(ValueError):
            chunk_combo_blocks(4, 0, 100)


class TestChunkKnob:
    @pytest.fixture(autouse=True)
    def _fresh_warn_state(self, monkeypatch):
        monkeypatch.setattr(cells, "_WARNED_VALUES", set())

    def test_default_and_blank(self):
        with chunk_env(None):
            assert cells_chunk_elems() == DEFAULT_CHUNK_ELEMS
        with chunk_env("  "):
            assert cells_chunk_elems() == DEFAULT_CHUNK_ELEMS

    def test_positive_value_honoured(self):
        with chunk_env(4096):
            assert cells_chunk_elems() == 4096

    @pytest.mark.parametrize("value", ["0", "-1", "-4096"])
    def test_nonpositive_rejected_loudly(self, value):
        with chunk_env(value):
            with pytest.raises(ValueError):
                cells_chunk_elems()

    def test_unparsable_warns_once_then_defaults(self):
        with chunk_env("a-lot"):
            with pytest.warns(RuntimeWarning, match="a-lot"):
                assert cells_chunk_elems() == DEFAULT_CHUNK_ELEMS
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cells_chunk_elems() == DEFAULT_CHUNK_ELEMS


class TestChunkedEquivalence:
    """Chunked == monolithic, bit for bit, for every streamed engine."""

    @pytest.fixture(scope="class")
    def whole(self):
        with chunk_env(10**9):
            vectorized._BASE_SLOT.clear()
            hc = analytic.wcdp_hc_first_multi(CHIP, COMBOS, ROWS)
            ber = analytic.wcdp_ber_multi(CHIP, COMBOS, ROWS,
                                          sampled=False)
            sampled = analytic.wcdp_ber_multi(
                CHIP, COMBOS, ROWS,
                rng=np.random.default_rng(1234))
            matrix = analytic.combo_ber_matrix(CHIP, COMBOS, ROWS,
                                               "Checkered0", 300_000.0)
        vectorized._BASE_SLOT.clear()
        return hc, ber, sampled, matrix

    @given(chunk=st.integers(1, 2 * len(ROWS) * len(COMBOS)))
    @settings(max_examples=12, deadline=None)
    def test_wcdp_hc_first_multi(self, whole, chunk):
        with chunk_env(chunk):
            vectorized._BASE_SLOT.clear()
            chunked = analytic.wcdp_hc_first_multi(CHIP, COMBOS, ROWS)
        for name, expected in whole[0].items():
            assert np.array_equal(np.asarray(chunked[name]),
                                  np.asarray(expected)), name

    @given(chunk=st.integers(1, 2 * len(ROWS) * len(COMBOS)))
    @settings(max_examples=8, deadline=None)
    def test_wcdp_ber_multi_closed_form(self, whole, chunk):
        with chunk_env(chunk):
            vectorized._BASE_SLOT.clear()
            chunked = analytic.wcdp_ber_multi(CHIP, COMBOS, ROWS,
                                              sampled=False)
        for name, expected in whole[1].items():
            assert np.array_equal(np.asarray(chunked[name]),
                                  np.asarray(expected)), name

    @given(chunk=st.integers(1, 2 * len(ROWS) * len(COMBOS)))
    @settings(max_examples=8, deadline=None)
    def test_wcdp_ber_multi_sampled_rng_order(self, whole, chunk):
        # The binomial sampling consumes the generator in scalar order
        # (combo-major, pattern-minor) regardless of chunking, so a
        # seeded study draws the same variates at any chunk size.
        with chunk_env(chunk):
            vectorized._BASE_SLOT.clear()
            chunked = analytic.wcdp_ber_multi(
                CHIP, COMBOS, ROWS, rng=np.random.default_rng(1234))
        for name, expected in whole[2].items():
            assert np.array_equal(np.asarray(chunked[name]),
                                  np.asarray(expected)), name

    @given(chunk=st.integers(1, 2 * len(ROWS) * len(COMBOS)))
    @settings(max_examples=8, deadline=None)
    def test_combo_ber_matrix(self, whole, chunk):
        with chunk_env(chunk):
            vectorized._BASE_SLOT.clear()
            chunked = analytic.combo_ber_matrix(CHIP, COMBOS, ROWS,
                                                "Checkered0", 300_000.0)
        assert np.array_equal(np.asarray(chunked),
                              np.asarray(whole[3]))


def _retained(call) -> int:
    """Traced bytes still allocated after ``call()`` returns and its
    result is dropped: what module state kept hold of."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestBaseSlot:
    """One base per chunk is built, and only the last one is kept."""

    #: Rows enough that one chunk's base (~200 KiB) dwarfs the
    #: interpreter's own allocation noise.
    ROWS = analytic.stratified_rows(CHIP.geometry.rows, 1024)
    #: Two combos a chunk: COMBOS splits into three chunks.
    CHUNK = 2 * ROWS.size

    @pytest.mark.parametrize("multi", [analytic.wcdp_hc_first_multi,
                                       analytic.wcdp_ber_multi])
    def test_one_base_per_chunk(self, monkeypatch, multi):
        built = []
        init = vectorized._PopulationBase.__init__

        def counting(base, *args, **kwargs):
            built.append(1)
            init(base, *args, **kwargs)

        monkeypatch.setattr(vectorized._PopulationBase, "__init__",
                            counting)
        with chunk_env(self.CHUNK):
            chunks = len(analytic._combo_chunks(len(COMBOS),
                                                self.ROWS.size))
            vectorized._BASE_SLOT.clear()
            multi(CHIP, COMBOS, self.ROWS)
        assert chunks >= 3
        # Four patterns per chunk, one base: not one per (chunk, pattern).
        assert len(built) == chunks

    def test_module_state_keeps_at_most_one_base(self):
        last = COMBOS[-2:]
        with chunk_env(self.CHUNK):
            analytic.wcdp_ber_multi(CHIP, COMBOS, self.ROWS)  # warm-up
            vectorized._BASE_SLOT.clear()
            one_base = _retained(lambda: analytic.combo_population(
                CHIP, last, self.ROWS, "Checkered0").ber(1.0e5))
            vectorized._BASE_SLOT.clear()
            swept = _retained(lambda: analytic.wcdp_ber_multi(
                CHIP, COMBOS, self.ROWS))
        assert len(vectorized._BASE_SLOT) == 1
        assert one_base > 100_000
        assert swept <= one_base + 16_384, (swept, one_base)
