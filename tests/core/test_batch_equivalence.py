"""Equivalence suite for the closed-form analytic engine.

Three invariants pin the one chunk-streamed kernel:

- :func:`population_combos` (the block-chained kernel with its one
  base slot) is bit-identical to a test-local reference that folds
  every seed chain over the expanded coordinate arrays
  (:class:`~repro.chips.vectorized._FlatChains`),
- the WCDP helpers (``*_multi`` and their one-combo forms) equal
  per-combo measurements of that reference, at one chunk and at many,
- the closed-form experiment reports keep their pinned sha256 digests
  at scale 0.02 (at 0.25 every id is pinned by the golden manifest,
  ``tests/experiments/golden_manifest.json``).
"""

import hashlib

import numpy as np
import pytest

from repro.chips import vectorized
from repro.chips.profiles import make_chip
from repro.chips.vectorized import (PopulationBatch, _FlatChains,
                                    _PopulationBase, population_combos)
from repro.core import analytic
from repro.core.analytic import (combo_ber_matrix, combo_population,
                                 wcdp_ber, wcdp_ber_multi, wcdp_hc_first,
                                 wcdp_hc_first_multi)
from repro.core.patterns import ALL_PATTERNS
from repro.experiments.registry import run_experiment

COMBOS = [(0, 0, 0), (2, 1, 3), (7, 0, 15)]
ROWS = np.array([0, 831, 832, 5000, 12000, 16383])
PATTERN = "Checkered0"


@pytest.fixture(scope="module")
def chip():
    return make_chip(2)


FIELDS = ("f_weak", "mu_weak", "sigma_weak", "mu_strong", "flippable",
          "n_weak", "profile_seeds")


def reference_population(chip, combos, rows, pattern):
    """``combos`` x ``rows`` (rows-fastest) with flat seed chains.

    Folds every chain over the expanded coordinate arrays, element by
    element, instead of once per combo as :class:`_BlockChains` does.
    """
    coords = tuple(np.repeat(np.array(column, dtype=np.int64), rows.size)
                   for column in zip(*combos))
    coords += (np.tile(rows.astype(np.int64), len(combos)),)
    base = _PopulationBase(chip, *coords, scalar_faithful=False,
                           chains=_FlatChains(chip.spec.seed, coords))
    return PopulationBatch(chip, base, pattern)


class TestPopulationCombos:
    def test_matches_flat_chain_reference(self, chip):
        vectorized._BASE_SLOT.clear()
        batch = population_combos(
            chip,
            [channel for channel, __, __ in COMBOS],
            [pc for __, pc, __ in COMBOS],
            [bank for __, __, bank in COMBOS],
            ROWS, PATTERN)
        reference = reference_population(chip, COMBOS, ROWS, PATTERN)
        for field in FIELDS:
            assert np.array_equal(getattr(batch, field),
                                  getattr(reference, field)), field

    def test_measurements_match_per_combo(self, chip):
        vectorized._BASE_SLOT.clear()
        batch = combo_population(chip, COMBOS, ROWS, PATTERN)
        shape = (len(COMBOS), ROWS.size)
        hc = batch.hc_first(1.25).reshape(shape)
        ber = batch.ber(2.0e5).reshape(shape)
        nth = batch.hc_nth(3, 1.25).reshape(shape + (3,))
        for index, combo in enumerate(COMBOS):
            one = reference_population(chip, [combo], ROWS, PATTERN)
            assert np.array_equal(hc[index], one.hc_first(1.25))
            assert np.array_equal(ber[index], one.ber(2.0e5))
            assert np.array_equal(nth[index], one.hc_nth(3, 1.25))

    def test_cached_base_is_bit_identical(self, chip):
        """A second pattern reuses the pattern-independent base; results
        must equal a from-scratch computation."""
        vectorized._BASE_SLOT.clear()
        combo_population(chip, COMBOS, ROWS, "Checkered0")
        warm = combo_population(chip, COMBOS, ROWS, "RowStripe0")
        vectorized._BASE_SLOT.clear()
        cold = combo_population(chip, COMBOS, ROWS, "RowStripe0")
        for field in FIELDS:
            assert np.array_equal(getattr(warm, field),
                                  getattr(cold, field)), field

    def test_every_call_builds_a_fresh_batch(self, chip):
        """No batch memo: a repeated call returns a new, equal batch."""
        vectorized._BASE_SLOT.clear()
        first = combo_population(chip, COMBOS, ROWS, PATTERN)
        again = combo_population(chip, COMBOS, ROWS, PATTERN)
        assert again is not first
        for field in ("f_weak", "mu_weak", "sigma_weak", "n_weak",
                      "profile_seeds"):
            assert np.array_equal(getattr(again, field),
                                  getattr(first, field)), field


NAMES = [pattern.name for pattern in ALL_PATTERNS]
HAMMERS = 300_000


def reference_hc_first(chip, combo, rows):
    """Per-combo HC_first per pattern plus the stacked WCDP minimum."""
    per_pattern = {name: reference_population(chip, [combo], rows,
                                              name).hc_first(1.0)
                   for name in NAMES}
    per_pattern["WCDP"] = np.stack(list(per_pattern.values())).min(axis=0)
    return per_pattern


def reference_ber(chip, combo, rows, sampled, rng):
    """Per-combo BER per pattern; WCDP gathers the argmin-HC pattern."""
    eff = analytic.effective_hammers(chip, HAMMERS)
    batches = [reference_population(chip, [combo], rows, name)
               for name in NAMES]
    bers = {name: batch.sampled_ber(eff, rng) if sampled
            else batch.ber(eff)
            for name, batch in zip(NAMES, batches)}
    hc = reference_hc_first(chip, combo, rows)
    worst = np.argmin(np.stack([hc[name] for name in NAMES]), axis=0)
    stacked = np.stack([bers[name] for name in NAMES])
    bers["WCDP"] = stacked[worst, np.arange(rows.size)]
    return bers


def chunk_bounds(monkeypatch):
    """Yield once under the default bound and once at two combos a
    chunk (so the three combos stream in two chunks), caches cleared."""
    for bound in (None, 2 * ROWS.size):
        if bound is None:
            monkeypatch.delenv("HBMSIM_CELLS_CHUNK", raising=False)
        else:
            monkeypatch.setenv("HBMSIM_CELLS_CHUNK", str(bound))
        vectorized._BASE_SLOT.clear()
        yield bound


class TestWcdpMulti:
    """The streamed kernels against the per-combo flat-chain reference."""

    def test_hc_first_multi_matches_scalar(self, chip, monkeypatch):
        for __ in chunk_bounds(monkeypatch):
            multi = wcdp_hc_first_multi(chip, COMBOS, ROWS)
            for index, combo in enumerate(COMBOS):
                for name, values in reference_hc_first(chip, combo,
                                                       ROWS).items():
                    assert np.array_equal(multi[name][index], values), \
                        name

    def test_ber_multi_matches_scalar(self, chip, monkeypatch):
        """``rng=None``: unit-local noise per (combo, pattern); also the
        noise-free probabilities."""
        for __ in chunk_bounds(monkeypatch):
            for sampled in (True, False):
                multi = wcdp_ber_multi(chip, COMBOS, ROWS,
                                       hammer_count=HAMMERS,
                                       sampled=sampled)
                for index, combo in enumerate(COMBOS):
                    expected = reference_ber(chip, combo, ROWS, sampled,
                                             None)
                    for name, values in expected.items():
                        assert np.array_equal(multi[name][index],
                                              values), name

    def test_ber_multi_shared_generator(self, chip, monkeypatch):
        """A shared generator is consumed combo-major, pattern-minor."""
        for __ in chunk_bounds(monkeypatch):
            multi = wcdp_ber_multi(chip, COMBOS, ROWS,
                                   hammer_count=HAMMERS,
                                   rng=np.random.default_rng(99))
            rng = np.random.default_rng(99)
            for index, combo in enumerate(COMBOS):
                expected = reference_ber(chip, combo, ROWS, True, rng)
                for name, values in expected.items():
                    assert np.array_equal(multi[name][index], values), \
                        name

    def test_one_combo_forms(self, chip):
        vectorized._BASE_SLOT.clear()
        combo = COMBOS[1]
        hc = wcdp_hc_first(chip, *combo, ROWS)
        for name, values in reference_hc_first(chip, combo, ROWS).items():
            assert np.array_equal(hc[name], values), name
        for seed in (None, 7):
            rng = None if seed is None else np.random.default_rng(seed)
            bers = wcdp_ber(chip, *combo, ROWS, hammer_count=HAMMERS,
                            rng=rng)
            rng = None if seed is None else np.random.default_rng(seed)
            expected = reference_ber(chip, combo, ROWS, True, rng)
            for name, values in expected.items():
                assert np.array_equal(bers[name], values), name


BAD_ADDRESSES = [
    ((9, 0, 0), ROWS, r"channel 9 out of range \[0, 8\)"),
    ((0, 2, 0), ROWS, r"pseudo channel 2 out of range \[0, 2\)"),
    ((0, 0, 16), ROWS, r"bank 16 out of range \[0, 16\)"),
    ((0, 0, 0), np.array([0, 16384]), "row index out of range"),
]

ENTRY_POINTS = {
    "wcdp_hc_first": lambda chip, combo, rows:
        wcdp_hc_first(chip, *combo, rows),
    "wcdp_ber": lambda chip, combo, rows: wcdp_ber(chip, *combo, rows),
    "wcdp_hc_first_multi": lambda chip, combo, rows:
        wcdp_hc_first_multi(chip, [(0, 0, 0), combo], rows),
    "wcdp_ber_multi": lambda chip, combo, rows:
        wcdp_ber_multi(chip, [(0, 0, 0), combo], rows),
    "combo_ber_matrix": lambda chip, combo, rows:
        combo_ber_matrix(chip, [(0, 0, 0), combo], rows, PATTERN, 1.0e5),
}


class TestAddressCheck:
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("combo,rows,message", BAD_ADDRESSES,
                             ids=["channel", "pseudo-channel", "bank",
                                  "row"])
    def test_out_of_range_raises(self, chip, entry, combo, rows,
                                 message):
        vectorized._BASE_SLOT.clear()
        with pytest.raises(ValueError, match=message):
            ENTRY_POINTS[entry](chip, combo, rows)


#: Report sha256 of the closed-form Figs. 4-13 studies at scale 0.02.
REPORT_DIGESTS = {
    "fig04": "f30c0db25395b5b702af315f29757e08"
             "b421f1e0e4f44ef055d8b265811fc7dc",
    "fig06": "723a847a9814e392ba299e740f2ecb81"
             "6bdac12eba62e109ed916df931f57586",
    "fig08": "9766352528c6b79947e72136dfaf58fd"
             "810f81272dbc66d067065b88f7509dfa",
    "fig09": "a44b7960d4e4f42807723c21cefe3a3f"
             "35a81dc93442c52d78f55cbd77c6a668",
    "fig10": "619a0769ebeeb02d6f31ca58ac53fa1a"
             "b2bbf22d8a03d7278e7c20f553c98c1d",
    "fig11": "9f57b768061e0f689a61497df41cd9fc"
             "2acda990e0893a3811b044298d09a6ef",
    "fig12": "740fbabc112725ab505ca14aa318d4e6"
             "3f9ae299711870dac8aa858d63f30e7d",
    "fig13": "34ed4ac50aa347cf3cfc89bcac2252d9"
             "116b4ef63577b0d2cd3f15540a2885ac",
}


class TestExperimentEquivalence:
    @pytest.mark.parametrize("experiment_id", sorted(REPORT_DIGESTS))
    def test_closed_form_report_digest(self, experiment_id):
        """Each closed-form study keeps its report sha256 at 0.02."""
        text = run_experiment(experiment_id, 0.02).text
        assert hashlib.sha256(text.encode()).hexdigest() == \
            REPORT_DIGESTS[experiment_id]
