"""Equivalence suite for the batched row-population execution engine.

The contract under test (see ``repro.dram.batch``): for any victim set,
:class:`RowBatchProfile` returns bit-identical row images, flip masks and
HC_first values to replaying ``initialize_window`` /
``double_sided_hammer`` / ``read_row`` per victim through the scalar
command path.
"""

import numpy as np
import pytest

from repro.bender.host import BenderSession
from repro.bender.routines.hammer import double_sided_hammer
from repro.bender.routines.hcfirst import (search_hc_first,
                                           search_hc_first_rows)
from repro.bender.routines.rowinit import initialize_window
from repro.chips.profiles import make_chip
from repro.core import metrics
from repro.core.patterns import CHECKERED0, ROWSTRIPE1
from repro.dram.batch import (RowBatchProfile, batch_enabled,
                              engine_supported)
from repro.dram.geometry import RowAddress
from repro.faults import FaultPlan, FaultyStack, clear_plan, install_plan

HAMMERS = 600_000


@pytest.fixture(scope="module")
def chip1():
    """A TRR-free chip (the engine rejects Chip 0's TRR device)."""
    return make_chip(1)


@pytest.fixture
def batch_session(chip1):
    device = chip1.make_device()
    return BenderSession(device, mapping=chip1.row_mapping())


def scalar_measure(chip, victims, pattern, count, t_on=None, ecc=False):
    """Reference scalar sequence on a fresh device: init, hammer, read.

    ``make_device`` disables on-die ECC (the methodology observes raw
    flips); ``ecc=True`` re-enables it for the correction tests.
    """
    device = chip.make_device()
    device.mode_registers.set_field(4, "ecc_enable", ecc)
    session = BenderSession(device, mapping=chip.row_mapping())
    images = []
    for victim in victims:
        initialize_window(session, victim, pattern)
        double_sided_hammer(session, victim, count, t_on)
        images.append(session.read_physical_row(victim))
    return images


def mixed_victims(geometry):
    """Victims spanning banks/channels, plus both bank-edge rows."""
    return [
        RowAddress(0, 0, 0, 0),                     # low edge: no row -1
        RowAddress(0, 0, 0, geometry.rows - 1),     # high edge: no row +1
        RowAddress(0, 0, 0, 5000),
        RowAddress(2, 1, 3, 5000),
        RowAddress(5, 0, 15, 831),                  # subarray boundary
        RowAddress(5, 0, 15, 832),
    ]


class TestHammerEquivalence:
    def test_images_match_scalar_path(self, chip1, batch_session):
        victims = mixed_victims(chip1.geometry)
        assert batch_session.batching_active()
        profile = batch_session.profile_rows(victims, CHECKERED0)
        result = profile.hammer(HAMMERS)
        # The comparison must not be vacuous: something has to flip.
        assert result.bitflips.sum() > 0
        expected = scalar_measure(chip1, victims, CHECKERED0, HAMMERS)
        for index, image in enumerate(expected):
            assert np.array_equal(result.images[index], image), \
                f"victim {victims[index]} image diverged"

    def test_bitflip_counts_match_count_bitflips(self, chip1,
                                                 batch_session):
        victims = mixed_victims(chip1.geometry)
        result = batch_session.profile_rows(victims, ROWSTRIPE1) \
            .hammer(HAMMERS)
        expected_row = ROWSTRIPE1.victim_row(chip1.geometry.row_bytes)
        for index, image in enumerate(result.images):
            assert result.bitflips[index] \
                == metrics.count_bitflips(expected_row, image)

    def test_zero_count_hammer(self, chip1, batch_session):
        victims = mixed_victims(chip1.geometry)
        result = batch_session.profile_rows(victims, CHECKERED0).hammer(0)
        expected = scalar_measure(chip1, victims, CHECKERED0, 0)
        for index, image in enumerate(expected):
            assert np.array_equal(result.images[index], image)

    def test_extended_t_on_matches_scalar(self, chip1, batch_session):
        """RowPress-style aggressor-on-time amplification agrees."""
        t_on = 500.0
        victims = [RowAddress(0, 0, 0, 5000), RowAddress(1, 0, 2, 7000)]
        result = batch_session.profile_rows(victims, CHECKERED0) \
            .hammer(HAMMERS // 8, t_on)
        expected = scalar_measure(chip1, victims, CHECKERED0,
                                  HAMMERS // 8, t_on=t_on)
        for index, image in enumerate(expected):
            assert np.array_equal(result.images[index], image)


class TestEccEquivalence:
    def test_ecc_on_matches_scalar(self, chip1):
        victims = mixed_victims(chip1.geometry)
        device = chip1.make_device()
        device.mode_registers.set_field(4, "ecc_enable", True)
        session = BenderSession(device, mapping=chip1.row_mapping())
        result = session.profile_rows(victims, CHECKERED0).hammer(HAMMERS)
        expected = scalar_measure(chip1, victims, CHECKERED0, HAMMERS,
                                  ecc=True)
        for index, image in enumerate(expected):
            assert np.array_equal(result.images[index], image)

    def test_ecc_corrects_single_bit_words(self, chip1):
        victims = mixed_victims(chip1.geometry)
        device = chip1.make_device()
        session = BenderSession(device, mapping=chip1.row_mapping())
        device.mode_registers.set_field(4, "ecc_enable", True)
        with_ecc = session.profile_rows(victims, CHECKERED0) \
            .hammer(HAMMERS)
        device.mode_registers.set_field(4, "ecc_enable", False)
        without = session.profile_rows(victims, CHECKERED0) \
            .hammer(HAMMERS)
        # ECC never invents flips and the committed physics is shared.
        assert np.array_equal(with_ecc.committed, without.committed)
        assert (with_ecc.bitflips <= without.bitflips).all()
        assert np.array_equal(without.observed_flips, without.committed)


class TestHcFirstEquivalence:
    def test_vectorized_search_matches_scalar(self, chip1, batch_session):
        victims = [RowAddress(0, 0, 0, 5000), RowAddress(0, 0, 0, 0),
                   RowAddress(3, 1, 7, 2048)]
        batched = search_hc_first_rows(batch_session, victims, CHECKERED0)
        scalar_session = BenderSession(chip1.make_device(),
                                       mapping=chip1.row_mapping())
        for victim, result in zip(victims, batched):
            reference = search_hc_first(scalar_session, victim, CHECKERED0)
            assert result.hc_first == reference.hc_first
            assert result.probes == reference.probes
            assert result.found == reference.found

    def test_budget_exhaustion_matches_scalar(self, chip1, batch_session):
        victims = [RowAddress(0, 0, 0, 5000)]
        batched = search_hc_first_rows(batch_session, victims, CHECKERED0,
                                       max_hammers=1000)
        assert not batched[0].found
        assert batched[0].hc_first is None
        scalar_session = BenderSession(chip1.make_device(),
                                       mapping=chip1.row_mapping())
        reference = search_hc_first(scalar_session, victims[0], CHECKERED0,
                                    max_hammers=1000)
        assert batched[0].probes == reference.probes


class TestFallbackGates:
    def test_trr_device_supported(self, chip0):
        """TRR no longer forces the scalar fallback (PR 5)."""
        device = chip0.make_device()
        assert device.trr_config.enabled
        assert engine_supported(device)
        session = BenderSession(device, mapping=chip0.row_mapping())
        assert session.batching_active()

    def test_trr_mirror_matches_scalar_sampler(self, chip0):
        """The batch measurement leaves the TRR sampler in the exact
        state the scalar command sequence would, so later REFs refresh
        the same victims."""
        victims = [RowAddress(0, 0, 0, 5000), RowAddress(0, 0, 1, 700)]
        batch_device = chip0.make_device()
        session = BenderSession(batch_device, mapping=chip0.row_mapping())
        assert session.batching_active()
        session.profile_rows(victims, CHECKERED0).hammer(2_000)

        scalar_device = chip0.make_device()
        scalar_session = BenderSession(scalar_device,
                                       mapping=chip0.row_mapping())
        for victim in victims:
            initialize_window(scalar_session, victim, CHECKERED0)
            double_sided_hammer(scalar_session, victim, 2_000)
            scalar_session.read_physical_row(victim)

        for device in (batch_device, scalar_device):
            assert device.trr_config.enabled
        mine = batch_device.trr_engine(0, 0)
        theirs = scalar_device.trr_engine(0, 0)
        for bank in (0, 1):
            assert mine._trackers[bank].cam == theirs._trackers[bank].cam
            assert mine._trackers[bank].window_counts \
                == theirs._trackers[bank].window_counts
            assert mine._trackers[bank].window_total \
                == theirs._trackers[bank].window_total
        # ... and the next capable REFs emit identical victim refreshes.
        for __ in range(17):
            assert mine.on_refresh() == theirs.on_refresh()

    def test_faulty_stack_supported(self, chip1):
        """A FaultyStack over a plain stack batches (PR 6): the engine
        unwraps it and the session classifies fault windows itself."""
        wrapped = FaultyStack(chip1.make_device(), FaultPlan(seed=7))
        assert engine_supported(wrapped)
        profile = RowBatchProfile(wrapped, [RowAddress(0, 0, 0, 100)],
                                  CHECKERED0)
        assert profile.device is wrapped.wrapped

    def test_faulty_subclass_still_rejected(self, chip1):
        """Unwrapping exposes the underlying device to the same
        subclass gate as before."""
        class Oddball(type(chip1.make_device())):
            pass

        device = chip1.make_device()
        odd = Oddball(geometry=device.geometry, timings=device.timings)
        assert not engine_supported(FaultyStack(odd, FaultPlan(seed=7)))

    def test_fault_plan_keeps_session_batching(self, chip1):
        session = BenderSession(chip1.make_device(),
                                mapping=chip1.row_mapping())
        assert session.batching_active()
        install_plan(FaultPlan(seed=7, drop_rate=0.01))
        try:
            faulted = BenderSession(chip1.make_device(),
                                    mapping=chip1.row_mapping())
            assert isinstance(faulted.device, FaultyStack)
            assert faulted.batching_active()
        finally:
            clear_plan()
        assert session.batching_active()

    def test_env_escape_hatch(self, chip1, monkeypatch):
        session = BenderSession(chip1.make_device(),
                                mapping=chip1.row_mapping())
        for value in ("0", "false", "no", "off"):
            monkeypatch.setenv("HBMSIM_BATCH", value)
            assert not batch_enabled()
            assert not session.batching_active()
        monkeypatch.setenv("HBMSIM_BATCH", "1")
        assert batch_enabled()

    def test_env_unrecognized_warns_and_enables(self, chip1, monkeypatch):
        import warnings as warnings_module

        from repro.dram import batch as batch_module

        monkeypatch.setenv("HBMSIM_BATCH", "bogus-value")
        monkeypatch.setattr(batch_module, "_WARNED_VALUES", set())
        with pytest.warns(RuntimeWarning, match="HBMSIM_BATCH"):
            assert batch_enabled()
        # Warned once per distinct value, not per call.
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert batch_enabled()


def _trr_state(session):
    device = session.device
    if isinstance(device, FaultyStack):
        device = device.wrapped
    state = []
    for pc_key, engine in device._trr.items():
        for tracker in engine._trackers:
            state.append((pc_key, tuple(tracker.cam),
                          dict(tracker.window_counts),
                          tracker.window_total))
    return state


class TestSpeculativeEquivalence:
    """search_hc_first_rows under a fault plan == the scalar loop.

    Regression contract of the multi-row search under faults: per-row
    results, the injected fault-event log, the final command counter
    and the TRR sampler state are bit-identical to running
    :func:`search_hc_first` per victim on a fresh identically-seeded
    FaultyStack.
    """

    #: Hot enough that short searches hit drops, jitter and read
    #: faults — not just clean paths.
    PLAN = dict(drop_rate=0.01, act_jitter_rate=0.01, act_jitter_ns=5.0,
                read_flip_rate=0.05, stuck_row_rate=0.05)

    def _faulty_session(self, chip, seed, trr=None):
        stack = FaultyStack(chip.make_device(trr_config=trr),
                            FaultPlan(seed=seed, **self.PLAN))
        return BenderSession(stack, mapping=chip.row_mapping())

    def _assert_equivalent(self, chip, victims, seed, trr=None,
                           **search):
        batch_session = self._faulty_session(chip, seed, trr)
        assert batch_session.batching_active()
        batched = search_hc_first_rows(batch_session, victims,
                                       CHECKERED0, **search)
        scalar_session = self._faulty_session(chip, seed, trr)
        scalar = [search_hc_first(scalar_session, victim, CHECKERED0,
                                  **search)
                  for victim in victims]
        for mine, theirs in zip(batched, scalar):
            assert mine.hc_first == theirs.hc_first
            assert mine.probes == theirs.probes
            assert mine.found == theirs.found
        assert batch_session.device.events == scalar_session.device.events
        assert batch_session.device._counter \
            == scalar_session.device._counter
        assert batch_session.device.schedule_digest() \
            == scalar_session.device.schedule_digest()
        assert _trr_state(batch_session) == _trr_state(scalar_session)

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_disjoint_victims_match_scalar(self, chip1, seed):
        victims = [RowAddress(0, 0, 0, 5000), RowAddress(0, 0, 0, 0),
                   RowAddress(3, 1, 7, 2048)]
        self._assert_equivalent(chip1, victims, seed)

    def test_overlapping_victims_demote_and_match(self, chip1):
        # Rows within 2*radius share window WRs: under a drop-capable
        # plan the earlier victim must replay scalar (stale-read rule).
        victims = [RowAddress(0, 0, 0, 100), RowAddress(0, 0, 0, 104),
                   RowAddress(0, 0, 0, 112)]
        self._assert_equivalent(chip1, victims, seed=7)

    def test_trr_device_matches_scalar(self, chip0):
        victims = [RowAddress(0, 0, 0, 5000), RowAddress(0, 0, 1, 700)]
        self._assert_equivalent(chip0, victims, seed=7,
                                trr=chip0.trr_config())

    def test_budget_exhaustion_matches_scalar(self, chip1):
        victims = [RowAddress(0, 0, 0, 5000), RowAddress(1, 0, 0, 8000)]
        self._assert_equivalent(chip1, victims, seed=7,
                                max_hammers=1000)

    def test_fallback_env_gate_matches_batched(self, chip1, monkeypatch):
        victims = [RowAddress(0, 0, 0, 5000), RowAddress(0, 0, 0, 104)]
        batched = search_hc_first_rows(
            self._faulty_session(chip1, 7), victims, CHECKERED0)
        monkeypatch.setenv("HBMSIM_BATCH", "0")
        scalar = search_hc_first_rows(
            self._faulty_session(chip1, 7), victims, CHECKERED0)
        for mine, theirs in zip(batched, scalar):
            assert mine.hc_first == theirs.hc_first
            assert mine.probes == theirs.probes
