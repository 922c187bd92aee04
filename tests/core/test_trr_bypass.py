"""Tests for the Section 7 TRR-bypass attack."""

import json

import numpy as np
import pytest

from repro.core.trr_bypass import (AttackConfig, attack_effective_hammers,
                                   bypass_study, dummy_rows_for,
                                   run_attack, run_attack_epochs,
                                   run_attack_exact)
from repro.core.patterns import CHECKERED0, ROWSTRIPE1
from repro.dram.geometry import RowAddress


class TestAttackConfig:
    def test_budget_is_78(self):
        assert AttackConfig(4, 18).budget == 78

    def test_paper_dummy_acts_example(self):
        """4 dummies at 18 aggressor acts: (78 - 36) // 4 = 10 each."""
        assert AttackConfig(4, 18).dummy_acts_each == 10

    def test_windows_two_trefw(self):
        assert AttackConfig(4, 18).total_windows == 2 * 8205

    def test_count_rule_safe(self):
        assert AttackConfig(8, 34).count_rule_safe
        assert AttackConfig(4, 18).count_rule_safe

    def test_aggressors_above_budget_rejected(self):
        with pytest.raises(ValueError):
            AttackConfig(4, 40)

    def test_no_room_for_dummies_rejected(self):
        with pytest.raises(ValueError):
            AttackConfig(20, 36)


class TestDummyRows:
    def test_far_from_victim(self):
        victim = RowAddress(0, 0, 0, 5000)
        rows = dummy_rows_for(victim, AttackConfig(8, 34), 16384)
        assert len(rows) == 8
        assert all(abs(row - 5000) > 2 for row in rows)
        assert len(set(rows)) == 8


class TestEffectiveHammers:
    def test_bypassed_accumulates_full_window(self, chip0):
        config = AttackConfig(8, 34)
        assert attack_effective_hammers(chip0, config, bypassed=True) == \
            34 * 8205

    def test_detected_caps_at_cadence(self, chip0):
        config = AttackConfig(2, 34)
        assert attack_effective_hammers(chip0, config, bypassed=False) == \
            34 * 17


class TestBypassStudy:
    @pytest.fixture(scope="class")
    def study(self):
        from repro.chips.profiles import make_chip

        rows = np.arange(0, 16384, 128)
        return bypass_study(make_chip(0),
                            dummy_counts=(1, 3, 4, 6, 8),
                            aggressor_acts=(18, 24, 30, 34), rows=rows)

    def test_fewer_than_four_dummies_fail(self, study):
        for dummies in (1, 3):
            for acts in (18, 34):
                assert study.mean_ber(dummies, acts) < 1e-5

    def test_four_dummies_succeed(self, study):
        assert study.mean_ber(4, 34) > 1e-3

    def test_ber_grows_with_aggressor_acts(self, study):
        means = [study.mean_ber(8, acts) for acts in (18, 24, 30, 34)]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_scaling_order_of_magnitude(self, study):
        """Paper: 10.28x from 18 to 34 acts; require the same decade."""
        scaling = study.acts_scaling(8)
        assert 4.0 < scaling[34] < 30.0

    def test_dummies_beyond_four_equivalent(self, study):
        assert study.dummy_sensitivity(34) < 0.002


class TestExactAttack:
    def test_exact_attack_validates_bypass_threshold(self, chip0):
        """Command-accurate runs (every REF, every TRR sample) confirm
        >= 4 dummies bypass and 3 do not, on a reduced window count."""
        from repro.bender.host import BenderSession

        victim = RowAddress(0, 0, 0, 5000)
        flips = {}
        for dummies in (3, 4):
            session = BenderSession(chip0.make_device(),
                                    mapping=chip0.row_mapping())
            config = AttackConfig(dummy_rows=dummies, aggressor_acts=34)
            flips[dummies] = run_attack_exact(session, victim, config,
                                              CHECKERED0)
        assert flips[3] == 0
        assert flips[4] > 0


def fresh_session(chip, trr_config=None, temperature_c=None):
    from repro.bender.host import BenderSession

    kwargs = {} if trr_config is None else {"trr_config": trr_config}
    device = chip.make_device(**kwargs)
    if temperature_c is not None:
        device.set_temperature(temperature_c)
    return BenderSession(device, mapping=chip.row_mapping())


def warm(session, victim):
    """Start from materialized rows, nonzero stats and a moved
    rolling-refresh pointer."""
    session.device.hammer(victim.with_row(victim.row + 40), 10)
    session.device.refresh(victim.channel, victim.pseudo_channel)
    return session


def measurement_surface(device):
    """Everything the epoch replay must leave as it found it."""
    return (device.now_ns, vars(device.stats).copy(),
            {key: sorted(rows) for key, rows in device._rows.items()},
            {key: times.tobytes()
             for key, times in device._pc_ref_time.items()},
            dict(device._ref_pointer))


class TestEpochAttackEquivalence:
    """``run_attack_epochs`` must return the exact path's flip count."""

    @pytest.fixture(scope="class")
    def weak_victim(self, chip0):
        """A weak early row: flips within few hundred windows, and its
        rolling-refresh sweep lands inside the run."""
        from repro.core import analytic

        rows = np.arange(16, 2048, 16)
        hc = analytic.wcdp_hc_first(chip0, 0, 0, 0, rows)["Checkered0"]
        # Total windows needed: survive the sweep at ~row/2, then
        # accumulate hc_first units at 34 per window.
        budget = rows // 2 + np.ceil(hc / 34.0).astype(int) + 40
        best = int(np.argmin(budget))
        return RowAddress(0, 0, 0, int(rows[best])), int(budget[best])

    def both_paths(self, chip, victim, config, pattern=CHECKERED0,
                   trr_config=None, temperature_c=None):
        exact = run_attack_exact(
            warm(fresh_session(chip, trr_config, temperature_c), victim),
            victim, config, pattern)
        session = warm(fresh_session(chip, trr_config, temperature_c),
                       victim)
        before = measurement_surface(session.device)
        assert session.batching_active()
        epochs = run_attack_epochs(session, victim, config, pattern)
        # The epoch replay is a measurement surface: no device mutation.
        assert measurement_surface(session.device) == before
        return exact, epochs

    def test_bypass_flips_match_exact(self, chip0, weak_victim):
        victim, windows = weak_victim
        config = AttackConfig(dummy_rows=4, aggressor_acts=34,
                              windows=windows)
        exact, epochs = self.both_paths(chip0, victim, config)
        assert exact == epochs
        assert epochs > 0  # non-vacuous: the attack must flip bits

    def test_protected_configs_match_exact(self, chip0, weak_victim):
        victim, windows = weak_victim
        for dummies in (0, 3):
            config = AttackConfig(dummy_rows=dummies, aggressor_acts=34,
                                  windows=windows)
            exact, epochs = self.both_paths(chip0, victim, config)
            assert exact == epochs == 0

    def test_trr_variant_and_pattern_match_exact(self, chip0, weak_victim):
        from repro.dram.trr import TrrConfig

        victim, windows = weak_victim
        variant = TrrConfig(capable_interval=9, cam_capacity=2)
        config = AttackConfig(dummy_rows=3, aggressor_acts=30,
                              windows=windows)
        exact, epochs = self.both_paths(chip0, victim, config,
                                        pattern=ROWSTRIPE1,
                                        trr_config=variant)
        assert exact == epochs

    def test_trr_disabled_chip_matches_exact(self, weak_victim):
        from repro.chips.profiles import make_chip

        chip1 = make_chip(1)  # a TRR-free chip
        __, windows = weak_victim
        victim = RowAddress(0, 0, 0, 900)
        config = AttackConfig(dummy_rows=4, aggressor_acts=34,
                              windows=min(windows, 400))
        exact, epochs = self.both_paths(chip1, victim, config)
        assert exact == epochs

    def test_subarray_boundary_victim_matches_exact(self, chip0):
        """Row 832's low aggressor sits across a sense-amp stripe."""
        victim = RowAddress(0, 0, 0, 832)
        config = AttackConfig(dummy_rows=4, aggressor_acts=34, windows=120)
        exact, epochs = self.both_paths(chip0, victim, config)
        assert exact == epochs

    def test_retention_at_raised_temperature_matches_exact(self, chip0):
        """At 50 C above calibration retention runs 32x faster, so the
        victim (its weakest cell holds the 33 ms floor) loses charge
        within 400 unswept windows; both paths must agree on it."""
        victim = RowAddress(0, 0, 0, 1050)
        config = AttackConfig(dummy_rows=4, aggressor_acts=34, windows=400)
        hot = chip0.spec.nominal_temperature_c + 50.0
        exact, epochs = self.both_paths(chip0, victim, config,
                                        temperature_c=hot)
        assert exact == epochs
        # Non-vacuous: the replay's unrefreshed time, accelerated, passes
        # the victim's retention floor, and retention adds flips.
        session = warm(fresh_session(chip0, temperature_c=hot), victim)
        device = session.device
        assert config.total_windows * device.timings.t_refi \
            * device.retention_acceleration() \
            >= device.retention.row_retention_ns(victim)
        device.retention = None
        assert epochs > run_attack_epochs(session, victim, config)

    def test_dispatcher_uses_epoch_path(self, chip0, monkeypatch):
        victim = RowAddress(0, 0, 0, 5000)
        config = AttackConfig(dummy_rows=4, aggressor_acts=34, windows=40)
        session = fresh_session(chip0)
        now_before = session.device.now_ns
        run_attack(session, victim, config)
        assert session.device.now_ns == now_before  # epoch path taken
        monkeypatch.setenv("HBMSIM_BATCH", "0")
        session = fresh_session(chip0)
        run_attack(session, victim, config)
        assert session.device.now_ns > now_before  # scalar path taken

    def test_dispatcher_follows_session_gate(self, chip0, monkeypatch):
        """A plain stack, with or without TRR, replays epochs; a
        FaultyStack or a device subclass runs the exact attack."""
        from repro.bender.host import BenderSession
        from repro.chips.profiles import make_chip
        from repro.core import trr_bypass
        from repro.dram.device import HBM2Stack
        from repro.faults import FaultPlan, FaultyStack

        monkeypatch.delenv("HBMSIM_BATCH", raising=False)
        taken = []
        monkeypatch.setattr(trr_bypass, "run_attack_epochs",
                            lambda *args: taken.append("epochs"))
        monkeypatch.setattr(trr_bypass, "run_attack_exact",
                            lambda *args: taken.append("exact"))

        class Oddball(HBM2Stack):
            pass

        mapping = chip0.row_mapping()
        sessions = [
            fresh_session(chip0),
            fresh_session(make_chip(1)),  # a TRR-free chip
            BenderSession(FaultyStack(chip0.make_device(),
                                      FaultPlan(seed=7)), mapping=mapping),
            BenderSession(Oddball(), mapping=mapping),
        ]
        config = AttackConfig(dummy_rows=4, aggressor_acts=34, windows=40)
        for session in sessions:
            run_attack(session, RowAddress(0, 0, 0, 5000), config)
        assert taken == ["epochs", "epochs", "exact", "exact"]


#: The fault plan CI's chaos perf runs install (``HBMSIM_FAULTS``).
CI_PLAN = dict(seed=7, read_flip_rate=0.001, drop_rate=0.0002,
               act_jitter_rate=0.0005, act_jitter_ns=3.0)


@pytest.mark.parametrize("plan", [None, CI_PLAN], ids=["no-plan", "ci-chaos"])
def test_fig14_takes_the_fast_path(plan, monkeypatch):
    """fig14 at 0.25: with no plan every validation attack is an epoch
    replay and the command path never runs; under the CI chaos plan the
    command path lowers each attack loop to one epoch segment, no
    segment falls back to per-command dispatch, and at most 1% of the
    windows are dirty (replayed command by command)."""
    from repro.bender import compile as compiler
    from repro.core import trr_bypass
    from repro.experiments.registry import run_experiment

    paths = {"epochs": 0, "exact": 0}
    segments = []
    dirty = []

    def spy(name, target):
        def counted(*args, **kwargs):
            paths[name] += 1
            return target(*args, **kwargs)
        return counted

    def spy_segment(executor, segment):
        segments.append(segment.repeats)
        return run_epoch_segment(executor, segment)

    def spy_dirty(*args):
        mask = dirty_window_mask(*args)
        dirty.append(int(mask.sum()))
        return mask

    def no_scalar_segment(*args, **kwargs):
        raise AssertionError("an epoch segment fell back to per-command "
                             "dispatch")

    run_epoch_segment = compiler.PlanExecutor._run_epoch_segment
    dirty_window_mask = compiler.dirty_window_mask
    monkeypatch.setattr(trr_bypass, "run_attack_epochs",
                        spy("epochs", trr_bypass.run_attack_epochs))
    monkeypatch.setattr(trr_bypass, "run_attack_exact",
                        spy("exact", trr_bypass.run_attack_exact))
    monkeypatch.setattr(compiler.PlanExecutor, "_run_epoch_segment",
                        spy_segment)
    monkeypatch.setattr(compiler.PlanExecutor, "_run_segment_scalar",
                        no_scalar_segment)
    monkeypatch.setattr(compiler, "dirty_window_mask", spy_dirty)
    monkeypatch.setenv("HBMSIM_BATCH", "1")
    if plan is None:
        monkeypatch.delenv("HBMSIM_FAULTS", raising=False)
    else:
        monkeypatch.setenv("HBMSIM_FAULTS", json.dumps(plan))
    run_experiment("fig14", 0.25)
    if plan is None:
        assert paths == {"epochs": 2, "exact": 0}
        assert segments == []
        return
    assert paths == {"epochs": 0, "exact": 2}
    windows = sum(segments)
    assert len(segments) == 2 and windows == 8204
    assert len(dirty) == 2
    assert 0 < sum(dirty) <= windows // 100
