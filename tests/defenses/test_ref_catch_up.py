"""REF catch-up under fault plans: batched == the per-REF scalar loop.

The attacks pace periodic REFs through :func:`catch_up_refreshes`.  With
``HBMSIM_BATCH=1`` it bursts clean REF runs through the fault layer;
with ``HBMSIM_BATCH=0`` it issues one ``refresh()`` per REF.  Both must
leave the same victim flips, fault schedule, clock, device and
controller state behind — under the CI chaos plan and under a heavy
drop+ghost plan (5% each) whose REF faults change how many REFs the
catch-up issues.  (A catch-up that blindly bursts every owed REF
rarely differs: a REF fault shifts the clock by one tRFC, which changes
the owed count only when the catch-up ends within that margin, so only
a heavy plan faults enough catch-ups to tell the two apart.)
"""

import dataclasses
import math
import random

import pytest

from repro.defenses import (BlockHammer, Para, burst_double_sided,
                            defended_session, para_probability_for,
                            pick_vulnerable_victim, rowpress_burst)
from repro.faults import FaultPlan, FaultyStack, clear_plan, install_plan

CI_PLAN = dict(seed=7, read_flip_rate=0.001, drop_rate=0.0002,
               act_jitter_rate=0.0005, act_jitter_ns=3.0)
HEAVY_PLAN = dict(seed=11, read_flip_rate=0.001, drop_rate=0.05,
                  ghost_rate=0.05, act_jitter_rate=0.0005,
                  act_jitter_ns=3.0)

ATTACKS = {
    # BlockHammer blacklists past 2048 ACTs, so 24000 double-sided
    # hammers reach its throttle and the long REF catch-ups it causes.
    "double_sided": lambda session, victim: burst_double_sided(
        session, victim, hammer_count=24_000),
    "rowpress": lambda session, victim: rowpress_burst(
        session, victim, hammer_count=256),
}


@pytest.fixture(scope="module")
def chip0():
    from repro.chips.profiles import make_chip

    return make_chip(0)


@pytest.fixture(scope="module")
def victim(chip0):
    return pick_vulnerable_victim(chip0)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_plan()
    yield
    clear_plan()


def _controller(chip, defense):
    if defense == "PARA":
        return Para(probability=para_probability_for(14_000),
                    believed_mapping=chip.row_mapping())
    if defense == "BlockHammer":
        return BlockHammer(believed_mapping=chip.row_mapping())
    return None


def _attack_state(chip, victim, defense, attack, plan, batch, monkeypatch):
    monkeypatch.setenv("HBMSIM_BATCH", batch)
    install_plan(FaultPlan(**plan))
    controller = _controller(chip, defense)
    session = defended_session(chip, controller)
    device = session.device
    assert isinstance(device, FaultyStack)
    flips = ATTACKS[attack](session, victim)
    state = {"flips": flips, "counter": device._counter,
             "events": list(device.events),
             "digest": device.schedule_digest(), "now": device.now_ns,
             "stats": dataclasses.asdict(device.stats)}
    if controller is not None:
        state["controller"] = dataclasses.asdict(controller.stats)
        state["window"] = device.wrapped._window_start_ns
    return state


@pytest.mark.parametrize("plan", [CI_PLAN, HEAVY_PLAN],
                         ids=["ci-chaos", "heavy-drop-ghost"])
@pytest.mark.parametrize("defense", ["none", "PARA", "BlockHammer"])
@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_batched_catch_up_matches_scalar(chip0, victim, plan, defense,
                                         attack, monkeypatch):
    scalar = _attack_state(chip0, victim, defense, attack, plan, "0",
                           monkeypatch)
    batched = _attack_state(chip0, victim, defense, attack, plan, "1",
                            monkeypatch)
    assert batched == scalar
    if plan is HEAVY_PLAN:
        # The heavy plan must actually fault REFs, or the test would
        # not exercise the stepped path.
        assert {event.fault for event in scalar["events"]
                if event.command == "REF"} == {"drop", "ghost"}


def _owed_by_loop(now_ns, next_ref_ns, t_rfc, t_refi):
    """The per-REF loop's count and the deadlines it passes."""
    deadlines = [next_ref_ns]
    while now_ns >= next_ref_ns:
        now_ns += t_rfc
        next_ref_ns += t_refi
        deadlines.append(next_ref_ns)
    return len(deadlines) - 1, deadlines


def _tie(next_ref_ns, owed, t_rfc, t_refi):
    """A clock whose loop lands exactly on a deadline after ``owed``
    REFs (``clock == deadline`` still owes one more), or None."""
    deadline = next_ref_ns
    for __ in range(owed):
        deadline += t_refi
    guess = deadline - owed * t_rfc
    for __ in range(64):
        clock = guess
        for __ in range(owed):
            clock += t_rfc
        if clock == deadline:
            return guess
        guess = math.nextafter(guess, math.inf if clock < deadline
                               else -math.inf)
    return None


def test_owed_refs_matches_the_per_ref_loop():
    """The accumulated count is the loop's, deadline for deadline,
    including a clock exactly on a deadline (``>=`` owes that REF)."""
    from repro.defenses.base import _owed_refs

    rng = random.Random(11)
    cases = []
    for t_rfc, t_refi in ((350.0, 3900.0), (350.0, 3900.1),
                          (295.3, 1953.125)):
        for owed in (1, 2, 3, 4, 7, 144, 1000):
            for next_ref_ns in (t_refi, 1.0e6 + 0.1, 12345678.9):
                tie = _tie(next_ref_ns, owed, t_rfc, t_refi)
                if tie is not None:
                    cases.append((tie, next_ref_ns, t_rfc, t_refi))
        for __ in range(300):
            next_ref_ns = rng.uniform(0.0, 6.4e7)
            gap = rng.choice((rng.uniform(0.0, 3 * t_refi),
                              rng.uniform(0.0, 1.0e6),
                              rng.uniform(0.0, 6.4e7)))
            cases.append((next_ref_ns + gap, next_ref_ns, t_rfc, t_refi))
    ties = 0
    for now_ns, next_ref_ns, t_rfc, t_refi in cases:
        owed, deadlines = _owed_refs(now_ns, next_ref_ns, t_rfc, t_refi)
        expected, passed = _owed_by_loop(now_ns, next_ref_ns, t_rfc,
                                         t_refi)
        assert owed == expected
        assert deadlines[:owed + 1].tolist() == passed
        clock = now_ns
        for __ in range(owed - 1):
            clock += t_rfc
        ties += clock == passed[owed - 1]
    assert ties >= 40  # the exact-tie cases really hit a deadline
