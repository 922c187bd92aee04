"""Many-sided RowHammer: overflowing the TRR sampler without dummies.

TRRespass showed that in-DRAM trackers with a small capacity lose track
when *many* aggressor pairs hammer concurrently.  The mechanism uncovered
in Section 7 samples only the first 4 distinct rows activated after a
TRR-capable REF — exactly two double-sided pairs.  A third pair cycled at
the back of the round-robin escapes sampling every period: the front
pairs' aggressors *are* the dummy rows, no dedicated filler needed.  The
78-activation window budget then lets the escaping pair spend nearly
half the window on each aggressor — enough to cross HC_first within one
refresh window — while the sacrificial pairs idle at one activation
each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.bender.host import BenderSession
from repro.bender.program import TestProgram
from repro.chips.profiles import ChipProfile
from repro.core import metrics
from repro.core.patterns import CHECKERED0, DataPattern
from repro.dram.geometry import RowAddress


@dataclass
class ManySidedResult:
    """Per-victim bitflips of one many-sided campaign."""

    pair_count: int
    target_acts_per_aggressor: int
    windows: int
    #: victim physical row -> bitflips observed.
    flips: Dict[int, int] = field(default_factory=dict)


def run_many_sided(chip: ChipProfile,
                   victim_rows: Sequence[int],
                   sacrificial_acts: int = 1,
                   windows: int = 16410,
                   channel: int = 0, pseudo_channel: int = 0,
                   bank: int = 0,
                   pattern: DataPattern = CHECKERED0) -> ManySidedResult:
    """Run a many-sided campaign against several victims in one bank.

    The pairs at the front of the round-robin are *sacrificial*: they
    fill the TRR sampler with ``sacrificial_acts`` activations per
    aggressor per window, so the final pair can spend the remaining
    budget — ``(78 - (P-1) * 2 * sacrificial_acts) / 2`` activations per
    side per window — undetected.  Victims must be spaced at least 4
    rows apart so aggressor sets do not overlap.
    """
    if len(victim_rows) < 1:
        raise ValueError("need at least one victim")
    if sacrificial_acts < 1:
        raise ValueError("sacrificial_acts must be at least 1")
    spaced = sorted(victim_rows)
    if any(b - a < 4 for a, b in zip(spaced, spaced[1:])):
        raise ValueError("victims must be at least 4 rows apart")
    session = BenderSession(chip.make_device(),
                            mapping=chip.row_mapping())
    device = session.device
    budget = device.timings.activation_budget
    pair_count = len(victim_rows)
    front_budget = (pair_count - 1) * 2 * sacrificial_acts
    target_acts = (budget - front_budget) // 2
    # The count rule fires at half the window total; stay strictly below.
    total = front_budget + 2 * target_acts
    while target_acts > 0 and 2 * target_acts >= total:
        target_acts -= 1
        total = front_budget + 2 * target_acts
    if target_acts < 1:
        raise ValueError(
            f"{pair_count} pairs leave no budget for the target pair")
    victims = [RowAddress(channel, pseudo_channel, bank, row)
               for row in victim_rows]
    for victim in victims:
        session.write_physical_row(victim, pattern.victim_row())
    pair_aggressors: List[List[RowAddress]] = [
        session.aggressors_of(victim) for victim in victims]
    program = TestProgram(f"many_sided[{pair_count}p]")
    for __ in range(windows):
        for index, aggressors in enumerate(pair_aggressors):
            acts = (target_acts if index == pair_count - 1
                    else sacrificial_acts)
            for aggressor in aggressors:
                program.hammer(aggressor, acts)
        program.refresh(channel, pseudo_channel)
    session.run(program)
    result = ManySidedResult(
        pair_count=pair_count,
        target_acts_per_aggressor=target_acts,
        windows=windows,
    )
    expected = pattern.victim_row()
    for victim in victims:
        observed = session.read_physical_row(victim)
        result.flips[victim.row] = metrics.count_bitflips(expected,
                                                          observed)
    return result
