"""Defense evaluation harness: every attack vs every controller.

Metrics per (attack, defense) cell:

- **bitflips** in the victim after the attack (0 = protected),
- **refresh overhead**: preventive refreshes per observed activation,
- **throttle overhead**: attacker-visible delay imposed (BlockHammer).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.bender.host import BenderSession
from repro.bender.routines.rowinit import initialize_window
from repro.chips.profiles import ChipProfile
from repro.core import metrics
from repro.core.patterns import CHECKERED0, DataPattern
from repro.defenses.base import (DefendedDevice, MitigationController,
                                 replay_hammer_stream)
from repro.dram.geometry import RowAddress


@dataclass(frozen=True)
class DefenseReport:
    """Outcome of one attack against one defense."""

    attack: str
    defense: str
    bitflips: int
    observed_activations: int
    preventive_refreshes: int
    throttle_delay_ns: float

    @property
    def protected(self) -> bool:
        return self.bitflips == 0

    @property
    def refresh_overhead(self) -> float:
        if self.observed_activations == 0:
            return 0.0
        return self.preventive_refreshes / self.observed_activations

    @property
    def throttle_delay_ms(self) -> float:
        return self.throttle_delay_ns / 1.0e6


def defended_session(chip: ChipProfile,
                     controller: Optional[MitigationController],
                     with_trr: bool = False) -> BenderSession:
    """A session on a (possibly) defended device.

    The in-DRAM TRR is disabled by default so the memory-controller
    defense is evaluated on its own merits.
    """
    from repro.dram.trr import TrrConfig

    device = chip.make_device(trr_config=TrrConfig(enabled=with_trr))
    if controller is not None:
        device = DefendedDevice(device, controller)
    return BenderSession(device, mapping=chip.row_mapping())


# ----------------------------------------------------------------------
# Attack scenarios (each returns victim bitflips)
# ----------------------------------------------------------------------

def _paced_burst(session: BenderSession, victim: RowAddress,
                 hammer_count: int, t_on: Optional[float],
                 pattern: DataPattern, chunk: int) -> int:
    """Hammer both aggressors ``chunk`` times each per step, catching up
    the periodic REFs a real memory controller cannot skip after every
    step; return the victim's bitflips.

    Attacks on live systems race the refresh schedule; modelling it is
    what lets throttling defenses (BlockHammer) win — pacing an attack
    across windows is pointless when every window also restores the
    victim's charge.
    """
    initialize_window(session, victim, pattern)
    aggressors = session.aggressors_of(victim)
    full, tail = divmod(max(hammer_count, 0), chunk)
    step = tuple((aggressor, chunk, t_on) for aggressor in aggressors)
    last = tuple((aggressor, tail, t_on) for aggressor in aggressors)
    steps = itertools.chain(itertools.repeat(step, full),
                            [last] if tail else [])
    device = session.device
    t_refi = device.timings.t_refi
    replay_hammer_stream(device, steps, victim.channel,
                         victim.pseudo_channel, device.now_ns + t_refi,
                         t_refi)
    observed = session.read_physical_row(victim)
    return metrics.count_bitflips(pattern.victim_row(), observed)


def burst_double_sided(session: BenderSession, victim: RowAddress,
                       hammer_count: int = 450_000,
                       pattern: DataPattern = CHECKERED0,
                       chunk: int = 64) -> int:
    """Maximum-rate double-sided hammering under live refresh."""
    return _paced_burst(session, victim, hammer_count, None, pattern,
                        chunk)


def rowpress_burst(session: BenderSession, victim: RowAddress,
                   hammer_count: int = 4096, t_on: float = 35.1e3,
                   pattern: DataPattern = CHECKERED0,
                   chunk: int = 8) -> int:
    """RowPress attack: few activations, long on-time (Takeaway 7)."""
    return _paced_burst(session, victim, hammer_count, t_on, pattern,
                        chunk)


def pick_vulnerable_victim(chip: ChipProfile, channel: int = 0,
                           bank: int = 0, pseudo_channel: int = 0,
                           max_hc_first: float = 60_000.0,
                           search_rows: int = 2048) -> RowAddress:
    """The victim an attacker would pick: small HC_first.

    Under live refresh an aggressor accumulates at most one refresh
    window of disturbance (~355K baseline units, or ~455 activations at
    t_AggON = 35.1 us), so only sufficiently weak rows are attackable at
    all — exactly why the paper's templating step matters.
    """
    from repro.core import analytic

    rows = analytic.stratified_rows(chip.geometry.rows, search_rows)
    hc = analytic.wcdp_hc_first(chip, channel, pseudo_channel, bank,
                                rows)["Checkered0"]
    candidates = rows[hc <= max_hc_first]
    if candidates.size == 0:
        best = int(rows[int(hc.argmin())])
        return RowAddress(channel, pseudo_channel, bank, best)
    # Avoid bank edges so double-sided aggressors exist.
    inner = candidates[(candidates > 2) & (candidates
                                           < chip.geometry.rows - 2)]
    chosen = int(inner[0]) if inner.size else int(candidates[0])
    return RowAddress(channel, pseudo_channel, bank, chosen)


ATTACKS: Dict[str, Callable[[BenderSession, RowAddress], int]] = {
    "double_sided_burst": burst_double_sided,
    "rowpress_burst": rowpress_burst,
}


def evaluate(chip: ChipProfile,
             controller_factory: Callable[[], Optional[
                 MitigationController]],
             defense_name: str,
             victim: RowAddress,
             attacks: Optional[Dict[str, Callable]] = None
             ) -> Dict[str, DefenseReport]:
    """Run every attack against fresh instances of one defense."""
    if attacks is None:
        attacks = ATTACKS
    reports = {}
    for attack_name, attack in attacks.items():
        controller = controller_factory()
        session = defended_session(chip, controller)
        bitflips = attack(session, victim)
        stats = controller.stats if controller is not None else None
        reports[attack_name] = DefenseReport(
            attack=attack_name,
            defense=defense_name,
            bitflips=bitflips,
            observed_activations=(stats.observed_activations
                                  if stats else 0),
            preventive_refreshes=(stats.preventive_refreshes
                                  if stats else 0),
            throttle_delay_ns=(stats.throttle_delay_ns if stats else 0.0),
        )
    return reports
