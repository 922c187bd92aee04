"""Section 7: the specialized access pattern that bypasses the TRR defense.

The attack fully utilizes the activation budget between two REF commands,
``floor((tREFI - tRFC) / tRC) == 78``: it first activates ``d`` dummy rows
(to occupy the TRR sampler) and then performs a double-sided RowHammer
with ``a`` activations per aggressor, keeping ``2a`` at or below half the
budget so the activation-count comparator never fires.  The pattern
repeats ``8205 * 2`` times (two 32 ms refresh windows) with a REF issued
every tREFI, obeying all manufacturer timings (Fig. 14).

Key reproduced results: at least 4 dummy rows are needed; the number of
dummies beyond that barely matters; and the bit error rate grows steeply
with the aggressor activation count (2.79x / 6.72x / 10.28x going from 18
to 24 / 30 / 34 in the paper).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bender.host import BenderSession
from repro.bender.program import TestProgram
from repro.bender.routines.rowinit import PATTERN_RADIUS, initialize_window
from repro.chips.profiles import ChipProfile
from repro.core import analytic, metrics
from repro.core.patterns import CHECKERED0, DataPattern
from repro.dram.batch import EpochPlan
from repro.dram.device import (ROW_IO_NS, _RowState,
                               classify_victim_pattern)
from repro.dram.geometry import RowAddress
from repro.dram.timing import DEFAULT_TIMINGS, TimingParameters


@dataclass(frozen=True)
class AttackConfig:
    """One Fig. 14 attack configuration."""

    dummy_rows: int
    aggressor_acts: int
    timings: TimingParameters = DEFAULT_TIMINGS
    #: Number of tREFI windows the pattern repeats (2 * 8205 by default).
    windows: Optional[int] = None

    def __post_init__(self) -> None:
        if self.dummy_rows < 0:
            raise ValueError("dummy_rows must be non-negative")
        if self.aggressor_acts < 1:
            raise ValueError("aggressor_acts must be at least 1")
        budget = self.timings.activation_budget
        if 2 * self.aggressor_acts > budget:
            raise ValueError("aggressor activations exceed the budget")
        if self.dummy_rows and self.dummy_acts_each < 1:
            raise ValueError(
                "budget leaves no activations for the dummy rows")

    @property
    def budget(self) -> int:
        """Total ACT budget per tREFI window (78)."""
        return self.timings.activation_budget

    @property
    def dummy_acts_each(self) -> int:
        """Activations per dummy row: floor((78 - 2a) / d) (Section 7)."""
        if self.dummy_rows == 0:
            return 0
        return (self.budget - 2 * self.aggressor_acts) // self.dummy_rows

    @property
    def total_windows(self) -> int:
        """Windows executed: approximately two refresh windows."""
        if self.windows is not None:
            return self.windows
        return 2 * self.timings.refs_per_window

    @property
    def count_rule_safe(self) -> bool:
        """Whether the aggressors stay below the count comparator."""
        used = 2 * self.aggressor_acts \
            + self.dummy_rows * self.dummy_acts_each
        return 2 * self.aggressor_acts < used


def dummy_rows_for(victim_physical: RowAddress, config: AttackConfig,
                   total_rows: int, spacing: int = 16) -> List[int]:
    """Physical dummy rows: far from the victim, mutually non-adjacent."""
    base = victim_physical.row + 512
    rows = []
    for i in range(config.dummy_rows):
        row = (base + i * spacing) % total_rows
        if abs(row - victim_physical.row) <= 2:
            row = (row + 8) % total_rows
        rows.append(row)
    return rows


def run_attack_exact(session: BenderSession,
                     victim_physical: RowAddress,
                     config: AttackConfig,
                     pattern: DataPattern = CHECKERED0) -> int:
    """Execute the attack command-accurately against one victim row.

    Issues a REF every tREFI (obeying manufacturer timings) and returns
    the number of bitflips in the victim after ``config.total_windows``
    windows.  This is the ground-truth path: the TRR engine sees every
    activation in order.  The program is loop-structured — one tREFI
    window as the loop body — so the session's compiled executor lowers
    it to an epoch segment instead of dispatching ``total_windows *
    (d + 2 + 1)`` commands through Python (``HBMSIM_BATCH=0`` still
    unrolls it scalar, bit-identically).
    """
    device = session.device
    geometry = device.geometry
    timings = config.timings
    initialize_window(session, victim_physical, pattern)
    aggressors = session.aggressors_of(victim_physical)
    if len(aggressors) != 2:
        raise ValueError("victim must have two in-bank neighbors")
    dummies = [
        session.logical_of_physical(victim_physical.with_row(row))
        for row in dummy_rows_for(victim_physical, config, geometry.rows)]
    program = TestProgram(
        f"bypass[d={config.dummy_rows},a={config.aggressor_acts}]")
    window_time = (config.dummy_rows * config.dummy_acts_each
                   + 2 * config.aggressor_acts) * timings.t_rc \
        + timings.t_rfc
    pad = max(0.0, timings.t_refi - window_time)
    with program.loop(config.total_windows) as window:
        for dummy in dummies:
            window.hammer(dummy, config.dummy_acts_each)
        window.hammer(aggressors[0], config.aggressor_acts)
        window.hammer(aggressors[1], config.aggressor_acts)
        window.refresh(victim_physical.channel,
                       victim_physical.pseudo_channel)
        if pad:
            window.wait(pad)
    session.run(program)
    observed = session.read_physical_row(victim_physical)
    expected = pattern.victim_row(geometry.row_bytes)
    return metrics.count_bitflips(expected, observed)


def run_attack_epochs(session: BenderSession,
                      victim_physical: RowAddress,
                      config: AttackConfig,
                      pattern: DataPattern = CHECKERED0) -> int:
    """Epoch-level replay of :func:`run_attack_exact`.

    Lowers the per-window hammer schedule into one :class:`EpochPlan`,
    obtains the full victim-refresh schedule from the array-form TRR
    step (:meth:`~repro.dram.trr.TrrEngine.run_epochs` on a sampler
    clone), and replays only the events that touch the victim row:
    per-window aggressor disturbance, TRR victim refreshes within blast
    radius, rolling-refresh sweeps, and the final read's commit.  The
    victim is a detached row state restored by the device's own
    :meth:`~repro.dram.device.HBM2Stack._restore`, its disturbance
    comes from the device's ``_units_by_distance``, and the clock takes
    the command engine's float adds in order, so the returned bitflip
    count is bit-identical to the scalar path.

    This is a *measurement surface*: it reads the device's clock,
    rolling-refresh pointer and TRR sampler but mutates none of them.
    Use a fresh session per attack configuration (the experiments do) —
    back-to-back attacks on one session would see the scalar path's
    state evolution, which this replay does not apply.
    """
    device = session.device
    geometry = device.geometry
    timings = config.timings
    victim = victim_physical.validate(geometry)
    if len(session.aggressors_of(victim)) != 2:
        raise ValueError("victim must have two in-bank neighbors")
    dummies = dummy_rows_for(victim, config, geometry.rows)

    # Rows whose activation disturbs the victim -> distance (disturbance
    # reach is symmetric, so these are the victim's own neighbors).
    reach = dict(geometry.subarrays.neighbors(
        victim.row, device.disturbance.blast_radius))
    t_ras = timings.t_ras

    expected = np.asarray(pattern.victim_row(geometry.row_bytes),
                          dtype=np.uint8)
    state = _RowState(data=expected.copy(),
                      pattern=classify_victim_pattern(expected))

    # -- window init: replay the command clock and the victim's state --
    now = device.now_ns
    ref_time = device.last_rolling_refresh_ns(victim)
    t_rcd_io = timings.t_rcd + ROW_IO_NS
    low_row = max(0, victim.row - PATTERN_RADIUS)
    high_row = min(geometry.rows - 1, victim.row + PATTERN_RADIUS)
    init_rows = list(range(low_row, high_row + 1))
    past_victim = False
    for row in init_rows:
        open_since = now
        if row == victim.row:
            # The victim's own write replaces its state mid-window.
            state.restored_at = now
            past_victim = True
        now += t_rcd_io
        t_on = now - open_since
        if t_on < t_ras:
            now = open_since + t_ras
            t_on = t_ras
        distance = reach.get(row)
        if past_victim and distance is not None:
            units = device._units_by_distance(1, t_on)[distance]
            if units > 0:
                state.acc_units += units
        now += timings.t_rp

    # -- TRR victim-refresh schedule from the array-form sampler step --
    engine = copy.deepcopy(
        device.trr_engine(victim.channel, victim.pseudo_channel))
    engine.note_window(victim.bank, [(row, 1) for row in init_rows])
    plan = EpochPlan.single_bank(
        victim.bank,
        [(dummy, config.dummy_acts_each) for dummy in dummies]
        + [(victim.row - 1, config.aggressor_acts),
           (victim.row + 1, config.aggressor_acts)])
    total_windows = config.total_windows
    schedule = dict(engine.run_epochs(plan.as_trr_epoch(), total_windows))

    # -- per-window increments (the device's own unit formulas) --
    entry_durations = plan.entry_durations(timings)
    entry_units = []
    for row, count in zip(plan.rows.tolist(), plan.counts.tolist()):
        distance = reach.get(row)
        units = 0.0
        if distance is not None:
            units = device._units_by_distance(count, t_ras)[distance]
        entry_units.append(units if units > 0 else 0.0)
    trr_disturb = device._units_by_distance(1, t_ras)
    window_time = (config.dummy_rows * config.dummy_acts_each
                   + 2 * config.aggressor_acts) * timings.t_rc \
        + timings.t_rfc
    pad = max(0.0, timings.t_refi - window_time)

    # -- rolling-refresh sweeps of the victim within the run --
    pointer = device.rolling_refresh_pointer(victim.channel,
                                             victim.pseudo_channel)
    per_ref = device.rows_refreshed_per_ref
    sweeps = set()
    slot = (victim.row - pointer) % geometry.rows
    while slot < total_windows * per_ref:
        sweeps.add(slot // per_ref + 1)
        slot += geometry.rows

    for window in range(1, total_windows + 1):
        for units, duration in zip(entry_units, entry_durations):
            if units > 0:
                state.acc_units += units
            now += duration
        victims = schedule.get(window)
        if victims:
            for bank, row in victims:
                if bank != victim.bank:
                    continue
                if row == victim.row:
                    device._restore(victim, state, now, ref_time)
                    continue
                distance = reach.get(row)
                if distance is not None:
                    units = trr_disturb[distance]
                    if units > 0:
                        state.acc_units += units
        if window in sweeps:
            ref_time = now
            device._restore(victim, state, now, ref_time)
        now += timings.t_rfc
        if pad:
            now += pad

    device._restore(victim, state, now, ref_time)  # the final read's ACT
    flipped = np.unpackbits(state.data ^ expected)
    flips = int(flipped.sum())
    if device.mode_registers.ecc_enabled and flips:
        per_word = flipped.reshape(-1, 64).sum(axis=1)
        flips -= int(np.count_nonzero(per_word == 1))
    return flips


def run_attack(session: BenderSession,
               victim_physical: RowAddress,
               config: AttackConfig,
               pattern: DataPattern = CHECKERED0) -> int:
    """Execute the bypass attack on the fastest bit-identical path.

    Uses the victim-only epoch-level replay when the session may batch
    (:meth:`~repro.bender.host.BenderSession.batching_active`: a plain
    stack, with or without TRR).  Under a fault plan, on a device
    subclass or with ``HBMSIM_BATCH=0`` it runs the command-accurate
    :func:`run_attack_exact`; its loop-structured program compiles to
    epoch segments on the batched executor, so even chaos-mode runs skip
    per-command dispatch on fault-free windows.  All paths return the
    same bitflip count; only the exact path mutates the device, so
    callers comparing engines must use fresh sessions.
    """
    if session.batching_active():
        return run_attack_epochs(session, victim_physical, config, pattern)
    return run_attack_exact(session, victim_physical, config, pattern)


def attack_effective_hammers(chip: ChipProfile, config: AttackConfig,
                             bypassed: bool) -> float:
    """Effective hammer units a victim accumulates between refreshes.

    When the attack bypasses TRR, the victim is refreshed only by the
    rolling periodic refresh (once per tREFW), accumulating
    ``aggressor_acts`` units per window for a full window's worth of
    tREFI periods.  When TRR detects the aggressors, the victims are
    preventively refreshed every ``cadence`` REFs instead.
    """
    refs_per_window = config.timings.refs_per_window
    if bypassed:
        return float(config.aggressor_acts * refs_per_window)
    cadence = 17
    return float(config.aggressor_acts * cadence)


@dataclass
class BypassStudy:
    """Fig. 14: BER distributions per (dummy count, aggressor acts)."""

    chip_label: str
    pattern: str
    #: (dummies, acts) -> per-row BER array across the tested bank rows.
    distributions: Dict[Tuple[int, int], np.ndarray] = field(
        default_factory=dict)

    def mean_ber(self, dummies: int, acts: int) -> float:
        """Mean BER of one configuration."""
        return float(self.distributions[(dummies, acts)].mean())

    def acts_scaling(self, dummies: int,
                     base_acts: int = 18) -> Dict[int, float]:
        """Mean-BER ratio vs the base aggressor count (2.79x/6.72x/10.28x
        in the paper for 24/30/34 with 8 dummies)."""
        base = self.mean_ber(dummies, base_acts)
        return {
            acts: (self.mean_ber(dummies, acts) / base if base > 0
                   else float("inf"))
            for d, acts in self.distributions if d == dummies}

    def dummy_sensitivity(self, acts: int, min_dummies: int = 4) -> float:
        """Max - min mean BER across *bypassing* dummy counts at fixed
        acts (0.003 between 4 and 7 dummies at 34 acts in the paper)."""
        means = [self.mean_ber(d, a)
                 for (d, a) in self.distributions
                 if a == acts and d >= min_dummies]
        if not means:
            raise ValueError("no configurations match the filter")
        return max(means) - min(means)


def bypass_study(chip: ChipProfile,
                 dummy_counts: Sequence[int] = (4, 5, 6, 7, 8),
                 aggressor_acts: Sequence[int] = (18, 24, 30, 34),
                 rows: Optional[np.ndarray] = None,
                 channel: int = 0, pseudo_channel: int = 0, bank: int = 0,
                 pattern: DataPattern = CHECKERED0,
                 trr_escape_dummies: int = 4,
                 seed: int = 31) -> BypassStudy:
    """Analytic Fig. 14 study over a bank's victim rows.

    Configurations with fewer than ``trr_escape_dummies`` dummy rows fail
    to bypass the sampler (the aggressors are detected and their victims
    preventively refreshed); at or above it, the attack succeeds.  The
    per-victim BER follows from the effective hammers accumulated between
    refreshes of that victim.
    """
    rng = np.random.default_rng(seed + chip.spec.index)
    if rows is None:
        rows = analytic.stratified_rows(chip.geometry.rows, 2048)
    study = BypassStudy(chip.label, pattern.name)
    grid = analytic.combo_population(
        chip, [(channel, pseudo_channel, bank)], rows, pattern.name)
    for dummies in dummy_counts:
        for acts in aggressor_acts:
            config = AttackConfig(dummy_rows=dummies, aggressor_acts=acts)
            bypassed = (dummies >= trr_escape_dummies
                        and config.count_rule_safe)
            eff = attack_effective_hammers(chip, config, bypassed)
            study.distributions[(dummies, acts)] = grid.sampled_ber(
                eff, rng)
    return study
