"""Section 7: uncovering the undocumented in-DRAM TRR mechanism.

Implements the U-TRR methodology against the (black-box) device: use rows
with known retention times as a **side channel** to observe whether the
DRAM internally refreshed them.

One probe cycle around a suspected TRR event:

1. initialize the side-channel rows (the two neighbors of a chosen
   aggressor row) and wait half their retention time,
2. perform a crafted activation sequence (the hypothesis under test),
3. issue REF command(s),
4. wait the second half of the retention time and read the side-channel
   rows: retention bitflips appear *only if* the TRR mechanism did not
   refresh them (Section 7, Methodology).

The probes below rediscover, from behaviour alone, the paper's
Observations 24-27: the 17-REF TRR cadence, both-neighbor victim refresh,
first-activation sampling, and the half-of-total activation-count rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bender.host import BenderSession
from repro.bender.program import TestProgram
from repro.bender.routines.retention_profile import (RETENTION_STEP_NS,
                                                     profile_row_retention)
from repro.core import metrics
from repro.dram.geometry import RowAddress
from repro.errors import ProbeError

#: Side-channel rows must retain data for more than half their profiled
#: retention time (so a mid-point refresh hides the bitflips): profiled
#: times of at least three 64 ms steps guarantee it.
MIN_SIDE_CHANNEL_RETENTION_NS = 3 * RETENTION_STEP_NS


@dataclass(frozen=True)
class ProbeSite:
    """An aggressor row whose two neighbors form a usable side channel."""

    aggressor: RowAddress
    victims: Tuple[RowAddress, RowAddress]
    #: Shared profiled retention time of the two victims (ns).
    retention_ns: float


@dataclass
class TrrFindings:
    """What the probe uncovered about the proprietary TRR mechanism."""

    cadence: Optional[int] = None
    refreshes_both_neighbors: Optional[bool] = None
    first_activation_detected: Optional[bool] = None
    cam_escape_dummies: Optional[int] = None
    count_rule_at_half: Optional[bool] = None
    count_rule_below_half: Optional[bool] = None
    #: Host REF count modulo cadence at which capable REFs occur.
    phase: Optional[int] = None


class TrrProbe:
    """U-TRR-style prober for one bank of a (black-box) device."""

    def __init__(self, session: BenderSession, channel: int = 0,
                 pseudo_channel: int = 0, bank: int = 0) -> None:
        self.session = session
        self.channel = channel
        self.pseudo_channel = pseudo_channel
        self.bank = bank
        #: REF commands issued by this host since power-up (the host can
        #: always count its own commands; the DRAM internals stay hidden).
        self.refs_issued = 0

    # -- primitives -------------------------------------------------------

    def _fill(self) -> np.ndarray:
        geometry = self.session.device.geometry
        return np.full(geometry.row_bytes, 0xFF, dtype=np.uint8)

    def _addr(self, physical_row: int) -> RowAddress:
        return RowAddress(self.channel, self.pseudo_channel, self.bank,
                          physical_row)

    def issue_refs(self, count: int) -> None:
        """Issue ``count`` REF commands, tracking the host-side counter.

        Built as one REF loop so the compiled executor lowers it to a
        single epoch segment (the batched equivalent of the old
        ``refresh_burst`` shortcut) while still ticking the fault
        injector's command counter when a plan is active; the
        ``HBMSIM_BATCH=0`` escape hatch restores the scalar interpreter.
        """
        if count <= 0:
            return
        program = TestProgram("refs")
        with program.loop(count) as body:
            body.refresh(self.channel, self.pseudo_channel)
        self.session.run(program)
        self.refs_issued += count

    def _activate_once(self, physical_row: int, count: int = 1) -> None:
        logical = self.session.logical_of_physical(self._addr(physical_row))
        program = TestProgram(f"acts@{physical_row}")
        for __ in range(count):
            program.activate(logical)
            program.precharge(logical)
        self.session.run(program)

    # -- site discovery ----------------------------------------------------

    def find_probe_site(self, start_row: int = 3000,
                        max_candidates: int = 200) -> ProbeSite:
        """Find an aggressor whose neighbors share a long retention time.

        Mirrors the paper's first analysis step: profile rows at 64 ms
        granularity and pick ones with identical (and sufficiently long)
        retention times.
        """
        geometry = self.session.device.geometry
        for aggressor_row in range(start_row, start_row + max_candidates):
            if aggressor_row + 1 >= geometry.rows or aggressor_row < 1:
                continue
            victims = (aggressor_row - 1, aggressor_row + 1)
            profiles = [
                profile_row_retention(self.session, self._addr(row),
                                      max_steps=24)
                for row in victims]
            times = [p.retention_ns for p in profiles]
            if any(t is None for t in times):
                continue
            if times[0] != times[1]:
                continue
            if times[0] < MIN_SIDE_CHANNEL_RETENTION_NS:
                continue
            return ProbeSite(
                aggressor=self._addr(aggressor_row),
                victims=(self._addr(victims[0]), self._addr(victims[1])),
                retention_ns=float(times[0]),
            )
        raise ProbeError("no usable side-channel row pair found")

    # -- one probe cycle ----------------------------------------------------

    def cycle(self, site: ProbeSite,
              window_acts: Sequence[Tuple[int, int]],
              refs_before_acts: int = 0,
              refs_after_acts: int = 1) -> Tuple[bool, bool]:
        """One side-channel cycle; returns per-victim ``refreshed`` flags.

        ``window_acts`` lists ``(physical_row, activation_count)`` issued
        in first-activation order in the REF window immediately preceding
        the last REF.  ``refs_before_acts`` padding REFs run after the
        first half-wait (aligning the window inside the TRR period).
        """
        fill = self._fill()
        for victim in site.victims:
            self.session.write_physical_row(victim, fill)
        half = site.retention_ns / 2.0
        self.session.device.wait(half)
        if refs_before_acts:
            self.issue_refs(refs_before_acts)
        for row, count in window_acts:
            self._activate_once(row, count)
        if refs_after_acts:
            self.issue_refs(refs_after_acts)
        self.session.device.wait(half)
        refreshed = []
        for victim in site.victims:
            observed = self.session.read_physical_row(victim)
            flips = metrics.count_bitflips(fill, observed)
            refreshed.append(flips == 0)
        return refreshed[0], refreshed[1]

    # -- discovery procedures -----------------------------------------------

    def discover_cadence(self, site: ProbeSite,
                         max_period: int = 40) -> Tuple[int, int]:
        """Obsv. 24: find which REFs can perform a TRR victim refresh.

        Runs consecutive probe cycles, each hammering the aggressor just
        enough to satisfy the (as yet unknown) detector, and records after
        which host REF indices the victims came back refreshed.  The gap
        between positives is the TRR cadence.
        """
        positives: List[int] = []
        for __ in range(2 * max_period + 2):
            # Two aggressor ACTs out of four window activations (the two
            # victim writes count too) satisfy a half-of-total detector.
            refreshed = self.cycle(site, [(site.aggressor.row, 2)])
            if all(refreshed):
                positives.append(self.refs_issued)
            if len(positives) >= 2:
                break
        if len(positives) < 2:
            raise ProbeError(
                "no TRR victim refreshes observed; mechanism absent?")
        cadence = positives[1] - positives[0]
        phase = positives[0] % cadence
        return cadence, phase

    def align_to_capable_boundary(self, cadence: int, phase: int) -> None:
        """Pad REFs so the *next* REF block ends on a TRR-capable REF."""
        remainder = (self.refs_issued - phase) % cadence
        if remainder:
            self.issue_refs(cadence - remainder)

    def _span_cycle(self, site: ProbeSite, cadence: int, phase: int,
                    window_acts: Sequence[Tuple[int, int]]
                    ) -> Tuple[bool, bool]:
        """Probe one full TRR period with acts in its final REF window."""
        self.align_to_capable_boundary(cadence, phase)
        return self.cycle(site, window_acts,
                          refs_before_acts=cadence - 1, refs_after_acts=1)

    def verify_first_act_rule(self, site: ProbeSite, cadence: int,
                              phase: int,
                              dummy_base: Optional[int] = None
                              ) -> Tuple[bool, int]:
        """Obsv. 26 and the CAM capacity behind the >= 4 dummy requirement.

        Positive: the aggressor is activated *first* in the window (one
        activation, below any count threshold) followed by dummy noise —
        the victims must come back refreshed.  Then dummies are prepended
        one by one until the aggressor escapes the sampler; the escape
        count exposes the sampler capacity (4 in the tested chip, matching
        Fig. 14's >= 4 dummy-row requirement).
        """
        geometry = self.session.device.geometry
        if dummy_base is None:
            dummy_base = min(site.aggressor.row + 600,
                             geometry.rows - 40)
        first = self._span_cycle(
            site, cadence, phase,
            [(site.aggressor.row, 1)]
            + [(dummy_base + 8 * i, 9) for i in range(2)])
        first_detected = all(first)
        escape_dummies = 0
        # The two victim-row writes at cycle start already occupy sampler
        # slots; prepending dummies measures the *remaining* capacity.
        for dummies in range(1, 7):
            refreshed = self._span_cycle(
                site, cadence, phase,
                [(dummy_base + 8 * i, 2) for i in range(dummies)]
                + [(site.aggressor.row, 1)])
            if not any(refreshed):
                escape_dummies = dummies
                break
        return first_detected, escape_dummies

    def verify_count_rule(self, site: ProbeSite, cadence: int,
                          phase: int,
                          dummy_base: Optional[int] = None
                          ) -> Tuple[bool, bool]:
        """Obsv. 27: activation-count comparator at half the window total.

        Both probes hide the aggressor from the first-activation sampler
        behind four dummies; the first gives the aggressor exactly half of
        the window's activations (detected), the second slightly less
        (not detected).
        """
        geometry = self.session.device.geometry
        if dummy_base is None:
            dummy_base = min(site.aggressor.row + 600,
                             geometry.rows - 40)
        dummies = [(dummy_base + 8 * i, 1) for i in range(4)]
        # Final-window totals: 4 dummy ACTs + the aggressor's m ACTs.
        # m = 4 gives exactly half the total of 8 (the paper's 5-of-10
        # example shows exactly-half is detected); m = 3 of 7 is below.
        at_half = self._span_cycle(
            site, cadence, phase, dummies + [(site.aggressor.row, 4)])
        below_half = self._span_cycle(
            site, cadence, phase, dummies + [(site.aggressor.row, 3)])
        return all(at_half), any(below_half)

    def uncover(self) -> TrrFindings:
        """Run the full Section 7 analysis; returns every finding."""
        findings = TrrFindings()
        site = self.find_probe_site()
        cadence, phase = self.discover_cadence(site)
        findings.cadence = cadence
        findings.phase = phase
        refreshed = self._span_cycle(site, cadence, phase,
                                     [(site.aggressor.row, 8)])
        findings.refreshes_both_neighbors = all(refreshed)
        first_detected, escape = self.verify_first_act_rule(
            site, cadence, phase)
        findings.first_activation_detected = first_detected
        findings.cam_escape_dummies = escape
        at_half, below_half = self.verify_count_rule(site, cadence, phase)
        findings.count_rule_at_half = at_half
        findings.count_rule_below_half = below_half
        return findings
