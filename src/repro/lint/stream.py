"""Streaming per-command protocol checker (the UVM-checker idiom).

Hardware protocol checkers — e.g. the UVM timing checkers that ride
antmicro's LPDDR4 controller testbench — do not verify a whole trace
after the fact: they carry incremental per-bank state and flag each
command the moment it violates a rule.  :class:`TimingChecker` is that
component for SoftBender command streams.  It owns the complete rule
catalog (P001–P006, severities in :mod:`repro.lint.findings`) and the
per-bank/per-pseudo-channel state the rules need, and emits findings
command by command:

- :meth:`TimingChecker.check` steps one :class:`~repro.dram.commands.
  Command` and returns the findings *that command* produced,
- :meth:`TimingChecker.finish` closes the stream and emits the
  end-of-program rules (refresh-window coverage),
- :meth:`TimingChecker.sync_clock` lets an online driver pin the
  symbolic clock to a live device's clock, so fault-mutated streams
  (dropped commands, injected jitter) are checked against the time that
  actually elapsed rather than the time the static program declared.

Everything else in the lint layer is a *driver* over this core:

- the offline batch verifier (:func:`repro.lint.protocol.verify_program`)
  drives a checker through :class:`StreamingVerifier`, which adds the
  loop steady-state detection + arithmetic extrapolation so verifying a
  million-activation hammer program costs the same as verifying its
  body once — verdicts are identical to feeding the checker the fully
  flattened stream (property-tested),
- the interpreter's ``HBMSIM_LINT=online`` gate feeds the checker the
  commands it actually executes (:meth:`repro.bender.interpreter.
  Interpreter.run_checked`).

The rule semantics (and the byte-exact finding messages) are documented
in :mod:`repro.lint.protocol`; this module is the single implementation
both the batch and the online verdicts come from, which is what makes
them provably identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bender.program import Instruction, Loop
from repro.dram.commands import Command, CommandKind
from repro.dram.device import ROW_IO_NS
from repro.dram.timing import DEFAULT_TIMINGS, TimingParameters
from repro.lint.findings import Finding, Rule, RuleCatalog

#: Maximum loop iterations walked while hunting for a steady state.
MAX_STEADY_WALK = 4

#: Loops at most this long are fully walked when no steady state is
#: found; longer non-converging loops fall back to extrapolation from
#: the last observed iteration (a documented approximation).
FULL_WALK_LIMIT = 4096

PROTOCOL_RULES = RuleCatalog()
PROTOCOL_RULES.register(Rule(
    "P001", "act-open-bank", "error",
    "ACT/HAMMER to a bank with a row already open"))
PROTOCOL_RULES.register(Rule(
    "P002", "rw-conflict", "error",
    "RD/WR to a bank with a different row open"))
PROTOCOL_RULES.register(Rule(
    "P003", "t-aggon", "warning",
    "declared aggressor on-time below tRAS (min t_AggON)"))
PROTOCOL_RULES.register(Rule(
    "P004", "act-budget", "protocol",
    "per-tREFI activation budget exceeded for one bank"))
PROTOCOL_RULES.register(Rule(
    "P005", "ref-postpone", "protocol",
    "REF postponed beyond 9 x tREFI"))
PROTOCOL_RULES.register(Rule(
    "P006", "ref-window", "protocol",
    "too few REFs to cover the program's refresh windows"))

BankKey = Tuple[int, int, int]
PcKey = Tuple[int, int]

#: Snapshot shape used by the loop-extrapolation driver.
Snapshot = Tuple[float, int, Dict[BankKey, int], Dict[PcKey, int]]
Deltas = Tuple[float, int, Dict[BankKey, int], Dict[PcKey, int]]


@dataclass
class _BankState:
    open_row: Optional[int] = None
    open_since: float = 0.0
    #: Activations since the pseudo channel's last REF.
    acts_since_ref: int = 0
    #: Whether P004 already fired for the current REF segment.
    budget_reported: bool = False


@dataclass
class _PcState:
    last_ref_ns: Optional[float] = None
    refs: int = 0


class TimingChecker:
    """Streaming protocol checker over one command stream.

    ``refreshed_pcs`` names the pseudo channels whose refresh rules
    (P004/P005/P006) apply.  Offline drivers precompute it from the
    program (:func:`refreshed_pcs_of`) so verdicts match the batch
    verifier bit for bit; passing ``None`` selects *auto* mode, where a
    pseudo channel joins the refreshed set when its first REF arrives —
    the conservative choice for a stream whose future is unknown
    (activations before the first observed REF are then not charged
    against the P004 budget).
    """

    def __init__(self, name: str,
                 timings: TimingParameters = DEFAULT_TIMINGS,
                 refreshed_pcs: Optional[Set[PcKey]] = None) -> None:
        self.name = name
        self.timings = timings
        self._auto_refresh = refreshed_pcs is None
        self.refreshed_pcs: Set[PcKey] = set() \
            if refreshed_pcs is None else set(refreshed_pcs)
        self.clock = 0.0
        self.commands = 0
        self.banks: Dict[BankKey, _BankState] = {}
        self.pcs: Dict[PcKey, _PcState] = {}
        self.findings: List[Finding] = []
        self.finished = False
        self._seen: Set[Tuple[str, str]] = set()

    # -- streaming API ---------------------------------------------------

    def check(self, command: Command,
              path: Optional[str] = None) -> List[Finding]:
        """Step one command; return the findings it produced.

        ``path`` labels the finding location (defaults to the running
        command index).  Dedup is per ``(rule, path)`` — a loop-shaped
        path reports each rule once however many iterations trip it,
        while a flat stream (unique path per command) reports every
        offending command.
        """
        before = len(self.findings)
        self.step(command, str(self.commands) if path is None else path)
        return self.findings[before:]

    def finish(self) -> List[Finding]:
        """Close the stream: emit end-of-program findings (P006).

        Idempotent — the end-of-program rules fire at most once.
        Refresh-window coverage: a refresh-managed program must issue at
        least one REF per elapsed tREFI on each refreshed pseudo
        channel, less the nine postponements the standard allows.
        """
        before = len(self.findings)
        if not self.finished:
            self.finished = True
            if self.refreshed_pcs and self.clock > 0:
                required = int(self.clock // self.timings.t_refi) - 9
                for pc_key, pc in sorted(self.pcs.items()):
                    if pc.refs > 0 and pc.refs < required:
                        self.report(
                            "P006",
                            f"pseudo channel {pc_key} issued {pc.refs} "
                            f"REFs over {self.clock / 1.0e3:.2f} us; "
                            f"covering every refresh window needs >= "
                            f"{required}", "end")
        return self.findings[before:]

    def sync_clock(self, clock_ns: float) -> None:
        """Pin the symbolic clock to an externally observed clock.

        Online drivers call this after every executed command with the
        live device's elapsed time, so injected jitter, stretched
        on-times and dropped WAITs never let the checker's notion of
        time drift from the stream it is judging.  On a clean stream the
        symbolic accounting already matches the device and the sync is a
        no-op.
        """
        self.clock = clock_ns

    # -- bookkeeping ----------------------------------------------------

    def bank(self, key: BankKey) -> _BankState:
        return self.banks.setdefault(key, _BankState())

    def pc(self, key: PcKey) -> _PcState:
        return self.pcs.setdefault(key, _PcState())

    def report(self, rule_id: str, message: str, path: str) -> None:
        """Record a finding once per (rule, instruction path)."""
        if (rule_id, path) in self._seen:
            return
        self._seen.add((rule_id, path))
        self.findings.append(PROTOCOL_RULES.finding(
            rule_id, message, f"{self.name}@{path}",
            command_index=self.commands))

    def signature(self) -> Tuple[Tuple[BankKey, Optional[int]], ...]:
        """Discrete row-buffer state (steady-state detection)."""
        return tuple(sorted((key, state.open_row)
                            for key, state in self.banks.items()))

    # -- command semantics (mirrors HBM2Stack) --------------------------

    def _count_activation(self, key: BankKey, count: int,
                          path: str) -> None:
        bank = self.bank(key)
        bank.acts_since_ref += count
        self.check_budget(key, bank, path)

    def check_budget(self, key: BankKey, bank: _BankState,
                     path: str) -> None:
        if key[:2] not in self.refreshed_pcs or bank.budget_reported:
            return
        budget = self.timings.activation_budget
        if bank.acts_since_ref > budget:
            bank.budget_reported = True
            self.report(
                "P004",
                f"bank {key} receives {bank.acts_since_ref} activations "
                f"between REFs (budget {budget})", path)

    def _declared_t_on(self, command: Command, path: str) -> None:
        if command.t_on is not None and command.t_on < self.timings.t_ras:
            self.report(
                "P003",
                f"declared on-time {command.t_on:g} ns below tRAS "
                f"{self.timings.t_ras:g} ns; the platform stretches it",
                path)

    def step(self, command: Command, path: str) -> None:
        """Advance the incremental state over one command."""
        self.commands += 1
        kind = command.kind
        timings = self.timings
        if kind is CommandKind.NOP:
            return
        if kind is CommandKind.WAIT:
            self.clock += command.duration
            return
        key = (command.channel, command.pseudo_channel, command.bank)
        pc_key = (command.channel, command.pseudo_channel)
        if kind is CommandKind.ACT:
            self._declared_t_on(command, path)
            bank = self.bank(key)
            if bank.open_row is not None:
                self.report(
                    "P001",
                    f"ACT row {command.row} with row {bank.open_row} "
                    f"already open in bank {key}", path)
            bank.open_row = command.row
            bank.open_since = self.clock
            self._count_activation(key, 1, path)
            return
        if kind is CommandKind.PRE:
            bank = self.bank(key)
            if bank.open_row is None:
                return  # no-op PRE: legal, no time advance
            t_on = self.clock - bank.open_since
            if t_on < timings.t_ras:
                self.clock = bank.open_since + timings.t_ras
            bank.open_row = None
            self.clock += timings.t_rp
            return
        if kind in (CommandKind.RD, CommandKind.WR):
            bank = self.bank(key)
            if bank.open_row is not None and bank.open_row != command.row:
                self.report(
                    "P002",
                    f"{kind.value} row {command.row} with row "
                    f"{bank.open_row} open in bank {key}", path)
                self.clock += timings.t_rcd + ROW_IO_NS
                return
            opened_here = bank.open_row is None
            if opened_here:
                self._count_activation(key, 1, path)
            self.clock += timings.t_rcd + ROW_IO_NS
            if opened_here:
                # Implicit PRE; the open time (tRCD + row IO) exceeds
                # tRAS for every parameter set the paper uses.
                self.clock += timings.t_rp
            return
        if kind is CommandKind.HAMMER:
            if command.count == 0:
                return  # the device returns before any check
            self._declared_t_on(command, path)
            bank = self.bank(key)
            if bank.open_row is not None:
                self.report(
                    "P001",
                    f"HAMMER row {command.row} with row {bank.open_row} "
                    f"already open in bank {key}", path)
                bank.open_row = None  # the device would have raised
            t_on = timings.t_ras if command.t_on is None \
                else max(command.t_on, timings.t_ras)
            self._count_activation(key, command.count, path)
            self.clock += command.count * timings.act_to_act(t_on)
            return
        if kind is CommandKind.REF:
            if self._auto_refresh:
                self.refreshed_pcs.add(pc_key)
            pc = self.pc(pc_key)
            limit = timings.t_refi + timings.max_ref_postpone
            if pc.last_ref_ns is not None \
                    and self.clock - pc.last_ref_ns > limit:
                self.report(
                    "P005",
                    f"REF gap {(self.clock - pc.last_ref_ns) / 1.0e3:.2f}"
                    f" us exceeds tREFI + 9*tREFI = {limit / 1.0e3:.2f}"
                    f" us on pseudo channel {pc_key}", path)
            pc.last_ref_ns = self.clock
            pc.refs += 1
            self.clock += timings.t_rfc
            for key2, bank in self.banks.items():
                if key2[:2] == pc_key:
                    bank.acts_since_ref = 0
                    bank.budget_reported = False
            return
        raise ValueError(f"unhandled command kind {kind}")

    # -- deltas for loop extrapolation ----------------------------------

    def snapshot(self) -> Snapshot:
        return (self.clock, self.commands,
                {key: state.acts_since_ref
                 for key, state in self.banks.items()},
                {key: state.refs for key, state in self.pcs.items()})

    @staticmethod
    def deltas(before: Snapshot, after: Snapshot) -> Deltas:
        clock0, commands0, acts0, refs0 = before
        clock1, commands1, acts1, refs1 = after
        act_delta = {key: acts1[key] - acts0.get(key, 0)
                     for key in acts1}
        ref_delta = {key: refs1[key] - refs0.get(key, 0)
                     for key in refs1}
        return (clock1 - clock0, commands1 - commands0, act_delta,
                ref_delta)

    @staticmethod
    def deltas_equal(left: Optional[Deltas], right: Deltas) -> bool:
        """Delta equality, tolerant of float rounding in the clock."""
        if left is None:
            return False
        return (math.isclose(left[0], right[0],
                             rel_tol=1.0e-9, abs_tol=1.0e-6)
                and left[1:] == right[1:])


def refreshed_pcs_of(instructions: Sequence[Instruction]) -> Set[PcKey]:
    """Pseudo channels receiving at least one (reachable) REF."""
    pcs: Set[PcKey] = set()
    for instruction in instructions:
        if isinstance(instruction, Loop):
            if instruction.count > 0:
                pcs |= refreshed_pcs_of(instruction.body)
        elif instruction.kind is CommandKind.REF:
            pcs.add((instruction.channel, instruction.pseudo_channel))
    return pcs


def static_count(instructions: Sequence[Instruction]) -> int:
    """Commands after unrolling (identical to ``static_command_count``)."""
    total = 0
    for instruction in instructions:
        if isinstance(instruction, Loop):
            total += instruction.count * static_count(instruction.body)
        else:
            total += 1
    return total


class StreamingVerifier:
    """Loop-aware driver: feed instructions, get batch-verifier verdicts.

    Wraps a :class:`TimingChecker` and accepts whole *instructions* —
    raw commands or ``Loop`` nodes — one at a time.  Loop bodies are
    never unrolled beyond a few iterations: the driver detects the
    loop's steady state (constant per-iteration time/activation/refresh
    deltas and a stationary row-buffer signature) and extrapolates the
    remaining iterations arithmetically, counting commands identically
    to :meth:`~repro.bender.program.TestProgram.static_command_count`.

    Feeding a program instruction-by-instruction and then calling
    :meth:`finish` yields exactly the findings, command count and clock
    of :func:`repro.lint.protocol.verify_program` — the batch verifier
    *is* this driver run to completion (a hypothesis property holds the
    two bit-equal).  An incremental consumer can instead stop at the
    first blocking finding :meth:`feed` returns.
    """

    def __init__(self, name: str,
                 timings: TimingParameters = DEFAULT_TIMINGS,
                 refreshed_pcs: Optional[Set[PcKey]] = None) -> None:
        self.checker = TimingChecker(name, timings,
                                     refreshed_pcs=refreshed_pcs)
        self._fed = 0

    @property
    def findings(self) -> List[Finding]:
        """All findings emitted so far (cumulative)."""
        return self.checker.findings

    def feed(self, instruction: Instruction,
             path: Optional[str] = None) -> List[Finding]:
        """Consume one instruction; return the findings it produced."""
        before = len(self.checker.findings)
        label = str(self._fed) if path is None else path
        self._fed += 1
        if isinstance(instruction, Loop):
            self._feed_loop(instruction, label)
        else:
            self.checker.step(instruction, label)
        return self.checker.findings[before:]

    def finish(self) -> List[Finding]:
        """Close the stream (end-of-program rules); idempotent."""
        return self.checker.finish()

    # -- loop walking ----------------------------------------------------

    def _feed_body(self, instructions: Sequence[Instruction],
                   prefix: str) -> None:
        for index, instruction in enumerate(instructions):
            path = f"{prefix}{index}"
            if isinstance(instruction, Loop):
                self._feed_loop(instruction, path)
            else:
                self.checker.step(instruction, path)

    def _feed_loop(self, loop: Loop, path: str) -> None:
        checker = self.checker
        if loop.count == 0:
            return
        walked = 0
        previous_delta: Optional[Deltas] = None
        steady_delta: Optional[Deltas] = None
        while walked < min(loop.count, MAX_STEADY_WALK):
            sig_before = checker.signature()
            before = checker.snapshot()
            self._feed_body(loop.body, f"{path}.")
            walked += 1
            delta = TimingChecker.deltas(before, checker.snapshot())
            stationary = checker.signature() == sig_before
            if stationary and TimingChecker.deltas_equal(previous_delta,
                                                         delta):
                steady_delta = delta
                break
            previous_delta = delta
        remaining = loop.count - walked
        if remaining == 0:
            return
        if steady_delta is None and loop.count <= FULL_WALK_LIMIT:
            for __ in range(remaining):
                self._feed_body(loop.body, f"{path}.")
            return
        # Steady state (or a non-converging loop beyond the full-walk
        # limit): extrapolate the remaining iterations arithmetically.
        chosen = steady_delta if steady_delta is not None \
            else previous_delta
        assert chosen is not None  # walked >= 1, so a delta was recorded
        dt, __, act_delta, ref_delta = chosen
        checker.clock += remaining * dt
        checker.commands += remaining * static_count(loop.body)
        for key, per_iter in act_delta.items():
            if per_iter == 0:
                continue
            bank = checker.bank(key)
            bank.acts_since_ref += remaining * per_iter
            checker.check_budget(key, bank, path)
        for pc_key, per_ref in ref_delta.items():
            if per_ref == 0:
                continue
            pc = checker.pc(pc_key)
            pc.refs += remaining * per_ref
            if pc.last_ref_ns is not None:
                pc.last_ref_ns += remaining * dt
