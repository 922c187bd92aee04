"""HBM2 stack command-execution engine with fault physics.

:class:`HBM2Stack` executes the command vocabulary of
:mod:`repro.dram.commands` against simulated banks, maintaining:

- row-buffer state machines and command timing accounting,
- per-victim-row accumulated disturbance (in baseline hammer units; see
  :mod:`repro.dram.disturbance`), materializing per-cell thresholds lazily
  from the chip's statistical profile,
- data retention clocks (a row's charge is restored by its own activation,
  by rolling REF refresh, or by a TRR victim refresh),
- the undocumented TRR engine of :mod:`repro.dram.trr`,
- logical-to-physical row mapping (commands use logical addresses; physics
  and TRR operate on physical rows).

Bitflips are *committed* whenever a row's charge is restored: cells whose
threshold lies below the accumulated disturbance (or whose retention time
elapsed) latch their inverted value and — being discharged — cannot flip
again until rewritten.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import (Deque, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.dram.cell_model import CellPopulation, RowDisturbanceProfile
from repro.dram.commands import Command, CommandKind
from repro.dram.disturbance import DEFAULT_DISTURBANCE, DisturbanceModel
from repro.dram.geometry import DEFAULT_GEOMETRY, HBM2Geometry, RowAddress
from repro.dram.mode_registers import ModeRegisters
from repro.dram.retention import (DEFAULT_RETENTION, RETENTION_FLOOR_NS,
                                  RetentionModel)
from repro.dram.row_mapping import IdentityMapping, RowMapping
from repro.dram.seeding import derive_seed, hash_pattern
from repro.dram.timing import DEFAULT_TIMINGS, TimingParameters
from repro.errors import TimingError
from repro.dram.trr import TrrConfig, TrrEngine

#: Victim-byte -> canonical data pattern name (Table 1 of the paper).
_PATTERN_BY_VICTIM_BYTE = {
    0x00: "Rowstripe0",
    0xFF: "Rowstripe1",
    0x55: "Checkered0",
    0xAA: "Checkered1",
}

#: Flat per-row readback/write IO time (ns): 1 KiB over a pseudo channel.
ROW_IO_NS = 107.0

#: Fractional change in effective disturbance per degree C above the
#: calibration temperature.  The paper pins Chip 0 at 82 C and reports
#: all statistics at the chips' operating points; the temperature
#: *sensitivity* follows the DDR4 literature it cites (RowHammer
#: vulnerability grows mildly with temperature; SpyHammer exploits it).
TEMPERATURE_HC_SENSITIVITY = 0.0025

#: Retention time halves roughly every 10 C (standard DRAM behaviour).
RETENTION_DOUBLING_C = 10.0

#: Entries :meth:`HBM2Stack._reach` keeps before it starts over: a PRE's
#: on-time is any float, so the memo must not grow with the stream.
_REACH_MEMO_SIZE = 256


def classify_victim_pattern(data: np.ndarray) -> str:
    """Classify a row image into a canonical pattern name or ``custom``."""
    data = np.asarray(data, dtype=np.uint8)
    if data.size == 0:
        return "custom"
    first = int(data[0])
    if not np.all(data == first):
        return "custom"
    return _PATTERN_BY_VICTIM_BYTE.get(first, "custom")


class UniformProfileProvider:
    """Default cell-profile provider: one population for every row.

    Unit tests and examples that do not need the calibrated chip population
    use this; :class:`repro.chips.profiles.ChipProfile` supplies the real,
    spatially modulated provider.
    """

    def __init__(self, population: Optional[CellPopulation] = None,
                 seed: int = 1, row_bits: int = 8192) -> None:
        if population is None:
            population = CellPopulation(f_weak=0.014, mu_weak=5.45)
        self.population = population
        self.seed = seed
        self.row_bits = row_bits

    def profile(self, address: RowAddress,
                pattern: str) -> RowDisturbanceProfile:
        """Profile for a (row, pattern) pair; uniform across the stack."""
        seed = derive_seed(self.seed, address.channel,
                           address.pseudo_channel, address.bank,
                           address.row, hash_pattern(pattern))
        return RowDisturbanceProfile(self.population, seed, self.row_bits)

    def disturbance_floor(self, address: RowAddress, pattern: str) -> float:
        """The (row, pattern) pair's weakest cell threshold (see
        :meth:`RowDisturbanceProfile.disturbance_floor`)."""
        return self.profile(address, pattern).disturbance_floor()


@dataclass
class BankState:
    """Row-buffer state of one bank."""

    open_row: Optional[int] = None
    open_since: float = 0.0


@dataclass
class _RowState:
    """Lazy fault-physics state of one touched physical row."""

    data: np.ndarray
    acc_units: float = 0.0
    restored_at: float = 0.0
    already_flipped: Optional[np.ndarray] = None
    pattern: str = "custom"
    thresholds: Optional[np.ndarray] = None
    #: Cheap lower bounds: the row's weakest cell threshold and weakest
    #: retention time.  Commits below both skip cell materialization —
    #: the fast path that keeps benign (non-hammering) traffic cheap.
    min_threshold: Optional[float] = None
    retention_floor_ns: Optional[float] = None


@dataclass(frozen=True)
class TraceEntry:
    """One recorded command (DRAM-Bender-style debug trace)."""

    time_ns: float
    kind: str
    channel: int = -1
    pseudo_channel: int = -1
    bank: int = -1
    row: int = -1
    count: int = 0

    def __str__(self) -> str:
        location = ""
        if self.channel >= 0:
            location = f" ch{self.channel} pc{self.pseudo_channel}"
            if self.bank >= 0:
                location += f" ba{self.bank}"
            if self.row >= 0:
                location += f" row {self.row}"
        suffix = f" x{self.count}" if self.count > 1 else ""
        return f"[{self.time_ns / 1.0e3:12.3f} us] {self.kind}" \
               f"{location}{suffix}"


class HammerPlan(NamedTuple):
    """One HAMMER resolved against a device (:meth:`HBM2Stack.hammer_plans`).

    Everything :meth:`HBM2Stack.apply_hammer` needs that does not depend
    on device state, so a stream issuing the same hammer many times
    resolves it once.
    """

    #: The logical address, count and on-time as issued (controllers
    #: observe these).
    address: RowAddress
    count: int
    t_on: Optional[float]
    physical: RowAddress
    #: The disturbed neighbors, as offsets from the physical row
    #: (ascending), and the units each receives (zeros omitted).  Plans
    #: of one count resolved in one call whose row the blast radius
    #: reaches in full share both tuples.
    offsets: Tuple[int, ...]
    units: Tuple[float, ...]
    #: Device time the ``count`` ACT/PRE cycles take.
    duration: float


@dataclass
class DeviceStats:
    """Command counters for tests and reporting."""

    acts: int = 0
    pres: int = 0
    reads: int = 0
    writes: int = 0
    refs: int = 0
    trr_victim_refreshes: int = 0
    committed_bitflips: int = 0
    ecc_corrections: int = 0


class HBM2Stack:
    """One simulated HBM2 stack (Section 3's device under test)."""

    def __init__(self,
                 geometry: HBM2Geometry = DEFAULT_GEOMETRY,
                 timings: TimingParameters = DEFAULT_TIMINGS,
                 disturbance: DisturbanceModel = DEFAULT_DISTURBANCE,
                 retention: Optional[RetentionModel] = DEFAULT_RETENTION,
                 trr_config: Optional[TrrConfig] = None,
                 profile_provider=None,
                 row_mapping: Optional[RowMapping] = None,
                 disable_ecc: bool = True,
                 calibration_temperature_c: Optional[float] = None) -> None:
        self.geometry = geometry
        self.timings = timings
        self.disturbance = disturbance
        self.retention = retention
        #: Temperature the cell model was calibrated at (the chip's
        #: operating point during characterization); ``None`` disables
        #: temperature effects.
        self.calibration_temperature_c = calibration_temperature_c
        #: Current chip temperature (drive it from the thermal rig via
        #: :meth:`set_temperature`, which keeps the derived
        #: retention acceleration in step).
        self.temperature_c = calibration_temperature_c
        self._retention_acceleration = self._acceleration_now()
        self.mode_registers = ModeRegisters()
        if disable_ecc:
            # The paper's methodology (Section 3.1): clear the MR bit so
            # raw bitflips are observable.  Pass ``disable_ecc=False`` to
            # study the chip as it powers up (on-die SECDED active).
            self.mode_registers.set_field(4, "ecc_enable", False)
        if trr_config is None:
            trr_config = TrrConfig(enabled=False)
        self.trr_config = trr_config
        if profile_provider is None:
            profile_provider = UniformProfileProvider(row_bits=geometry.row_bits)
        self.profile_provider = profile_provider
        if row_mapping is None:
            row_mapping = IdentityMapping(geometry.rows)
        self.row_mapping = row_mapping
        #: Rows one REF sweeps per bank: the fewest with which one
        #: tREFW's REFs reach every row of the bank.
        self.rows_refreshed_per_ref = math.ceil(
            geometry.rows / timings.refs_per_window)
        self.now_ns = 0.0
        self.stats = DeviceStats()
        self._trace: Optional[Deque[TraceEntry]] = None
        self._zero_row = np.zeros(geometry.row_bytes, dtype=np.uint8)
        self._zero_row.flags.writeable = False
        self._reach_memo: Dict[Tuple[int, float, float], Tuple[
            Tuple[float, ...], Tuple[int, ...], Tuple[float, ...],
            float]] = {}
        self._banks: Dict[Tuple[int, int, int], BankState] = {}
        self._rows: Dict[Tuple[int, int, int], Dict[int, _RowState]] = {}
        self._trr: Dict[Tuple[int, int], TrrEngine] = {}
        self._ref_pointer: Dict[Tuple[int, int], int] = {}
        #: Per pseudo channel, each row's last rolling-refresh time (0.0
        #: until swept); read it through :meth:`last_rolling_refresh_ns`.
        self._pc_ref_time: Dict[Tuple[int, int], np.ndarray] = {}
        for channel in range(geometry.channels):
            for pc in range(geometry.pseudo_channels):
                self._trr[(channel, pc)] = TrrEngine(
                    trr_config, geometry.banks, geometry.rows)
                self._ref_pointer[(channel, pc)] = 0
                self._pc_ref_time[(channel, pc)] = np.zeros(geometry.rows)

    # ------------------------------------------------------------------
    # Command interface
    # ------------------------------------------------------------------

    def execute(self, command: Command) -> Optional[np.ndarray]:
        """Execute one command; RD returns the row image."""
        kind = command.kind
        if kind is CommandKind.WAIT:
            return self.wait(command.duration)
        if kind is CommandKind.NOP:
            return None
        address = RowAddress(command.channel, command.pseudo_channel,
                             command.bank, command.row)
        if kind is CommandKind.REF:
            return self.refresh(command.channel, command.pseudo_channel)
        if kind is CommandKind.ACT:
            return self.activate(address)
        if kind is CommandKind.PRE:
            return self.precharge(command.channel, command.pseudo_channel,
                                  command.bank)
        if kind is CommandKind.RD:
            return self.read_row(address)
        if kind is CommandKind.WR:
            if command.data is None:
                raise ValueError("WR command requires a row image")
            return self.write_row(address, command.data)
        if kind is CommandKind.HAMMER:
            return self.hammer(address, command.count, command.t_on)
        raise ValueError(f"unhandled command kind {kind}")

    def run(self, commands: Iterable[Command]) -> List[Optional[np.ndarray]]:
        """Execute a command sequence, collecting per-command results."""
        return [self.execute(command) for command in commands]

    # ------------------------------------------------------------------
    # Row-level operations
    # ------------------------------------------------------------------

    def wait(self, duration_ns: float) -> None:
        """Advance device time without issuing commands."""
        if duration_ns < 0:
            raise ValueError("duration must be non-negative")
        self.now_ns += duration_ns

    def activate(self, address: RowAddress) -> None:
        """Open a row (logical address).  Restores the row's own charge."""
        address.validate(self.geometry)
        physical = self._to_physical(address)
        bank = self._bank(physical)
        if bank.open_row is not None:
            raise TimingError(
                f"ACT to bank {physical.bank_key} with row "
                f"{bank.open_row} already open")
        self._commit(physical)
        self._trr[(physical.channel, physical.pseudo_channel)].on_activate(
            physical.bank, physical.row)
        bank.open_row = physical.row
        bank.open_since = self.now_ns
        self.stats.acts += 1
        self._record("ACT", physical.channel, physical.pseudo_channel,
                     physical.bank, physical.row)

    def precharge(self, channel: int, pseudo_channel: int,
                  bank_index: int) -> None:
        """Close a bank, applying disturbance to the open row's neighbors."""
        key = (channel, pseudo_channel, bank_index)
        bank = self._banks.get(key)
        if bank is None or bank.open_row is None:
            # No open row: still a PRE on the bus, so the trace must
            # agree with stats.pres (DRAM-Bender traces count both).
            self.stats.pres += 1
            self._record("PRE", channel, pseudo_channel, bank_index)
            return
        t_on = self.now_ns - bank.open_since
        if t_on < self.timings.t_ras:
            # The test platform honors tRAS: stretch the open time.
            self.now_ns = bank.open_since + self.timings.t_ras
            t_on = self.timings.t_ras
        physical = RowAddress(channel, pseudo_channel, bank_index,
                              bank.open_row)
        self._disturb_neighbors(physical, count=1, t_on=t_on)
        bank.open_row = None
        self.now_ns += self.timings.t_rp
        self.stats.pres += 1
        self._record("PRE", channel, pseudo_channel, bank_index)

    def read_row(self, address: RowAddress) -> np.ndarray:
        """Activate-read-precharge cycle returning the full row image.

        Committing happens at activation: disturbance and retention flips
        latch into the stored data before it is driven out.
        """
        address.validate(self.geometry)
        physical = self._to_physical(address)
        bank = self._bank(physical)
        if bank.open_row is not None and bank.open_row != physical.row:
            raise TimingError("RD to a bank with a different row open")
        opened_here = bank.open_row is None
        if opened_here:
            self.activate(address)
        state = self._row_state(physical)
        data = state.data.copy()
        if self.mode_registers.ecc_enabled:
            data = self._apply_on_die_ecc(state, data)
        self.now_ns += self.timings.t_rcd + ROW_IO_NS
        if opened_here:
            self.precharge(physical.channel, physical.pseudo_channel,
                           physical.bank)
        self.stats.reads += 1
        self._record("RD", physical.channel, physical.pseudo_channel,
                     physical.bank, physical.row)
        return data

    def write_row(self, address: RowAddress, data: np.ndarray) -> None:
        """Activate-write-precharge cycle storing a full row image.

        Writing re-arms every cell: accumulated disturbance and the
        flipped-cell record are cleared.
        """
        address.validate(self.geometry)
        data = np.asarray(data, dtype=np.uint8)
        if data.size != self.geometry.row_bytes:
            raise ValueError(
                f"row image must be {self.geometry.row_bytes} bytes")
        physical = self._to_physical(address)
        bank = self._bank(physical)
        if bank.open_row is not None and bank.open_row != physical.row:
            raise TimingError("WR to a bank with a different row open")
        opened_here = bank.open_row is None
        if opened_here:
            # Write replaces content; skip the commit an ACT would do.
            self._trr[(physical.channel,
                       physical.pseudo_channel)].on_activate(
                physical.bank, physical.row)
            bank.open_row = physical.row
            bank.open_since = self.now_ns
            self.stats.acts += 1
        rows = self._rows.setdefault(physical.bank_key, {})
        rows[physical.row] = _RowState(
            data=data.copy(), restored_at=self.now_ns,
            pattern=classify_victim_pattern(data))
        self.now_ns += self.timings.t_rcd + ROW_IO_NS
        if opened_here:
            self.precharge(physical.channel, physical.pseudo_channel,
                           physical.bank)
        self.stats.writes += 1
        self._record("WR", physical.channel, physical.pseudo_channel,
                     physical.bank, physical.row)

    def hammer(self, address: RowAddress, count: int,
               t_on: Optional[float] = None) -> None:
        """Fused ACT/PRE cycles: ``count`` activations with on-time ``t_on``.

        Semantically equivalent to the unrolled loop as long as no REF
        interleaves; programs that interleave REFs issue shorter hammers.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return
        self.apply_hammer(self.hammer_plan(address, count, t_on))

    def hammer_plan(self, address: RowAddress, count: int,
                    t_on: Optional[float] = None) -> HammerPlan:
        """Resolve a HAMMER of ``count >= 1`` without executing it.

        Validates and maps the address and computes what every execution
        of the hammer applies: its neighbors' disturbance units and its
        duration, with the helpers :meth:`hammer_plans` uses.  The plan
        stays valid until the device's temperature changes.
        """
        if count < 1:
            raise ValueError("count must be positive")
        address.validate(self.geometry)
        physical = self._to_physical(address)
        by_distance, offsets, units, duration = self._reach(
            count, self._effective_t_on(t_on))
        if physical.row in self.geometry.subarrays.clipped_rows(
                self.disturbance.blast_radius):
            offsets, units = self._subarray_reach(physical.row, by_distance)
        return HammerPlan(address, count, t_on, physical, offsets, units,
                          duration)

    def hammer_plans(self, addresses: Sequence[RowAddress],
                     counts: Sequence[int],
                     t_on: Optional[float] = None
                     ) -> List[Optional[HammerPlan]]:
        """:meth:`hammer_plan` of many HAMMERs with one on-time, in one
        pass.

        Element ``i`` is the plan of ``counts[i]`` activations of
        ``addresses[i]``, or ``None`` where :meth:`hammer_plan` would
        raise (a count below 1 or an address outside the geometry), so a
        caller can leave that entry to the scalar path and its error.

        - The logical-to-physical mapping is one array operation.
        - :meth:`_reach` runs once per distinct count.
        - A row the blast radius reaches in full takes its count's
          shared offsets and units; only rows a subarray boundary clips
          ask :meth:`_subarray_reach`.

        Every float is the expression the scalar ACT path evaluates, so
        a plan is exact.
        """
        geometry = self.geometry
        rows = [address.row for address in addresses]
        if not rows:
            return []
        invalid: List[int] = []
        # Every coordinate's range is an interval, so checking each bank
        # at the lowest and the highest row checks every entry.
        low, high = min(rows), max(rows)
        if min(counts) < 1 or not all(
                geometry.contains(*key, row)
                for key in {address.bank_key for address in addresses}
                for row in (low, high)):
            invalid = [
                index for index, (address, count) in enumerate(zip(
                    addresses, counts))
                if count < 1 or not geometry.contains(*address.bank_key,
                                                      address.row)]
            # Their plans are dropped; map an in-range row instead.
            for index in invalid:
                rows[index] = 0
        physical_rows = self.row_mapping.to_physical_array(rows).tolist()
        effective_t_on = self._effective_t_on(t_on)
        reach = {count: self._reach(count, effective_t_on)
                 for count in set(counts)}
        offsets = [reach[count][1] for count in counts]
        units = [reach[count][2] for count in counts]
        clipped = geometry.subarrays.clipped_rows(
            self.disturbance.blast_radius).intersection(physical_rows)
        for index, row in enumerate(physical_rows if clipped else ()):
            if row in clipped and index not in invalid:
                offsets[index], units[index] = self._subarray_reach(
                    row, reach[counts[index]][0])
        physicals = [address if row == address.row
                     else address.with_row(row)
                     for address, row in zip(addresses, physical_rows)]
        plans: List[Optional[HammerPlan]] = list(map(
            HammerPlan._make, zip(
                addresses, counts, itertools.repeat(t_on), physicals,
                offsets, units, (reach[count][3] for count in counts))))
        for index in invalid:
            plans[index] = None
        return plans

    def apply_hammer(self, plan: HammerPlan) -> None:
        """Execute a resolved HAMMER (see :meth:`hammer`)."""
        physical = plan.physical
        key = physical.bank_key
        bank = self._banks.get(key)
        if bank is None:
            self._banks[key] = BankState()
        elif bank.open_row is not None:
            raise TimingError("HAMMER requires a closed bank")
        rows = self._rows.get(key)
        if rows is None:
            rows = self._rows[key] = {}
        row = physical.row
        pc_key = key[:2]
        state = rows.get(row)
        if state is not None:
            self.stats.committed_bitflips += self._restore(
                physical, state, self.now_ns,
                self._pc_ref_time[pc_key].item(row))
        count = plan.count
        self._trr[pc_key].on_activate(physical.bank, row, count=count)
        self._add_units(rows, row, plan.offsets, plan.units)
        self.now_ns += plan.duration
        self.stats.acts += count
        self.stats.pres += count
        if self._trace is not None:
            self._record("HAMMER", physical.channel,
                         physical.pseudo_channel, physical.bank, row,
                         count)

    def refresh(self, channel: int, pseudo_channel: int) -> None:
        """One REF command: rolling refresh plus TRR victim refreshes."""
        pc_key = (channel, pseudo_channel)
        if pc_key not in self._trr:
            raise ValueError(f"no such pseudo channel {pc_key}")
        victims = self._trr[pc_key].on_refresh()
        for bank_index, victim_row in victims:
            physical = RowAddress(channel, pseudo_channel, bank_index,
                                  victim_row)
            self._commit(physical)
            # A refresh internally activates the row, so a TRR victim
            # refresh disturbs *its* neighbors by one activation — the
            # lever the HalfDouble access pattern exploits (Section 8.1:
            # TRR's victim refreshes act as near-aggressor activations).
            self._disturb_neighbors(physical, count=1,
                                    t_on=self.timings.t_ras)
            self.stats.trr_victim_refreshes += 1
        pointer = self._ref_pointer[pc_key]
        per_ref = self.rows_refreshed_per_ref
        ref_times = self._pc_ref_time[pc_key]
        materialized = self._materialized_banks(channel, pseudo_channel)
        for offset in range(per_ref):
            row = (pointer + offset) % self.geometry.rows
            ref_times[row] = self.now_ns
            for bank_index, bank_rows in materialized:
                if row in bank_rows:
                    self._commit(RowAddress(channel, pseudo_channel,
                                            bank_index, row))
        self._ref_pointer[pc_key] = (pointer + per_ref) % self.geometry.rows
        self.now_ns += self.timings.t_rfc
        self.stats.refs += 1
        self._record("REF", channel, pseudo_channel)

    def refresh_burst(self, channel: int, pseudo_channel: int,
                      count: int) -> None:
        """Issue ``count`` REF commands as one batched operation.

        Bit-identical to ``count`` sequential :meth:`refresh` calls —
        same TRR victim refreshes, rolling-refresh commits, retention
        clocks, stats and final ``now_ns`` (the per-REF timestamps replay
        the scalar clock's float accumulation order) — but without the
        per-REF Python dispatch: the TRR engine fast-forwards through
        :meth:`~repro.dram.trr.TrrEngine.run_epochs`, rolling-refresh
        touches of *materialized* rows replay as individual commits at
        their exact REF timestamps, and the untouched majority of the
        ref-time bookkeeping collapses into one bulk update.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        pc_key = (channel, pseudo_channel)
        if pc_key not in self._trr:
            raise ValueError(f"no such pseudo channel {pc_key}")
        if self._trace is not None or count < 4:
            # Tracing wants one entry per REF; tiny bursts are not worth
            # the setup.  The scalar loop is the reference semantics.
            for __ in range(count):
                self.refresh(channel, pseudo_channel)
            return
        timings = self.timings
        per_ref = self.rows_refreshed_per_ref
        rows = self.geometry.rows
        pointer = self._ref_pointer[pc_key]
        ref_times = self._pc_ref_time[pc_key]
        slots = count * per_ref
        # Per-REF timestamps with the scalar clock's exact accumulation
        # order (np.add.accumulate adds strictly in sequence, so ref_t[i]
        # reproduces `now += t_rfc` i times bit-for-bit).
        ref_t = np.full(count + 1, timings.t_rfc)
        ref_t[0] = self.now_ns
        np.add.accumulate(ref_t, out=ref_t)

        victim_schedule = self._trr[pc_key].run_epochs({}, count)

        # Rows whose rolling-refresh touches must replay as individual
        # commits: everything materialized now, plus whatever a TRR
        # victim refresh may materialize mid-burst (its blast radius).
        materialized = self._materialized_banks(channel, pseudo_channel)
        candidates = set()
        for __bank, bank_rows in materialized:
            candidates.update(bank_rows)
        if victim_schedule:
            radius = self.disturbance.blast_radius
            for __, victims in victim_schedule:
                for __bank, victim_row in victims:
                    candidates.update(range(
                        max(0, victim_row - radius),
                        min(rows, victim_row + radius + 1)))

        # Event list: (ref_index, phase, slot, payload) replayed in the
        # scalar order — victims first (phase 0), then rolling touches
        # in slot order within each REF.
        events: list = [(offset - 1, 0, 0, victims)
                        for offset, victims in victim_schedule]
        if candidates:
            if len(candidates) * (1 + slots // rows) < slots:
                for row in candidates:
                    for slot in range((row - pointer) % rows, slots, rows):
                        events.append((slot // per_ref, 1,
                                       slot % per_ref, row))
            else:
                slot_idx = np.arange(slots, dtype=np.int64)
                swept = (pointer + slot_idx) % rows
                hits = slot_idx[np.isin(
                    swept, np.fromiter(candidates, dtype=np.int64))]
                for slot in hits.tolist():
                    events.append((slot // per_ref, 1, slot % per_ref,
                                   (pointer + slot) % rows))
            # (ref_index, phase, slot) is unique, so payloads are never
            # compared.
            events.sort()

        for ref_index, phase, __slot, payload in events:
            self.now_ns = ref_t.item(ref_index)
            if phase == 0:
                for bank_index, victim_row in payload:
                    physical = RowAddress(channel, pseudo_channel,
                                          bank_index, victim_row)
                    self._commit(physical)
                    self._disturb_neighbors(physical, count=1,
                                            t_on=timings.t_ras)
                    self.stats.trr_victim_refreshes += 1
                # Only victim refreshes materialize rows mid-burst.
                materialized = self._materialized_banks(channel,
                                                        pseudo_channel)
            else:
                row = payload
                ref_times[row] = self.now_ns
                for bank_index, bank_rows in materialized:
                    if row in bank_rows:
                        self._commit(RowAddress(channel, pseudo_channel,
                                                bank_index, row))

        # Bulk ref-time update: only each row's *last* touch survives,
        # and the final min(slots, rows) slots sweep distinct rows, as
        # one run from `start` that wraps once at the bank's end.
        first = max(0, slots - rows)
        stamps = np.repeat(ref_t[first // per_ref:count],
                           per_ref)[first % per_ref:]
        start = (pointer + first) % rows
        head = min(stamps.size, rows - start)
        ref_times[start:start + head] = stamps[:head]
        ref_times[:stamps.size - head] = stamps[head:]
        self._ref_pointer[pc_key] = (pointer + slots) % rows
        self.now_ns = ref_t.item(count)
        self.stats.refs += count

    def clean_ref_prefix(self, limit: int) -> int:
        """How many of the next ``limit`` REFs execute as issued: all of
        them on a fault-free device (the fault layer overrides this)."""
        return limit

    # ------------------------------------------------------------------
    # Inspection helpers (no time advance, no state mutation)
    # ------------------------------------------------------------------

    def inspect_row(self, address: RowAddress) -> np.ndarray:
        """Row image as a read *would* return it, without side effects."""
        address.validate(self.geometry)
        physical = self._to_physical(address)
        state = self._rows.get(physical.bank_key, {}).get(physical.row)
        if state is None:
            return np.zeros(self.geometry.row_bytes, dtype=np.uint8)
        flips = self._pending_flip_bits(
            physical, state, self.now_ns,
            self.last_rolling_refresh_ns(physical))
        data = state.data.copy()
        _xor_bits(data, flips)
        return data

    def accumulated_units(self, address: RowAddress) -> float:
        """Disturbance accumulated on a (logical) row since last restore."""
        physical = self._to_physical(address.validate(self.geometry))
        state = self._rows.get(physical.bank_key, {}).get(physical.row)
        return 0.0 if state is None else state.acc_units

    def trr_engine(self, channel: int, pseudo_channel: int) -> TrrEngine:
        """The TRR engine of a pseudo channel (for probes and tests)."""
        return self._trr[(channel, pseudo_channel)]

    def rolling_refresh_pointer(self, channel: int,
                                pseudo_channel: int) -> int:
        """Next row slot the pseudo channel's rolling refresh covers.

        Epoch-level replays (``repro.core.trr_bypass.run_attack_epochs``)
        use this to predict which future REF commands sweep a given row.
        """
        pc_key = (channel, pseudo_channel)
        if pc_key not in self._ref_pointer:
            raise ValueError(f"no such pseudo channel {pc_key}")
        return self._ref_pointer[pc_key]

    def last_rolling_refresh_ns(self, physical: RowAddress) -> float:
        """Device time of the last rolling refresh of a physical row
        (0.0 if the row has not been swept since power-up)."""
        pc_key = (physical.channel, physical.pseudo_channel)
        ref_times = self._pc_ref_time.get(pc_key)
        if ref_times is None:
            raise ValueError(f"no such pseudo channel {pc_key}")
        if not 0 <= physical.row < ref_times.size:
            raise ValueError(f"row {physical.row} out of range "
                             f"[0, {ref_times.size})")
        return ref_times.item(physical.row)

    # ------------------------------------------------------------------
    # Command tracing (debugging aid, off by default)
    # ------------------------------------------------------------------

    def enable_tracing(self, capacity: int = 4096) -> None:
        """Record the last ``capacity`` commands in a ring buffer."""
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._trace = deque(maxlen=capacity)

    def disable_tracing(self) -> None:
        """Stop recording and drop the buffer."""
        self._trace = None

    def trace(self) -> List[TraceEntry]:
        """The recorded command history, oldest first."""
        if self._trace is None:
            return []
        return list(self._trace)

    def _record(self, kind: str, channel: int = -1,
                pseudo_channel: int = -1, bank: int = -1, row: int = -1,
                count: int = 0) -> None:
        if self._trace is not None:
            self._trace.append(TraceEntry(
                self.now_ns, kind, channel, pseudo_channel, bank, row,
                count))

    # ------------------------------------------------------------------
    # Temperature coupling
    # ------------------------------------------------------------------

    def set_temperature(self, temperature_c: float) -> None:
        """Update the chip temperature (e.g. from the thermal rig)."""
        self.temperature_c = float(temperature_c)
        self._retention_acceleration = self._acceleration_now()

    def temperature_disturbance_factor(self) -> float:
        """Disturbance multiplier at the current temperature.

        1.0 at the calibration temperature; grows (shrinks) by
        ``TEMPERATURE_HC_SENSITIVITY`` per degree above (below) it,
        floored at 0.2.
        """
        if (self.calibration_temperature_c is None
                or self.temperature_c is None):
            return 1.0
        delta = self.temperature_c - self.calibration_temperature_c
        return max(0.2, 1.0 + TEMPERATURE_HC_SENSITIVITY * delta)

    def retention_acceleration(self) -> float:
        """Retention-time acceleration: 2x per RETENTION_DOUBLING_C."""
        return self._retention_acceleration

    def _acceleration_now(self) -> float:
        """:meth:`retention_acceleration` at the current temperature
        (stored by the two writers of ``temperature_c``)."""
        if (self.calibration_temperature_c is None
                or self.temperature_c is None):
            return 1.0
        delta = self.temperature_c - self.calibration_temperature_c
        return 2.0 ** (delta / RETENTION_DOUBLING_C)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _to_physical(self, address: RowAddress) -> RowAddress:
        row = self.row_mapping.to_physical(address.row)
        return address if row == address.row else address.with_row(row)

    def _bank(self, physical: RowAddress) -> BankState:
        key = physical.bank_key
        bank = self._banks.get(key)
        if bank is None:
            bank = self._banks[key] = BankState()
        return bank

    def _materialized_banks(self, channel: int, pseudo_channel: int
                            ) -> List[Tuple[int, Dict[int, _RowState]]]:
        """``(bank, rows)`` of the pseudo channel's banks holding
        materialized rows, in ascending bank order."""
        return sorted((key[2], rows) for key, rows in self._rows.items()
                      if rows and key[0] == channel
                      and key[1] == pseudo_channel)

    def _blank_row(self) -> _RowState:
        """State of a row first touched without a write (all zeros).

        Blank rows share one read-only zero image; the first latched
        flip copies it (:func:`_latch_bits`).
        """
        return _RowState(data=self._zero_row, restored_at=0.0,
                         pattern="Rowstripe0")

    def _row_state(self, physical: RowAddress) -> _RowState:
        rows = self._rows.setdefault(physical.bank_key, {})
        state = rows.get(physical.row)
        if state is None:
            state = rows[physical.row] = self._blank_row()
        return state

    def _disturb_neighbors(self, physical: RowAddress, count: int,
                           t_on: float) -> None:
        """Add ``count`` activations' disturbance (on-time ``t_on``, at
        least tRAS) to the neighbors of a physical row."""
        by_distance, offsets, units, __ = self._reach(count, t_on)
        if physical.row in self.geometry.subarrays.clipped_rows(
                len(by_distance) - 1):
            offsets, units = self._subarray_reach(physical.row, by_distance)
        self._add_units(self._rows.setdefault(physical.bank_key, {}),
                        physical.row, offsets, units)

    def _effective_t_on(self, t_on: Optional[float]) -> float:
        """The on-time an ACT applies: ``t_on``, at least tRAS."""
        t_ras = self.timings.t_ras
        return t_ras if t_on is None else max(t_on, t_ras)

    def _units_by_distance(self, count: int, t_on: float
                           ) -> Tuple[float, ...]:
        """Units ``count`` activations with on-time ``t_on`` deliver at
        each distance up to the blast radius (index 0 unused), each
        ``(count * temp) * upa(t_on, distance)``."""
        model = self.disturbance
        scale = count * self.temperature_disturbance_factor()
        return (0.0,) + tuple(
            scale * model.units_per_activation(t_on, distance)
            for distance in range(1, model.blast_radius + 1))

    def _reach(self, count: int, t_on: float
               ) -> Tuple[Tuple[float, ...], Tuple[int, ...],
                          Tuple[float, ...], float]:
        """What ``count`` activations with on-time ``t_on`` apply to a
        row the blast radius reaches in full: the units by distance
        (:meth:`_units_by_distance`), the offsets ``-radius .. radius``
        and the units each receives (zeros omitted), and the duration
        ``count * act_to_act(t_on)``.

        Memoized per ``(count, t_on, temperature factor)``, in a memo
        that starts over at :data:`_REACH_MEMO_SIZE` entries.
        """
        key = (count, t_on, self.temperature_disturbance_factor())
        reach = self._reach_memo.get(key)
        if reach is not None:
            return reach
        by_distance = self._units_by_distance(count, t_on)
        radius = len(by_distance) - 1
        offsets = tuple(offset for offset in range(-radius, radius + 1)
                        if offset and by_distance[abs(offset)] > 0)
        reach = (by_distance, offsets,
                 tuple(by_distance[abs(offset)] for offset in offsets),
                 count * self.timings.act_to_act(t_on))
        if len(self._reach_memo) >= _REACH_MEMO_SIZE:
            self._reach_memo.clear()
        self._reach_memo[key] = reach
        return reach

    def _subarray_reach(self, row: int, by_distance: Tuple[float, ...]
                       ) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
        """The offsets and units of a physical row's neighbors inside
        its subarray (zeros omitted), from :meth:`_units_by_distance`."""
        kept = tuple((other - row, by_distance[distance])
                     for other, distance in self.geometry.subarrays.neighbors(
                         row, len(by_distance) - 1)
                     if by_distance[distance] > 0)
        return (tuple(offset for offset, __ in kept),
                tuple(unit for __, unit in kept))

    def _add_units(self, rows: Dict[int, _RowState], row: int,
                   offsets: Sequence[int], units: Sequence[float]) -> None:
        """Add ``units[i]`` to the row at ``row + offsets[i]`` of a
        bank's materialized ``rows``."""
        for offset, unit in zip(offsets, units):
            state = rows.get(row + offset)
            if state is None:
                state = rows[row + offset] = self._blank_row()
            state.acc_units += unit

    def _unrefreshed_ns(self, state: _RowState, now: float,
                        ref_time: float) -> float:
        """Time from the row's last charge restore (by a commit or the
        rolling refresh at ``ref_time``) to ``now``, retention-accelerated."""
        return (now - max(state.restored_at, ref_time)) \
            * self._retention_acceleration

    def _pending_flip_bits(self, physical: RowAddress, state: _RowState,
                           now: float, ref_time: float) -> np.ndarray:
        """Bit positions a restore at ``now`` would latch (not yet
        committed); ``ref_time`` is the row's last rolling refresh."""
        flips: List[np.ndarray] = []
        if state.acc_units > 0:
            if state.min_threshold is None:
                state.min_threshold = \
                    self.profile_provider.disturbance_floor(physical,
                                                            state.pattern)
            if state.acc_units >= state.min_threshold:
                thresholds = self._thresholds_for(physical, state)
                flips.append(np.flatnonzero(
                    thresholds <= state.acc_units))
        if self.retention is not None:
            # Every row's retention floor is at least RETENTION_FLOOR_NS,
            # so a shorter effective time needs no per-row draw.
            effective = self._unrefreshed_ns(state, now, ref_time)
            if effective >= RETENTION_FLOOR_NS:
                if state.retention_floor_ns is None:
                    state.retention_floor_ns = \
                        self.retention.row_retention_ns(physical)
                if effective >= state.retention_floor_ns:
                    flips.append(self.retention.failing_bits(physical,
                                                             effective))
        if not flips:
            return np.empty(0, dtype=np.int64)
        candidates = np.unique(np.concatenate(flips)).astype(np.int64)
        if state.already_flipped is not None:
            candidates = candidates[~state.already_flipped[candidates]]
        return candidates

    def _thresholds_for(self, physical: RowAddress,
                        state: _RowState) -> np.ndarray:
        if state.thresholds is None:
            profile = self.profile_provider.profile(physical, state.pattern)
            state.thresholds = profile.materialize()
        return state.thresholds

    def _apply_on_die_ecc(self, state: _RowState,
                          data: np.ndarray) -> np.ndarray:
        """On-die SECDED view of a row: single-bit flips per 64-bit word
        are corrected on the fly; multi-bit words pass through unchanged.

        Chips power up with on-die ECC enabled; the paper clears the MR
        bit precisely because this masking hides the raw bitflips
        (Section 3.1).  The model idealizes the hidden parity cells as
        flip-free and does not emulate miscorrection.
        """
        if state.already_flipped is None or not state.already_flipped.any():
            return data
        flips_per_word = state.already_flipped.reshape(-1, 64).sum(axis=1)
        correctable_words = np.flatnonzero(flips_per_word == 1)
        if correctable_words.size == 0:
            return data
        corrected = data.copy()
        flat = state.already_flipped.reshape(-1, 64)
        # Each correctable word has exactly one set bit, so argmax finds
        # its offset; distinct words map to distinct bytes (64 bits = 8
        # bytes per word), making the fancy-indexed XOR collision-free.
        offsets = np.argmax(flat[correctable_words], axis=1)
        bits = correctable_words * 64 + offsets
        corrected[bits // 8] ^= (
            np.uint8(1) << (7 - bits % 8).astype(np.uint8))
        self.stats.ecc_corrections += int(correctable_words.size)
        return corrected

    def _commit(self, physical: RowAddress) -> None:
        """Restore a row's charge now, latching any pending bitflips."""
        rows = self._rows.get(physical.bank_key)
        state = None if rows is None else rows.get(physical.row)
        if state is not None:
            ref_times = self._pc_ref_time[(physical.channel,
                                           physical.pseudo_channel)]
            self.stats.committed_bitflips += self._restore(
                physical, state, self.now_ns, ref_times.item(physical.row))

    def _restore(self, physical: RowAddress, state: _RowState, now: float,
                 ref_time: float) -> int:
        """Restore a materialized row's charge at device time ``now``.

        The one implementation of the restore rule: latch the flips
        :meth:`_pending_flip_bits` finds (``ref_time`` is the row's last
        rolling refresh), re-arm the disturbance accumulator and restart
        the retention clock.  Mutates ``state`` only and returns the
        number of bits latched, so a replay that must not touch the
        device (``repro.core.trr_bypass.run_attack_epochs``) can restore
        a detached row; callers on the device count the flips.
        """
        acc_units = state.acc_units
        floor = state.min_threshold
        if (acc_units <= 0 or (floor is not None and acc_units < floor)) \
                and (self.retention is None
                     or self._unrefreshed_ns(state, now, ref_time)
                     < RETENTION_FLOOR_NS):
            # Below the row's weakest cell and younger than any cell's
            # retention time: nothing can flip, so skip the flip search.
            state.acc_units = 0.0
            state.restored_at = now
            return 0
        flips = self._pending_flip_bits(physical, state, now, ref_time)
        if flips.size:
            if state.already_flipped is None:
                state.already_flipped = np.zeros(
                    self.geometry.row_bits, dtype=bool)
            _latch_bits(state, flips)
            state.already_flipped[flips] = True
        state.acc_units = 0.0
        state.restored_at = now
        return int(flips.size)


def _latch_bits(state: _RowState, bit_positions: np.ndarray) -> None:
    """Flip bits of a row's image, copying a shared blank image first."""
    if not state.data.flags.writeable:
        state.data = state.data.copy()
    _xor_bits(state.data, bit_positions)


def _xor_bits(data: np.ndarray, bit_positions: np.ndarray) -> None:
    """Flip the given bit positions (MSB-first within each byte) in place."""
    if bit_positions.size == 0:
        return
    byte_index = bit_positions // 8
    bit_in_byte = 7 - (bit_positions % 8)
    np.bitwise_xor.at(data, byte_index,
                      (1 << bit_in_byte).astype(np.uint8))
