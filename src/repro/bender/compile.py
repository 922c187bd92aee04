"""Program -> epoch-plan compiler and the batched ``PlanExecutor``.

The scalar :class:`~repro.bender.interpreter.Interpreter` replays a
:class:`~repro.bender.program.TestProgram` one command at a time — the
right reference semantics, but every steady-state activation pays Python
command dispatch.  This module lowers the *loop structure* of a program
into :class:`~repro.dram.batch.EpochPlan`-shaped segments executed in
whole REF-to-REF windows:

- a top-level ``Loop`` whose body is built from ``HAMMER``/``REF``/
  ``WAIT`` commands (all hammers before the at-most-one REF, one pseudo
  channel) becomes an :class:`EpochSegment`; everything else stays in
  :class:`ScalarSegment` s and runs through per-command dispatch exactly
  as the interpreter would,
- an :class:`EpochSegment` replays the device physics (commit points,
  neighbor disturbance, TRR victim refreshes, rolling-refresh sweeps,
  retention clocks, the float-accumulation order of the device clock)
  against small per-row mirrors, driving
  :meth:`~repro.dram.trr.TrrEngine.run_epochs` for the sampler — no
  per-command Python dispatch on the steady state, bit-identical results,
- fault plans batch too: fault draws are pure functions of ``(seed, tag,
  command counter)`` and the counter layout of a compiled segment is
  static, so the plan's vectorized samplers classify every future window
  up front.  Windows with no fault hit replay on the fast path and
  consume their counters wholesale
  (:meth:`~repro.faults.injector.FaultyStack.advance_counter`); windows
  where any draw hits ("dirty") execute per-command through the
  :class:`~repro.faults.injector.FaultyStack`, firing the exact events,
  sleeps, drops, ghosts and hangs of the scalar path.

Lowering never changes semantics: loops of raw ``ACT``/``PRE`` commands
are *not* fused into hammers (the scalar clock accumulates per command —
repeated float adds — where a fused hammer multiplies once; the results
differ in the last bits), nested loops and tagged reads stay scalar, and
any precondition the fast path cannot honor (traced devices, subclassed
stacks, open banks, invalid addresses, too-dirty fault schedules) falls
back to per-command execution of the same instructions.  The scalar
interpreter remains the oracle: the differential property tests execute
random programs on both engines and require flip-for-flip equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import perf
from repro.bender.interpreter import ExecutionResult, pre_execution_gate
from repro.bender.program import (Instruction, Loop, ReadRequest,
                                  TestProgram, _flatten)
from repro.dram.commands import Command, CommandKind
from repro.dram.device import HBM2Stack, _RowState, _latch_bits
from repro.dram.geometry import RowAddress
from repro.dram.retention import RETENTION_FLOOR_NS
from repro.faults import FaultPlan, active_plan, wrap_device
from repro.faults.injector import FaultyStack

#: Loops shorter than this stay scalar (mirror/schedule setup would cost
#: more than it saves; same threshold spirit as ``refresh_burst``).
MIN_EPOCH_REPEATS = 4

#: When more than this fraction of a segment's windows carry a fault
#: hit, the whole segment executes per-command: fragmented spans would
#: pay the mirror setup repeatedly for little batched work.
MAX_DIRTY_FRACTION = 0.25


@dataclass(frozen=True)
class ScalarSegment:
    """Residual instructions executed through per-command dispatch."""

    instructions: Tuple[Instruction, ...]


@dataclass(frozen=True)
class EpochSegment:
    """A lowered steady-state loop: ``repeats`` identical windows.

    ``body`` holds the loop's commands in order — hammers (possibly in
    several banks of one pseudo channel), at most one REF *after* every
    hammer, and waits anywhere.  The executor derives the epoch plan,
    per-entry durations and disturbance increments from the body at
    execution time (they depend on the device's mapping and models).
    """

    repeats: int
    body: Tuple[Command, ...]
    channel: int
    pseudo_channel: int
    has_ref: bool


Segment = Union[ScalarSegment, EpochSegment]


def _classify_loop(loop: Loop) -> Optional[EpochSegment]:
    """Lower one top-level loop, or ``None`` when it must stay scalar."""
    if loop.count < MIN_EPOCH_REPEATS:
        return None
    body: List[Command] = []
    channel_pc: Optional[Tuple[int, int]] = None
    ref_seen = False
    has_hammer = False
    for instruction in loop.body:
        if isinstance(instruction, Loop) \
                or isinstance(instruction, ReadRequest):
            return None
        kind = instruction.kind
        if kind is CommandKind.WAIT:
            body.append(instruction)
            continue
        if kind is CommandKind.HAMMER:
            if ref_seen:
                # A hammer *after* the REF would belong to the next
                # window; run_epochs models activations-then-REF only.
                return None
            has_hammer = True
        elif kind is CommandKind.REF:
            if ref_seen:
                return None
            ref_seen = True
        else:
            return None
        key = (instruction.channel, instruction.pseudo_channel)
        if channel_pc is None:
            channel_pc = key
        elif key != channel_pc:
            return None
        body.append(instruction)
    if not body or not (has_hammer or ref_seen) or channel_pc is None:
        return None
    return EpochSegment(repeats=loop.count, body=tuple(body),
                        channel=channel_pc[0],
                        pseudo_channel=channel_pc[1], has_ref=ref_seen)


def compile_program(program: TestProgram) -> List[Segment]:
    """Partition a program into scalar and epoch segments, in order."""
    segments: List[Segment] = []
    scalar: List[Instruction] = []

    def flush() -> None:
        if scalar:
            segments.append(ScalarSegment(tuple(scalar)))
            scalar.clear()

    for instruction in program.instructions:
        lowered = None
        if isinstance(instruction, Loop):
            lowered = _classify_loop(instruction)
        if lowered is None:
            scalar.append(instruction)
        else:
            flush()
            segments.append(lowered)
    flush()
    return segments


# ----------------------------------------------------------------------
# Fault-window classification
# ----------------------------------------------------------------------


def dirty_window_mask(plan: FaultPlan, base_counter: int,
                      body: Sequence[Command],
                      repeats: int) -> np.ndarray:
    """Which of the ``repeats`` windows carry at least one fault hit.

    The command counter layout of a compiled segment is static: window
    ``w`` (0-based), body position ``p`` maps to counter ``base_counter
    + w * len(body) + p + 1``.  Every scalar draw the injector would
    make for those counters is evaluated vectorized: stall/hang on any
    command, jitter on hammers, drop on REF/WAIT, ghost on REF.  A
    window with any hit must replay per-command; the rest are exact
    no-fault windows (the draws provably miss).
    """
    body_len = len(body)
    total = repeats * body_len
    indices = np.arange(base_counter + 1, base_counter + total + 1,
                        dtype=np.int64)
    hits = plan.stall_mask(indices)
    hits |= plan.hang_mask(indices)
    kinds = [command.kind for command in body]
    position = np.arange(total, dtype=np.int64) % body_len
    hammer_positions = np.asarray(
        [kind is CommandKind.HAMMER for kind in kinds], dtype=bool)
    if hammer_positions.any() and plan.act_jitter_rate \
            and plan.act_jitter_ns:
        mask = hammer_positions[position]
        jitter_hits, __ = plan.draw_jitter_array(indices[mask])
        hits[mask] |= jitter_hits
    droppable = np.asarray(
        [kind in (CommandKind.REF, CommandKind.WAIT) for kind in kinds],
        dtype=bool)
    if droppable.any() and plan.drop_rate:
        mask = droppable[position]
        hits[mask] |= plan.drop_mask(indices[mask])
    ghostable = np.asarray(
        [kind is CommandKind.REF for kind in kinds], dtype=bool)
    if ghostable.any() and plan.ghost_rate:
        mask = ghostable[position]
        hits[mask] |= plan.ghost_mask(indices[mask])
    return hits.reshape(repeats, body_len).any(axis=1)


# ----------------------------------------------------------------------
# Epoch-segment replay
# ----------------------------------------------------------------------


class _RowMirror:
    """Local physics state of one tracked (bank, row) during a span."""

    __slots__ = ("address", "bank_key", "row", "state", "acc",
                 "restored_at", "pattern", "min_threshold", "thresholds",
                 "retention_floor")

    def __init__(self, address: RowAddress) -> None:
        self.address = address
        self.bank_key = address.bank_key
        self.row = address.row
        self.state: Optional[_RowState] = None
        self.acc = 0.0
        self.restored_at = 0.0
        self.pattern = "Rowstripe0"
        self.min_threshold: Optional[float] = None
        self.thresholds: Optional[np.ndarray] = None
        self.retention_floor: Optional[float] = None

    def sync(self, device: HBM2Stack) -> None:
        state = device._rows.get(self.bank_key, {}).get(self.row)
        self.state = state
        if state is None:
            self.acc = 0.0
            self.restored_at = 0.0
            self.pattern = "Rowstripe0"
            self.min_threshold = None
            self.thresholds = None
            self.retention_floor = None
        else:
            self.acc = state.acc_units
            self.restored_at = state.restored_at
            self.pattern = state.pattern
            self.min_threshold = state.min_threshold
            self.thresholds = state.thresholds
            self.retention_floor = state.retention_floor_ns

    def writeback(self) -> None:
        state = self.state
        if state is None:
            return
        state.acc_units = self.acc
        state.restored_at = self.restored_at
        state.min_threshold = self.min_threshold
        state.thresholds = self.thresholds
        state.retention_floor_ns = self.retention_floor


class _EpochContext:
    """Device-resolved static data of one epoch segment."""

    def __init__(self, device: HBM2Stack, segment: EpochSegment) -> None:
        self.device = device
        self.segment = segment
        geometry = device.geometry
        timings = device.timings
        model = device.disturbance
        self.layout = geometry.subarrays
        self.temp = device.temperature_disturbance_factor()
        self.accel = device.retention_acceleration()
        self.blast = model.blast_radius
        self.t_ras = timings.t_ras
        self.t_rfc = timings.t_rfc
        self.pc_key = (segment.channel, segment.pseudo_channel)
        self.supported = True
        # Static op template: ("H", entry) / ("R", None) / ("W", pad).
        self.ops: List[Tuple[str, Any]] = []
        #: (physical RowAddress, count, duration, [(bank, row, units)]).
        self.entries: List[Tuple[RowAddress, int, float,
                                 List[Tuple[int, int, float]]]] = []
        self.epoch: Dict[int, List[Tuple[int, int]]] = {}
        self.acts_per_window = 0
        for command in segment.body:
            kind = command.kind
            if kind is CommandKind.WAIT:
                self.ops.append(("W", command.duration))
                continue
            if kind is CommandKind.REF:
                self.ops.append(("R", None))
                continue
            if command.count == 0:
                # A zero-count hammer is a device no-op; it only
                # occupies a fault-counter slot (handled statically).
                continue
            logical = RowAddress(command.channel, command.pseudo_channel,
                                 command.bank, command.row)
            try:
                logical.validate(geometry)
            except ValueError:
                self.supported = False
                return
            physical = logical.with_row(
                device.row_mapping.to_physical(logical.row))
            effective_t_on = timings.t_ras if command.t_on is None \
                else max(command.t_on, timings.t_ras)
            duration = command.count * timings.act_to_act(effective_t_on)
            neighbors: List[Tuple[int, int, float]] = []
            for row, distance in self.layout.neighbors(physical.row,
                                                       self.blast):
                units = command.count * self.temp \
                    * model.units_per_activation(effective_t_on, distance)
                if units <= 0:
                    continue
                neighbors.append((physical.bank, row, units))
            self.ops.append(("H", len(self.entries)))
            self.entries.append((physical, command.count, duration,
                                 neighbors))
            self.epoch.setdefault(physical.bank, []).append(
                (physical.row, command.count))
            self.acts_per_window += command.count
        # Both hammers (``on_activate``) and REFs (``refresh``) need the
        # pseudo channel's TRR engine; a missing one raises scalar-side,
        # which the per-command fallback reproduces.
        if (segment.has_ref or self.entries) \
                and self.pc_key not in device._trr:
            self.supported = False
            return
        # Every hammered bank must be closed: the device would raise on
        # the first hammer, which the scalar fallback reproduces.
        for physical, __, __dur, __n in self.entries:
            bank = device._banks.get(physical.bank_key)
            if bank is not None and bank.open_row is not None:
                self.supported = False
                return
        #: TRR victim-refresh disturbance per distance (count=1 @ tRAS).
        self.trr_units = {
            distance: (1 * self.temp)
            * model.units_per_activation(self.t_ras, distance)
            for distance in range(1, self.blast + 1)}
        self._victim_neighbors: Dict[Tuple[int, int],
                                     List[Tuple[int, int, float]]] = {}

    def victim_neighbors(self, bank: int,
                         row: int) -> List[Tuple[int, int, float]]:
        """Neighbor disturbance of one TRR victim refresh (cached)."""
        key = (bank, row)
        cached = self._victim_neighbors.get(key)
        if cached is not None:
            return cached
        neighbors: List[Tuple[int, int, float]] = []
        for other, distance in self.layout.neighbors(row, self.blast):
            units = self.trr_units[distance]
            if units > 0:
                neighbors.append((bank, other, units))
        self._victim_neighbors[key] = neighbors
        return neighbors


class PlanExecutor:
    """Executes compiled programs; drop-in for the scalar interpreter.

    Construction mirrors :class:`~repro.bender.interpreter.Interpreter`
    (including the transparent :class:`FaultyStack` wrap when a fault
    plan is active and the ``HBMSIM_LINT`` pre-execution gate), and
    :meth:`run` returns the same :class:`ExecutionResult` — same tagged
    reads, command counts and simulated clock — whether a program lowers
    to epoch segments or stays fully scalar.
    """

    def __init__(self, device: HBM2Stack,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        plan = fault_plan if fault_plan is not None else active_plan()
        self.device = wrap_device(device, plan)

    def run(self, program: TestProgram) -> ExecutionResult:
        """Execute ``program`` on the fastest bit-identical path."""
        pre_execution_gate(program, self.device.timings)
        with perf.timed_phase("compile"):
            segments = compile_program(program)
        started = self.device.now_ns
        reads: Dict[str, List[np.ndarray]] = {}
        executed = 0
        for segment in segments:
            if isinstance(segment, EpochSegment):
                executed += self._run_epoch_segment(segment)
            else:
                executed += self._run_scalar(segment.instructions, reads)
        return ExecutionResult(
            program=program.name,
            commands_executed=executed,
            started_at_ns=started,
            finished_at_ns=self.device.now_ns,
            reads=reads,
        )

    # -- scalar residue ----------------------------------------------------

    def _run_scalar(self, instructions: Iterable[Instruction],
                    reads: Dict[str, List[np.ndarray]]) -> int:
        executed = 0
        for command in _flatten(list(instructions)):
            result = self.device.execute(command)
            executed += 1
            if isinstance(command, ReadRequest):
                if result is None:
                    raise RuntimeError("tagged read returned no data")
                reads.setdefault(command.tag, []).append(result)
        return executed

    def _run_segment_scalar(self, segment: EpochSegment,
                            reads: Dict[str, List[np.ndarray]],
                            skip: int = 0) -> int:
        loop = Loop(segment.repeats - skip, list(segment.body))
        return self._run_scalar([loop], reads)

    # -- epoch fast path ---------------------------------------------------

    def _run_epoch_segment(self, segment: EpochSegment) -> int:
        stack = self.device
        faulty: Optional[FaultyStack] = None
        if isinstance(stack, FaultyStack):
            faulty = stack
            device = stack.wrapped
        else:
            device = stack
        no_reads: Dict[str, List[np.ndarray]] = {}
        if type(device) is not HBM2Stack or device._trace is not None:
            return self._run_segment_scalar(segment, no_reads)
        context = _EpochContext(device, segment)
        if not context.supported:
            return self._run_segment_scalar(segment, no_reads)
        body_len = len(segment.body)
        repeats = segment.repeats
        dirty: Optional[np.ndarray] = None
        if faulty is not None:
            dirty = dirty_window_mask(faulty.plan, faulty._counter,
                                      segment.body, repeats)
            if not dirty.any():
                dirty = None
            elif float(dirty.mean()) > MAX_DIRTY_FRACTION:
                return self._run_segment_scalar(segment, no_reads)
        window = 0
        while window < repeats:
            if dirty is not None and dirty[window]:
                for command in segment.body:
                    stack.execute(command)
                window += 1
                continue
            if dirty is None:
                span = repeats - window
            else:
                upcoming = np.flatnonzero(dirty[window:])
                span = int(upcoming[0]) if upcoming.size \
                    else repeats - window
            self._replay_span(context, span)
            if faulty is not None:
                faulty.advance_counter(span * body_len)
            window += span
        return repeats * body_len

    def _replay_span(self, context: _EpochContext, span: int) -> None:
        """Replay ``span`` identical clean windows against the device.

        Mirrors the device's physics exactly — the commit points of
        ``hammer`` (before disturbance), TRR victim refreshes then
        rolling sweeps within each REF, the same float expressions in
        the same order for the clock and the disturbance accumulators —
        against per-row mirrors, then writes the survivors back.
        """
        device = context.device
        segment = context.segment
        geometry = device.geometry
        timings = device.timings
        channel, pc = context.pc_key
        retention = device.retention
        provider = device.profile_provider
        accel = context.accel
        stats = device.stats
        row_bits = geometry.row_bits
        rows_total = geometry.rows

        mirrors: Dict[Tuple[int, int], _RowMirror] = {}

        def mirror(bank: int, row: int) -> _RowMirror:
            key = (bank, row)
            existing = mirrors.get(key)
            if existing is None:
                existing = _RowMirror(RowAddress(channel, pc, bank, row))
                existing.sync(device)
                mirrors[key] = existing
            return existing

        # TRR: fold the span's activation stream into the sampler.  With
        # a REF per window the engine consumes whole epochs (mutating
        # itself exactly as `span` scalar windows would and returning
        # the victim-refresh schedule); without REFs the window never
        # closes, so the counts simply sum (CAM order is first-act).
        schedule: Dict[int, List[Tuple[int, int]]] = {}
        if segment.has_ref:
            engine = device._trr[context.pc_key]
            schedule = dict(engine.run_epochs(context.epoch, span))
        elif context.epoch:
            engine = device._trr[context.pc_key]
            for bank, pairs in context.epoch.items():
                engine.note_window(
                    bank, [(row, count * span) for row, count in pairs])

        # Resolve ops against span-local mirrors.
        ops: List[Tuple[str, Any, Any]] = []
        for kind, payload in context.ops:
            if kind == "H":
                physical, __count, duration, neighbors = \
                    context.entries[payload]
                entry_mirror = mirror(physical.bank, physical.row)
                resolved = [(mirror(bank, row), units)
                            for bank, row, units in neighbors]
                ops.append(("H", (entry_mirror, resolved), duration))
            elif kind == "R":
                ops.append(("R", None, 0.0))
            else:
                ops.append(("W", None, payload))
        victim_info: Dict[Tuple[int, int],
                          Tuple[_RowMirror,
                                List[Tuple[_RowMirror, float]]]] = {}
        for window_victims in schedule.values():
            for bank, row in window_victims:
                if (bank, row) in victim_info:
                    continue
                resolved = [(mirror(nb, nr), units) for nb, nr, units
                            in context.victim_neighbors(bank, row)]
                victim_info[(bank, row)] = (mirror(bank, row), resolved)

        ref_times = device._pc_ref_time[context.pc_key]
        pointer = device._ref_pointer[context.pc_key]
        per_ref = timings.rows_refreshed_per_ref
        sweeps: Dict[int, List[Tuple[int, _RowMirror]]] = {}
        ref_starts: List[float] = []
        if segment.has_ref:
            # Rolling sweeps must commit every materialized row in the
            # pseudo channel, so they all need mirrors.
            for bank in range(geometry.banks):
                bank_rows = device._rows.get((channel, pc, bank))
                if bank_rows:
                    for row in list(bank_rows):
                        mirror(bank, row)
            by_row: Dict[int, List[_RowMirror]] = {}
            for (bank, row), m in sorted(mirrors.items()):
                by_row.setdefault(row, []).append(m)
            slots = span * per_ref
            for row, row_mirrors in by_row.items():
                slot = (row - pointer) % rows_total
                while slot < slots:
                    sweeps.setdefault(slot // per_ref, []).append(
                        (slot % per_ref, row_mirrors))  # type: ignore[arg-type]
                    slot += rows_total
            for events in sweeps.values():
                events.sort(key=lambda event: event[0])

        def commit(m: _RowMirror, time: float) -> None:
            """Mirror ``_commit`` / ``_pending_flip_bits`` exactly."""
            state = m.state
            parts: Optional[List[np.ndarray]] = None
            if m.acc > 0:
                if m.min_threshold is None:
                    m.min_threshold = provider.disturbance_floor(
                        m.address, m.pattern)
                if m.acc >= m.min_threshold:
                    if m.thresholds is None:
                        m.thresholds = provider.profile(
                            m.address, m.pattern).materialize()
                    parts = [np.flatnonzero(m.thresholds <= m.acc)]
            if retention is not None:
                reference = device.last_rolling_refresh_ns(m.address)
                if m.restored_at > reference:
                    reference = m.restored_at
                effective = (time - reference) * accel
                if effective >= RETENTION_FLOOR_NS:
                    if m.retention_floor is None:
                        m.retention_floor = retention.row_retention_ns(
                            m.address)
                    if effective >= m.retention_floor:
                        bits = retention.failing_bits(m.address, effective)
                        parts = [bits] if parts is None else parts + [bits]
            if parts:
                candidates = np.unique(
                    np.concatenate(parts)).astype(np.int64)
                assert state is not None
                if state.already_flipped is not None:
                    candidates = candidates[
                        ~state.already_flipped[candidates]]
                if candidates.size:
                    if state.already_flipped is None:
                        state.already_flipped = np.zeros(row_bits,
                                                         dtype=bool)
                    _latch_bits(state, candidates)
                    state.already_flipped[candidates] = True
                    stats.committed_bitflips += int(candidates.size)
            m.acc = 0.0
            m.restored_at = time

        def materialize(m: _RowMirror) -> None:
            state = device._blank_row()
            device._rows.setdefault(m.bank_key, {})[m.row] = state
            m.state = state
            m.acc = 0.0
            m.restored_at = 0.0
            m.pattern = "Rowstripe0"

        now = device.now_ns
        trr_refreshes = 0
        for w in range(span):
            for kind, payload, duration in ops:
                if kind == "H":
                    entry_mirror, neighbors = payload
                    if entry_mirror.state is not None:
                        commit(entry_mirror, now)
                    for nm, units in neighbors:
                        if nm.state is None:
                            materialize(nm)
                        nm.acc += units
                    now += duration
                elif kind == "R":
                    window_victims = schedule.get(w + 1)
                    if window_victims:
                        for bank, row in window_victims:
                            vm, vneighbors = victim_info[(bank, row)]
                            if vm.state is not None:
                                commit(vm, now)
                            for nm, units in vneighbors:
                                if nm.state is None:
                                    materialize(nm)
                                nm.acc += units
                            trr_refreshes += 1
                    ref_starts.append(now)
                    swept = sweeps.get(w)
                    if swept:
                        for __offset, row_mirrors in swept:
                            ref_times[row_mirrors[0].row] = now
                            for bm in row_mirrors:
                                if bm.state is not None:
                                    commit(bm, now)
                    now += context.t_rfc
                else:
                    now += duration

        for m in mirrors.values():
            m.writeback()
        device.now_ns = now
        if context.acts_per_window:
            stats.acts += context.acts_per_window * span
            stats.pres += context.acts_per_window * span
        if segment.has_ref:
            stats.refs += span
            stats.trr_victim_refreshes += trr_refreshes
            slots = span * per_ref
            tail = np.arange(max(0, slots - rows_total), slots,
                             dtype=np.int64)
            ref_t = np.asarray(ref_starts, dtype=np.float64)
            ref_times[(pointer + tail) % rows_total] = ref_t[tail // per_ref]
            device._ref_pointer[context.pc_key] = \
                (pointer + slots) % rows_total
