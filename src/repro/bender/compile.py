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
- an :class:`EpochSegment` replays the device's commit points, TRR
  victim refreshes, rolling-refresh sweeps and the float-accumulation
  order of the device clock, driving
  :meth:`~repro.dram.trr.TrrEngine.run_epochs` for the sampler — no
  per-command Python dispatch on the steady state, bit-identical
  results.  Row physics is never re-implemented here: hammers resolve
  through :meth:`~repro.dram.device.HBM2Stack.hammer_plan`, victim
  refreshes through the device's ``_units_by_distance`` and
  ``_subarray_reach``, and the device's own row states are restored by
  its ``_restore``,
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
from repro.dram.device import HBM2Stack, HammerPlan
from repro.dram.geometry import RowAddress
from repro.faults import FaultPlan, active_plan, wrap_device
from repro.faults.injector import FaultyStack

#: Loops shorter than this stay scalar (plan/schedule setup would cost
#: more than it saves; same threshold spirit as ``refresh_burst``).
MIN_EPOCH_REPEATS = 4

#: When more than this fraction of a segment's windows carry a fault
#: hit, the whole segment executes per-command: fragmented spans would
#: pay the span setup (TRR schedule, sweep table) repeatedly for little
#: batched work.
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


class _EpochContext:
    """Device-resolved static data of one epoch segment."""

    def __init__(self, device: HBM2Stack, segment: EpochSegment) -> None:
        self.device = device
        self.segment = segment
        self.pc_key = (segment.channel, segment.pseudo_channel)
        self.supported = True
        # Static op template: ("H", plan) / ("R", None) / ("W", pad).
        self.ops: List[Tuple[str, Any]] = []
        self.plans: List[HammerPlan] = []
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
            try:
                plan = device.hammer_plan(
                    RowAddress(command.channel, command.pseudo_channel,
                               command.bank, command.row),
                    command.count, command.t_on)
            except ValueError:
                self.supported = False
                return
            self.ops.append(("H", plan))
            self.plans.append(plan)
            self.epoch.setdefault(plan.physical.bank, []).append(
                (plan.physical.row, command.count))
            self.acts_per_window += command.count
        # Both hammers (``on_activate``) and REFs (``refresh``) need the
        # pseudo channel's TRR engine; a missing one raises scalar-side,
        # which the per-command fallback reproduces.
        if (segment.has_ref or self.plans) \
                and self.pc_key not in device._trr:
            self.supported = False
            return
        # Every hammered bank must be closed: the device would raise on
        # the first hammer, which the scalar fallback reproduces.
        for plan in self.plans:
            bank = device._banks.get(plan.physical.bank_key)
            if bank is not None and bank.open_row is not None:
                self.supported = False
                return
        #: Units one TRR victim refresh (one activation at tRAS) delivers
        #: by distance, as ``HBM2Stack.refresh`` disturbs.
        self._victim_units = device._units_by_distance(
            1, device.timings.t_ras)
        self._victim_reach: Dict[int, Tuple[Tuple[int, ...],
                                            Tuple[float, ...]]] = {}

    def victim_reach(self, row: int
                     ) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
        """Neighbor offsets and units of one TRR victim refresh of a
        physical row (cached)."""
        reach = self._victim_reach.get(row)
        if reach is None:
            reach = self._victim_reach[row] = self.device._subarray_reach(
                row, self._victim_units)
        return reach


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

        Works on the device's own row states at the scalar path's
        commit points: an activation (a hammer or a TRR victim refresh)
        restores its row with :meth:`~repro.dram.device.HBM2Stack._restore`
        and then adds its plan's units to the neighbors, and a REF runs
        its victim refreshes before its rolling sweeps.  The clock takes
        the same float adds in the same order.  What is batched is the
        schedule: the TRR sampler consumes whole epochs, and the rolling
        sweeps visit only rows that can be materialized during the span.
        """
        device = context.device
        segment = context.segment
        channel, pc = context.pc_key
        rows_total = device.geometry.rows
        t_rfc = device.timings.t_rfc
        restore = device._restore
        blank_row = device._blank_row
        ref_times = device._pc_ref_time[context.pc_key]
        last_swept = ref_times.item

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

        # Each row the span can touch is held once, as [state, bank rows,
        # row, address]: its _RowState, or None until a disturbance
        # materializes it with a blank row, as `_add_units` would.
        # Creating the bank dicts up front matches the scalar path at
        # the span's end, where the first activation has created them.
        held: Dict[Tuple[int, int], List[Any]] = {}

        def hold(bank: int, row: int) -> List[Any]:
            holder = held.get((bank, row))
            if holder is None:
                rows = device._rows.setdefault((channel, pc, bank), {})
                holder = held[(bank, row)] = [
                    rows.get(row), rows, row,
                    RowAddress(channel, pc, bank, row)]
            return holder

        def resolve(bank: int, row: int, offsets: Tuple[int, ...],
                    units: Tuple[float, ...]) -> Tuple[Any, Any]:
            """An activation's row and its neighbors' (holder, units)."""
            return hold(bank, row), [
                (hold(bank, row + offset), unit)
                for offset, unit in zip(offsets, units)]

        def activate(holder: List[Any], targets: List[Any],
                     now: float) -> int:
            """Restore a held row at ``now``, then disturb its
            neighbors; returns the bits latched."""
            state = holder[0]
            flips = 0 if state is None else restore(
                holder[3], state, now, last_swept(holder[2]))
            for target, unit in targets:
                state = target[0]
                if state is None:
                    state = target[0] = target[1][target[2]] = blank_row()
                state.acc_units += unit
            return flips

        ops: List[Tuple[str, Any, float]] = []
        for kind, payload in context.ops:
            if kind == "H":
                physical = payload.physical
                ops.append(("H", resolve(
                    physical.bank, physical.row, payload.offsets,
                    payload.units), payload.duration))
            elif kind == "R":
                ops.append(("R", None, 0.0))
            else:
                ops.append(("W", None, payload))
        victims: Dict[Tuple[int, int], Tuple[Any, Any]] = {}
        for window_victims in schedule.values():
            for bank, row in window_victims:
                if (bank, row) not in victims:
                    victims[(bank, row)] = resolve(
                        bank, row, *context.victim_reach(row))

        pointer = device._ref_pointer[context.pc_key]
        per_ref = device.rows_refreshed_per_ref
        #: REF index -> (slot in the REF, the swept row's holders).
        sweeps: Dict[int, List[Tuple[int, List[List[Any]]]]] = {}
        if segment.has_ref:
            # A rolling sweep restores every materialized row it reaches:
            # those materialized now and those the span may materialize.
            for key, rows in list(device._rows.items()):
                if key[:2] == context.pc_key:
                    for row in rows:
                        hold(key[2], row)
            by_row: Dict[int, List[List[Any]]] = {}
            for (__bank, row), holder in sorted(held.items()):
                by_row.setdefault(row, []).append(holder)
            slots = span * per_ref
            for row, holders in by_row.items():
                slot = (row - pointer) % rows_total
                while slot < slots:
                    sweeps.setdefault(slot // per_ref, []).append(
                        (slot % per_ref, holders))
                    slot += rows_total
            for events in sweeps.values():
                events.sort(key=lambda event: event[0])

        now = device.now_ns
        flips = 0
        trr_refreshes = 0
        ref_starts: List[float] = []
        for w in range(span):
            for kind, payload, duration in ops:
                if kind == "H":
                    flips += activate(*payload, now)
                    now += duration
                elif kind == "R":
                    window_victims = schedule.get(w + 1)
                    if window_victims:
                        for key in window_victims:
                            flips += activate(*victims[key], now)
                        trr_refreshes += len(window_victims)
                    ref_starts.append(now)
                    for __slot, holders in sweeps.get(w, ()):
                        ref_times[holders[0][2]] = now
                        for holder in holders:
                            state = holder[0]
                            if state is not None:
                                flips += restore(holder[3], state, now,
                                                 last_swept(holder[2]))
                    now += t_rfc
                else:
                    now += duration

        stats = device.stats
        device.now_ns = now
        stats.committed_bitflips += flips
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
