"""Memory-controller-side RowHammer mitigation framework.

Section 8.2: "HBM2 memory controller designers likely need to implement
other read disturbance defense mechanisms in their designs because
designers cannot rely on the undocumented TRR mechanism."  This package
provides that layer: a :class:`MitigationController` observes the
activation stream the way a memory controller would and issues
*preventive refreshes* (activate + precharge on the would-be victims),
and :class:`DefendedDevice` wires a controller in front of any simulated
HBM2 stack so every attack in the repository can be replayed against it.

Controllers operate on logical addresses and translate to physical
adjacency through a *believed* row mapping.  Vendors hide their internal
topologies; passing the wrong mapping models exactly the cost of that
secrecy (the `test_ablation_defenses` benchmark quantifies it).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.dram.batch import batch_enabled
from repro.dram.device import HammerPlan, HBM2Stack
from repro.dram.commands import Command, CommandKind
from repro.dram.geometry import RowAddress
from repro.dram.row_mapping import IdentityMapping, RowMapping
from repro.faults.injector import FaultyStack


@dataclass
class ControllerStats:
    """Bookkeeping of a mitigation controller."""

    observed_activations: int = 0
    preventive_refreshes: int = 0
    throttle_delay_ns: float = 0.0

    def refresh_overhead(self) -> float:
        """Preventive refreshes per observed activation."""
        if self.observed_activations == 0:
            return 0.0
        return self.preventive_refreshes / self.observed_activations


class MitigationController(abc.ABC):
    """Observes activations; decides which victim rows to refresh.

    Subclasses implement :meth:`observe`.  The believed mapping defaults
    to identity (what a controller without vendor documentation must
    assume).
    """

    def __init__(self, rows: int = 16384,
                 believed_mapping: Optional[RowMapping] = None) -> None:
        self.rows = rows
        self.believed_mapping = believed_mapping or IdentityMapping(rows)
        self.stats = ControllerStats()

    @abc.abstractmethod
    def observe(self, address: RowAddress, count: int,
                t_on: Optional[float], now_ns: float) -> List[int]:
        """Process ``count`` activations of a logical row.

        Returns the *logical* rows to preventively refresh now.
        """

    def victims_of(self, logical_row: int) -> List[int]:
        """Believed logical addresses of the row's physical neighbors."""
        return self.believed_mapping.physical_neighbors(logical_row)

    def throttle_ns(self, address: RowAddress, count: int,
                    t_on: Optional[float], now_ns: float) -> float:
        """Extra delay to impose before the activations (BlockHammer)."""
        return 0.0

    def on_window_rollover(self, now_ns: float) -> None:
        """Hook invoked when a refresh window (tREFW) elapses."""


class DefendedDevice:
    """An HBM2 stack fronted by a mitigation controller.

    Quacks like :class:`~repro.dram.device.HBM2Stack` for the SoftBender
    session/interpreter (``execute``, row operations, ``geometry`` ...),
    so any attack program runs unmodified against a defended system.
    Preventive refreshes go through the real command path — they cost
    time and, like any activation, disturb their own neighbors.
    """

    def __init__(self, device: HBM2Stack,
                 controller: MitigationController) -> None:
        self.device = device
        self.controller = controller
        self._window_start_ns = device.now_ns

    # -- attribute passthrough -------------------------------------------

    def __getattr__(self, name):
        return getattr(self.device, name)

    # -- command interface -------------------------------------------------

    def execute(self, command: Command):
        if command.kind is CommandKind.HAMMER:
            address = RowAddress(command.channel, command.pseudo_channel,
                                 command.bank, command.row)
            return self.hammer(address, command.count, command.t_on)
        if command.kind is CommandKind.ACT:
            address = RowAddress(command.channel, command.pseudo_channel,
                                 command.bank, command.row)
            return self.activate(address)
        return self.device.execute(command)

    def run(self, commands) -> list:
        return [self.execute(command) for command in commands]

    # -- defended row operations --------------------------------------------

    def hammer(self, address: RowAddress, count: int,
               t_on: Optional[float] = None) -> None:
        self._admit(address, count, t_on)
        self.device.hammer(address, count, t_on)
        self._mitigate(address, count, t_on)

    def apply_hammer(self, plan: HammerPlan) -> None:
        """:meth:`hammer` of a plan resolved by the device's
        :meth:`~repro.dram.device.HBM2Stack.hammer_plan`."""
        self._admit(plan.address, plan.count, plan.t_on)
        self.device.apply_hammer(plan)
        self._mitigate(plan.address, plan.count, plan.t_on)

    def activate(self, address: RowAddress) -> None:
        self._admit(address, 1, None)
        self.device.activate(address)
        self._mitigate(address, 1, None)

    def read_row(self, address: RowAddress):
        return self.device.read_row(address)

    def write_row(self, address: RowAddress, data) -> None:
        self.device.write_row(address, data)

    def refresh(self, channel: int, pseudo_channel: int) -> None:
        self._check_rollover()
        self.device.refresh(channel, pseudo_channel)

    def refresh_burst(self, channel: int, pseudo_channel: int,
                      count: int) -> None:
        """``count`` REFs, bit-identical to ``count`` :meth:`refresh`.

        The scalar path re-checks the tREFW rollover before every REF;
        a burst must not overshoot that boundary, or the controller's
        :meth:`~MitigationController.on_window_rollover` would fire at a
        later ``now_ns`` than in the sequential replay.  Each chunk is
        therefore sized to stop strictly short of the window edge, and
        the check re-runs between chunks — the rollover fires at exactly
        the REF index (hence exactly the clock value) the scalar loop
        would have produced.
        """
        timings = self.device.timings
        remaining = int(count)
        while remaining > 0:
            self._check_rollover()
            elapsed = self.device.now_ns - self._window_start_ns
            headroom = int((timings.t_refw - elapsed) / timings.t_rfc) - 2
            chunk = min(remaining, max(1, headroom))
            self.device.refresh_burst(channel, pseudo_channel, chunk)
            remaining -= chunk

    def wait(self, duration_ns: float) -> None:
        self.device.wait(duration_ns)

    # -- internals ----------------------------------------------------------

    def _admit(self, address: RowAddress, count: int,
               t_on: Optional[float]) -> None:
        """What precedes activations: the tREFW rollover check, then the
        controller's throttle delay."""
        self._check_rollover()
        delay = self.controller.throttle_ns(address, count, t_on,
                                            self.device.now_ns)
        if delay > 0:
            self.device.wait(delay)
            self.controller.stats.throttle_delay_ns += delay

    def _mitigate(self, address: RowAddress, count: int,
                  t_on: Optional[float]) -> None:
        controller = self.controller
        controller.stats.observed_activations += count
        victims = controller.observe(address, count, t_on,
                                     self.device.now_ns)
        for logical_row in victims:
            victim = address.with_row(logical_row)
            bank = self.device._banks.get(victim.bank_key)
            if bank is not None and bank.open_row is not None:
                continue  # cannot interleave while the bank is open
            self.device.activate(victim)
            self.device.precharge(victim.channel, victim.pseudo_channel,
                                  victim.bank)
            controller.stats.preventive_refreshes += 1

    def _check_rollover(self) -> None:
        window = self.device.timings.t_refw
        if self.device.now_ns - self._window_start_ns >= window:
            self._window_start_ns = self.device.now_ns
            self.controller.on_window_rollover(self.device.now_ns)


def catch_up_refreshes(device, channel: int, pseudo_channel: int,
                       next_ref_ns: float, t_refi: float) -> float:
    """Issue the REFs a tREFI schedule owes; return the next deadline.

    The reference semantics is a memory controller's per-REF loop: while
    ``device.now_ns >= next_ref_ns``, one REF and ``next_ref_ns +=
    t_refi``.  ``HBMSIM_BATCH=0`` runs exactly that loop.  The batched
    path pre-simulates it (a clean REF advances the clock by exactly
    tRFC, see :func:`_owed_refs`), bursts the leading run of owed REFs
    the device reports clean
    (:meth:`~repro.dram.device.HBM2Stack.clean_ref_prefix`), steps the
    first faulted REF through the scalar ``refresh`` and re-checks: a
    dropped REF advances the clock by 0 and a ghost REF by 2 tRFC, so
    the REF count follows the fault schedule, bit-identically to the
    loop.
    """
    clock = _layers(device)[2]  # reads the clock past the wrappers
    if clock.now_ns < next_ref_ns:
        return next_ref_ns
    if not batch_enabled():
        while clock.now_ns >= next_ref_ns:
            device.refresh(channel, pseudo_channel)
            next_ref_ns += t_refi
        return next_ref_ns
    t_rfc = clock.timings.t_rfc
    while clock.now_ns >= next_ref_ns:
        owed, deadlines = _owed_refs(clock.now_ns, next_ref_ns, t_rfc,
                                     t_refi)
        clean = device.clean_ref_prefix(owed)
        if clean:
            STREAM_TALLY.ref_bursts += 1
            device.refresh_burst(channel, pseudo_channel, clean)
        if clean < owed:
            device.refresh(channel, pseudo_channel)
            clean += 1
        next_ref_ns = deadlines.item(clean)
    return next_ref_ns


def _layers(stack):
    """``(fault layer or None, the layer below it, the HBM2Stack)`` of
    a stack built as FaultyStack -> DefendedDevice -> HBM2Stack, any
    layer optional.  A subclassed layer is not looked through."""
    faulty = stack if type(stack) is FaultyStack else None
    inner = stack.wrapped if faulty is not None else stack
    device = inner.device if type(inner) is DefendedDevice else inner
    return faulty, inner, device


def _owed_refs(now_ns: float, next_ref_ns: float, t_rfc: float,
               t_refi: float) -> Tuple[int, np.ndarray]:
    """How many REFs a clean catch-up issues, and the deadlines it
    passes: ``deadlines[k]`` is ``next_ref_ns`` after ``k`` REFs.

    The per-REF loop advances a simulated clock by ``t_rfc`` and the
    deadline by ``t_refi`` until the clock is short of the deadline.
    ``np.add.accumulate`` adds strictly in sequence, so both running
    sums here are the loop's floats bit for bit, and the first step the
    clock falls short is the loop's REF count.  The window is sized
    from the gap the loop closes each step, with slack, and doubles if
    rounding ever leaves it short.
    """
    span = int((now_ns - next_ref_ns) / (t_refi - t_rfc)) + 3
    while True:
        steps = np.empty((2, span + 1))
        steps[:, 1:] = ((t_rfc,), (t_refi,))
        steps[:, 0] = now_ns, next_ref_ns
        clock, deadlines = np.add.accumulate(steps, axis=1)
        behind = clock >= deadlines
        if not behind.item(span):
            return int(behind.argmin()), deadlines
        span *= 2


#: One hammer of a stream step: ``(logical address, count, t_on)``.
Hammer = Tuple[RowAddress, int, Optional[float]]
#: A stream step resolved for the fast path: ``(None, plans)``, or
#: ``(step, None)`` where the step must take the scalar path.
Resolved = Tuple[Optional[Sequence[Hammer]],
                 Optional[Tuple[HammerPlan, ...]]]


@dataclass
class StreamTally:
    """Where :func:`replay_hammer_stream` sent its commands.

    ``plans`` counts hammers resolved (a plan serves every repeat of its
    hammer).  ``refs`` counts served REF deadlines and ``ref_bursts``
    the REF bursts that served catch-ups.  The ``scalar_*`` fields count
    the hammers and REFs that took the full scalar path through every
    device layer: fault-hit commands, and whole streams on a device the
    fast path does not model (``HBMSIM_BATCH=0``, a subclass, tracing).
    """

    hammers: int = 0
    scalar_hammers: int = 0
    plans: int = 0
    refs: int = 0
    scalar_refs: int = 0
    ref_bursts: int = 0

    def reset(self) -> None:
        self.hammers = self.scalar_hammers = self.plans = 0
        self.refs = self.scalar_refs = self.ref_bursts = 0


#: Running totals over every :func:`replay_hammer_stream` call in this
#: process; tests and probes reset and read it.
STREAM_TALLY = StreamTally()


class HammerTable:
    """A stream of one-hammer steps on one bank, as rows and counts
    (each hammer with the default on-time, tRAS).

    Iterating yields the steps, ``((address, count, None),)`` in order:
    the reference loop's input.  On its fast path
    :func:`replay_hammer_stream` calls :meth:`resolve` instead, which
    resolves the stream's distinct ``(row, count)`` pairs in one
    :meth:`~repro.dram.device.HBM2Stack.hammer_plans` pass and replays
    entries from that table; no per-entry address or plan is built.
    """

    def __init__(self, channel: int, pseudo_channel: int, bank: int,
                 rows: Sequence[int], counts: Sequence[int]) -> None:
        self.channel = channel
        self.pseudo_channel = pseudo_channel
        self.bank = bank
        self.rows = np.asarray(rows, dtype=np.int64)
        self.counts = np.asarray(counts, dtype=np.int64)
        if self.rows.shape != self.counts.shape or self.rows.ndim != 1:
            raise ValueError("rows and counts must be equal-length 1-D")

    def __iter__(self) -> Iterator[Tuple[Hammer]]:
        for row, count in zip(self.rows.tolist(), self.counts.tolist()):
            yield ((self._address(row), count, None),)

    def _address(self, row: int) -> RowAddress:
        return RowAddress(self.channel, self.pseudo_channel, self.bank,
                          row)

    def resolve(self, device: HBM2Stack) -> Iterator[Resolved]:
        """Each entry resolved for :func:`replay_hammer_stream`."""
        if not self.rows.size:
            return iter(())
        # (row, count) -> one int64 key, bijectively.
        low = int(self.counts.min())
        keys = self.rows * (int(self.counts.max()) - low + 1) \
            + (self.counts - low)
        __, first, inverse = np.unique(keys, return_index=True,
                                       return_inverse=True)
        # One address per distinct row, shared by its pairs.
        rows, row_index = np.unique(self.rows[first], return_inverse=True)
        addresses = [self._address(row) for row in rows.tolist()]
        hammers = [addresses[index] for index in row_index.tolist()]
        counts = self.counts[first].tolist()
        plans = device.hammer_plans(hammers, counts)
        STREAM_TALLY.plans += len(plans)
        # Only an entry the scalar path must take needs its step.
        steps = [None if plan is not None
                 else ((address, count, None),)
                 for address, count, plan in zip(hammers, counts, plans)]
        inverse = inverse.tolist()
        return zip(map(steps.__getitem__, inverse),
                   zip(map(plans.__getitem__, inverse)))


def _step_plans(device: HBM2Stack, step: Sequence[Hammer]
                ) -> Optional[Tuple[HammerPlan, ...]]:
    """The step's hammer plans, or ``None`` when an entry must take the
    scalar path: a zero count (which still draws faults and consults
    the controller) or an address the scalar path rejects in order."""
    try:
        return tuple(device.hammer_plan(address, count, t_on)
                     for address, count, t_on in step)
    except ValueError:
        return None


def _resolve_steps(device: HBM2Stack, steps: Iterable[Sequence[Hammer]]
                   ) -> Iterator[Resolved]:
    """Each step with its plans, resolved once per distinct step object
    (an attack burst passes one step object over and over)."""
    resolved: object = None
    plans: Optional[Tuple[HammerPlan, ...]] = None
    for step in steps:
        if step is not resolved:
            resolved, plans = step, _step_plans(device, step)
            if plans is not None:
                STREAM_TALLY.plans += len(plans)
        yield (None, plans) if plans is not None else (step, None)


def replay_hammer_stream(stack, steps: Iterable[Sequence[Hammer]],
                         channel: int, pseudo_channel: int,
                         next_ref_ns: float, t_refi: float) -> float:
    """Issue hammer steps under a tREFI refresh schedule.

    A step is a sequence of ``(address, count, t_on)`` hammers, issued
    through ``stack.hammer``, followed by one
    :func:`catch_up_refreshes`.  Returns the next REF deadline.  That
    loop is the reference semantics; ``HBMSIM_BATCH=0``, a subclassed
    layer or a traced device runs it as written.

    The fast path is bit-identical to it.  It finds the
    :class:`~repro.faults.injector.FaultyStack`, :class:`DefendedDevice`
    and :class:`~repro.dram.device.HBM2Stack` layers once and resolves
    hammers into :class:`~repro.dram.device.HammerPlan` s once: a
    :class:`HammerTable` all at once, any other stream once per distinct
    step object.  Per hammer:

    - a counter the fault layer takes as a clean HAMMER
      (:meth:`~repro.faults.injector.FaultyStack.take_clean_hammer`,
      one compare against its fault schedule) applies the plan below
      the fault layer; the defended device's ``apply_hammer`` still
      makes every controller call (rollover, throttle, observe) in
      scalar order;
    - a fault-hit counter goes through ``FaultyStack.hammer``.

    A short catch-up issues its REFs one at a time: the device's own
    ``refresh`` (the rollover check plus ``HBM2Stack.refresh``) when the
    fault layer takes the REF counter as clean
    (:meth:`~repro.faults.injector.FaultyStack.take_clean_ref`),
    ``FaultyStack.refresh`` when it is not.  A
    catch-up three tREFI or more behind (a RowPress step, a throttle
    delay) goes to :func:`catch_up_refreshes`, which bursts it.
    """
    tally = STREAM_TALLY
    faulty, inner, device = _layers(stack)
    if not (batch_enabled() and type(device) is HBM2Stack
            and device._trace is None):
        for step in steps:
            tally.hammers += len(step)
            tally.scalar_hammers += len(step)
            for address, count, t_on in step:
                stack.hammer(address, count, t_on)
            if device.now_ns >= next_ref_ns:
                before = next_ref_ns
                next_ref_ns = catch_up_refreshes(
                    stack, channel, pseudo_channel, next_ref_ns, t_refi)
                served = round((next_ref_ns - before) / t_refi)
                tally.refs += served
                tally.scalar_refs += served
        return next_ref_ns
    resolved = (steps.resolve(device) if isinstance(steps, HammerTable)
                else _resolve_steps(device, steps))
    for step, plans in resolved:
        if step is not None:
            tally.hammers += len(step)
            tally.scalar_hammers += len(step)
            for address, count, t_on in step:
                stack.hammer(address, count, t_on)
        else:
            tally.hammers += len(plans)
            for plan in plans:
                if faulty is None or faulty.take_clean_hammer():
                    inner.apply_hammer(plan)
                else:
                    tally.scalar_hammers += 1
                    faulty.hammer(plan.address, plan.count, plan.t_on)
        if device.now_ns < next_ref_ns:
            continue
        before = next_ref_ns
        if device.now_ns - next_ref_ns >= 3 * t_refi:
            # A long catch-up (a RowPress step, a throttle delay) as
            # bursts.
            next_ref_ns = catch_up_refreshes(
                stack, channel, pseudo_channel, next_ref_ns, t_refi)
        while device.now_ns >= next_ref_ns:
            if faulty is None or faulty.take_clean_ref():
                inner.refresh(channel, pseudo_channel)
            else:
                tally.scalar_refs += 1
                faulty.refresh(channel, pseudo_channel)
            next_ref_ns += t_refi
        tally.refs += round((next_ref_ns - before) / t_refi)
    return next_ref_ns
