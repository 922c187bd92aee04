"""Deterministic fault injection around an :class:`HBM2Stack`.

:class:`FaultyStack` wraps a device and perturbs its command interface
the way a real FPGA test platform misbehaves during a multi-hour
campaign:

- **RD interface bit errors** — bits flip on the bus, not in the array
  (re-reading the row returns clean data unless it flips again),
- **dropped commands** — ACT/PRE/WR/REF/WAIT silently lost,
- **ghost commands** — PRE/REF executed twice (bus glitch replay),
- **ACT timing jitter** — the aggressor on-time of ACT/HAMMER cycles
  stretches by a deterministic jitter, perturbing RowPress-style
  disturbance accounting,
- **stuck-at cells** — per-row readout bits pinned to fixed values,
- **platform stalls** — real wall-clock sleeps (to trip runner
  timeouts),
- **hangs** — the board stops responding:
  :class:`~repro.errors.PlatformHangError`.

Every decision derives from ``(plan.seed, fault tag, command counter)``
via the splitmix64 chain of :mod:`repro.dram.seeding`, so the same plan
over the same command stream yields a byte-identical fault schedule
(assert with :meth:`FaultyStack.schedule_digest`).  The wrapper keeps
the full device surface available through delegation, so routines,
sessions, and the interpreter use it as a drop-in device.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import (Any, Callable, Deque, Dict, Iterable, List, Optional,
                    Tuple)

import numpy as np

from repro.dram.commands import Command, CommandKind
from repro.dram.device import HBM2Stack, _xor_bits
from repro.dram.geometry import RowAddress
from repro.dram.seeding import generator_for, uniform_for
from repro.errors import PlatformHangError
from repro.faults.plan import (DROPPABLE, GHOSTABLE, TAG_DROP, TAG_GHOST,
                               TAG_HANG, TAG_JITTER, TAG_RDFLIP, TAG_STALL,
                               TAG_STUCK, CommandFaults, FaultPlan)

#: Exit code used when a worker-level crash fault kills the process.
CRASH_EXIT_CODE = 97

#: Width of the aligned counter windows a :class:`_Schedule` classifies:
#: window ``k`` holds counters ``k*W + 1 .. (k+1)*W``.
_WINDOW = 8192

#: The next faulted counter of a command class that never faults.
_NEVER = 1 << 63


class _Schedule:
    """The faulted counters of one command class, ahead of the counter.

    A fault draw is a pure function of the counter, so ``faulted`` (the
    plan's fault rule over an index array, or ``None`` for a class that
    cannot fault) classifies the class's counters window by window, each
    window once.  Only the faulted counters are kept.

    ``start`` is the counter of the last :meth:`settle` and ``next``
    the first faulted counter from it on, or the first counter past the
    classified windows: the counters ``start .. next - 1`` are clean,
    so a reader at a counter in that run needs no more than a compare.
    """

    __slots__ = ("start", "next", "_faulted", "_ahead", "_through")

    def __init__(self, faulted: Optional[Callable[[np.ndarray],
                                                  np.ndarray]]) -> None:
        self._faulted = faulted
        self._ahead: Deque[int] = deque()
        #: The last counter of the classified windows.
        self._through = 0
        self.start = 1
        self.next = _NEVER if faulted is None else 1

    def clean(self, index: int) -> bool:
        """Whether counter ``index`` draws no fault of this class."""
        return self.start <= index < self.next \
            or index < self.settle(index, index)

    def settle(self, index: int, stop: int) -> int:
        """The first faulted counter at or after ``index``; a value past
        ``stop`` means ``index .. stop`` are all clean.

        Classifies the windows from the one holding ``index`` through
        the one holding ``stop`` only when no faulted counter is already
        known, and never a window twice; a window the counter jumped
        past is never classified.  A counter before ``start`` (only a
        caller that moves the counter back asks for one) starts the
        schedule over.
        """
        if self._faulted is None:
            return _NEVER
        ahead = self._ahead
        if index < self.start:
            ahead.clear()
            self._through = 0
        self.start = index
        while ahead and ahead[0] < index:
            ahead.popleft()
        if not ahead and self._through < stop:
            first = max(self._through, (index - 1) // _WINDOW * _WINDOW)
            last = -(-stop // _WINDOW) * _WINDOW
            indices = np.arange(first + 1, last + 1, dtype=np.int64)
            hits = indices[self._faulted(indices)]
            ahead.extend(hits[hits >= index].tolist())
            self._through = last
        self.next = ahead[0] if ahead else self._through + 1
        return self.next


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, in command order."""

    index: int      #: command counter value when the fault fired
    fault: str      #: "stall" | "hang" | "drop" | "ghost" | "jitter" |
                    #: "rd-flip" | "stuck"
    command: str    #: command kind the fault applied to
    detail: Tuple[int, ...] = ()

    def __str__(self) -> str:
        suffix = f" {list(self.detail)}" if self.detail else ""
        return f"#{self.index} {self.fault} on {self.command}{suffix}"


class FaultyStack:
    """Chaos wrapper: an :class:`HBM2Stack` behind a glitchy platform.

    Delegates everything it does not intercept, so it drops into any
    code that expects a device.  The wrapped device's *internal*
    composition (e.g. ``read_row`` issuing its own ACT/PRE) is not
    re-intercepted: one host-visible operation makes one set of fault
    decisions, which keeps the schedule aligned with the command stream
    a real platform sees.
    """

    def __init__(self, device: HBM2Stack, plan: FaultPlan) -> None:
        if isinstance(device, FaultyStack):
            device = device.wrapped
        self.wrapped = device
        self.plan = plan
        self.events: List[FaultEvent] = []
        self._counter = 0
        #: The fault schedule: a HAMMER's faults (:meth:`clean_hammer`),
        #: a REF's (:meth:`clean_ref_prefix`) and an ACT or HAMMER's
        #: jitter (:meth:`_jitter_ns`).
        hammer_faults = plan.kind_faults("HAMMER")
        self._hammers = self._schedule("HAMMER", CommandFaults.any,
                                       hammer_faults)
        self._refs = self._schedule("REF", CommandFaults.any,
                                    plan.kind_faults("REF"))
        self._jitters = self._schedule("HAMMER", attrgetter("jitter"),
                                       "jitter" in hammer_faults)
        self._stuck_cache: Dict[Tuple[int, int, int, int],
                                Optional[Tuple[np.ndarray, np.ndarray]]] = {}

    def __getattr__(self, name: str) -> Any:
        return getattr(self.wrapped, name)

    # -- fault schedule inspection ---------------------------------------

    def schedule_digest(self) -> str:
        """SHA-256 over the injected fault schedule (order-sensitive)."""
        digest = hashlib.sha256()
        for event in self.events:
            digest.update(repr((event.index, event.fault, event.command,
                                event.detail)).encode("utf-8"))
        return digest.hexdigest()

    # -- decision machinery ----------------------------------------------

    def _draw(self, tag: int, index: int) -> float:
        return uniform_for(self.plan.seed, tag, index)

    def _log(self, index: int, fault: str, command: str,
             detail: Tuple[int, ...] = ()) -> None:
        self.events.append(FaultEvent(index, fault, command, detail))

    def _platform(self, command: str) -> Tuple[int, Optional[str]]:
        """Advance the command counter and fire platform-level faults.

        Returns ``(index, action)`` where action is ``"drop"``,
        ``"ghost"`` or ``None``.  Raises on an injected hang.
        """
        self._counter += 1
        index = self._counter
        plan = self.plan
        if plan.stall_rate and self._draw(TAG_STALL, index) \
                < plan.stall_rate:
            self._log(index, "stall", command)
            time.sleep(plan.stall_seconds)
        if plan.hang_rate and self._draw(TAG_HANG, index) < plan.hang_rate:
            self._log(index, "hang", command)
            raise PlatformHangError(
                f"injected platform hang at command #{index} ({command})")
        if command in DROPPABLE and plan.drop_rate \
                and self._draw(TAG_DROP, index) < plan.drop_rate:
            self._log(index, "drop", command)
            return index, "drop"
        if command in GHOSTABLE and plan.ghost_rate \
                and self._draw(TAG_GHOST, index) < plan.ghost_rate:
            self._log(index, "ghost", command)
            return index, "ghost"
        return index, None

    def _schedule(self, kind: str,
                  mask: Callable[[CommandFaults], np.ndarray],
                  enabled: Any) -> _Schedule:
        """A :class:`_Schedule` of the counters where ``mask`` of the
        plan's fault rule for ``kind`` fires (never, unless
        ``enabled``)."""
        plan = self.plan
        return _Schedule((lambda indices: mask(plan.command_faults(
            kind, indices))) if enabled else None)

    def _jitter_ns(self, index: int, command: str) -> float:
        """Deterministic ACT-interval jitter (0.0 when the fault misses).

        Only a counter the jitter schedule marks as a hit takes the
        scalar magnitude draw (the draw is the same for an ACT as for
        a HAMMER).
        """
        if self._jitters.clean(index):
            return 0.0
        plan = self.plan
        fraction = uniform_for(plan.seed, TAG_JITTER, index, 1)
        jitter = plan.act_jitter_ns * fraction
        self._log(index, "jitter", command, (int(round(jitter * 1000)),))
        return jitter

    def clean_hammer(self) -> bool:
        """Whether a HAMMER at the next counter draws no fault.

        A HAMMER can take a stall, a hang or a jitter (it is neither
        droppable nor ghostable).  A clean one is exactly the wrapped
        device's ``hammer`` plus one counter step, which lets a stream
        replay skip this layer (see
        :func:`repro.defenses.base.replay_hammer_stream`).  Issues
        nothing.
        """
        return self._hammers.clean(self._counter + 1)

    def take_clean_hammer(self) -> bool:
        """:meth:`clean_hammer`, and if so take its counter: the caller
        then applies the HAMMER below this layer."""
        index = self._counter + 1
        if self._hammers.clean(index):
            self._counter = index
            return True
        return False

    # -- intercepted command interface ------------------------------------

    def execute(self, command: Command) -> Optional[np.ndarray]:
        """Execute one command under the fault plan (RD returns data)."""
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
        """Execute a command sequence through the fault layer."""
        return [self.execute(command) for command in commands]

    def wait(self, duration_ns: float) -> None:
        _, action = self._platform("WAIT")
        if action == "drop":
            return None  # the platform lost the wait: time not advanced
        return self.wrapped.wait(duration_ns)

    def activate(self, address: RowAddress) -> None:
        index, action = self._platform("ACT")
        jitter = self._jitter_ns(index, "ACT")
        if jitter:
            self.wrapped.wait(jitter)
        if action == "drop":
            return None
        return self.wrapped.activate(address)

    def precharge(self, channel: int, pseudo_channel: int,
                  bank_index: int) -> None:
        _, action = self._platform("PRE")
        if action == "drop":
            return None
        result = self.wrapped.precharge(channel, pseudo_channel, bank_index)
        if action == "ghost":
            self.wrapped.precharge(channel, pseudo_channel, bank_index)
        return result

    def refresh(self, channel: int, pseudo_channel: int) -> None:
        _, action = self._platform("REF")
        if action == "drop":
            return None
        result = self.wrapped.refresh(channel, pseudo_channel)
        if action == "ghost":
            self.wrapped.refresh(channel, pseudo_channel)
        return result

    def refresh_burst(self, channel: int, pseudo_channel: int,
                      count: int) -> None:
        """``count`` REFs, bit-identical to ``count`` :meth:`refresh`.

        Clean runs of REF counters go to the wrapped device's burst in
        one call (counter advanced by the same amount); each faulted
        counter — stall, hang, drop or ghost — steps through the scalar
        :meth:`refresh`, so events, clock and counter follow the fault
        schedule exactly.  Defined here rather than reached through
        ``__getattr__``, which would skip every fault draw.
        """
        remaining = int(count)
        while remaining > 0:
            clean = self.clean_ref_prefix(remaining)
            if clean:
                self.wrapped.refresh_burst(channel, pseudo_channel, clean)
                self._counter += clean
                remaining -= clean
            if remaining:
                self.refresh(channel, pseudo_channel)
                remaining -= 1

    def clean_ref_prefix(self, limit: int) -> int:
        """How many of the next ``limit`` REFs draw no fault.

        Classifies the upcoming counters with the plan's fault rule
        (stall, hang, drop, ghost — the faults a REF can take) and
        returns the length of the leading clean run, capped at
        ``limit``.  Issues nothing.
        """
        counter = self._counter
        refs = self._refs
        first = refs.next
        if counter + 1 < refs.start or first <= counter + limit:
            first = refs.settle(counter + 1, counter + limit)
        return min(first - counter - 1, limit)

    def take_clean_ref(self) -> bool:
        """Whether the next REF draws no fault, and if so take its
        counter: the caller then issues the REF below this layer."""
        index = self._counter + 1
        if self._refs.clean(index):
            self._counter = index
            return True
        return False

    def write_row(self, address: RowAddress, data: np.ndarray) -> None:
        _, action = self._platform("WR")
        if action == "drop":
            return None
        return self.wrapped.write_row(address, data)

    def hammer(self, address: RowAddress, count: int,
               t_on: Optional[float] = None) -> None:
        index, _ = self._platform("HAMMER")
        jitter = self._jitter_ns(index, "HAMMER")
        if jitter:
            base = self.wrapped.timings.t_ras if t_on is None else t_on
            t_on = base + jitter
        return self.wrapped.hammer(address, count, t_on)

    def read_row(self, address: RowAddress) -> np.ndarray:
        index, _ = self._platform("RD")
        data = self.wrapped.read_row(address)
        return self.apply_read_faults(address, data, index)

    # -- batch-executor hooks ----------------------------------------------

    def advance_counter(self, count: int) -> int:
        """Skip ``count`` command slots whose fault draws are known misses.

        The batched executors classify future command counters with the
        plan's fault rule; a span where *no* draw hits is
        executed on the fast engine and its counters consumed here in
        one step, keeping the schedule aligned with the command stream
        a scalar replay would see.  Returns the new counter value.
        """
        self._counter += count
        return self._counter

    def apply_read_faults(self, address: RowAddress, data: np.ndarray,
                          index: int) -> np.ndarray:
        """Data-path faults (stuck cells, then RD bit errors) for the
        read at command counter ``index``, logging events in order.

        ``read_row`` uses this after every wrapped read; the batched
        session measurement calls it directly on engine-computed row
        images at the read's statically known counter.
        """
        data = self._apply_stuck_cells(address, data, index)
        return self._apply_read_flips(data, index)

    # -- data-path faults --------------------------------------------------

    def _apply_read_flips(self, data: np.ndarray, index: int) -> np.ndarray:
        plan = self.plan
        if not plan.read_flip_rate \
                or self._draw(TAG_RDFLIP, index) >= plan.read_flip_rate:
            return data
        positions = plan.read_flip_positions(index, data.size * 8)
        data = data.copy()
        _xor_bits(data, positions)
        self._log(index, "rd-flip", "RD", tuple(int(p) for p in positions))
        return data

    def _stuck_bits_for(self, address: RowAddress) \
            -> Optional[Tuple[np.ndarray, np.ndarray]]:
        key = (address.channel, address.pseudo_channel, address.bank,
               address.row)
        if key in self._stuck_cache:
            return self._stuck_cache[key]
        plan = self.plan
        stuck: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if plan.stuck_row_rate and uniform_for(
                plan.seed, TAG_STUCK, *key) < plan.stuck_row_rate:
            rng = generator_for(plan.seed, TAG_STUCK, *key, 1)
            count = 1 + int(rng.integers(plan.stuck_bits_per_row))
            row_bits = self.wrapped.geometry.row_bits
            positions = np.unique(rng.integers(row_bits, size=count))
            values = rng.integers(2, size=positions.size).astype(np.uint8)
            stuck = (positions.astype(np.int64), values)
        self._stuck_cache[key] = stuck
        return stuck

    def _apply_stuck_cells(self, address: RowAddress, data: np.ndarray,
                           index: int) -> np.ndarray:
        stuck = self._stuck_bits_for(address)
        if stuck is None:
            return data
        positions, values = stuck
        data = data.copy()
        byte_index = positions // 8
        bit_in_byte = (7 - positions % 8).astype(np.uint8)
        mask = (np.uint8(1) << bit_in_byte)
        # Clear the stuck bits, then OR in the stuck values.
        np.bitwise_and.at(data, byte_index, np.uint8(0xFF) ^ mask)
        np.bitwise_or.at(data, byte_index,
                         (values << bit_in_byte).astype(np.uint8))
        self._log(index, "stuck", "RD", tuple(int(p) for p in positions))
        return data


def wrap_device(device: HBM2Stack,
                plan: Optional[FaultPlan]) -> HBM2Stack:
    """Wrap ``device`` when ``plan`` injects device-level faults.

    Returns the device unchanged for ``None`` plans, plans with only
    worker-level knobs, or devices already wrapped — so the fault-free
    path stays bit-identical to a build without this layer.
    """
    if plan is None or not plan.device_faults_enabled():
        return device
    if isinstance(device, FaultyStack):
        return device
    return FaultyStack(device, plan)


def apply_worker_faults(plan: Optional[FaultPlan], experiment_id: str,
                        attempt: int) -> None:
    """Fire worker-level faults for one experiment attempt.

    ``stall_experiments`` sleeps (pushing the attempt over a runner
    timeout); ``crash_once`` hard-kills the process on the first
    attempt, simulating a board/host crash the runner must survive.
    """
    if plan is None:
        return
    stall = plan.stall_experiments.get(experiment_id, 0.0)
    if stall > 0:
        time.sleep(stall)
    if experiment_id in plan.crash_once and attempt == 1:
        os._exit(CRASH_EXIT_CODE)
