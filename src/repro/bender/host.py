"""Host-side session: the PCIe link between test programs and the device.

In the paper's setup a host machine executes test programs on the FPGA
board over PCIe (Fig. 2).  :class:`BenderSession` plays that role: it owns
one simulated HBM2 stack, runs programs through the interpreter, exposes
the chip's reverse-engineered row mapping to routines that need physical
adjacency, and enforces the paper's methodology guard — experiments that
must stay within the 32 ms refresh window (Section 3.1) can assert it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bender.interpreter import ExecutionResult, Interpreter
from repro.bender.program import TestProgram
from repro.dram.batch import (RowBatchProfile, batch_enabled,
                              engine_supported)
from repro.dram.device import HBM2Stack
from repro.dram.geometry import RowAddress
from repro.dram.row_mapping import RowMapping


class RefreshWindowExceeded(Exception):
    """An experiment ran past the 32 ms no-refresh guarantee."""


class BenderSession:
    """One host <-> FPGA-board test session."""

    def __init__(self, device: HBM2Stack,
                 mapping: Optional[RowMapping] = None) -> None:
        self.interpreter = Interpreter(device)
        # The interpreter wraps the device in a FaultyStack when a fault
        # plan is active; adopt its view so direct row operations
        # (write_physical_row & co.) run under the same chaos.  The
        # compiled executor shares the exact same (possibly wrapped)
        # device, so both engines see one command counter and clock.
        self.device = self.interpreter.device
        from repro.bender.compile import PlanExecutor

        self.executor = PlanExecutor(self.device)
        #: The logical-to-physical mapping the routines should use for
        #: adjacency.  ``None`` until reverse engineering recovers it (or
        #: the caller injects ground truth for speed).
        self.mapping = mapping
        self._window_start_ns: Optional[float] = None

    # -- program execution ----------------------------------------------

    def run(self, program: TestProgram) -> ExecutionResult:
        """Execute a test program on the device.

        Programs compile to epoch-plan segments and run on the batched
        executor (:mod:`repro.bender.compile`) unless the
        ``HBMSIM_BATCH`` escape hatch forces the scalar interpreter —
        both paths are bit-identical by the compiler's contract, so the
        flag only selects an engine, never a result.
        """
        if batch_enabled():
            return self.executor.run(program)
        return self.interpreter.run(program)

    # -- refresh-window bookkeeping ---------------------------------------

    def begin_refresh_window(self) -> None:
        """Mark the start of a no-refresh experiment (rows just written)."""
        self._window_start_ns = self.device.now_ns

    def assert_within_refresh_window(self) -> None:
        """Raise if the current experiment exceeded tREFW (Section 3.1)."""
        if self._window_start_ns is None:
            raise RuntimeError("begin_refresh_window() was never called")
        elapsed = self.device.now_ns - self._window_start_ns
        if elapsed > self.device.timings.t_refw:
            raise RefreshWindowExceeded(
                f"experiment ran {elapsed / 1.0e6:.2f} ms, beyond the "
                f"{self.device.timings.t_refw / 1.0e6:.0f} ms window")

    # -- physical addressing ----------------------------------------------

    def use_mapping(self, mapping: RowMapping) -> None:
        """Install the recovered logical-to-physical mapping."""
        self.mapping = mapping

    def logical_of_physical(self, address: RowAddress) -> RowAddress:
        """Logical address of a physical row (requires a mapping)."""
        return address.with_row(self._mapping().to_logical(address.row))

    def physical_of_logical(self, address: RowAddress) -> RowAddress:
        """Physical address of a logical row (requires a mapping)."""
        return address.with_row(self._mapping().to_physical(address.row))

    def aggressors_of(self, victim_physical: RowAddress):
        """Logical addresses of the two physical neighbors of a victim.

        This is the double-sided aggressor pair the paper's access pattern
        activates (Section 3.1).
        """
        mapping = self._mapping()
        rows = self.device.geometry.rows
        aggressors = []
        for offset in (-1, 1):
            physical = victim_physical.row + offset
            if 0 <= physical < rows:
                aggressors.append(
                    victim_physical.with_row(mapping.to_logical(physical)))
        return aggressors

    def _mapping(self) -> RowMapping:
        if self.mapping is None:
            raise RuntimeError(
                "row mapping unknown; run mapping reverse engineering "
                "first or inject ground truth via use_mapping()")
        return self.mapping

    # -- convenience row operations ---------------------------------------

    def write_physical_row(self, physical: RowAddress,
                           data: np.ndarray) -> None:
        """Write a row addressed physically (mapping applied)."""
        self.device.write_row(self.logical_of_physical(physical), data)

    def read_physical_row(self, physical: RowAddress) -> np.ndarray:
        """Read a row addressed physically (mapping applied)."""
        return self.device.read_row(self.logical_of_physical(physical))

    # -- batched row-population measurement -------------------------------

    def batching_active(self) -> bool:
        """Whether batched measurement may replace the scalar path here.

        False when the ``HBMSIM_BATCH`` escape hatch disables it or the
        device is a subclass the closed-form engine cannot model.  The
        callers (the HC_first row search, the TRR-bypass attack) still
        take their per-row path on a ``FaultyStack``-wrapped device:
        under a fault plan, programs batch in the compiled executor,
        whose ``compile.dirty_window_mask`` replays only fault-hit
        windows per-command.  TRR-enabled devices batch fine: the
        engine mirrors the activation stream into the TRR sampler.
        """
        return batch_enabled() and engine_supported(self.device)

    def profile_rows(self, addresses, pattern,
                     radius: int = 8) -> RowBatchProfile:
        """Batched fault-physics profile of physical ``addresses``.

        The returned :class:`~repro.dram.batch.RowBatchProfile` evaluates
        hammer schedules against the whole batch without issuing
        commands.  Callers must check :meth:`batching_active` first; the
        profile constructor rejects unsupported devices.
        """
        return RowBatchProfile(self.device, addresses, pattern,
                               radius=radius)
