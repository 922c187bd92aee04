"""Benign-workload overhead measurement for mitigation controllers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.chips.profiles import ChipProfile
from repro.defenses.base import (DefendedDevice, HammerTable,
                                 MitigationController,
                                 replay_hammer_stream)
from repro.dram.geometry import RowAddress
from repro.dram.trr import TrrConfig
from repro.workloads.traces import AccessTrace, benign_trace


@dataclass(frozen=True)
class BenignOverheadReport:
    """What a defense costs a benign workload."""

    defense: str
    total_activations: int
    preventive_refreshes: int
    throttle_delay_ns: float
    corrupted_rows: int
    elapsed_ns: float

    @property
    def refreshes_per_kilo_act(self) -> float:
        return 1000.0 * self.preventive_refreshes \
            / max(1, self.total_activations)

    @property
    def slowdown_fraction(self) -> float:
        """Throttle delay relative to total execution time."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.throttle_delay_ns / self.elapsed_ns


def measure_benign_overhead(
        chip: ChipProfile,
        controller_factory: Callable[[], Optional[MitigationController]],
        defense_name: str,
        trace: Optional[AccessTrace] = None) -> BenignOverheadReport:
    """Replay a benign trace through a defended device.

    Periodic REFs are issued at the tREFI cadence (real controllers
    always do), and row integrity is spot-checked: a correct defense
    must never corrupt benign data.
    """
    if trace is None:
        trace = benign_trace()
    controller = controller_factory()
    device = chip.make_device(trr_config=TrrConfig(enabled=False))
    target = DefendedDevice(device, controller) \
        if controller is not None else device
    start_ns = device.now_ns
    t_refi = device.timings.t_refi
    replay_hammer_stream(
        target, HammerTable(trace.channel, trace.pseudo_channel,
                            trace.bank, *trace.columns()),
        trace.channel, trace.pseudo_channel, start_ns + t_refi, t_refi)
    # Integrity spot check: benign rows must read back what was written.
    corrupted = 0
    probe_rows = sorted({row for epoch in trace.epochs[:3]
                         for row, __ in epoch})[:16]
    image = np.full(chip.geometry.row_bytes, 0x3C, dtype=np.uint8)
    for row in probe_rows:
        address = RowAddress(trace.channel, trace.pseudo_channel,
                             trace.bank, row)
        target.write_row(address, image)
        if not np.array_equal(target.read_row(address), image):
            corrupted += 1
    stats = controller.stats if controller is not None else None
    return BenignOverheadReport(
        defense=defense_name,
        total_activations=trace.total_activations,
        preventive_refreshes=(stats.preventive_refreshes if stats
                              else 0),
        throttle_delay_ns=(stats.throttle_delay_ns if stats else 0.0),
        corrupted_rows=corrupted,
        elapsed_ns=device.now_ns - start_ns,
    )
