"""The ``HBMSIM_BATCH`` engine switch and the epoch-plan lowering.

:func:`batch_enabled` reads the one environment knob that selects an
execution engine.  Enabled (the default), test programs run on the
compiled :class:`~repro.bender.compile.PlanExecutor`, REF catch-ups
burst (:func:`repro.defenses.base.catch_up_refreshes`), defense hammer
streams resolve once per distinct hammer, and the Section 7 bypass
attack replays its victim epoch by epoch.  ``HBMSIM_BATCH=0`` (the
escape hatch) selects only the command-level oracles: the scalar
:class:`~repro.bender.interpreter.Interpreter`, per-REF catch-up, one
scalar hammer per defense step and the command-accurate attack.  Both choices return bit-identical results;
the closed-form analytic layer has one implementation and ignores the
knob.  HC_first is always searched per row, probe by probe
(:func:`repro.bender.routines.hcfirst.search_hc_first`).

The module also defines the **epoch plan** lowering used by the TRR-aware
executors: a hammer schedule between two REF commands, represented as
per-bank ordered ``(row, count)`` arrays (:class:`EpochPlan`).  The
array-form :meth:`repro.dram.trr.TrrEngine.run_epochs` consumes these
plans directly, which is what lets the Section 7 attack replay and the
REF-heavy defense workloads skip per-command execution entirely.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dram.timing import TimingParameters

_ENV_FLAG = "HBMSIM_BATCH"
_DISABLE_VALUES = frozenset({"0", "false", "no", "off"})
_ENABLE_VALUES = frozenset({"1", "true", "yes", "on", ""})
#: Unrecognized ``HBMSIM_BATCH`` values already warned about (warn once
#: per distinct value, not once per call — the flag is read on every
#: batching decision).
_WARNED_VALUES: set = set()


def batch_enabled() -> bool:
    """Whether batched execution is enabled (``HBMSIM_BATCH`` escape
    hatch; ``0/false/no/off`` disables, ``1/true/yes/on`` enables,
    default enabled).  Any other value warns once and keeps batching
    enabled — a typo like ``HBMSIM_BATCH=00`` must not silently select
    an engine the user did not ask for.
    """
    value = os.environ.get(_ENV_FLAG)
    if value is None:
        return True
    normalized = value.strip().lower()
    if normalized in _DISABLE_VALUES:
        return False
    if normalized not in _ENABLE_VALUES and value not in _WARNED_VALUES:
        _WARNED_VALUES.add(value)
        import warnings

        warnings.warn(
            f"unrecognized {_ENV_FLAG}={value!r}; expected one of "
            "0/false/no/off or 1/true/yes/on — batching stays enabled",
            RuntimeWarning, stacklevel=2)
    return True


@dataclass(frozen=True)
class EpochPlan:
    """One REF-to-REF run of activations, lowered to count arrays.

    A hammer schedule between two REF commands is a sequence of fused
    hammers: ``rows[i]`` receives ``counts[i]`` activations in bank
    ``banks[i]``, with entries listed in first-activation order within
    each bank (the contract of :meth:`repro.dram.trr.TrrEngine.
    note_window`).  Repeating the same plan every tREFI — exactly what
    the Section 7 bypass attack and the defense-evaluation attack loops
    do — is what :meth:`repro.dram.trr.TrrEngine.run_epochs` and the
    epoch-level executors consume wholesale instead of dispatching each
    hammer as a command.
    """

    banks: np.ndarray
    rows: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.banks) == len(self.rows) == len(self.counts)):
            raise ValueError("banks/rows/counts must align")
        if len(self.counts) and int(np.min(self.counts)) < 1:
            raise ValueError("counts must be at least 1")

    @classmethod
    def single_bank(cls, bank: int,
                    pairs: Sequence[tuple]) -> "EpochPlan":
        """Lower an ordered ``(row, count)`` schedule in one bank."""
        rows = np.asarray([row for row, __ in pairs], dtype=np.int64)
        counts = np.asarray([count for __, count in pairs],
                            dtype=np.int64)
        banks = np.full(len(rows), bank, dtype=np.int64)
        return cls(banks=banks, rows=rows, counts=counts)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def total_activations(self) -> int:
        """ACTs issued per epoch (the tREFI activation-budget user)."""
        return int(self.counts.sum())

    def as_trr_epoch(self) -> Dict[int, List[Tuple[int, int]]]:
        """The ``bank -> ordered (row, count)`` mapping ``run_epochs``
        consumes (entry order within each bank is preserved)."""
        epoch: Dict[int, List[Tuple[int, int]]] = {}
        for bank, row, count in zip(self.banks.tolist(),
                                    self.rows.tolist(),
                                    self.counts.tolist()):
            epoch.setdefault(bank, []).append((row, count))
        return epoch

    def entry_durations(self, timings: TimingParameters,
                        t_on: Optional[float] = None) -> List[float]:
        """Wall-clock time of each fused hammer, in entry order.

        Scalar replay adds ``count * act_to_act(t_on)`` to the device
        clock once per hammer command; callers accumulate these values
        in the same order to stay bit-identical with that clock.
        """
        effective = timings.t_ras if t_on is None \
            else max(t_on, timings.t_ras)
        per_act = timings.act_to_act(effective)
        return [count * per_act for count in self.counts.tolist()]
