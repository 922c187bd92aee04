"""Batched row-population execution engine.

The paper's methodology evaluates the same measurement — initialize the
pattern window, hammer the two neighbors, read the victim — over
thousands of victim rows.  Driving :class:`~repro.dram.device.HBM2Stack`
one command at a time replays that faithfully but serializes every row
through Python-level command dispatch.  This engine evaluates the *same
physics* against arrays of victim rows in one shot:

- per-cell threshold arrays for the whole row sample are stacked into one
  ``(rows, row_bits)`` matrix (materialized once and reused across
  probes, where the scalar path re-materializes per probe),
- accumulated-disturbance units replay the exact float operation order of
  the command engine (window-init writes, then each aggressor's fused
  hammer),
- pending-flip masks, retention failures, on-die ECC correction and the
  data-pattern XOR are applied across the population with numpy.

**Equivalence contract** (asserted in ``tests/dram/test_batch.py``): for
any victim set, :meth:`RowBatchProfile.hammer` returns bit-identical row
images and flip counts to running ``initialize_window`` /
``double_sided_hammer`` / ``read_row`` per victim on the device.  The
engine is a *measurement surface*: it does not mutate device state,
advance device time, or update command statistics, exactly like the
analytic engine in :mod:`repro.core.analytic`.

TRR-enabled devices are fully supported: the measurement window issues
no REF commands, so TRR cannot alter what the batch measures, and the
engine *mirrors* the measurement's activation stream into the device's
TRR sampler (the one piece of device state whose future behaviour
depends on the activation history) so that later REF commands see the
same sampler state as after the scalar command sequence.

Under a fault plan the row-population callers (HC_first search, the
TRR-bypass attack) measure per row on the ``FaultyStack``; fault plans
batch in the compiled program executor instead, which classifies each
window with the plan's fault rule
(:meth:`repro.faults.plan.FaultPlan.classify_probe_windows`) and
replays only the fault-hit windows per-command.  ``HBMSIM_BATCH=0``
(the escape hatch) selects only the command-level oracles: the scalar
interpreter, per-REF catch-up and per-row profiling; the closed-form
analytic layer has one implementation and ignores it.  The scalar
interpreter remains the oracle in the differential property tests.

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
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dram.cells import allocate_cells, cells_chunk_elems
from repro.dram.device import ROW_IO_NS, HBM2Stack, classify_victim_pattern
from repro.dram.geometry import RowAddress
from repro.dram.timing import TimingParameters

#: Window-init radius of the paper's methodology (Table 1: the pattern
#: extends to distance 8 from the victim).  Mirrors
#: ``repro.bender.routines.rowinit.PATTERN_RADIUS`` without importing the
#: bender layer from the dram layer.
PATTERN_RADIUS = 8

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


def engine_supported(device: object) -> bool:
    """Whether ``device`` can be measured through the batch engine.

    Requires a plain :class:`HBM2Stack` (subclasses could override
    command semantics, diverging from the engine's closed-form replay),
    either bare or behind a :class:`~repro.faults.injector.FaultyStack`
    — the wrapper only perturbs the *command stream*, which the session
    layer replays around the engine; the physics underneath are exactly
    the plain stack's.  TRR-enabled stacks are supported: the profile
    mirrors each measurement's activation stream into the TRR sampler
    (see :meth:`RowBatchProfile._mirror_activations`), so later REF
    commands select the same victims as after the scalar command
    sequence.
    """
    from repro.faults.injector import FaultyStack

    if isinstance(device, FaultyStack):
        device = device.wrapped
    return type(device) is HBM2Stack


@dataclass
class BatchHammerResult:
    """Outcome of one batched hammer evaluation."""

    #: Victims, in request order.
    victims: List[RowAddress]
    #: Per-victim row images exactly as ``read_row`` would return them.
    images: np.ndarray
    #: Committed flip mask per victim (pre-ECC), ``(rows, row_bits)``.
    committed: np.ndarray
    #: Observed mismatch mask vs the expected pattern image (post-ECC).
    observed_flips: np.ndarray
    #: Observed bitflip count per victim (what ``count_bitflips`` sees).
    bitflips: np.ndarray


class RowBatchProfile:
    """Stacked fault-physics state for a batch of victim rows.

    Building the profile materializes every victim's cell thresholds and
    retention floor once; :meth:`hammer` then evaluates any (count,
    t_AggON) schedule against the whole batch without touching the
    device.  Victims may be arbitrary addresses (different banks or
    channels); each is evaluated independently, which matches the scalar
    sequence because every measurement re-initializes its whole pattern
    window (blast radius 2 < init radius 8 — no cross-victim residue
    survives the re-init).
    """

    def __init__(self, device: HBM2Stack, victims: Sequence[RowAddress],
                 pattern: Any, radius: int = PATTERN_RADIUS) -> None:
        if not engine_supported(device):
            raise ValueError(
                "batch engine requires a plain HBM2Stack (or one behind "
                "a FaultyStack); use the scalar command path instead")
        from repro.faults.injector import FaultyStack

        if isinstance(device, FaultyStack):
            # The engine replays the *physics*; command-stream faults
            # are the session layer's concern (it only routes fault-free
            # windows here).
            device = device.wrapped
        self.device = device
        self.victims = [address.validate(device.geometry)
                        for address in victims]
        self.pattern = pattern
        self.radius = radius
        geometry = device.geometry
        expected = pattern.victim_row(geometry.row_bytes)
        #: The profile the device looks up is keyed on the *written*
        #: victim image, classified back to a canonical pattern name.
        self.pattern_name = classify_victim_pattern(expected)
        self.expected = np.asarray(expected, dtype=np.uint8)

        n = len(self.victims)
        layout = geometry.subarrays
        model = device.disturbance
        provider = device.profile_provider

        # The threshold matrix is the batch's dominant allocation (one
        # float per cell); place it under the spill policy so full-
        # geometry batches can live in a memory-mapped working set.
        self.thresholds = allocate_cells((n, geometry.row_bits), float)
        self.min_thresholds = np.empty(n, dtype=float)
        self.retention_floors = np.full(n, np.inf)
        self.init_units = np.zeros(n, dtype=float)
        #: Whether the aggressor at row-1 / row+1 exists in the bank.
        self.has_low_aggressor = np.zeros(n, dtype=bool)
        self.has_high_aggressor = np.zeros(n, dtype=bool)
        #: ... and also shares the victim's subarray (disturbs it).
        self.low_disturbs = np.zeros(n, dtype=bool)
        self.high_disturbs = np.zeros(n, dtype=bool)
        #: Window rows written after the victim (for the retention clock).
        self.upper_writes = np.zeros(n, dtype=np.int64)

        timings = device.timings
        #: Open time of one window-init write (stretched to tRAS).
        self.t_write_on = max(timings.t_rcd + ROW_IO_NS, timings.t_ras)
        temperature = device.temperature_disturbance_factor()
        init_reach = min(radius, model.blast_radius)

        for index, victim in enumerate(self.victims):
            row = victim.row
            if row - 1 < 0 and row + 1 >= geometry.rows:
                raise ValueError("victim has no neighbors in the bank")
            self.has_low_aggressor[index] = row - 1 >= 0
            self.has_high_aggressor[index] = row + 1 < geometry.rows
            adjacent = layout.neighbors(row, 1)
            self.low_disturbs[index] = (row - 1, 1) in adjacent
            self.high_disturbs[index] = (row + 1, 1) in adjacent
            self.upper_writes[index] = min(radius,
                                           geometry.rows - 1 - row)
            # Window-init disturbance: rewriting the victim clears its
            # accumulator, so only the writes *after* it (rows victim+d,
            # ascending d) contribute — replayed in the same add order.
            units = 0.0
            for neighbor, distance in layout.neighbors(row, init_reach):
                if neighbor < row:
                    continue
                contribution = (1 * temperature) \
                    * model.units_per_activation(self.t_write_on, distance)
                if contribution > 0:
                    units += contribution
            self.init_units[index] = units

            self.min_thresholds[index] = provider.disturbance_floor(
                victim, self.pattern_name)
            self.thresholds[index] = provider.profile(
                victim, self.pattern_name).materialize()
            if device.retention is not None:
                self.retention_floors[index] = \
                    device.retention.row_retention_ns(victim)

    def __len__(self) -> int:
        return len(self.victims)

    # ------------------------------------------------------------------

    def _elapsed_at_read(self, counts: np.ndarray, effective_t_on: float,
                         indices: np.ndarray) -> np.ndarray:
        """Time between the victim's init write and the read's commit.

        Replays the command clock: the victim's own write, the window
        writes above it, then one fused hammer per in-range aggressor.
        """
        timings = self.device.timings
        per_write = self.t_write_on + timings.t_rp
        commands = (self.has_low_aggressor[indices].astype(np.int64)
                    + self.has_high_aggressor[indices].astype(np.int64))
        return (per_write * (1 + self.upper_writes[indices])
                + commands * counts * timings.act_to_act(effective_t_on))

    def hammer(self, counts: Union[int, np.ndarray],
               t_on: Optional[float] = None,
               subset: Optional[np.ndarray] = None) -> BatchHammerResult:
        """Evaluate a double-sided hammer of ``counts`` per aggressor.

        ``counts`` broadcasts over the batch (per-victim counts are what
        the vectorized HC_first bisection feeds).  ``subset`` restricts
        evaluation to the given victim indices (results align with the
        subset order).  The measurement's activations are mirrored into
        the TRR sampler (:meth:`_mirror_activations`).
        """
        device = self.device
        timings = device.timings
        if subset is None:
            indices = np.arange(len(self.victims))
        else:
            indices = np.asarray(subset, dtype=np.int64)
        counts = np.broadcast_to(
            np.asarray(counts, dtype=np.int64), indices.shape).copy()
        if (counts < 0).any():
            raise ValueError("count must be non-negative")
        effective_t_on = timings.t_ras if t_on is None \
            else max(t_on, timings.t_ras)

        # Accumulated units at the read's commit, replaying the command
        # engine's add order: init writes first, then aggressor hammers
        # (low side, then high side), each `count * temperature * upa`.
        temperature = device.temperature_disturbance_factor()
        per_activation = device.disturbance.units_per_activation(
            effective_t_on, 1)
        per_side = (counts * temperature) * per_activation
        acc = self.init_units[indices].copy()
        low = self.low_disturbs[indices]
        acc[low] += per_side[low]
        high = self.high_disturbs[indices]
        acc[high] += per_side[high]

        # Compare thresholds in row chunks sized to the cell working-set
        # bound: the fancy-indexed gather ``self.thresholds[indices]``
        # would materialize a float copy of the whole selection at once,
        # which is exactly the per-batch peak the chunk policy caps.
        # Elementwise comparison per chunk is bit-identical.
        committed = np.empty((indices.size, self.thresholds.shape[1]),
                             dtype=bool)
        chunk_rows = max(1,
                         cells_chunk_elems() // self.thresholds.shape[1])
        for start in range(0, indices.size, chunk_rows):
            stop = min(start + chunk_rows, indices.size)
            committed[start:stop] = (
                self.thresholds[indices[start:stop]]
                <= acc[start:stop, None])
        # min-threshold fast path parity: acc below the row's weakest
        # cell yields an empty mask by construction (the bound is exact).

        if device.retention is not None:
            elapsed = self._elapsed_at_read(counts, effective_t_on, indices)
            effective = elapsed * device.retention_acceleration()
            failing = np.flatnonzero(
                effective >= self.retention_floors[indices])
            for position in failing:
                victim = self.victims[int(indices[position])]
                bits = device.retention.failing_bits(
                    victim, float(effective[position]))
                committed[position, bits] = True

        images = np.broadcast_to(
            self.expected, (indices.size, self.expected.size)).copy()
        images ^= np.packbits(committed, axis=1)

        observed = committed
        if device.mode_registers.ecc_enabled:
            corrections = _ecc_correction_mask(committed)
            if corrections is not None:
                images ^= np.packbits(corrections, axis=1)
                observed = committed & ~corrections

        self._mirror_activations(indices, counts)

        return BatchHammerResult(
            victims=[self.victims[int(i)] for i in indices],
            images=images,
            committed=committed,
            observed_flips=observed,
            bitflips=observed.sum(axis=1),
        )

    def _mirror_activations(self, indices: np.ndarray,
                            counts: np.ndarray) -> None:
        """Replay the measurement's activation stream into the sampler.

        The scalar sequence per victim is: the window-init writes
        (ascending rows), one fused hammer per in-range aggressor (low
        side first), then the read's activation of the victim.  Each is
        an ``on_activate`` the TRR sampler observes; replaying them in
        the same order keeps the sampler — CAM, window counts, pending
        set — bit-identical to the scalar command path, so any later REF
        refreshes the same victims.  (No REF occurs inside the
        measurement itself, so this is the only device state the batch
        evaluation has to keep in sync.)
        """
        device = self.device
        if not device.trr_config.enabled:
            return
        rows = device.geometry.rows
        for position, index in enumerate(indices):
            victim = self.victims[int(index)]
            count = int(counts[position])
            engine = device.trr_engine(victim.channel,
                                       victim.pseudo_channel)
            stream = [(row, 1) for row in range(
                max(0, victim.row - self.radius),
                min(rows - 1, victim.row + self.radius) + 1)]
            if count > 0:
                if victim.row - 1 >= 0:
                    stream.append((victim.row - 1, count))
                if victim.row + 1 < rows:
                    stream.append((victim.row + 1, count))
            stream.append((victim.row, 1))
            engine.note_window(victim.bank, stream)


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


def _ecc_correction_mask(committed: np.ndarray) -> Optional[np.ndarray]:
    """Single-bit-per-64-bit-word SECDED corrections for a flip stack.

    Mirrors ``HBM2Stack._apply_on_die_ecc``: words with exactly one
    committed flip are corrected (that bit restored in the read image);
    multi-bit words pass through.  Returns ``None`` when nothing is
    correctable.
    """
    n, row_bits = committed.shape
    words = committed.reshape(n, row_bits // 64, 64)
    flips_per_word = words.sum(axis=2)
    correctable = flips_per_word == 1
    if not correctable.any():
        return None
    corrections = np.zeros_like(committed)
    rows, word_index = np.nonzero(correctable)
    offsets = np.argmax(words[rows, word_index], axis=1)
    corrections[rows, word_index * 64 + offsets] = True
    return corrections
