"""Fault plans: deterministic, seedable chaos configuration.

A :class:`FaultPlan` describes *which* platform faults to inject and at
what rates; the :class:`~repro.faults.injector.FaultyStack` wrapper and
the resilient runner consume it.  Every stochastic decision is a pure
function of ``(plan.seed, fault kind, command counter)`` through the
same splitmix64 machinery the cell model uses
(:mod:`repro.dram.seeding`), so the same plan replayed over the same
command stream produces a byte-identical fault schedule.

Two fault families live here:

- **Device/interface faults** (consumed by ``FaultyStack``): bit errors
  on RD data, dropped and ghost (duplicated) commands, timing jitter on
  ACT intervals, stuck-at cells, wall-clock platform stalls, and
  simulated board hangs (raised as
  :class:`~repro.errors.PlatformHangError`).
- **Worker-level faults** (consumed by the resilient runner's worker
  processes): hard crashes of the process running a given experiment
  (``crash_once``) and forced wall-clock stalls per experiment id
  (``stall_experiments``) — the levers the chaos tests use to exercise
  timeout and crash recovery end to end.

Activation
----------

Programmatic: ``faults.install_plan(plan)`` /
``faults.clear_plan()``.  Environment: set ``HBMSIM_FAULTS`` to a JSON
object of :class:`FaultPlan` fields, e.g.::

    HBMSIM_FAULTS='{"seed": 7, "read_flip_rate": 0.01, "drop_rate": 0.002}'

The environment plan is inherited by experiment worker processes, so a
whole sweep runs under the same chaos.  With no plan installed the
device path is untouched — experiment reports stay bit-identical to a
fault-free run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from typing import (Any, Dict, FrozenSet, Mapping, NamedTuple,
                    Optional, Tuple)

import numpy as np

from repro.dram.seeding import (generator_for, uniform_array_for,
                                uniform_array_mixed, uniform_for)
from repro.errors import FaultPlanError

_ENV_PLAN = "HBMSIM_FAULTS"

# Fault-kind tags folded into the seed chain (arbitrary, fixed).  They
# live here — not in the injector — so both the scalar ``FaultyStack``
# and the vectorized samplers below key the *same* splitmix64 chains.
TAG_STALL = 0x51A11
TAG_HANG = 0x4A46
TAG_DROP = 0xD309
TAG_GHOST = 0x6057
TAG_JITTER = 0x71EE
TAG_RDFLIP = 0x2DF1
TAG_STUCK = 0x57C4

#: Command kinds a drop fault can lose / a ghost fault can duplicate /
#: a jitter fault can stretch; stalls and hangs fire on any command.
#: :meth:`FaultPlan.command_faults` is the one vectorized form of this
#: table.
DROPPABLE: FrozenSet[str] = frozenset({"ACT", "PRE", "WR", "REF", "WAIT"})
GHOSTABLE: FrozenSet[str] = frozenset({"PRE", "REF"})
JITTERABLE: FrozenSet[str] = frozenset({"ACT", "HAMMER"})
_DROPPABLE = sorted(DROPPABLE)
_GHOSTABLE = sorted(GHOSTABLE)
_JITTERABLE = sorted(JITTERABLE)


class CommandFaults(NamedTuple):
    """Per-command (or per-window) masks, one per fault kind."""

    stall: np.ndarray
    hang: np.ndarray
    drop: np.ndarray
    ghost: np.ndarray
    jitter: np.ndarray

    def any(self) -> np.ndarray:
        """Where any fault fires: the command is not clean."""
        return self.stall | self.hang | self.drop | self.ghost | self.jitter


def _drawn(sampler: Any, enabled: Any, indices: np.ndarray,
           eligible: Any) -> np.ndarray:
    """``sampler`` evaluated at the counters ``eligible()`` selects (no
    draw at all while the fault is disabled)."""
    hits = np.zeros(indices.shape, dtype=bool)
    if enabled:
        where = eligible()
        if where.any():
            hits[where] = sampler(indices[where])
    return hits


@dataclass(frozen=True)
class FaultPlan:
    """One chaos configuration; all rates are probabilities in [0, 1]."""

    #: Root seed for every fault decision.
    seed: int = 0

    # -- interface faults on read data ---------------------------------
    #: Probability that one RD's returned data suffers interface bit
    #: errors (flips on the bus, not in the array).
    read_flip_rate: float = 0.0
    #: Number of bits flipped when a RD is corrupted.
    read_flip_bits: int = 1

    # -- command stream faults ------------------------------------------
    #: Probability a droppable command (ACT/PRE/WR/REF/WAIT) is lost.
    drop_rate: float = 0.0
    #: Probability a ghostable command (PRE/REF) is executed twice.
    ghost_rate: float = 0.0

    # -- timing faults ---------------------------------------------------
    #: Probability an ACT/HAMMER interval picks up timing jitter.
    act_jitter_rate: float = 0.0
    #: Maximum jitter magnitude added to the aggressor on-time (ns).
    act_jitter_ns: float = 0.0

    # -- stuck-at cells ---------------------------------------------------
    #: Probability a given row has stuck-at bits on its readout path.
    stuck_row_rate: float = 0.0
    #: Maximum stuck bits per affected row (actual count is derived
    #: deterministically per row in [1, max]).
    stuck_bits_per_row: int = 4

    # -- platform stalls / hangs -----------------------------------------
    #: Probability a command stalls the platform for ``stall_seconds``
    #: of real wall-clock time (exercises runner timeouts).
    stall_rate: float = 0.0
    stall_seconds: float = 0.05
    #: Probability a command makes the simulated board stop responding
    #: (raises :class:`~repro.errors.PlatformHangError`).
    hang_rate: float = 0.0

    # -- worker-level faults (resilient-runner chaos) ---------------------
    #: Experiment ids whose worker process is hard-killed on the first
    #: attempt (simulates a board/host crash mid-run; retries succeed).
    crash_once: Tuple[str, ...] = ()
    #: Experiment id -> seconds of forced wall-clock stall before the
    #: experiment body runs (used to push one id over ``--timeout``).
    stall_experiments: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("read_flip_rate", "drop_rate", "ghost_rate",
                     "act_jitter_rate", "stuck_row_rate", "stall_rate",
                     "hang_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultPlanError(
                    f"{name} must be within [0, 1], got {value!r}")
        if self.read_flip_bits < 1:
            raise FaultPlanError("read_flip_bits must be >= 1")
        if self.stuck_bits_per_row < 1:
            raise FaultPlanError("stuck_bits_per_row must be >= 1")
        if self.act_jitter_ns < 0 or self.stall_seconds < 0:
            raise FaultPlanError("jitter/stall magnitudes must be >= 0")
        object.__setattr__(self, "crash_once", tuple(self.crash_once))
        object.__setattr__(self, "stall_experiments",
                           dict(self.stall_experiments))

    # -- classification ---------------------------------------------------

    def device_faults_enabled(self) -> bool:
        """Whether any device/interface fault can fire under this plan."""
        return any((self.read_flip_rate, self.drop_rate, self.ghost_rate,
                    self.act_jitter_rate, self.stuck_row_rate,
                    self.stall_rate, self.hang_rate))

    def kind_faults(self, kind: str) -> FrozenSet[str]:
        """The faults a command of ``kind`` can draw under this plan:
        the masks of :meth:`command_faults` that are not all False."""
        return frozenset(name for name, enabled in (
            ("stall", self.stall_rate), ("hang", self.hang_rate),
            ("drop", kind in DROPPABLE and self.drop_rate),
            ("ghost", kind in GHOSTABLE and self.ghost_rate),
            ("jitter", kind in JITTERABLE and self.act_jitter_rate
             and self.act_jitter_ns)) if enabled)

    def worker_faults_enabled(self) -> bool:
        """Whether any worker-level fault is configured."""
        return bool(self.crash_once or self.stall_experiments)

    # -- vectorized samplers ----------------------------------------------
    #
    # Every scalar fault decision the injector makes is a pure function
    # of ``(seed, tag, command counter)``; the samplers below evaluate
    # the same splitmix64 chains over whole command-counter arrays, so a
    # batched executor can classify thousands of future command slots in
    # one pass — bit-identical to replaying them one by one.

    def _rate_mask(self, tag: int, rate: float,
                   indices: np.ndarray) -> np.ndarray:
        """``uniform_for(seed, tag, i) < rate`` for each counter ``i``.

        A zero rate returns an all-False mask without touching the seed
        chain, matching the scalar short-circuit (``if plan.rate and
        ...``) which never draws for disabled faults.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if not rate:
            return np.zeros(indices.shape, dtype=bool)
        draws = uniform_array_for((self.seed, tag), indices)
        return draws < rate

    def stall_mask(self, indices: np.ndarray) -> np.ndarray:
        """Which command counters stall the platform."""
        return self._rate_mask(TAG_STALL, self.stall_rate, indices)

    def hang_mask(self, indices: np.ndarray) -> np.ndarray:
        """Which command counters hang the platform."""
        return self._rate_mask(TAG_HANG, self.hang_rate, indices)

    def drop_mask(self, indices: np.ndarray) -> np.ndarray:
        """Which counters lose their command.

        Callers restrict ``indices`` to commands whose kind is in
        :data:`DROPPABLE`; the mask itself is kind-agnostic, exactly
        like the scalar draw.
        """
        return self._rate_mask(TAG_DROP, self.drop_rate, indices)

    def ghost_mask(self, indices: np.ndarray) -> np.ndarray:
        """Which counters duplicate their command (:data:`GHOSTABLE`
        kinds only; drop takes precedence at equal counters)."""
        return self._rate_mask(TAG_GHOST, self.ghost_rate, indices)

    def draw_jitter_array(
            self, indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(hit mask, jitter ns)`` for ACT/HAMMER counters.

        Magnitudes are only meaningful where the mask is True; they are
        computed with the identical ``uniform_for(seed, tag, i, 1)``
        draw the scalar :meth:`FaultyStack._jitter_ns` uses.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if not self.act_jitter_rate or not self.act_jitter_ns:
            return (np.zeros(indices.shape, dtype=bool),
                    np.zeros(indices.shape, dtype=np.float64))
        hits = self._rate_mask(TAG_JITTER, self.act_jitter_rate, indices)
        magnitudes = np.zeros(indices.shape, dtype=np.float64)
        if hits.any():
            fractions = uniform_array_for((self.seed, TAG_JITTER),
                                          indices[hits], (1,))
            magnitudes[hits] = self.act_jitter_ns * fractions
        return hits, magnitudes

    def command_faults(self, kinds: Any,
                       indices: np.ndarray) -> CommandFaults:
        """The fault rule: which faults the commands at ``indices`` draw.

        ``kinds`` names each command's kind (``"ACT"``, ``"HAMMER"``,
        ...), one per counter or one name for all of them.  Stall
        and hang can fire on any command, drop on :data:`DROPPABLE`
        kinds, ghost on :data:`GHOSTABLE` kinds and jitter on
        :data:`JITTERABLE` kinds.  Each mask holds the decision the
        scalar :meth:`~repro.faults.injector.FaultyStack._platform` and
        :meth:`~repro.faults.injector.FaultyStack._jitter_ns` make at
        that counter: a hang ends the command before any later draw,
        and a drop before the ghost draw.
        """
        indices = np.asarray(indices, dtype=np.int64)
        kinds = np.asarray(kinds)
        stall = self.stall_mask(indices)
        hang = self.hang_mask(indices)
        live = ~hang
        drop = _drawn(self.drop_mask, self.drop_rate, indices,
                      lambda: live & np.isin(kinds, _DROPPABLE))
        ghost = _drawn(self.ghost_mask, self.ghost_rate, indices,
                       lambda: live & ~drop & np.isin(kinds, _GHOSTABLE))
        jitter = _drawn(lambda at: self.draw_jitter_array(at)[0],
                        self.act_jitter_rate and self.act_jitter_ns, indices,
                        lambda: live & np.isin(kinds, _JITTERABLE))
        return CommandFaults(stall, hang, drop, ghost, jitter)

    def classify_probe_windows(self, base: int, kinds: Any,
                               lengths: np.ndarray) -> CommandFaults:
        """:meth:`command_faults` reduced over back-to-back windows.

        Window ``k`` holds ``lengths[k]`` commands; the windows occupy
        consecutive command counters from ``base + 1`` (the injector
        pre-increments before every draw).  ``kinds`` names every
        command of every window, in counter order.  Each returned mask
        says whether a fault of that kind fires anywhere in the window;
        ``.any()`` marks the windows a batched executor must replay
        command by command.  The compiled executor
        (``repro.bender.compile.dirty_window_mask``) is the only caller.
        """
        lengths = np.asarray(lengths, dtype=np.int64)
        total = int(lengths.sum())
        faults = self.command_faults(
            kinds, np.arange(base + 1, base + total + 1, dtype=np.int64))
        nonempty = np.flatnonzero(lengths)
        starts = (np.cumsum(lengths) - lengths)[nonempty]

        def per_window(hits: np.ndarray) -> np.ndarray:
            windows = np.zeros(lengths.shape, dtype=bool)
            if total:
                windows[nonempty] = np.logical_or.reduceat(hits, starts)
            return windows

        return CommandFaults(*(per_window(hits) for hits in faults))

    def draw_bitflips_array(self, indices: np.ndarray) -> np.ndarray:
        """Which RD counters suffer interface bit errors.

        Flip *positions* stay per-command Philox draws — fetch them with
        :meth:`read_flip_positions` for the (rare) hit counters.
        """
        return self._rate_mask(TAG_RDFLIP, self.read_flip_rate, indices)

    def read_flip_positions(self, index: int,
                            data_bits: int) -> np.ndarray:
        """Bit positions flipped by the RD fault at counter ``index``."""
        rng = generator_for(self.seed, TAG_RDFLIP, index, 1)
        return np.unique(rng.integers(data_bits,
                                      size=self.read_flip_bits))

    def stuck_row_mask(self, channels: np.ndarray, pcs: np.ndarray,
                       banks: np.ndarray,
                       rows: np.ndarray) -> np.ndarray:
        """Which ``(channel, pc, bank, row)`` tuples have stuck cells."""
        rows = np.asarray(rows, dtype=np.int64)
        if not self.stuck_row_rate:
            return np.zeros(rows.shape, dtype=bool)
        draws = uniform_array_mixed(self.seed, TAG_STUCK,
                                    np.asarray(channels, dtype=np.int64),
                                    np.asarray(pcs, dtype=np.int64),
                                    np.asarray(banks, dtype=np.int64),
                                    rows)
        return draws < self.stuck_row_rate

    def sampler_hits(self, index: int, tag: int, rate: float) -> bool:
        """Scalar probe: does the fault keyed by ``tag`` fire at
        counter ``index``?  (Shared by tests asserting scalar/vector
        agreement.)"""
        if not rate:
            return False
        return uniform_for(self.seed, tag, index) < rate

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable rendering (suitable for ``HBMSIM_FAULTS``)."""
        payload: Dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, Mapping):
                value = dict(value)
            payload[spec.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        """Parse and validate a plan payload.

        Every rejection is a :class:`~repro.errors.FaultPlanError`
        naming the offending key *path* (``stall_experiments.fig05``,
        ``crash_once[2]``) and, for unknown fields, the full list of
        valid keys — a chaos spec typo'd in ``HBMSIM_FAULTS`` should
        explain itself, not stack-trace.
        """
        known = [spec.name for spec in fields(cls)]
        unknown = sorted(set(payload) - set(known))
        if unknown:
            plural = "s" if len(unknown) != 1 else ""
            raise FaultPlanError(
                f"unknown fault plan field{plural}: "
                f"{', '.join(unknown)}; valid fields: "
                f"{', '.join(known)}")
        clean: Dict[str, Any] = {}
        for name, value in payload.items():
            if name == "crash_once":
                clean[name] = cls._parse_crash_once(value)
            elif name == "stall_experiments":
                clean[name] = cls._parse_stall_experiments(value)
            elif name in ("seed", "read_flip_bits",
                          "stuck_bits_per_row"):
                clean[name] = cls._parse_number(name, value,
                                                integral=True)
            else:
                clean[name] = cls._parse_number(name, value)
        return cls(**clean)

    @staticmethod
    def _parse_number(name: str, value: Any,
                      integral: bool = False) -> Any:
        kind = "an integer" if integral else "a number"
        if isinstance(value, bool) \
                or not isinstance(value, (int, float)) \
                or (integral and not isinstance(value, int)):
            raise FaultPlanError(
                f"fault plan field {name}: must be {kind}, got "
                f"{value!r}")
        return value

    @staticmethod
    def _parse_crash_once(value: Any) -> Tuple[str, ...]:
        if isinstance(value, str) \
                or not isinstance(value, (list, tuple)):
            raise FaultPlanError(
                f"fault plan field crash_once: must be a list of "
                f"experiment ids, got {value!r}")
        for position, item in enumerate(value):
            if not isinstance(item, str):
                raise FaultPlanError(
                    f"fault plan field crash_once[{position}]: must "
                    f"be an experiment id string, got {item!r}")
        return tuple(value)

    @staticmethod
    def _parse_stall_experiments(value: Any) -> Dict[str, float]:
        if not isinstance(value, Mapping):
            raise FaultPlanError(
                f"fault plan field stall_experiments: must be an "
                f"object of experiment id -> stall seconds, got "
                f"{value!r}")
        parsed: Dict[str, float] = {}
        for key, seconds in value.items():
            if not isinstance(key, str):
                raise FaultPlanError(
                    f"fault plan field stall_experiments: keys must "
                    f"be experiment id strings, got {key!r}")
            if isinstance(seconds, bool) \
                    or not isinstance(seconds, (int, float)) \
                    or seconds < 0:
                raise FaultPlanError(
                    f"fault plan field stall_experiments.{key}: must "
                    f"be a non-negative number of seconds, got "
                    f"{seconds!r}")
            parsed[key] = float(seconds)
        return parsed

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise FaultPlanError(
                f"HBMSIM_FAULTS is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise FaultPlanError(
                f"HBMSIM_FAULTS must be a JSON object of fault plan "
                f"fields, got {type(payload).__name__}")
        return cls.from_dict(payload)


# ----------------------------------------------------------------------
# Active-plan resolution: programmatic install wins over the environment.
# ----------------------------------------------------------------------

_installed: Optional[FaultPlan] = None
#: Tiny parse cache so active_plan() in a command hot path stays cheap.
_env_cache: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def install_plan(plan: FaultPlan) -> None:
    """Activate a plan for this process (overrides ``HBMSIM_FAULTS``)."""
    global _installed
    if not isinstance(plan, FaultPlan):
        raise FaultPlanError(f"expected a FaultPlan, got {type(plan)!r}")
    _installed = plan


def clear_plan() -> None:
    """Deactivate any programmatically installed plan."""
    global _installed
    _installed = None


def active_plan() -> Optional[FaultPlan]:
    """The plan in effect: installed plan, else ``HBMSIM_FAULTS``, else
    ``None`` (no chaos)."""
    global _env_cache
    if _installed is not None:
        return _installed
    spec = os.environ.get(_ENV_PLAN) or None
    cached_spec, cached_plan = _env_cache
    if spec == cached_spec:
        return cached_plan
    plan = FaultPlan.from_json(spec) if spec is not None else None
    _env_cache = (spec, plan)
    return plan
