"""Shard specifications and the sweep-sharding base for row sweeps.

The row sweeps cross a row population with independently computable
*units* — (channel, pseudo channel) pairs for the HC_first sweeps
(fig05/fig07), channels or bank combos for the BER and RowPress sweeps
(fig04/06/08/09/12/13) — in combo-major order, so a *contiguous range
of units* is a contiguous block of the sweep's flat result arrays (see
:func:`repro.core.spatial.spatial_units`).  A :class:`ShardSpec` names
one such range — "shard ``i`` of ``n``" — so the pool can fan one
experiment out across worker processes and reassemble the full result
bit-for-bit (merging is plain concatenation in shard order).

:class:`SweepExperiment` is the one sharding protocol: an experiment
module builds its ``SWEEP`` from its unit count, a ``compute(scale,
unit_range)`` producing a payload for a unit range, a ``combine``
concatenating shard payloads in order (it may consume them, so a
merge holds one copy of the sweep), and a ``render`` building the
full report from a payload.  The registry and the pool call the sweep
object's ``run``/``run_shard``/``merge_shards`` directly.

Shard strings are ``"i/n"`` (e.g. ``"0/8"``); anything else is rejected
with :class:`~repro.errors.ShardSpecError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.errors import HbmSimError, ShardSpecError
from repro.experiments.base import ExperimentResult

_SHARD_RE = re.compile(r"^(\d+)/(\d+)$")


@dataclass(frozen=True)
class ShardSpec:
    """One contiguous slice — shard ``index`` of ``count``."""

    index: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ShardSpecError(
                f"shard count must be >= 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ShardSpecError(
                f"shard index {self.index} outside [0, {self.count})")

    @property
    def label(self) -> str:
        """The canonical ``"i/n"`` string."""
        return f"{self.index}/{self.count}"

    @classmethod
    def parse(cls, value: Optional[str]) -> Optional["ShardSpec"]:
        """Parse an ``"i/n"`` shard string (``None`` = unsharded).

        Raises :class:`~repro.errors.ShardSpecError` for any other
        string and for an impossible shard (``i >= n`` or ``n == 0``):
        a malformed request must fail loudly, not silently run the full
        sweep.
        """
        if value is None:
            return None
        match = _SHARD_RE.match(value.strip())
        if match is None:
            raise ShardSpecError(
                f"shard must be an 'i/n' string such as '0/2', "
                f"got {value!r}")
        return cls(int(match.group(1)), int(match.group(2)))

    def slice_of(self, n_units: int) -> Tuple[int, int]:
        """This shard's ``(start, stop)`` range over ``n_units`` items.

        The partition is contiguous and balanced: the first ``n_units %
        count`` shards get one extra unit.  Shards beyond the unit count
        get an empty range (``start == stop``) — they contribute empty
        arrays and merge away.
        """
        if n_units < 0:
            raise ValueError("n_units must be non-negative")
        base, remainder = divmod(n_units, self.count)
        start = self.index * base + min(self.index, remainder)
        stop = start + base + (1 if self.index < remainder else 0)
        return start, stop


@dataclass(frozen=True)
class SweepExperiment:
    """One shardable row sweep: unit decomposition + report rendering.

    The experiment module owns the physics; this base owns the sharding
    protocol.  ``compute(scale, unit_range)`` must return an *empty*
    payload for an empty range (a shard beyond the unit count) and its
    per-unit values must not depend on which other units share the call
    — that unit-locality is what makes a merged fan-out bit-identical
    to the unsharded sweep.
    """

    experiment_id: str
    title: str
    #: ``data`` key the per-shard payload travels under in partials.
    payload_key: str
    #: Number of independently computable sweep units, fixed by the
    #: default geometry.
    units: int
    #: ``(scale, unit_range)`` -> payload; ``None`` = the full sweep.
    compute: Callable[[float, Optional[Tuple[int, int]]], Any]
    #: Shard payloads in shard order -> the merged payload (may empty
    #: the shard payloads it reads).
    combine: Callable[[Sequence[Any]], Any]
    #: ``(payload, scale)`` -> the full experiment report.
    render: Callable[[Any, float], ExperimentResult]

    def run(self, scale: float = 1.0) -> ExperimentResult:
        """The full (unsharded) sweep at ``scale``."""
        return self.render(self.compute(scale, None), scale)

    def run_shard(self, scale: float, shard: ShardSpec) -> ExperimentResult:
        """Compute one shard's unit range; the result is a partial
        carrying the payload for :meth:`merge_shards`, not a report."""
        start, stop = shard.slice_of(self.units)
        payload = self.compute(scale, (start, stop))
        text = (f"{self.experiment_id} shard {shard.label}: units "
                f"[{start}, {stop}) of {self.units}")
        data = {"shard_index": shard.index, "shard_count": shard.count,
                "unit_range": (start, stop), self.payload_key: payload}
        return ExperimentResult(self.experiment_id,
                                f"{self.title} (shard)", text, data)

    def merge_shards(self, partials: Sequence[ExperimentResult],
                     scale: float) -> ExperimentResult:
        """Assemble the full report from one complete fan-out.

        Requires exactly one partial per shard index of a single
        ``n``-way fan-out; anything else (missing, duplicate, or mixed
        fan-outs) raises :class:`~repro.errors.HbmSimError`.

        Merging consumes the partials: ``combine`` may empty their
        payloads as it goes (the flat sweeps release each shard's array
        once it is concatenated), so a partial cannot be merged twice.
        Keep the partials' reports, not their payloads.
        """
        if not partials:
            raise HbmSimError("no shard results to merge")
        parts = sorted(partials, key=lambda r: r.data["shard_index"])
        count = parts[0].data["shard_count"]
        indices = [part.data["shard_index"] for part in parts]
        if any(part.data["shard_count"] != count for part in parts) \
                or indices != list(range(count)):
            raise HbmSimError(
                f"shard results do not cover one {count}-way fan-out: "
                f"got indices {indices}")
        payload = self.combine([part.data[self.payload_key]
                                for part in parts])
        return self.render(payload, scale)
