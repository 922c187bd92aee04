"""Request model of the experiment service.

An :class:`ExperimentRequest` names *what* to run (experiment id,
scale, optional chip/channel shard), *under which chaos* (an optional
per-request fault plan, installed in the worker for that invocation),
and optionally carries an inline SoftBender program for the lint
admission gate to verify.

Two requests are *the same work* when their :meth:`coalescing key
<ExperimentRequest.coalescing_key>` matches: the key is
:func:`repro.experiments.store.result_key` over the experiment id, the
scale, the shard, the effective fault plan (the request's own, else the
service's ambient plan), the execution engine and every chip's
calibration fingerprint (hence ``CALIBRATION_VERSION``) — any input
that could change the report changes the key, so coalesced and cached
results are guaranteed bit-identical to a fresh run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.experiments.store import result_key
from repro.faults.plan import FaultPlan, active_plan

#: Fields a request payload may carry (wire names).
REQUEST_FIELDS = ("experiment_id", "scale", "shard", "fault_plan",
                  "program")


@dataclass(frozen=True)
class ExperimentRequest:
    """One experiment request as accepted by the service."""

    experiment_id: str = ""
    scale: float = 1.0
    #: ``"i/n"`` shard (see :mod:`repro.experiments.sharding`): the
    #: request executes only that slice of a shardable experiment's
    #: sweep.  Requests for different shards never coalesce.
    shard: Optional[str] = None
    #: Per-request fault plan (:class:`~repro.faults.plan.FaultPlan`
    #: fields); installed in the worker for this invocation only.
    #: ``None`` runs under the service's ambient plan, if any.
    fault_plan: Optional[Mapping[str, Any]] = None
    #: Inline SoftBender ``.sbp`` source for the admission gate to
    #: statically verify.  A request carrying *only* a program is a
    #: verify-only request: it completes at admission, occupying no
    #: worker.
    program: Optional[str] = None
    _plan: Optional[FaultPlan] = field(default=None, repr=False,
                                       compare=False)

    def __post_init__(self) -> None:
        # Parse the plan once: field order and default values must not
        # split the coalescing key.  Validation happened in the
        # admission gate; a malformed plan here is a programming error
        # and may raise FaultPlanError.
        if self.fault_plan is not None:
            object.__setattr__(self, "_plan",
                               FaultPlan.from_dict(self.fault_plan))

    @property
    def verify_only(self) -> bool:
        """Whether this request only asks for static verification."""
        return not self.experiment_id and self.program is not None

    def plan_spec(self) -> str:
        """Worker-side plan directive for this invocation.

        The canonical JSON of the plan the coalescing key names — the
        request's own, else the service's ambient plan — or the empty
        string (clear any installed plan) when there is none, so a
        worker runs exactly the plan its result is keyed under.
        """
        plan = self._plan if self._plan is not None else active_plan()
        return plan.to_json() if plan is not None else ""

    def coalescing_key(self) -> str:
        """Content key identifying this request's result."""
        extra: Dict[str, Any] = {}
        if self.program is not None:
            extra["program_sha"] = hashlib.sha256(
                self.program.encode("utf-8")).hexdigest()
        return result_key(self.experiment_id, self.scale, self.shard,
                          self._plan, extra)

    def to_payload(self) -> Dict[str, Any]:
        """Wire rendering (the journal and the protocol share it)."""
        payload: Dict[str, Any] = {
            "experiment_id": self.experiment_id,
            "scale": self.scale,
        }
        if self.shard is not None:
            payload["shard"] = self.shard
        if self.fault_plan is not None:
            payload["fault_plan"] = json.loads(self._plan.to_json())
        if self.program is not None:
            payload["program"] = self.program
        return payload
