"""Admission control: reject bad requests before they cost a worker.

The gate is the service-side incarnation of the ``repro.lint`` strict
gate plus request-shape validation:

- **structural** — unknown payload fields, wrong types, non-finite or
  out-of-range scales;
- **registry** — unknown experiment ids are rejected with the same
  close-match suggestions the CLI prints;
- **fault plan** — per-request plans are parsed through
  :class:`~repro.faults.plan.FaultPlan` validation, so a typo'd rate
  or unknown field never reaches a worker;
- **lint** — inline SoftBender programs are assembled and statically
  verified (:func:`repro.lint.verify_program`); any ``error`` or
  ``protocol`` severity finding rejects the request, carrying the
  findings so the client can fix the program offline.  ``warning``
  findings admit (the platform will adjust, exactly as at execution).

Every rejection is an :class:`~repro.errors.AdmissionError` naming the
offending field — a typed, structured verdict rather than a traceback
from deep inside a worker.
"""

from __future__ import annotations

import difflib
import math
from typing import Any, Mapping, Optional, Union

from repro.errors import AdmissionError, FaultPlanError
from repro.service.requests import REQUEST_FIELDS, ExperimentRequest

#: Scales above this are almost certainly unit confusion (the paper's
#: full geometry is scale 1.0); admission rejects them.
MAX_SCALE = 4.0

#: Inline programs larger than this are rejected unparsed (the lint
#: walker is linear, but the service should not buffer megabytes of
#: program per request).
MAX_PROGRAM_BYTES = 256 * 1024


class AdmissionGate:
    """Validates request payloads into :class:`ExperimentRequest`."""

    def __init__(self, max_scale: float = MAX_SCALE) -> None:
        self.max_scale = max_scale

    # -- public API -------------------------------------------------------

    def admit(self, payload: Union[Mapping[str, Any], ExperimentRequest]
              ) -> ExperimentRequest:
        """Validate one request; returns the admitted request.

        Raises :class:`~repro.errors.AdmissionError` with the offending
        field (dotted path) on the first violation.
        """
        if isinstance(payload, ExperimentRequest):
            payload = payload.to_payload()
        if not isinstance(payload, Mapping):
            raise AdmissionError(
                f"request must be a JSON object, got "
                f"{type(payload).__name__}")
        unknown = sorted(set(payload) - set(REQUEST_FIELDS))
        if unknown:
            raise AdmissionError(
                f"unknown request field(s): {', '.join(unknown)}; "
                f"valid fields: {', '.join(REQUEST_FIELDS)}",
                field=unknown[0])

        experiment_id = self._string(payload, "experiment_id", default="")
        program = self._optional_string(payload, "program")
        if not experiment_id and program is None:
            raise AdmissionError(
                "request names neither an experiment_id nor a program",
                field="experiment_id")
        if experiment_id:
            self._check_experiment_id(experiment_id)
        scale = self._scale(payload)
        shard = self._optional_string(payload, "shard")
        if shard is not None:
            self._check_shard(shard, experiment_id)
        fault_plan = self._fault_plan(payload)
        if program is not None:
            self._check_program(program)
        return ExperimentRequest(experiment_id=experiment_id, scale=scale,
                                 shard=shard,
                                 fault_plan=fault_plan, program=program)

    # -- field validators -------------------------------------------------

    @staticmethod
    def _string(payload: Mapping[str, Any], field: str,
                default: str) -> str:
        value = payload.get(field, default)
        if not isinstance(value, str):
            raise AdmissionError(
                f"must be a string, got {type(value).__name__}",
                field=field)
        return value

    @staticmethod
    def _optional_string(payload: Mapping[str, Any],
                         field: str) -> Optional[str]:
        value = payload.get(field)
        if value is not None and not isinstance(value, str):
            raise AdmissionError(
                f"must be a string, got {type(value).__name__}",
                field=field)
        return value

    def _check_experiment_id(self, experiment_id: str) -> None:
        from repro.experiments import registry

        available = registry.known_ids()
        if experiment_id in available:
            return
        raise AdmissionError(
            f"unknown experiment {experiment_id!r}",
            field="experiment_id",
            suggestions=difflib.get_close_matches(
                experiment_id, available, n=3, cutoff=0.5))

    @staticmethod
    def _check_shard(shard: str, experiment_id: str) -> None:
        """Require an ``"i/n"`` slice (``0 <= i < n``) of a shardable
        experiment."""
        from repro.experiments import registry
        from repro.experiments.sharding import ShardSpec

        try:
            ShardSpec.parse(shard)
        except ValueError as exc:
            raise AdmissionError(str(exc), field="shard")
        if experiment_id and experiment_id not in registry.SHARDABLE:
            raise AdmissionError(
                f"experiment {experiment_id!r} does not support shard "
                f"execution (shardable: {sorted(registry.SHARDABLE)})",
                field="shard")

    def _scale(self, payload: Mapping[str, Any]) -> float:
        value = payload.get("scale", 1.0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise AdmissionError(
                f"must be a number, got {type(value).__name__}",
                field="scale")
        scale = float(value)
        if not math.isfinite(scale) or scale <= 0:
            raise AdmissionError(
                f"must be a finite positive number, got {scale!r}",
                field="scale")
        if scale > self.max_scale:
            raise AdmissionError(
                f"scale {scale:g} exceeds the admission ceiling "
                f"{self.max_scale:g}", field="scale")
        return scale

    @staticmethod
    def _fault_plan(payload: Mapping[str, Any]
                    ) -> Optional[Mapping[str, Any]]:
        value = payload.get("fault_plan")
        if value is None:
            return None
        if not isinstance(value, Mapping):
            raise AdmissionError(
                f"must be a JSON object of FaultPlan fields, got "
                f"{type(value).__name__}", field="fault_plan")
        try:
            from repro.faults.plan import FaultPlan
            FaultPlan.from_dict(value)
        except FaultPlanError as exc:
            raise AdmissionError(str(exc), field="fault_plan") from exc
        return dict(value)

    @staticmethod
    def _check_program(program: str) -> None:
        """The lint strict gate: assemble + statically verify.

        Streams the program through the incremental verifier
        (:class:`~repro.lint.stream.StreamingVerifier`) and stops at the
        first blocking (``error`` or ``protocol`` severity) finding —
        the service never walks the remainder of a program it is going
        to reject anyway.  Verdicts are those of the batch verifier:
        both are the same streaming checker.
        """
        if len(program.encode("utf-8")) > MAX_PROGRAM_BYTES:
            raise AdmissionError(
                f"program exceeds {MAX_PROGRAM_BYTES} bytes",
                field="program")
        from repro.bender.assembler import AssemblyError, assemble
        from repro.lint import StreamingVerifier, refreshed_pcs_of

        try:
            parsed = assemble(program, name="request-program")
        except AssemblyError as exc:
            raise AdmissionError(f"does not assemble: {exc}",
                                 field="program") from exc
        verifier = StreamingVerifier(
            parsed.name,
            refreshed_pcs=refreshed_pcs_of(parsed.instructions))
        blocking = []
        for index, instruction in enumerate(parsed.instructions):
            new = verifier.feed(instruction, str(index))
            blocking = [finding for finding in new
                        if finding.severity in ("error", "protocol")]
            if blocking:
                break
        else:
            blocking = [finding for finding in verifier.finish()
                        if finding.severity in ("error", "protocol")]
        if blocking:
            raise AdmissionError(
                f"failed static verification with {len(blocking)} "
                f"finding(s)", field="program", findings=blocking)
