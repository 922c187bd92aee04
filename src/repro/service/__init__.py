"""Experiment service layer: a resilient async job API.

The paper's multi-hour FPGA campaigns finish because the harness around
them survives board hangs and host crashes; :mod:`repro.experiments.runner`
is that harness locally.  This package wraps it in a long-lived service
that runs experiment requests without duplicated work and without
losing admitted work to a crash:

- **Admission control** (:mod:`repro.service.admission`) — requests are
  validated structurally, against the experiment registry, and — for
  inline SoftBender programs — through the :mod:`repro.lint` strict
  gate *before* a worker slot is ever occupied; rejections are
  structured :class:`~repro.errors.AdmissionError`\\ s.
- **Coalescing** (:mod:`repro.service.core`) — identical requests
  (same content key: experiment, scale, calibration version, engine,
  effective fault plan, shard) share one in-flight execution, and
  completed results persist in the content-keyed result store
  (:mod:`repro.experiments.store`) the runner's ``--run-dir`` also
  uses, so repeats are served without re-running.
- **Dispatch** (:mod:`repro.service.core`) — admitted jobs wait in one
  FIFO queue for a worker slot of the runner's
  :class:`~repro.experiments.runner.ResilientPool` (timeouts, retries,
  crash respawn); partial progress streams to clients as
  :class:`~repro.experiments.runner.RunRecord` events.
- **Crash-safe resumption** (:mod:`repro.service.journal`) — an
  append-only journal plus the runner's atomic result persistence let
  a restarted service re-adopt in-flight jobs instead of re-running
  completed work.

Serve it with ``python -m repro.service`` (line-JSON protocol, see
:mod:`repro.service.protocol`) or embed :class:`ExperimentService`
directly in an asyncio application.
"""

from repro.service.admission import AdmissionGate
from repro.service.core import ExperimentService, Job, ServiceConfig
from repro.service.journal import ServiceJournal
from repro.service.requests import ExperimentRequest

__all__ = [
    "AdmissionGate",
    "ExperimentRequest",
    "ExperimentService",
    "Job",
    "ServiceConfig",
    "ServiceJournal",
]
