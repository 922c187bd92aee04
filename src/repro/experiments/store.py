"""One content-keyed store for whole-experiment results.

A report is a pure function of its run inputs: the experiment id, the
scale, the shard, the execution engine, every chip's calibration
fingerprint (which folds in
:data:`~repro.chips.profiles.CALIBRATION_VERSION` and every model
constant) and the *effective* fault plan.  :func:`result_key` hashes
exactly those, so any input that could change a report changes its
key, and a stored result is bit-identical to a fresh run under the same
inputs.  The resilient runner's ``--run-dir``/``--resume``
(:func:`repro.experiments.runner.run_resilient`) keys its checkpoints
this way, so a resume is a lookup that can never mix two sweeps,
scales or shards.

The effective plan is the process's active plan
(:func:`repro.faults.active_plan`, which batch workers inherit at
fork) with the worker-only fields ``crash_once`` and
``stall_experiments`` reset to their defaults: they decide which
attempts fail, not what a successful report contains.

Entries are pickles written with :func:`atomic_write` (the one
temp-file-plus-``os.replace`` writer of the repository), so concurrent
writers of one key at worst duplicate work; a corrupt or foreign entry
reads as a miss.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional

from repro.experiments.base import ExperimentResult
from repro.experiments.sharding import ShardSpec
from repro.faults.plan import active_plan


def atomic_write(path: os.PathLike, data: bytes) -> None:
    """Replace ``path`` with ``data`` in one step.

    Writes a temp file in the target's directory (created if missing)
    and ``os.replace``s it over ``path``, so a reader sees the old
    content or the new, never a torn file.  Raises ``OSError`` when the
    directory is unwritable; the temp file never outlives a failure.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name,
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def result_key(experiment_id: str, scale: float,
               shard: Optional[str]) -> str:
    """Stable content hash identifying one experiment result.

    ``shard`` is an ``"i/n"`` string or ``None``; the fault plan is the
    effective active one.
    """
    from repro.chips.profiles import CHIP_SPECS, calibration_fingerprint
    from repro.dram.batch import batch_enabled
    from repro.dram.geometry import DEFAULT_GEOMETRY

    spec = ShardSpec.parse(shard)
    plan = active_plan()
    if plan is not None:  # the effective plan: no worker-only fields
        plan = dataclasses.replace(plan, crash_once=(),
                                   stall_experiments={})
    fingerprint = {
        "experiment_id": experiment_id,
        "scale": float(scale),
        "shard": spec.label if spec is not None else None,
        "fault_plan": plan.to_dict() if plan is not None else None,
        "batch": batch_enabled(),
        "chips": [calibration_fingerprint(chip, DEFAULT_GEOMETRY)
                  for chip in CHIP_SPECS],
    }
    canonical = json.dumps(fingerprint, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultStore:
    """Whole-experiment results under ``root``, one pickle per key."""

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / f"expres-{key}.pkl"

    def load(self, key: str) -> Optional[ExperimentResult]:
        """The result stored under ``key``, or ``None`` (corrupt = miss)."""
        try:
            with self._path(key).open("rb") as handle:
                result = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, ValueError):
            return None
        return result if isinstance(result, ExperimentResult) else None

    def store(self, key: str, result: ExperimentResult) -> None:
        """Persist ``result`` under ``key`` (``OSError`` if unwritable).

        Concurrent writers of one key are harmless: the last replace
        wins and both payloads are bit-identical by construction of the
        key.
        """
        atomic_write(self._path(key), pickle.dumps(
            result, protocol=pickle.HIGHEST_PROTOCOL))
