"""The golden manifest: every registry id's report pinned at one scale.

``golden_manifest.json`` records, for each id at :data:`SCALE`, the
sha256 of the report text and of its canonicalized ``data`` (see
:func:`canonical`).  Any change that moves a report, or a raw number a
report is built from, fails here with the id that moved.  An
intentional change lands as a re-pin: regenerate the file and review
which ids it says changed (the pins are of the default configuration;
:func:`test_manifest_pins_hold_across_configs` checks that every id
keeps them under another chunk bound, through the ``-j 2`` pool (with
its shard fan-out and merge) and on the scalar engine,
``HBMSIM_BATCH=0``, and that the shardable sweeps keep them through the
CLI's ``--shard i/n`` path and a merge)::

    PYTHONPATH=src python -m tests.experiments.test_golden_manifest
"""

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List

import numpy as np
import pytest

from repro.experiments import registry, runner

MANIFEST = Path(__file__).with_name("golden_manifest.json")
SCALE = 0.25


def canonical(value: Any) -> Any:
    """A JSON-serializable form of ``value`` that is equal exactly when
    the data is: dicts become key-sorted ``[key, value]`` pairs (keys
    of any type), arrays their dtype, shape and the sha256 of their
    bytes, numpy scalars their dtype and value.  Lists and tuples are
    both sequences.  Any other type raises, so nothing is hashed by a
    ``repr`` that could hide a change."""
    if isinstance(value, dict):
        pairs = [[canonical(key), canonical(item)]
                 for key, item in value.items()]
        return {"dict": sorted(pairs, key=lambda pair: json.dumps(pair[0]))}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value).tobytes()
        return {"ndarray": [value.dtype.str, list(value.shape),
                            hashlib.sha256(data).hexdigest()]}
    if isinstance(value, np.generic):
        return {"scalar": [value.dtype.str, canonical(value.item())]}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digests(experiment_id: str) -> Dict[str, str]:
    """The manifest entry of one id: report-text and data sha256."""
    return result_digests(registry.run_experiment(experiment_id, SCALE))


def result_digests(result) -> Dict[str, str]:
    """Report-text and data sha256 of one experiment result."""
    data = json.dumps(canonical(result.data), sort_keys=True,
                      separators=(",", ":"))
    return {"text": hashlib.sha256(result.text.encode()).hexdigest(),
            "data": hashlib.sha256(data.encode()).hexdigest()}


def _pinned() -> Dict[str, Dict[str, str]]:
    if not MANIFEST.exists():
        return {}
    manifest = json.loads(MANIFEST.read_text())
    assert manifest["scale"] == SCALE
    return manifest["experiments"]


@pytest.mark.parametrize("experiment_id", sorted(
    set(registry.known_ids()) | set(_pinned())))
def test_manifest_pins_report(experiment_id):
    pinned = _pinned()
    assert experiment_id in pinned, "id missing from the manifest"
    assert experiment_id in registry.known_ids(), "pinned id not in registry"
    assert digests(experiment_id) == pinned[experiment_id]


def _chunked(monkeypatch) -> List:
    monkeypatch.setenv("HBMSIM_CELLS_CHUNK", "700")
    return [registry.run_experiment(experiment_id, SCALE)
            for experiment_id in registry.known_ids()]


def _pooled(monkeypatch) -> List:
    # Two slots on any host, so the shardable ids always fan out.
    monkeypatch.setattr(runner, "_available_cores", lambda: 2)
    return registry.run_timed(registry.known_ids(), SCALE, jobs=2)[0]


def _scalar(monkeypatch) -> List:
    monkeypatch.setenv("HBMSIM_BATCH", "0")
    return [registry.run_experiment(experiment_id, SCALE)
            for experiment_id in registry.known_ids()]


#: The shardable sweeps, which the CLI's ``--shard`` path and a merge
#: must leave byte-identical.
SHARDED = tuple(registry.SHARDABLE)


def _cli_sharded(monkeypatch) -> List:
    """Each shardable id run as ``--shard 0/2`` and ``--shard 1/2`` (the
    CLI's ``run_timed`` call), then merged."""
    merged = []
    for experiment_id in SHARDED:
        partials = [registry.run_timed([experiment_id], SCALE,
                                       shard=f"{index}/2")[0][0]
                    for index in range(2)]
        merged.append(registry.merge_shard_results(experiment_id,
                                                   partials, SCALE))
    return merged


@pytest.mark.parametrize("run,ids", [(_chunked, registry.known_ids()),
                                     (_pooled, registry.known_ids()),
                                     (_scalar, registry.known_ids()),
                                     (_cli_sharded, SHARDED)],
                         ids=["cells-chunk-700", "jobs-2", "batch-off",
                              "cli-shard-2"])
def test_manifest_pins_hold_across_configs(run, ids, monkeypatch):
    pinned = _pinned()
    results = run(monkeypatch)
    assert [result.experiment_id for result in results] == list(ids)
    for result in results:
        assert result_digests(result) == pinned[result.experiment_id], \
            result.experiment_id


def regenerate() -> None:
    """Rewrite the manifest from a fresh run; print the ids that moved."""
    previous = _pinned()
    current = {experiment_id: digests(experiment_id)
               for experiment_id in registry.known_ids()}
    for experiment_id in sorted(set(previous) | set(current)):
        old, new = previous.get(experiment_id), current.get(experiment_id)
        if old != new:
            fields = sorted(key for key in ("text", "data")
                            if (old or {}).get(key) != (new or {}).get(key))
            print(f"changed: {experiment_id} ({', '.join(fields)})")
    MANIFEST.write_text(json.dumps(
        {"scale": SCALE, "experiments": current},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST.name}: {len(current)} ids")


if __name__ == "__main__":
    regenerate()
