"""Registry and runner for the per-table/per-figure experiments."""

from __future__ import annotations

import difflib
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import perf
from repro.errors import HbmSimError, UnknownExperimentError
from repro.experiments import (fig03_temperature, fig04_ber_chips,
                               fig05_hcfirst_chips, fig06_ber_channels,
                               fig07_hcfirst_channels, fig08_ber_rows,
                               fig09_bank_variation, fig10_hcnth,
                               fig11_additional_hc, fig12_rowpress_ber,
                               fig13_rowpress_hcfirst, fig14_trr_bypass,
                               fig15_wordlevel, sec7_trr_reveng, tables)
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import RunRecord, run_resilient
from repro.experiments.sharding import ShardSpec, SweepExperiment

#: Experiment id -> runner, in paper order.
EXPERIMENTS: Dict[str, Callable[[float], ExperimentResult]] = {
    "table1": tables.run_table1,
    "table2": tables.run_table2,
    "table3": tables.run_table3,
    "fig03": fig03_temperature.run,
    "fig04": fig04_ber_chips.SWEEP.run,
    "fig05": fig05_hcfirst_chips.SWEEP.run,
    "fig06": fig06_ber_channels.SWEEP.run,
    "fig07": fig07_hcfirst_channels.SWEEP.run,
    "fig08": fig08_ber_rows.SWEEP.run,
    "fig09": fig09_bank_variation.SWEEP.run,
    "fig10": fig10_hcnth.run,
    "fig11": fig11_additional_hc.run,
    "fig12": fig12_rowpress_ber.SWEEP.run,
    "fig13": fig13_rowpress_hcfirst.SWEEP.run,
    "sec7": sec7_trr_reveng.run,
    "fig14": fig14_trr_bypass.run,
    "fig15": fig15_wordlevel.run,
}


#: Experiments whose row sweep splits across independently computable
#: units — (channel, pseudo channel) pairs, channels, or bank combos:
#: id -> the module's :class:`~repro.experiments.sharding.SweepExperiment`,
#: the one entry point for full runs, shards and merges.  The pool
#: runner fans these out across worker slots at ``jobs > 1``.
SHARDABLE: Dict[str, SweepExperiment] = {
    "fig04": fig04_ber_chips.SWEEP,
    "fig05": fig05_hcfirst_chips.SWEEP,
    "fig06": fig06_ber_channels.SWEEP,
    "fig07": fig07_hcfirst_channels.SWEEP,
    "fig08": fig08_ber_rows.SWEEP,
    "fig09": fig09_bank_variation.SWEEP,
    "fig12": fig12_rowpress_ber.SWEEP,
    "fig13": fig13_rowpress_hcfirst.SWEEP,
}


#: Unshardable experiments the pool runner submits before the other
#: unshardable ones: fig15, the critical path of a ``-j 2`` paper sweep.
#: A long id that waits behind short ones delays the end of the whole
#: run.
LONG_RUNNING = frozenset({"fig15"})


#: Extension experiments executing the paper's Section 8 implications
#: (not paper artifacts; excluded from run_all's paper-order sweep).
EXTENSIONS: Dict[str, Callable[[float], ExperimentResult]] = {}


def _register_extensions() -> None:
    from repro.experiments import ext_defense_matrix, ext_temperature

    EXTENSIONS["ext-defenses"] = ext_defense_matrix.run
    EXTENSIONS["ext-temperature"] = ext_temperature.run


_register_extensions()


def known_ids() -> List[str]:
    """Every runnable experiment id (paper artifacts + extensions)."""
    return list(EXPERIMENTS) + list(EXTENSIONS)


def _unknown(experiment_id: str) -> UnknownExperimentError:
    available = known_ids()
    return UnknownExperimentError(
        experiment_id, available,
        difflib.get_close_matches(experiment_id, available, n=3,
                                  cutoff=0.5))


def validate_ids(experiment_ids: Iterable[str]) -> None:
    """Raise :class:`UnknownExperimentError` (a ``KeyError``) for the
    first id absent from the registry — before any worker spawns."""
    for experiment_id in experiment_ids:
        if experiment_id not in EXPERIMENTS \
                and experiment_id not in EXTENSIONS:
            raise _unknown(experiment_id)


def _sweep(experiment_id: str) -> SweepExperiment:
    """The sweep of a shardable experiment; raises for any other id."""
    sweep = SHARDABLE.get(experiment_id)
    if sweep is None:
        raise HbmSimError(
            f"experiment {experiment_id!r} does not support shard "
            f"execution (shardable: {sorted(SHARDABLE)})")
    return sweep


def run_experiment(experiment_id: str, scale: float = 1.0,
                   shard: Optional[str] = None) -> ExperimentResult:
    """Run one experiment (paper artifact or extension) by id.

    The result's :attr:`~repro.experiments.base.ExperimentResult.phases`
    breaks its wall time into ``calibrate`` (chip setup, credited by
    ``chips.profiles``), ``report`` (text rendering, credited by
    ``analysis.reporting``), and ``execute`` (the remainder).

    ``shard`` may be an ``"i/n"`` string: the experiment then measures
    only that slice of its sweep and returns a *partial* result for
    :func:`merge_shard_results` (requires a :data:`SHARDABLE`
    experiment); any other string raises
    :class:`~repro.errors.ShardSpecError`.
    """
    runner = EXPERIMENTS.get(experiment_id) or EXTENSIONS.get(experiment_id)
    if runner is None:
        raise _unknown(experiment_id)
    spec = ShardSpec.parse(shard)
    if spec is not None:
        sweep = _sweep(experiment_id)
        runner = lambda s: sweep.run_shard(s, spec)  # noqa: E731
    start = time.perf_counter()
    with perf.collect_phases() as phases:
        result = runner(scale)
    total = time.perf_counter() - start
    tracked = sum(phases.values())
    phases["execute"] = max(0.0, total - tracked)
    result.phases = dict(phases)
    return result


def merge_shard_results(experiment_id: str,
                        partials: Sequence[ExperimentResult],
                        scale: float) -> ExperimentResult:
    """Merge one complete shard fan-out into the full experiment result.

    The merged report is byte-identical to an unsharded
    :func:`run_experiment` (asserted per experiment in
    ``tests/experiments/test_sharding.py``); its phases are the per-key
    sums over the partials plus this call's merge time as ``merge``.
    """
    sweep = _sweep(experiment_id)
    start = time.perf_counter()
    result = sweep.merge_shards(partials, scale)
    phases: Dict[str, float] = {}
    for partial in partials:
        for key, value in partial.phases.items():
            phases[key] = phases.get(key, 0.0) + value
    phases["merge"] = time.perf_counter() - start
    result.phases = phases
    return result


def run_timed(experiment_ids: Iterable[str], scale: float = 1.0,
              jobs: int = 1, **resilience) -> Tuple[List[ExperimentResult],
                                                    List[RunRecord]]:
    """Run experiments, returning results plus per-invocation records.

    The second element is one :class:`RunRecord` per *requested
    invocation* in request order — duplicate ids get one record each
    (their timings no longer collapse into a single dict entry).  A
    parallel run (``jobs > 1``) renders the identical record and report
    sequence as a serial one (asserted in
    ``tests/experiments/test_parallel.py``); forked workers inherit the
    parent's calibrated chips (:func:`repro.chips.profiles.make_chip`
    memo), so no worker recalibrates.

    ``**resilience`` forwards to
    :func:`repro.experiments.runner.run_resilient` (``timeout``,
    ``retries``, ``keep_going``, ``retry_delay``, ``run_dir``,
    ``resume``).  With the defaults any failure propagates, exactly as
    before; under ``keep_going=True`` the results list holds only the
    successful invocations while every invocation keeps its record.
    """
    records = run_resilient(list(experiment_ids), scale, jobs=jobs,
                            **resilience)
    results = [record.result for record in records
               if record.result is not None]
    return results, records


def run_many(experiment_ids: Sequence[str], scale: float = 1.0,
             jobs: int = 1, **resilience) -> List[ExperimentResult]:
    """Run the given experiments, optionally across worker processes."""
    return run_timed(experiment_ids, scale, jobs=jobs, **resilience)[0]


def run_all(scale: float = 1.0, jobs: int = 1,
            **resilience) -> List[ExperimentResult]:
    """Run every paper experiment in paper order.

    ``jobs`` selects the number of worker processes (1 = in-process
    serial execution, exactly as before).
    """
    return run_many(list(EXPERIMENTS), scale, jobs=jobs, **resilience)
