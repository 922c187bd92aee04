"""Span tracer for the benchmark's traced runs.

The tracer wraps the public entry points of each simulator layer from
outside the package, so the program under test is unchanged.  Each call
of a wrapped function records one span (function, start, end, parent
span) in flat in-memory arrays; the spans are written out once, when the
process ends its run (:meth:`Tracer.dump`), and :func:`summarize` turns
the files of every process of a run into per-layer counts, busy time
(union of the layer's outermost spans) and self time (span time not
covered by child spans).

Callers often bind a function with ``from module import name``, so
wrapping only the defining module would record nothing for them:
:meth:`Tracer.install` also rebinds every alias already imported into a
``repro`` module.  Pool workers are forked after installation and
inherit the wrappers; each writes its own span file when it exits.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: ``module:qualified.name`` of every wrapped entry point -> its layer.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("repro.chips.profiles:ChipProfile.__init__", "chips.calibrate"),
    ("repro.chips.vectorized:population_combos", "chips.population"),
    ("repro.chips.vectorized:population_grid", "chips.population"),
    ("repro.chips.vectorized:population_batch", "chips.population"),
    ("repro.core.analytic:combo_population", "core.analytic"),
    ("repro.core.analytic:combo_ber_matrix", "core.analytic"),
    ("repro.core.analytic:wcdp_hc_first_multi", "core.analytic"),
    ("repro.core.analytic:wcdp_ber_multi", "core.analytic"),
    ("repro.core.wordlevel:word_level_study", "core.wordlevel"),
    ("repro.core.wordlevel:secded_outcomes", "core.wordlevel"),
    ("repro.chips.profiles:ChipProfile.cell_population",
     "chips.cell_population"),
    ("repro.dram.device:HBM2Stack.hammer", "dram.device"),
    ("repro.dram.device:HBM2Stack.refresh_burst", "dram.device"),
    ("repro.dram.device:HBM2Stack.read_row", "dram.device"),
    ("repro.dram.device:HBM2Stack.write_row", "dram.device"),
    ("repro.defenses.base:DefendedDevice.hammer", "defenses"),
    ("repro.defenses.base:DefendedDevice.refresh_burst", "defenses"),
    ("repro.defenses.evaluate:evaluate", "defenses"),
    ("repro.workloads.overhead:measure_benign_overhead",
     "workloads.overhead"),
    ("repro.bender.compile:compile_program", "bender.compile"),
    ("repro.bender.compile:PlanExecutor.run", "bender.compile"),
    ("repro.bender.routines.hcfirst:search_hc_first", "bender.hcfirst"),
    ("repro.bender.routines.hcfirst:search_hc_first_rows",
     "bender.hcfirst"),
    ("repro.faults.plan:FaultPlan.classify_probe_windows",
     "faults.classify"),
    ("repro.experiments.registry:merge_shard_results",
     "experiments.sharding"),
    ("repro.analysis.reporting:render_table", "analysis.reporting"),
    ("repro.analysis.reporting:render_series", "analysis.reporting"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for __, layer in TARGETS))

_COMBOS = "repro.chips.vectorized:population_combos"
_ORACLE = "repro.bender.routines.hcfirst:search_hc_first"


def _resolve(spec: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, original)`` of a ``module:qualname`` spec."""
    module_name, qualname = spec.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute, vars(owner)[attribute]


class Tracer:
    """Records spans and counters of the calling thread of one process."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.names = [spec for spec, __ in TARGETS]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.name_layer = [LAYERS.index(layer) for __, layer in TARGETS]
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded (a forked worker starts empty)."""
        self.thread = threading.get_ident()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.names)
        self.stack: List[int] = []
        self.depth = [0] * len(LAYERS)
        self.counters: Dict[str, int] = {
            "combo_cache_hits": 0, "hcfirst_rows": 0,
            "hcfirst_oracle_calls": 0, "compile_segments": 0,
            "compile_scalar_segments": 0}
        #: Objects the program keeps updating after the traced call
        #: returns, read once at dump time (held, so ids stay unique).
        self.device_stats: Dict[int, Any] = {}
        self.fault_logs: Dict[int, List[Any]] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and probe, rebinding imported aliases."""
        observers: Dict[str, Callable[..., None]] = {
            "repro.core.analytic:combo_population": self._combo_hit,
            "repro.bender.compile:compile_program": self._segments,
            "repro.bender.routines.hcfirst:search_hc_first_rows":
                self._oracle_share,
        }
        for name in self.names:
            owner, attribute, original = _resolve(name)
            wrapper = self._span(original, self.index[name],
                                 observers.get(name))
            _rebind(owner, attribute, original, wrapper)
        for spec, probe in (
                ("repro.dram.device:HBM2Stack.__init__", self._keep_stats),
                ("repro.faults.injector:wrap_device", self._keep_events)):
            owner, attribute, original = _resolve(spec)
            _rebind(owner, attribute, original,
                    self._probe(original, probe))
        owner, attribute, original = _resolve(
            "repro.experiments.runner:_worker_main")
        _rebind(owner, attribute, original, self._worker(original))

    def _span(self, fn: Callable[..., Any], name_id: int,
              observe: Optional[Callable[..., None]]) -> Callable[..., Any]:
        layer = self.name_layer[name_id]
        clock = time.perf_counter
        get_ident = threading.get_ident
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if get_ident() != tracer.thread:
                return fn(*args, **kwargs)
            stack, depth = tracer.stack, tracer.depth
            index = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_outer.append(depth[layer] == 0)
            tracer.span_end.append(0.0)
            tracer.calls[name_id] += 1
            before = list(tracer.calls) if observe is not None else None
            depth[layer] += 1
            stack.append(index)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[index] = clock()
                stack.pop()
                depth[layer] -= 1
            if observe is not None:
                observe(before, args, kwargs, result)
            return result

        return traced

    def _probe(self, fn: Callable[..., Any],
               probe: Callable[..., None]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def probed(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            probe(args, result)
            return result

        return probed

    def _worker(self, worker_main: Callable[[Any], None]
                ) -> Callable[[Any], None]:
        @functools.wraps(worker_main)
        def traced_worker(conn: Any) -> None:
            self.reset()
            try:
                worker_main(conn)
            finally:
                self.dump()

        return traced_worker

    # -- observers ---------------------------------------------------------

    def _combo_hit(self, before: List[int], args: Any, kwargs: Any,
                   result: Any) -> None:
        combos = self.index[_COMBOS]
        if self.calls[combos] == before[combos]:
            self.counters["combo_cache_hits"] += 1

    def _segments(self, before: List[int], args: Any, kwargs: Any,
                  result: Any) -> None:
        from repro.bender.compile import ScalarSegment
        self.counters["compile_segments"] += len(result)
        self.counters["compile_scalar_segments"] += sum(
            isinstance(segment, ScalarSegment) for segment in result)

    def _oracle_share(self, before: List[int], args: Any, kwargs: Any,
                      result: Any) -> None:
        oracle = self.index[_ORACLE]
        self.counters["hcfirst_rows"] += len(result)
        self.counters["hcfirst_oracle_calls"] += (self.calls[oracle]
                                                  - before[oracle])

    def _keep_stats(self, args: Any, result: Any) -> None:
        stats = args[0].stats
        self.device_stats[id(stats)] = stats

    def _keep_events(self, args: Any, result: Any) -> None:
        if result is not args[0]:
            self.fault_logs[id(result.events)] = result.events

    # -- output ------------------------------------------------------------

    def dump(self) -> Path:
        """Write this process's spans and counters; returns the file."""
        counters = dict(self.counters)
        for field in ("acts", "refs", "reads", "committed_bitflips"):
            counters[f"dram_{field}"] = sum(
                getattr(stats, field) for stats in self.device_stats.values())
        counters["fault_events"] = sum(
            len(log) for log in self.fault_logs.values())
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.npz"
        np.savez(path, name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 outer=np.frombuffer(self.span_outer, dtype=np.int8),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 names=np.array(self.names),
                 layers=np.array([LAYERS[i] for i in self.name_layer]),
                 counters=np.array(json.dumps(counters)))
        return path


def _rebind(owner: Any, attribute: str, original: Any, wrapper: Any) -> None:
    """Replace ``original`` on its owner and every ``repro`` alias of it."""
    setattr(owner, attribute, wrapper)
    if isinstance(owner, type):
        return  # methods are looked up on the class at call time
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def summarize(trace_dir: Path) -> Dict[str, Any]:
    """Per-layer ``calls``/``busy_s``/``self_s`` and summed counters over
    the span files of every process in ``trace_dir``."""
    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0.0)
    self_time = dict.fromkeys(LAYERS, 0.0)
    function_calls: Dict[str, int] = {}
    counters: Dict[str, int] = {}
    n = len(LAYERS)
    for path in sorted(Path(trace_dir).glob("spans-*.npz")):
        with np.load(path) as spans:
            duration = spans["end"] - spans["start"]
            parent = spans["parent"]
            child = np.zeros_like(duration)
            nested = parent >= 0
            np.add.at(child, parent[nested], duration[nested])
            layer_of_name = np.asarray(
                [LAYERS.index(str(layer)) for layer in spans["layers"]],
                dtype=np.int64)
            layer = layer_of_name[spans["name"]]
            counts = np.bincount(layer, minlength=n)
            outer = np.bincount(layer, weights=duration * spans["outer"],
                                minlength=n)
            own = np.bincount(layer, weights=duration - child, minlength=n)
            for i, name in enumerate(LAYERS):
                calls[name] += int(counts[i])
                busy[name] += float(outer[i])
                self_time[name] += float(own[i])
            per_name = np.bincount(spans["name"],
                                   minlength=len(spans["names"]))
            for name, count in zip(spans["names"], per_name):
                function_calls[str(name)] = (function_calls.get(str(name), 0)
                                             + int(count))
            for key, value in json.loads(str(spans["counters"])).items():
                counters[key] = counters.get(key, 0) + value
    return {"calls": calls, "busy_s": busy, "self_s": self_time,
            "function_calls": function_calls, "counters": counters}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: Dict[str, Any]) -> Dict[str, float]:
    """The benchmark's per-layer metrics from a :func:`summarize` result."""
    calls, busy, own = (summary["calls"], summary["busy_s"],
                        summary["self_s"])
    counters = summary["counters"]
    combo_calls = summary["function_calls"].get(
        "repro.core.analytic:combo_population", 0)
    return {
        "chips.calibrate.calls": calls["chips.calibrate"],
        "chips.calibrate.busy_s": busy["chips.calibrate"],
        "chips.population.calls": calls["chips.population"],
        "chips.population.self_s": own["chips.population"],
        "core.analytic.self_s": own["core.analytic"],
        "core.analytic.combo_cache_hit_frac": _ratio(
            counters["combo_cache_hits"], combo_calls),
        "core.wordlevel.self_s": own["core.wordlevel"],
        "chips.cell_population.calls": calls["chips.cell_population"],
        "chips.cell_population.self_s": own["chips.cell_population"],
        "dram.device.calls": calls["dram.device"],
        "dram.device.self_s": own["dram.device"],
        "dram.acts": counters["dram_acts"],
        "dram.refs": counters["dram_refs"],
        "dram.reads": counters["dram_reads"],
        "dram.bitflips": counters["dram_committed_bitflips"],
        "defenses.self_s": own["defenses"],
        "workloads.overhead.busy_s": busy["workloads.overhead"],
        "bender.compile.busy_s": busy["bender.compile"],
        "bender.compile.scalar_segment_frac": _ratio(
            counters["compile_scalar_segments"],
            counters["compile_segments"]),
        "bender.hcfirst.busy_s": busy["bender.hcfirst"],
        "bender.hcfirst.oracle_frac": _ratio(
            counters["hcfirst_oracle_calls"], counters["hcfirst_rows"]),
        "faults.events": counters["fault_events"],
        "faults.classify.self_s": own["faults.classify"],
        "experiments.sharding.merge_s": busy["experiments.sharding"],
        "analysis.reporting.busy_s": busy["analysis.reporting"],
    }
