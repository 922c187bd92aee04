"""Common experiment result type and scaling helpers."""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, Set


@dataclass
class ExperimentResult:
    """One reproduced table or figure."""

    experiment_id: str
    title: str
    #: Rendered plain-text report (the rows/series the paper shows).
    text: str
    #: Raw measured numbers, keyed per series.
    data: Dict[str, Any] = field(default_factory=dict)
    #: Headline values from the paper for side-by-side comparison.
    paper_reference: Dict[str, Any] = field(default_factory=dict)
    #: Wall seconds by phase ("calibrate" / "execute" / "report"),
    #: filled by :func:`repro.experiments.registry.run_experiment` from
    #: the :mod:`repro.perf` collection.  Empty for results constructed
    #: outside the registry (and for checkpoints from older runs).
    phases: Dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        return self.text


def scaled(count: int, scale: float, minimum: int = 8) -> int:
    """Scale a population size, clamped to a useful minimum."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return max(minimum, int(round(count * scale)))


_SCALE_ENV = "HBMSIM_SCALE"
#: Unparsable ``HBMSIM_SCALE`` values already warned about (warn once
#: per distinct value — the scale is read per CLI entry, and a typo
#: must not spam every invocation).
_WARNED_SCALE_VALUES: Set[str] = set()


def default_scale() -> float:
    """Experiment scale from the ``HBMSIM_SCALE`` environment variable.

    Full-population runs use 1.0 (the paper's Table 2 populations over
    the real Table 1 geometry); the benchmark suite defaults to a
    fraction so the whole harness finishes in minutes.  The statistics
    the experiments report are population means/extremes and are stable
    under stratified subsampling.

    Parsing is strict, mirroring ``HBMSIM_BATCH``: a value that parses
    but cannot scale a population — ``NaN``, infinite, zero, negative —
    is rejected loudly (it would otherwise surface later as an opaque
    numpy shape error deep in a sweep), while an outright unparsable
    value warns once per distinct value and falls back to 1.0, so a
    typo never silently selects a different population than intended
    without a trace.
    """
    value = os.environ.get(_SCALE_ENV, "")
    if not value.strip():
        return 1.0
    try:
        scale = float(value)
    except ValueError:
        if value not in _WARNED_SCALE_VALUES:
            _WARNED_SCALE_VALUES.add(value)
            warnings.warn(
                f"unparsable {_SCALE_ENV}={value!r}; expected a "
                "positive number — running at the default scale 1.0",
                RuntimeWarning, stacklevel=2)
        return 1.0
    if math.isnan(scale):
        raise ValueError(
            f"{_SCALE_ENV} must be a positive number, got NaN "
            f"({value!r})")
    if math.isinf(scale):
        raise ValueError(
            f"{_SCALE_ENV} must be finite, got {value!r}")
    if scale <= 0:
        raise ValueError(
            f"{_SCALE_ENV} must be positive, got {value!r}")
    return scale
