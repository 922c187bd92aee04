"""Per-phase wall-time accounting for the experiment suite.

The bench harness (``experiments/bench.py``) records where each
experiment's wall time went — ``calibrate`` (chip profile
construction, which calibrates the chip in memory), ``report``
(table/text rendering) and ``execute`` (everything else) — so a future
perf regression can be localized to a phase instead of bisected from a
single total.

This module is dependency-free on purpose: the instrumented call sites
live in low layers (``chips.profiles``, ``analysis.reporting``) that
must not import the experiments package.  Accounting is a no-op unless
a collection is active, so library users outside the experiment runner
pay one attribute check.

Usage::

    with perf.collect_phases() as phases:
        run()                       # instrumented code calls add_phase()
    # phases == {"calibrate": 0.41, "report": 0.02}

Collections do not nest (the experiment runner is the only collector);
an inner ``collect_phases`` simply takes over until it exits.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, Iterator, Optional

_active: Optional[Dict[str, float]] = None


def add_phase(name: str, seconds: float) -> None:
    """Credit ``seconds`` to phase ``name`` of the active collection."""
    if _active is not None:
        _active[name] = _active.get(name, 0.0) + seconds


@contextlib.contextmanager
def timed_phase(name: str) -> Iterator[None]:
    """Time a block and credit it to ``name`` (no-op when inactive)."""
    if _active is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        add_phase(name, time.perf_counter() - start)


@contextlib.contextmanager
def collect_phases() -> Iterator[Dict[str, float]]:
    """Collect phase timings for the duration of the block.

    Yields the live dict; it keeps accumulating until the block exits.
    """
    global _active
    previous = _active
    phases: Dict[str, float] = {}
    _active = phases
    try:
        yield phases
    finally:
        _active = previous
