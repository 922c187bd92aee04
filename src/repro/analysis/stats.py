"""Distribution statistics shared by the experiments."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Mean/median/min/max/std summary as a plain dict."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ValueError("cannot summarize an empty collection")
    return {
        "mean": float(array.mean()),
        "median": float(np.median(array)),
        "min": float(array.min()),
        "max": float(array.max()),
        "std": float(array.std()),
        "count": int(array.size),
    }


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Standard deviation normalized to the mean (Fig. 9 x-axis)."""
    array = np.asarray(list(values), dtype=float)
    mean = array.mean()
    if mean == 0:
        raise ValueError("CV undefined for zero-mean data")
    return float(array.std() / mean)


def quantiles(values: Sequence[float],
              qs: Sequence[float] = (0.05, 0.25, 0.5, 0.75, 0.95)
              ) -> Dict[float, float]:
    """Selected quantiles of a distribution."""
    array = np.asarray(list(values), dtype=float)
    return {float(q): float(np.quantile(array, q)) for q in qs}


def bimodality_coefficient(values: Sequence[float]) -> float:
    """Sarle's bimodality coefficient (> ~0.555 suggests bimodality).

    Used to validate Fig. 9's two bank clusters quantitatively.
    """
    array = np.asarray(list(values), dtype=float)
    n = array.size
    if n < 4:
        raise ValueError("need at least four points")
    centered = array - array.mean()
    std = array.std()
    if std == 0:
        raise ValueError("bimodality undefined for constant data")
    skew = (centered ** 3).mean() / std ** 3
    kurt = (centered ** 4).mean() / std ** 4 - 3.0
    return float((skew ** 2 + 1.0)
                 / (kurt + 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3))))


def relative_difference(a: float, b: float) -> float:
    """|a - b| relative to their mean, for paper-vs-measured comparisons."""
    denominator = (abs(a) + abs(b)) / 2.0
    if denominator == 0:
        return 0.0
    return abs(a - b) / denominator


def within_factor(measured: float, reference: float,
                  factor: float) -> bool:
    """Whether ``measured`` is within a multiplicative factor of reference."""
    if measured <= 0 or reference <= 0:
        raise ValueError("within_factor requires positive values")
    if factor < 1:
        raise ValueError("factor must be at least 1")
    ratio = measured / reference
    tolerance = 1.0 + 1.0e-12
    return 1.0 / (factor * tolerance) <= ratio <= factor * tolerance
