"""Synthetic DRAM activation traces.

Defense mechanisms are judged on two axes: whether they stop attacks and
what they cost *benign* workloads.  The trace generator produces a
row-activation stream with Zipf-distributed row popularity — the shape
cache-filtered DRAM traffic exhibits — batched into per-row activation
counts per scheduling epoch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np



@dataclass
class AccessTrace:
    """A batched activation trace against one bank."""

    channel: int
    pseudo_channel: int
    bank: int
    #: One epoch = list of (row, activation count), issued in order.
    epochs: List[List[Tuple[int, int]]] = field(default_factory=list)

    @property
    def total_activations(self) -> int:
        return sum(count for epoch in self.epochs
                   for __, count in epoch)

    @property
    def distinct_rows(self) -> int:
        rows = {row for epoch in self.epochs for row, __ in epoch}
        return len(rows)

    def hottest_row_share(self) -> float:
        """Fraction of activations landing on the most popular row."""
        totals: Dict[int, int] = {}
        for epoch in self.epochs:
            for row, count in epoch:
                totals[row] = totals.get(row, 0) + count
        if not totals:
            return 0.0
        return max(totals.values()) / self.total_activations

    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, counts)`` of every entry in trace order, as int64
        arrays."""
        flat = np.fromiter(itertools.chain.from_iterable(
            itertools.chain.from_iterable(self.epochs)), dtype=np.int64)
        rows, counts = flat.reshape(-1, 2).T
        return rows, counts


def benign_trace(total_activations: int = 100_000,
                 rows: int = 16384,
                 zipf_exponent: float = 0.7,
                 epoch_activations: int = 2_000,
                 channel: int = 0, pseudo_channel: int = 0, bank: int = 0,
                 seed: int = 0xBE19,
                 rng: Optional[np.random.Generator] = None) -> AccessTrace:
    """Generate a Zipf-popularity activation trace.

    ``zipf_exponent`` around 0.7 keeps the hottest row at a few percent
    of the stream — busy but benign (well under any RowHammer-relevant
    rate); larger exponents approach pathological hot-row workloads.
    """
    if total_activations < 1:
        raise ValueError("total_activations must be positive")
    if not 0.0 <= zipf_exponent < 3.0:
        raise ValueError("zipf_exponent must be in [0, 3)")
    if rng is None:
        rng = np.random.default_rng(seed)
    ranks = np.arange(1, rows + 1, dtype=float)
    weights = ranks ** -zipf_exponent
    weights /= weights.sum()
    # Popularity rank -> physical row: shuffled so hot rows spread out.
    placement = rng.permutation(rows)
    trace = AccessTrace(channel, pseudo_channel, bank)
    remaining = total_activations
    while remaining > 0:
        budget = min(epoch_activations, remaining)
        drawn = rng.choice(rows, size=budget, p=weights)
        unique, counts = np.unique(drawn, return_counts=True)
        order = rng.permutation(unique.size)
        epoch = [(int(placement[unique[i]]), int(counts[i]))
                 for i in order]
        trace.epochs.append(epoch)
        remaining -= budget
    return trace
