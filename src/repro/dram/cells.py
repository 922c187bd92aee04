"""Cell-array working-set policy: the population chunk size.

Full-geometry sweeps (8 channels x 2 pseudo channels x 16 banks x 16384
rows) evaluate cell populations over coordinate cross-products far
larger than any one bank.  Materializing those arrays whole-device is
what used to pin peak RSS to the sweep size; instead, the vectorized
engines stream **bank-sized chunks** through a fixed working set.
:func:`cells_chunk_elems` bounds how many population elements one
evaluation chunk may hold (``HBMSIM_CELLS_CHUNK``); chunk boundaries
always fall on whole-combo blocks (:func:`chunk_combo_blocks`), so every
chunk is a contiguous slice of the full batch and — because all
population kernels are elementwise with per-combo seed-chain prefixes —
bit-identical to the same slice of an all-at-once evaluation (asserted
in ``tests/core/test_chunked_population.py``).

The knob follows the strict-parse contract of ``HBMSIM_BATCH``: a
recognizable value is honoured, an unrecognizable one warns once per
distinct value and falls back to the default — a typo must never
silently select a different execution shape.
"""

from __future__ import annotations

import os
import warnings
from typing import List, Set, Tuple

_CHUNK_ENV = "HBMSIM_CELLS_CHUNK"

#: Default chunk bound, in population elements.  65536 elements keep a
#: chunk's ~15 float64 intermediate arrays inside a few MiB while still
#: amortizing numpy kernel launch cost; every population up to 21 full
#: combos of 3072 rows (the Table 2 fig05/fig07 shape) streams in a
#: handful of chunks, and the scale-0.25 bench populations fit in one.
#: The bound changes only the working set, never a result; it is not an
#: engine switch (``HBMSIM_BATCH`` selects the command-level engines).
DEFAULT_CHUNK_ELEMS = 65536

#: Unparsable values already warned about (warn once per distinct value,
#: not once per call — the knob is read per evaluation).
_WARNED_VALUES: Set[str] = set()


def cells_chunk_elems() -> int:
    """Chunk bound in elements (``HBMSIM_CELLS_CHUNK``).

    A positive integer is honoured as-is; ``0`` and negative values are
    rejected loudly (a zero-sized working set is a configuration error,
    not a preference), and an unparsable value warns once and keeps the
    default.
    """
    value = os.environ.get(_CHUNK_ENV)
    if value is None or not value.strip():
        return DEFAULT_CHUNK_ELEMS
    try:
        parsed = int(value.strip())
    except ValueError:
        if value not in _WARNED_VALUES:
            _WARNED_VALUES.add(value)
            warnings.warn(
                f"unrecognized {_CHUNK_ENV}={value!r}; expected a "
                f"positive integer — keeping the default chunk of "
                f"{DEFAULT_CHUNK_ELEMS} elements",
                RuntimeWarning, stacklevel=2)
        return DEFAULT_CHUNK_ELEMS
    if parsed <= 0:
        raise ValueError(
            f"{_CHUNK_ENV} must be a positive element count, got "
            f"{value!r}")
    return parsed


def chunk_combo_blocks(n_combos: int, rows_per_combo: int,
                       chunk_elems: int) -> List[Tuple[int, int]]:
    """Split a rows-fastest combo batch into whole-combo chunk ranges.

    Returns ``[(start, stop), ...]`` combo-index ranges covering
    ``range(n_combos)`` in order, each holding at least one combo and at
    most ``chunk_elems // rows_per_combo`` of them (always at least one
    — a single combo larger than the bound still evaluates; the bound
    is a working-set target, not a hard split of seed-chain blocks).
    """
    if n_combos <= 0:
        return []
    if rows_per_combo <= 0:
        raise ValueError("rows_per_combo must be positive")
    per_chunk = max(1, chunk_elems // rows_per_combo)
    return [(start, min(start + per_chunk, n_combos))
            for start in range(0, n_combos, per_chunk)]
