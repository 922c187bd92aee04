"""Cell-array working-set policy: chunk sizes and memory-mapped spill.

Full-geometry sweeps (8 channels x 2 pseudo channels x 16 banks x 16384
rows) evaluate cell populations over coordinate cross-products far
larger than any one bank.  Materializing those arrays whole-device is
what used to pin peak RSS to the sweep size; instead, the vectorized
engines stream **bank-sized chunks** through a fixed working set:

- :func:`cells_chunk_elems` bounds how many population elements one
  evaluation chunk may hold (``HBMSIM_CELLS_CHUNK``); chunk boundaries
  always fall on whole-combo blocks (:func:`chunk_combo_blocks`), so
  every chunk is a contiguous slice of the full batch and — because all
  population kernels are elementwise with per-combo seed-chain prefixes
  — bit-identical to the same slice of an all-at-once evaluation
  (asserted in ``tests/core/test_chunked_population.py``).
- :func:`allocate_cells` places the *persistent* outputs (per-row
  threshold matrices, assembled result grids) either in ordinary memory
  or, with ``HBMSIM_CELLS_MMAP`` enabled, in an unlinked temp-file
  memory map the OS can page out — RSS stays flat even when the
  logical arrays do not.

Both knobs follow the strict-parse contract of ``HBMSIM_BATCH``: a
recognizable value is honoured, an unrecognizable one warns once per
distinct value and falls back to the default — a typo must never
silently select a different execution shape.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from typing import List, Set, Tuple

import numpy as np

_CHUNK_ENV = "HBMSIM_CELLS_CHUNK"
_MMAP_ENV = "HBMSIM_CELLS_MMAP"

#: Default chunk bound, in population elements.  65536 elements keep a
#: chunk's ~15 float64 intermediate arrays inside a few MiB while still
#: amortizing numpy kernel launch cost; every population up to 21 full
#: combos of 3072 rows (the Table 2 fig05/fig07 shape) streams in a
#: handful of chunks, and the scale-0.25 bench populations fit in one.
#: The bound changes only the working set, never a result; it is not an
#: engine switch (``HBMSIM_BATCH=0`` selects only the command-level
#: interpreter, per-REF catch-up and row-profiling oracles).
DEFAULT_CHUNK_ELEMS = 65536

_MMAP_ON = frozenset({"1", "true", "yes", "on"})
_MMAP_OFF = frozenset({"0", "false", "no", "off", ""})

#: Unrecognized values already warned about (warn once per distinct
#: value, not once per call — both knobs are read per evaluation).
_WARNED_VALUES: Set[Tuple[str, str]] = set()


def _warn_once(env: str, value: str, fallback: str) -> None:
    if (env, value) in _WARNED_VALUES:
        return
    _WARNED_VALUES.add((env, value))
    warnings.warn(
        f"unrecognized {env}={value!r}; {fallback}",
        RuntimeWarning, stacklevel=3)


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
        _warn_once(_CHUNK_ENV, value,
                   f"expected a positive integer — keeping the default "
                   f"chunk of {DEFAULT_CHUNK_ELEMS} elements")
        return DEFAULT_CHUNK_ELEMS
    if parsed <= 0:
        raise ValueError(
            f"{_CHUNK_ENV} must be a positive element count, got "
            f"{value!r}")
    return parsed


def cells_mmap_enabled() -> bool:
    """Whether persistent cell arrays spill to memory-mapped temp files
    (``HBMSIM_CELLS_MMAP``; default off — anonymous memory)."""
    value = os.environ.get(_MMAP_ENV)
    if value is None:
        return False
    normalized = value.strip().lower()
    if normalized in _MMAP_ON:
        return True
    if normalized not in _MMAP_OFF:
        _warn_once(_MMAP_ENV, value,
                   "expected one of 0/false/no/off or 1/true/yes/on — "
                   "mmap spill stays disabled")
    return False


def allocate_cells(shape: Tuple[int, ...], dtype: object) -> np.ndarray:
    """Allocate a persistent cell array under the spill policy.

    With ``HBMSIM_CELLS_MMAP`` off this is ``np.empty`` (unchanged
    behaviour).  With it on, the array lives in an *unlinked* temporary
    file mapping: identical numerics and indexing, but the pages are
    file-backed, so the OS can evict cold chunks instead of swapping —
    the device-scale threshold matrices stop counting against a flat
    RSS budget.  The backing file is deleted up-front; the mapping dies
    with the array (no cleanup path, no leak on crash).
    """
    if not cells_mmap_enabled():
        return np.empty(shape, dtype=dtype)
    handle = tempfile.TemporaryFile(prefix="hbmsim-cells-")
    try:
        return np.memmap(handle, dtype=dtype, mode="w+", shape=shape)
    finally:
        # np.memmap holds its own reference to the mapping; the Python
        # file object is safe to close (the unlinked inode lives on
        # until the mapping is dropped).
        handle.close()


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
