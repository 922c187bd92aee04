"""Cross-process calibration cache for the chip profiles.

Constructing a :class:`~repro.chips.profiles.ChipProfile` runs a
Monte-Carlo refinement of the chip's base weak-cell fraction.  The result
is a pure function of the chip spec, the stack geometry, and the
calibration model itself — so every pytest worker, example script, and
``ProcessPoolExecutor`` child re-deriving it from scratch is wasted work.
This module persists the refined ``base_f_weak`` per (spec, geometry,
model version) key so the second process onward starts in microseconds.

Layout and invalidation
-----------------------

- Location: ``$HBMSIM_CACHE_DIR`` if set, else ``$XDG_CACHE_HOME/hbmsim``,
  else ``~/.cache/hbmsim``.  Set ``HBMSIM_NO_CACHE=1`` to disable reads
  *and* writes (every process recalibrates, as before).
- Key: SHA-256 over a canonical JSON rendering of the chip spec, the
  geometry, the calibration constants (pattern/bank/subarray factor
  tables, sigma couplings, the BER test hammer count), and
  :data:`~repro.chips.profiles.CALIBRATION_VERSION`.  Any change to the
  calibration math must bump that version, which changes every key and
  orphans the stale entries.
- Bit identity: values are stored as ``float.hex()`` strings, which
  round-trip IEEE-754 doubles exactly; a cached profile is guaranteed
  bit-identical to a freshly calibrated one (asserted in
  ``tests/chips/test_cache.py``).

Writes go through :func:`repro.experiments.store.atomic_write` (a
same-directory temp file ``os.replace``d over the entry), so concurrent
writers — e.g. parallel experiment workers racing on a cold cache — at
worst duplicate work, never corrupt an entry.  Corrupt or unreadable
entries are treated as misses.  The whole-result store
(:mod:`repro.experiments.store`) builds its content key on
:func:`calibration_fingerprint`.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional

from repro.experiments.store import atomic_write

_ENV_DIR = "HBMSIM_CACHE_DIR"
_ENV_DISABLE = "HBMSIM_NO_CACHE"


def cache_enabled() -> bool:
    """Whether the calibration cache is active for this process."""
    return os.environ.get(_ENV_DISABLE, "") not in ("1", "true", "yes")


def cache_dir() -> Path:
    """Resolve the cache directory (without creating it)."""
    override = os.environ.get(_ENV_DIR, "")
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "hbmsim"


def calibration_fingerprint(spec, geometry) -> dict:
    """Everything ``base_f_weak`` is a function of, JSON-serializable."""
    from repro.chips import profiles
    from repro.dram import cell_model

    return {
        "calibration_version": profiles.CALIBRATION_VERSION,
        "spec": {
            "index": spec.index,
            "seed": spec.seed,
            "die_ber_factors": list(spec.die_ber_factors),
            "base_hc_first": spec.base_hc_first,
            "mean_ber_target": spec.mean_ber_target,
            "hc_row_sigma": spec.hc_row_sigma,
        },
        "geometry": {
            "channels": geometry.channels,
            "pseudo_channels": geometry.pseudo_channels,
            "banks": geometry.banks,
            "rows": geometry.rows,
            "row_bits": geometry.row_bits,
            "dies": geometry.dies,
            "subarray_sizes": list(geometry.subarrays.sizes),
        },
        "model": {
            "pattern_ber": profiles._PATTERN_BER,
            "pattern_hc": profiles._PATTERN_HC,
            "bank_groups": [list(group) for group in profiles._BANK_GROUPS],
            "resilient": [profiles._RESILIENT_BER_FACTOR,
                          profiles._RESILIENT_HC_FACTOR],
            "sigma_couplings": [profiles._SIGMA_N_COUPLING,
                                profiles._SIGMA_HC_COUPLING,
                                list(profiles._SIGMA_WEAK_CLAMP)],
            "sigma_weak": cell_model.DEFAULT_SIGMA_WEAK,
            "ber_test_hammers": profiles.BER_TEST_HAMMERS,
        },
    }


def cache_key(spec, geometry) -> str:
    """Stable content hash identifying one calibration result."""
    canonical = json.dumps(calibration_fingerprint(spec, geometry),
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _entry_path(key: str) -> Path:
    return cache_dir() / f"fweak-{key}.json"


def load_base_f_weak(spec, geometry) -> Optional[float]:
    """Cached refined ``base_f_weak``, or ``None`` on miss/disabled."""
    if not cache_enabled():
        return None
    path = _entry_path(cache_key(spec, geometry))
    try:
        payload = json.loads(path.read_text())
        return float.fromhex(payload["base_f_weak_hex"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def store_base_f_weak(spec, geometry, value: float) -> bool:
    """Persist a refined ``base_f_weak``; returns False when disabled or
    the cache directory is unwritable (never raises)."""
    if not cache_enabled():
        return False
    payload = {
        "base_f_weak_hex": float(value).hex(),
        "base_f_weak": float(value),  # human-readable mirror
        "chip": spec.label,
        "fingerprint": calibration_fingerprint(spec, geometry),
    }
    try:
        atomic_write(_entry_path(cache_key(spec, geometry)),
                     json.dumps(payload, indent=2,
                                sort_keys=True).encode("utf-8"))
    except OSError:
        return False
    return True
