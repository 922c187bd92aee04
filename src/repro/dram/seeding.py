"""Deterministic seed derivation for the statistical fault models.

Every random quantity in the substrate (cell thresholds, retention ladders,
pattern affinities) must be a pure function of the chip seed and the
coordinates involved, so that re-testing any row reproduces the same cells
without storing the full 4 GiB state.  This module provides a splitmix64-
based mixer that folds an arbitrary sequence of integers into a 64-bit seed
suitable for ``numpy.random.Philox``.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(value: int) -> int:
    """One splitmix64 scrambling round (public-domain constants)."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def hash_pattern(pattern: str) -> int:
    """Stable integer id for a name such as a data pattern.

    Unlike :func:`hash` it does not change between processes, so it can
    key seeds.
    """
    value = 0
    for char in pattern:
        value = (value * 131 + ord(char)) & 0xFFFFFFFF
    return value


def derive_seed(*components: int) -> int:
    """Fold integer components into one well-mixed 64-bit seed."""
    state = 0x243F6A8885A308D3  # pi fractional bits: fixed namespace
    for component in components:
        state = splitmix64((state ^ (component & _MASK64)) & _MASK64)
    return state


def generator_for(*components: int) -> np.random.Generator:
    """Philox generator keyed by the mixed components."""
    seed = derive_seed(*components)
    key = np.array([seed, splitmix64(seed)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_for(*components: int) -> float:
    """One deterministic U(0,1) draw keyed by the components.

    Used for per-coordinate modulation factors (e.g. a channel's pattern
    affinity) where creating a full generator would be wasteful.
    """
    return splitmix64(derive_seed(*components)) / float(_MASK64 + 1)


def normal_for(*components: int) -> float:
    """One deterministic standard-normal draw keyed by the components."""
    # Box-Muller on two decorrelated uniforms derived from the same key.
    u1 = uniform_for(*components, 0x55AA)
    u2 = uniform_for(*components, 0xAA55)
    u1 = max(u1, 1.0e-12)
    return float(np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2))


# ----------------------------------------------------------------------
# Vectorized mirrors.
#
# The experiment sweeps touch hundreds of thousands of rows; the helpers
# below fold one varying integer array through exactly the same splitmix64
# chain as the scalar functions, so vectorized statistics are
# *bit-identical* to what the device engine computes row by row.
# ----------------------------------------------------------------------

_INIT_STATE = 0x243F6A8885A308D3


def splitmix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`splitmix64` over a uint64 array.

    uint64 wraparound is the algorithm, not an error: inputs go through
    ``np.asarray`` because ndarray integer ops (any ndim) wrap silently,
    while numpy *generic* scalars would raise overflow warnings.  The
    scrambling rounds update their temporaries in place — the same
    operations (hence bits) as the naive expression at roughly half the
    memory traffic, which dominates on sweep-sized arrays.
    """
    values = np.asarray(values, dtype=np.uint64)
    values = values + np.uint64(0x9E3779B97F4A7C15)
    mixed = values >> np.uint64(30)
    mixed ^= values
    mixed *= np.uint64(0xBF58476D1CE4E5B9)
    values = mixed >> np.uint64(27)
    values ^= mixed
    values *= np.uint64(0x94D049BB133111EB)
    mixed = values >> np.uint64(31)
    mixed ^= values
    return mixed


def seed_array_for(pre: tuple, varying: np.ndarray,
                   post: tuple = ()) -> np.ndarray:
    """Vector of ``derive_seed(*pre, v, *post)`` for each ``v``."""
    state = _INIT_STATE
    for component in pre:
        state = splitmix64((state ^ (component & _MASK64)) & _MASK64)
    states = splitmix64_array(
        np.uint64(state) ^ np.asarray(varying, dtype=np.uint64))
    for component in post:
        states = splitmix64_array(
            states ^ np.uint64(component & _MASK64))
    return states


def uniform_array_for(pre: tuple, varying: np.ndarray,
                      post: tuple = ()) -> np.ndarray:
    """Vector of ``uniform_for(*pre, v, *post)`` for each ``v``."""
    seeds = seed_array_for(pre, varying, post)
    return splitmix64_array(seeds).astype(np.float64) / float(_MASK64 + 1)


def normal_array_for(pre: tuple, varying: np.ndarray,
                     post: tuple = ()) -> np.ndarray:
    """Vector of ``normal_for(*pre, v, *post)`` for each ``v``."""
    u1 = uniform_array_for(pre, varying, post + (0x55AA,))
    u2 = uniform_array_for(pre, varying, post + (0xAA55,))
    u1 = np.maximum(u1, 1.0e-12)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def seed_array_mixed(*components) -> np.ndarray:
    """Vectorized :func:`derive_seed` over mixed scalar/array components.

    Each component may be a Python int or an integer array; arrays are
    broadcast against each other, and the splitmix64 chain folds them in
    the given order — element ``i`` of the result equals
    ``derive_seed(*[c if scalar else c[i] for c in components])``
    bit-for-bit.  This generalizes :func:`seed_array_for` (one varying
    position) to coordinate batches where channel, bank, *and* row all
    vary per element.
    """
    state: object = np.uint64(_INIT_STATE)
    scalar_prefix = True
    int_state = _INIT_STATE
    for component in components:
        if scalar_prefix and isinstance(component, (int, np.integer)):
            int_state = splitmix64(
                (int_state ^ (int(component) & _MASK64)) & _MASK64)
            continue
        if scalar_prefix:
            state = np.uint64(int_state)
            scalar_prefix = False
        if isinstance(component, (int, np.integer)):
            array = np.uint64(int(component) & _MASK64)
        else:
            array = np.asarray(component, dtype=np.uint64)
        state = splitmix64_array(state ^ array)
    if scalar_prefix:
        return np.uint64(int_state)
    return state


def fold_seed_states(states: np.ndarray, *components) -> np.ndarray:
    """Continue per-element :func:`derive_seed` chains with more folds.

    ``states`` is an array of chain states (what :func:`seed_array_mixed`
    returns); each component — scalar or broadcastable array — is folded
    exactly as another ``derive_seed`` argument would be.  Lets callers
    with block-structured coordinates (e.g. a combo cross-product where
    channel/bank are constant within each block) fold the shared prefix
    once per block and only run the full-size arrays through the varying
    tail — bit-identical to the flat chain, at a fraction of the passes.
    """
    states = np.asarray(states, dtype=np.uint64)
    for component in components:
        if isinstance(component, (int, np.integer)):
            value = np.uint64(int(component) & _MASK64)
        else:
            value = np.asarray(component, dtype=np.uint64)
        states = splitmix64_array(states ^ value)
    return states


#: 2**-64 is an exact power of two, so ``draw * _INV_2_64`` rounds
#: identically to ``draw / 2**64`` — the scalar path's division — for
#: every uint64 input.
_INV_2_64 = 2.0 ** -64


def uniforms_from_states(states: np.ndarray) -> np.ndarray:
    """U(0,1) draws from completed chain states (one per element)."""
    draws = splitmix64_array(np.atleast_1d(states)).astype(np.float64)
    draws *= _INV_2_64
    return draws


def normals_from_states(states: np.ndarray) -> np.ndarray:
    """Standard-normal draws from completed chain states.

    Branches each chain at the two Box-Muller tags, then applies the
    Box-Muller transform with in-place kernels — the identical operation
    sequence (hence bits) as the scalar :func:`normal_for`, minus the
    intermediate allocations.
    """
    state = np.atleast_1d(np.asarray(states, dtype=np.uint64))
    u1 = splitmix64_array(
        splitmix64_array(state ^ np.uint64(0x55AA))).astype(np.float64)
    u1 *= _INV_2_64
    u2 = splitmix64_array(
        splitmix64_array(state ^ np.uint64(0xAA55))).astype(np.float64)
    u2 *= _INV_2_64
    np.maximum(u1, 1.0e-12, out=u1)
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1


def uniform_array_mixed(*components) -> np.ndarray:
    """Vectorized :func:`uniform_for` over mixed scalar/array components."""
    return uniforms_from_states(seed_array_mixed(*components))


def normal_array_mixed(*components) -> np.ndarray:
    """Vectorized :func:`normal_for` over mixed scalar/array components.

    Folds the shared component prefix once, then branches the chain at
    the two Box-Muller tags — the same states (hence bits) as two full
    :func:`uniform_array_mixed` chains at nearly half the array work.
    """
    return normals_from_states(seed_array_mixed(*components))


def uniforms_from_seeds(seeds: np.ndarray, post: tuple) -> np.ndarray:
    """Vector of ``uniform_for(seed, *post)`` over an array of seeds.

    Each seed is folded as the *first component* of a fresh chain, exactly
    like the scalar ``uniform_for(seed, *post)`` — so draws keyed by a
    precomputed ``derive_seed`` value (e.g. a row profile seed) match the
    scalar path bit-for-bit.
    """
    states = splitmix64_array(
        np.uint64(_INIT_STATE) ^ np.asarray(seeds, dtype=np.uint64))
    for component in post:
        states = splitmix64_array(states ^ np.uint64(component & _MASK64))
    draws = splitmix64_array(states).astype(np.float64)
    draws *= _INV_2_64
    return draws
