"""Counter-based hashing for reproducible lazy random fields.

All randomness in the package flows through `mix`: a splitmix64-style
avalanche applied to a fold of (seed, counter words).  The same key always
yields the same 64-bit word, with no state carried between calls, so fields
can be materialized lazily and in any order.
"""
from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)

_U53 = float(1 << 53)


def splitmix64(x: np.ndarray | int) -> np.ndarray:
    """One splitmix64 finalization round (vectorized over uint64 arrays)."""
    with np.errstate(over="ignore"):     # uint64 wraparound is the point
        z = np.asarray(x, dtype=np.uint64) + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        return z ^ (z >> np.uint64(31))


def mix(seed: np.ndarray | int, *parts: np.ndarray | int) -> np.ndarray:
    """Fold integer words into a single well-mixed uint64 (vectorized).

    The seed broadcasts against the parts like any other word, so one call
    can key many seeds.  Negative integers are allowed; they are
    reinterpreted as two's complement uint64.
    """
    with np.errstate(over="ignore"):
        h = splitmix64(np.asarray(seed, dtype=np.int64).view(np.uint64))
        for p in parts:
            w = np.asarray(p, dtype=np.int64).view(np.uint64)
            h = splitmix64(h ^ splitmix64(w))
    return h


def uniform01(seed: np.ndarray | int, *parts: np.ndarray | int) -> np.ndarray:
    """Deterministic uniform draw in [0, 1) keyed on (seed, parts)."""
    return (mix(seed, *parts) >> np.uint64(11)).astype(np.float64) / _U53


def derive_seeds(base_seed: int, *indices: np.ndarray | int) -> np.ndarray:
    """Child seeds for independent streams (sample fan-out), as int64.

    The indices broadcast, so one call derives a whole bank of seeds.
    """
    return (mix(base_seed, *indices) & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)


def derive_seed(base_seed: int, *indices: int) -> int:
    """The child seed of one index tuple."""
    return int(derive_seeds(base_seed, *indices))
