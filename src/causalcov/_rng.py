"""Counter-based replicate seeding.

Replicate r of an experiment with master seed s draws from a generator
seeded with ``mix64(s, r)``, so any subset of replicates can be produced
independently of batching or execution order.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
# SplitMix64 constants (Steele, Lea & Flood's mixing finalizer).
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(seed: int, counter: int) -> int:
    """Mix a 64-bit seed with a counter into a decorrelated 64-bit value."""
    z = (int(seed) + (int(counter) + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """Generator for one replicate; depends only on (seed, replicate)."""
    return np.random.Generator(np.random.PCG64(mix64(seed, replicate)))
