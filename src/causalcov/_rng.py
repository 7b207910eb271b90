"""Counter-based replicate seeding.

Replicate r of an experiment with master seed s draws its whole stream
from NumPy's ``Generator(PCG64(mix64(s, r)))``, so any subset of
replicates can be produced independently of batching or execution order.

Building a SeedSequence, a PCG64 and a Generator per replicate costs twice
as much as drawing its noise, so replicate_states computes the seeded
PCG64 states of a whole batch in one vectorised pass instead: SplitMix64
on a uint64 array, then SeedSequence's entropy pool and
generate_state(4, uint64) on uint32 arrays, then PCG64's seeding step in
128-bit integers.  The caller sets each state on one bit generator per
batch; its draws are bit-identical to a freshly built PCG64(mix64(s, r)).
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
# SplitMix64 constants (Steele, Lea & Flood's mixing finalizer).
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

# SeedSequence's hash constants (O'Neill's seed_seq_fe, as NumPy ships it).
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4

# PCG64's 128-bit LCG multiplier.
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def mix64(seed: int, counter: int) -> int:
    """Mix a 64-bit seed with a counter into a decorrelated 64-bit value."""
    z = (int(seed) + (int(counter) + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


def _mix64_counters(seed: int, start: int, count: int) -> np.ndarray:
    """mix64(seed, r) for r = start..start+count-1 as a uint64 array."""
    z = np.arange(count, dtype=np.uint64) + np.uint64((int(start) + 1) & _MASK)
    z = z * np.uint64(_GOLDEN) + np.uint64(int(seed) & _MASK)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix with its running hash constant, on uint32 arrays."""
    hash_const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * mult) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(e).generate_state(4, np.uint64) for each uint64 e, shape (n, 4).

    SeedSequence splits e into little-endian uint32 words, one word when
    e < 2**32; its pool hashes a missing word like a zero word, so two
    words are used throughout.
    """
    entropy = np.asarray(entropy, dtype=np.uint64)
    lo = (entropy & np.uint64(_MASK32)).astype(np.uint32)
    hi = (entropy >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(lo)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in (lo, hi, zero, zero)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                hashed = hashmix(pool[i_src])
                mixed = np.uint32(_MIX_MULT_L) * pool[i_dst] - np.uint32(_MIX_MULT_R) * hashed
                pool[i_dst] = mixed ^ (mixed >> np.uint32(16))
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    # generate_state(4, uint64) reads the eight words as little-endian pairs
    return np.stack([state[i] | (state[i + 1] << np.uint64(32)) for i in range(0, 8, 2)], axis=-1)


def _pcg64_states(entropy: np.ndarray) -> list[tuple[int, int]]:
    """The (state, inc) pair of np.random.PCG64(e) for each uint64 e.

    PCG64 takes its initial state and stream from the seed words and runs
    pcg_setseq_128_srandom: inc = (initseq << 1) | 1, then two LCG steps
    from zero with initstate added in between.
    """
    out = []
    for s_hi, s_lo, i_hi, i_lo in _seed_words(entropy).tolist():
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        out.append((state, inc))
    return out


def replicate_states(seed: int, start: int, count: int) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of replicates start..start+count-1 under master seed.

    Entry i is np.random.PCG64(mix64(seed, start + i)).state's pair,
    computed for the whole batch in one vectorised pass.
    """
    return _pcg64_states(_mix64_counters(seed, start, count))
