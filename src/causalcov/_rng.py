"""Counter-based replicate seeding.

Replicate r of an experiment with master seed s draws its whole stream
from NumPy's ``Generator(PCG64(mix64(s, r)))``, so any subset of
replicates can be produced independently of batching or execution order.

Building a SeedSequence, a PCG64 and a Generator per replicate costs twice
as much as drawing its noise, so replicate_words computes the seeded
PCG64 states of a whole batch in one vectorised pass instead: SplitMix64
on a uint64 array, then SeedSequence's entropy pool and
generate_state(4, uint64) on uint32 arrays, then PCG64's seeding step on
uint64 arrays, its 128-bit sums with carries and its 64 x 64 -> 128-bit
products in 32-bit halves.  Each replicate's state is four 64-bit words,
[state_lo, state_hi, inc_lo, inc_hi].

The caller writes each row into one bit generator per batch through
pcg64_word_view, a uint64 view of the generator's pcg64_random_t, in the
word order pcg64_word_order finds once per process by a round trip
through the public PCG64.state getter.  Its draws are bit-identical to a
freshly built PCG64(mix64(s, r)).  When the round trip fails, the order
is None and the caller sets each state through the public setter.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

from .errors import InvalidInput
from .linalg import check_int

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

# PCG64's 128-bit LCG multiplier, high and low word.
_PCG_MULT_HI = 0x2360ED051FC65DA4
_PCG_MULT_LO = 0x4385DF649FCCF645

#: column orders of replicate_words that a pcg64_random_t may hold in memory
_WORD_ORDERS = ((0, 1, 2, 3), (1, 0, 3, 2))
#: the layout probe's seed, and the four distinct words it writes (inc odd)
_PROBE_SEED = 12345
_PROBE_WORDS = [0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x0F1E2D3C4B5A6979, 0x8796A5B4C3D2E1F0]


def mix64(seed: int, counter: int) -> int:
    """Mix a 64-bit seed with a counter into a decorrelated 64-bit value."""
    z = (int(seed) + (int(counter) + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


def check_seed(seed: int, name: str = "seed") -> int:
    """seed as an int; InvalidInput unless an integer in [0, 2**64), where mix64 aliases none."""
    seed = check_int(seed, name, minimum=None)
    if seed < 0:
        raise InvalidInput(f"{name} must be >= 0, got {seed}")
    if seed > _MASK:
        raise InvalidInput(f"{name} must be < 2**64, got {seed}")
    return seed


def _mix64_counters(seed: int, start: int, count: int) -> np.ndarray:
    """mix64(seed, r) for r = start..start+count-1 as a uint64 array."""
    z = np.arange(count, dtype=np.uint64) + np.uint64((int(start) + 1) & _MASK)
    z = z * np.uint64(_GOLDEN) + np.uint64(int(seed) & _MASK)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """SeedSequence's running hash constant before and after each of calls hashmixes.

    Call i XORs its value with entry i and multiplies it by entry i + 1.
    """
    consts = [init]
    for _ in range(calls):
        consts.append((consts[-1] * mult) & _MASK32)
    return np.array(consts, dtype=np.uint32)


# the pool's 4 initial and 12 mixing hashmixes, and the 8 output ones
_POOL_HASH = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix on uint32 arrays, shape (m, n) for m + 1 constants.

    Row i hashes values[i] (or values itself, when it is one row) as the
    call that meets the running constant at consts[i].
    """
    value = values ^ consts[:-1, None]
    value = value * consts[1:, None]
    return value ^ (value >> np.uint32(16))


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(e).generate_state(4, np.uint64) for each uint64 e, shape (n, 4).

    SeedSequence splits e into little-endian uint32 words, one word when
    e < 2**32; its pool hashes a missing word like a zero word, so two
    words are used throughout.  Its hashmixes run in a fixed schedule of
    constants, and the three mixes out of one source read the same source
    word, so each stage is one (m, n) operation: the 4 initial hashmixes,
    then per source its 3 hashmixes and the mix into its 3 destinations,
    then the 8 output hashmixes.
    """
    entropy = np.asarray(entropy, dtype=np.uint64)
    words = np.zeros((_POOL_SIZE, entropy.shape[0]), dtype=np.uint32)
    words[0] = entropy & np.uint64(_MASK32)
    words[1] = entropy >> np.uint64(32)
    pool = _hashmix(words, _POOL_HASH[: _POOL_SIZE + 1])
    call = _POOL_SIZE
    for i_src in range(_POOL_SIZE):
        i_dst = [i for i in range(_POOL_SIZE) if i != i_src]
        hashed = _hashmix(pool[i_src], _POOL_HASH[call : call + _POOL_SIZE])
        call += _POOL_SIZE - 1
        mixed = np.uint32(_MIX_MULT_L) * pool[i_dst] - np.uint32(_MIX_MULT_R) * hashed
        pool[i_dst] = mixed ^ (mixed >> np.uint32(16))
    state = _hashmix(np.tile(pool, (2, 1)), _STATE_HASH).astype(np.uint64)
    # generate_state(4, uint64) reads the eight words as little-endian pairs
    return (state[0::2] | (state[1::2] << np.uint64(32))).T


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of a * b for a uint64 array a and a 64-bit constant b.

    Four 32 x 32 -> 64-bit products; the middle sum of the low halves
    carries into the high word.
    """
    half, low_half = np.uint64(32), np.uint64(_MASK32)
    a_lo, a_hi = a & low_half, a >> half
    b_lo, b_hi = np.uint64(b & _MASK32), np.uint64(b >> 32)
    cross_a = a_lo * b_hi
    cross_b = a_hi * b_lo
    mid = ((a_lo * b_lo) >> half) + (cross_a & low_half) + (cross_b & low_half)
    return a_hi * b_hi + (cross_a >> half) + (cross_b >> half) + (mid >> half)


def _add128(a_lo: np.ndarray, a_hi: np.ndarray, b_lo: np.ndarray, b_hi: np.ndarray):
    """(a + b) mod 2**128 on (low, high) uint64 word arrays."""
    lo = a_lo + b_lo
    return lo, a_hi + b_hi + (lo < a_lo)


def _pcg64_words(seed_words: np.ndarray) -> np.ndarray:
    """The seeded state of PCG64 for each row of generate_state(4, uint64) words.

    Returns shape (n, 4): row i is [state_lo, state_hi, inc_lo, inc_hi],
    the 64-bit halves of np.random.PCG64's (state, inc).  PCG64 reads a
    row as initstate = (w0, w1) and initseq = (w2, w3), high word first,
    and runs pcg_setseq_128_srandom: inc = (initseq << 1) | 1, then two LCG
    steps from zero with initstate added in between, which leaves
    state = (inc + initstate) * MULT + inc mod 2**128.
    """
    s_hi, s_lo, q_hi, q_lo = seed_words.T
    one = np.uint64(1)
    inc_lo = (q_lo << one) | one
    inc_hi = (q_hi << one) | (q_lo >> np.uint64(63))
    sum_lo, sum_hi = _add128(inc_lo, inc_hi, s_lo, s_hi)
    mult_lo, mult_hi = np.uint64(_PCG_MULT_LO), np.uint64(_PCG_MULT_HI)
    prod_lo = sum_lo * mult_lo
    prod_hi = _mulhi64(sum_lo, _PCG_MULT_LO) + sum_lo * mult_hi + sum_hi * mult_lo
    state_lo, state_hi = _add128(prod_lo, prod_hi, inc_lo, inc_hi)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=-1)


def replicate_words(seed: int, start: int, count: int) -> np.ndarray:
    """PCG64 states of replicates start..start+count-1 under master seed.

    Returns a (count, 4) uint64 array: row i is [state_lo, state_hi,
    inc_lo, inc_hi] of np.random.PCG64(mix64(seed, start + i)).state,
    computed for the whole batch in one vectorised pass.
    """
    return _pcg64_words(_seed_words(_mix64_counters(seed, start, count)))


def pcg64_word_view(bit_gen: np.random.PCG64) -> np.ndarray:
    """A writable uint64 view of the four words of bit_gen's (state, inc).

    bit_gen.ctypes.state_address points to NumPy's pcg64_state, whose first
    field points to the pcg64_random_t: two 128-bit integers, state then
    inc.  How each integer splits into two words is pcg64_word_order's
    to say.  The view does not keep bit_gen alive.
    """
    address = ctypes.c_void_p.from_address(bit_gen.ctypes.state_address).value
    if not address:
        raise ValueError("PCG64 has no state pointer")
    return np.frombuffer((ctypes.c_uint64 * 4).from_address(address), dtype=np.uint64)


def _state_words(bit_gen: np.random.PCG64) -> list[int]:
    """[state_lo, state_hi, inc_lo, inc_hi] as the public PCG64.state reports them."""
    pair = bit_gen.state["state"]
    return [pair["state"] & _MASK, pair["state"] >> 64, pair["inc"] & _MASK, pair["inc"] >> 64]


@functools.cache
def pcg64_word_order() -> tuple[int, ...] | None:
    """The columns of replicate_words in the order pcg64_word_view stores them.

    (0, 1, 2, 3) on __uint128_t builds of NumPy, (1, 0, 3, 2) on its
    emulated 128-bit struct (high word first), or None when neither holds.
    Checked once per process through the public PCG64.state getter: the
    view of a seeded generator must first read as its state in that order,
    and then a pattern written through the view must read back the same.
    """
    try:
        bit_gen = np.random.PCG64(_PROBE_SEED)
        view = pcg64_word_view(bit_gen)
    except ValueError:
        return None
    seeded = _state_words(bit_gen)
    for order in _WORD_ORDERS:
        if view.tolist() == [seeded[j] for j in order]:
            view[:] = [_PROBE_WORDS[j] for j in order]
            return order if _state_words(bit_gen) == _PROBE_WORDS else None
    return None
