"""Replicate seeding: the batched PCG64 state words against NumPy's own seeding."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalcov import InvalidInput, ProcessSpec, VarSystem, noise_block
from causalcov import _rng, process
from causalcov._rng import (
    _mix64_counters,
    _mulhi64,
    _pcg64_words,
    _seed_words,
    mix64,
    pcg64_word_order,
    pcg64_word_view,
    replicate_words,
)

U64 = st.integers(min_value=0, max_value=2**64 - 1)
U128 = st.integers(min_value=0, max_value=2**128 - 1)
# entropy below 2**32 is one SeedSequence word, above it two
ENTROPY = st.one_of(U64, st.integers(min_value=0, max_value=2**32 - 1))
PROPERTY = settings(max_examples=60, deadline=None, database=None)


class FixedWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands PCG64 the given four generate_state words."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        assert n_words == 4 and dtype == np.uint64
        return self.words.copy()


def words_of(state: int, inc: int) -> list[int]:
    """[state_lo, state_hi, inc_lo, inc_hi] of a PCG64 (state, inc) pair."""
    mask = 2**64 - 1
    return [state & mask, state >> 64, inc & mask, inc >> 64]


def numpy_words(bit_gen: np.random.PCG64) -> list[int]:
    pair = bit_gen.state["state"]
    return words_of(pair["state"], pair["inc"])


def spec_of(t_eff: int, p: int) -> ProcessSpec:
    return ProcessSpec(source=VarSystem(a_lags=[np.eye(1) * 0.5], h=np.ones((1, p))), T=t_eff)


def oracle_noise(seed: int, start: int, count: int, t_eff: int, p: int) -> np.ndarray:
    """One freshly seeded NumPy generator per replicate."""
    draws = [
        np.random.Generator(np.random.PCG64(mix64(seed, start + i))).standard_normal((t_eff, p))
        for i in range(count)
    ]
    return np.stack(draws) if draws else np.empty((0, t_eff, p))


@PROPERTY
@given(e=ENTROPY)
@example(e=0)
@example(e=2**32 - 1)
@example(e=2**32)
@example(e=2**64 - 1)
# inc + initstate and the product + inc carry into the high word, and
# initseq's top low bit shifts into inc's high word
@example(e=1)
# the first sum carries, the last does not
@example(e=37)
def test_pcg64_state_matches_numpy(e):
    state = np.random.PCG64(e).state
    assert state["has_uint32"] == 0 and state["uinteger"] == 0
    entropy = np.array([e], dtype=np.uint64)
    assert _pcg64_words(_seed_words(entropy)).tolist() == [
        words_of(state["state"]["state"], state["state"]["inc"])
    ]
    words = np.random.SeedSequence(e).generate_state(4, np.uint64)
    assert np.array_equal(_seed_words(entropy)[0], words)


@PROPERTY
@given(words=st.lists(U64, min_size=4, max_size=4))
# every 128-bit sum carries and the product's cross terms wrap
@example(words=[2**64 - 1] * 4)
# the low words alone carry into zero high words
@example(words=[0, 2**64 - 1, 0, 2**64 - 1])
@example(words=[0, 2**63, 0, 2**63])
@example(words=[0, 0, 0, 0])
def test_pcg64_words_match_numpy_on_any_seed_words(words):
    expected = numpy_words(np.random.PCG64(FixedWords(words)))
    assert _pcg64_words(np.array([words], dtype=np.uint64)).tolist() == [expected]


@PROPERTY
@given(a=U64, b=U64)
@example(a=2**64 - 1, b=2**64 - 1)
@example(a=2**32 - 1, b=2**32 + 1)
@example(a=0, b=2**64 - 1)
def test_mulhi64_matches_integer_product(a, b):
    assert _mulhi64(np.array([a], dtype=np.uint64), b).tolist() == [(a * b) >> 64]


@PROPERTY
@given(seed=U64, start=U64, count=st.integers(min_value=0, max_value=12))
@example(seed=2**64 - 1, start=2**64 - 3, count=6)
def test_replicate_states_follow_mix64(seed, start, count):
    expected = [mix64(seed, start + i) for i in range(count)]
    assert _mix64_counters(seed, start, count).tolist() == expected
    words = replicate_words(seed, start, count)
    assert words.shape == (count, 4) and words.dtype == np.uint64
    assert words.tolist() == _pcg64_words(_seed_words(np.array(expected, dtype=np.uint64))).tolist()
    assert words.tolist() == [numpy_words(np.random.PCG64(e)) for e in expected]


def test_word_order_is_found_on_this_build():
    # NumPy stores each 128-bit integer low word first where the compiler has
    # __uint128_t, high word first on its emulated struct
    assert pcg64_word_order() in _rng._WORD_ORDERS


@PROPERTY
@given(state=U128, inc=U128)
@example(state=0, inc=1)
@example(state=2**128 - 1, inc=2**128 - 1)
@example(state=2**64, inc=2**64 - 1)
def test_view_writes_read_back_through_numpy(state, inc):
    order = pcg64_word_order()
    bit_gen = np.random.PCG64(0)
    view = pcg64_word_view(bit_gen)
    view[:] = np.array(words_of(state, inc), dtype=np.uint64)[list(order)]
    got = bit_gen.state
    assert (got["state"]["state"], got["state"]["inc"]) == (state, inc)
    np.random.Generator(bit_gen).standard_normal(17)
    got = bit_gen.state
    assert got["has_uint32"] == 0 and got["uinteger"] == 0


def test_probe_falls_back_when_no_order_round_trips(monkeypatch):
    # a probe that finds the seeded words in neither order writes nothing
    monkeypatch.setattr(_rng, "_WORD_ORDERS", ((3, 2, 1, 0),))
    assert pcg64_word_order.__wrapped__() is None


def test_probe_falls_back_without_a_view(monkeypatch):
    def no_view(bit_gen):
        raise ValueError("PCG64 has no state pointer")

    monkeypatch.setattr(_rng, "pcg64_word_view", no_view)
    assert pcg64_word_order.__wrapped__() is None


def test_public_setter_route_gives_the_same_bytes(monkeypatch):
    # a batch of the size the experiments use at T' = 128
    spec = spec_of(128, 2)
    by_view = noise_block(spec, 3, 1000, 256)
    monkeypatch.setattr(process, "pcg64_word_order", lambda: None)
    by_setter = noise_block(spec, 3, 1000, 256)
    assert by_setter.tobytes() == by_view.tobytes()
    assert by_setter.tobytes() == oracle_noise(3, 1000, 256, 128, 2).tobytes()
    assert noise_block(spec, 3, 1000, 0).shape == (0, 128, 2)


@PROPERTY
@given(
    seed=U64,
    start=U64,
    count=st.integers(min_value=0, max_value=9),
    split=st.integers(min_value=0, max_value=9),
    t_eff=st.integers(min_value=1, max_value=7),
    p=st.integers(min_value=1, max_value=3),
)
@example(seed=5, start=2**64 - 9, count=9, split=4, t_eff=3, p=2)
@example(seed=5, start=2**64 - 3, count=4, split=1, t_eff=3, p=2)
def test_noise_block_matches_pieces_and_numpy(seed, start, count, split, t_eff, p):
    spec = spec_of(t_eff, p)
    if start + count > 2**64:
        # the last replicate's index would wrap to a replicate below start
        message = f"replicate index must be < 2**64, got {start + count - 1}"
        with pytest.raises(InvalidInput, match=re.escape(message)):
            noise_block(spec, seed, start, count)
        return
    split = min(split, count)
    whole = noise_block(spec, seed, start, count)
    assert whole.shape == (count, t_eff, p)
    head = noise_block(spec, seed, start, split)
    tail = noise_block(spec, seed, start + split, count - split)
    pieces = np.concatenate([head, tail])
    assert whole.tobytes() == pieces.tobytes()
    assert whole.tobytes() == oracle_noise(seed, start, count, t_eff, p).tobytes()


def test_noise_block_matches_numpy_over_a_full_batch():
    # a batch of the size the experiments use at T' = 128
    spec = spec_of(128, 2)
    w = noise_block(spec, 3, 1000, 256)
    assert w.tobytes() == oracle_noise(3, 1000, 256, 128, 2).tobytes()
