"""Replicate seeding: the batched PCG64 states against NumPy's own seeding."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalcov import ProcessSpec, VarSystem, noise_block
from causalcov._rng import _mix64_counters, _pcg64_states, _seed_words, mix64, replicate_states

U64 = st.integers(min_value=0, max_value=2**64 - 1)
# entropy below 2**32 is one SeedSequence word, above it two
ENTROPY = st.one_of(U64, st.integers(min_value=0, max_value=2**32 - 1))
PROPERTY = settings(max_examples=60, deadline=None, database=None)


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
def test_pcg64_state_matches_numpy(e):
    state = np.random.PCG64(e).state
    assert state["has_uint32"] == 0 and state["uinteger"] == 0
    assert _pcg64_states(np.array([e], dtype=np.uint64)) == [
        (state["state"]["state"], state["state"]["inc"])
    ]
    words = np.random.SeedSequence(e).generate_state(4, np.uint64)
    assert np.array_equal(_seed_words(np.array([e], dtype=np.uint64))[0], words)


@PROPERTY
@given(seed=U64, start=U64, count=st.integers(min_value=0, max_value=12))
@example(seed=2**64 - 1, start=2**64 - 3, count=6)
def test_replicate_states_follow_mix64(seed, start, count):
    expected = [mix64(seed, start + i) for i in range(count)]
    assert _mix64_counters(seed, start, count).tolist() == expected
    assert replicate_states(seed, start, count) == _pcg64_states(
        np.array(expected, dtype=np.uint64)
    )


@PROPERTY
@given(
    seed=U64,
    start=U64,
    count=st.integers(min_value=0, max_value=9),
    split=st.integers(min_value=0, max_value=9),
    t_eff=st.integers(min_value=1, max_value=7),
    p=st.integers(min_value=1, max_value=3),
)
def test_noise_block_matches_pieces_and_numpy(seed, start, count, split, t_eff, p):
    spec = spec_of(t_eff, p)
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
