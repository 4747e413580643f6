"""streams copies numpy's SeedSequence and PCG64 seeding: pin it to numpy.

These tests also run in CI against the newest numpy, so an upstream change
to either algorithm fails there before it can move any result.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latindex.errors import ValidationError
from latindex.streams import generators, pcg64_states

# Zero, the uint32 edge, the first two-word value, a three-word value and
# a seven-word one; the word count of each entry changes the entropy layout.
EDGES = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**200 - 1)


def reference(key):
    state = np.random.PCG64(np.random.SeedSequence(key)).state["state"]
    return state["state"], state["inc"]


@pytest.fixture(autouse=True)
def no_warnings():
    # uint32 arithmetic must wrap silently, never by warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.parametrize("length", range(1, 8))
def test_edge_keys_match_numpy(length):
    # Keys of 1-7 parts: up to seven parts of seven words each, so the
    # entropy runs from one word to far past the four-word pool.
    keys = list(itertools.islice(itertools.product(EDGES, repeat=length), 150))
    for key in keys:
        assert pcg64_states(*key) == [reference(key)], key


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**200), min_size=1, max_size=7))
def test_any_key_matches_numpy(key):
    assert pcg64_states(*key) == [reference(tuple(key))]


@settings(max_examples=50, deadline=None)
@given(
    st.integers(0, 2**70),
    st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20),
    st.integers(0, 2**32 - 1),
)
def test_array_part_matches_numpy_key_by_key(seed, column, idx):
    # Entries of one array part may need one word or two.
    got = pcg64_states(seed, np.array(column, dtype=np.uint64), idx)
    assert got == [reference((seed, b, idx)) for b in column]


def test_replicate_keys_match_numpy():
    # The keys ebp_indicator and bootstrap_fits use: (seed, b, idx) and (seed, b).
    B = np.arange(300)
    assert pcg64_states(20240901, B, 109) == [reference((20240901, b, 109)) for b in range(300)]
    assert pcg64_states(20240902, B) == [reference((20240902, b)) for b in range(300)]


def test_reused_generator_draws_what_a_fresh_one_draws():
    # integers() on an odd J leaves half a 64-bit word buffered; the next
    # stream must not start with it.
    J = 11
    keys = [(7, b, 2**32 - 1) for b in range(40)]
    for key, rng in zip(keys, generators(7, np.arange(40), 2**32 - 1), strict=True):
        fresh = np.random.default_rng(np.random.SeedSequence(key))
        assert np.array_equal(rng.integers(0, J, size=J), fresh.integers(0, J, size=J))
        assert rng.normal(0.0, 0.3) == fresh.normal(0.0, 0.3)
        assert np.array_equal(rng.normal(0.0, 0.7, size=13), fresh.normal(0.0, 0.7, size=13))


@pytest.mark.parametrize("parts", [(-1,), (3, -1, 2), (np.array([0, 1, -2]),), (5, np.array([-1]))])
def test_negative_key_part_is_rejected(parts):
    with pytest.raises(ValidationError, match="nonnegative"):
        pcg64_states(*parts)


def test_array_parts_must_share_one_length():
    with pytest.raises(ValidationError, match="equal lengths"):
        pcg64_states(np.arange(3), np.arange(4))
