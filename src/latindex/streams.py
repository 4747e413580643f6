"""Many numpy random streams from one reused generator.

Every replicate in the package draws from the stream numpy seeds from
SeedSequence(key) for an integer key such as (seed, b, idx). Building a
SeedSequence, a PCG64 and a Generator per key costs far more than the
few draws each replicate takes, so this module computes the PCG64 states
of many keys at once and sets one reused generator to each in turn.

The states are those numpy computes: SeedSequence's hash and pool mixing
(O'Neill's seed_seq_fe design, as in numpy's bit_generator) run here in
vectorized uint32 arithmetic over all keys, then PCG64's seeding step in
Python integers. tests/test_streams.py pins both against numpy.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import ValidationError

# numpy's SeedSequence constants (bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF

# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(part, n: int) -> np.ndarray:
    """(n, W) uint32 words of each entry of part, least significant first.

    part is one nonnegative integer of any size, shared by all n keys (one
    word for 0, as many as the value needs otherwise), or a 1-d integer
    array of n entries below 2**32 (one word each), so every key has the
    same entropy layout.
    """
    if isinstance(part, (int, np.integer)):
        value = int(part)
        if value < 0:
            raise ValidationError(f"stream key parts must be nonnegative, got {value}")
        words = [value & _MASK32]
        while value := value >> 32:
            words.append(value & _MASK32)
        return np.tile(np.array(words, dtype=np.uint32), (n, 1))
    part = np.asarray(part)
    if part.ndim != 1 or part.shape[0] != n or part.dtype.kind not in "iu":
        raise ValidationError("a stream key part must be an integer or a 1-d integer array of the key count")
    if n and part.min() < 0:
        raise ValidationError(f"stream key parts must be nonnegative, got {part.min()}")
    if n and part.max() > _MASK32:
        raise ValidationError(f"stream key array entries must lie below 2**32, got {part.max()}")
    return part.astype(np.uint32)[:, None]


def _hash_consts(count: int) -> list[tuple[int, int]]:
    """(xor, multiplier) of each of the first count hashmix calls of one SeedSequence."""
    consts, h = [], _INIT_A
    for _ in range(count):
        nxt = (h * _MULT_A) & _MASK32
        consts.append((h, nxt))
        h = nxt
    return consts


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return r ^ (r >> np.uint32(16))


def _pool(entropy: np.ndarray) -> list[np.ndarray]:
    """SeedSequence's four pool words of each row of entropy ((n, L) uint32)."""
    n, L = entropy.shape
    consts = iter(_hash_consts(_POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(L - _POOL_SIZE, 0)))

    def hashmix(value: np.ndarray) -> np.ndarray:
        xor, mult = next(consts)
        value = (value ^ np.uint32(xor)) * np.uint32(mult)
        return value ^ (value >> np.uint32(16))

    zero = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < L else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, L):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[:, src]))
    return pool


def _pcg64_states(pool: list[np.ndarray]) -> list[tuple[int, int]]:
    """PCG64's (state, inc) seeded from each row's generate_state(4, uint64)."""
    words, h = [], _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(h)
        h = (h * _MULT_B) & _MASK32
        value = value * np.uint32(h)
        words.append(value ^ (value >> np.uint32(16)))
    # Word pairs (low, high) make the four uint64 seed words.
    seed = np.stack(words, axis=1).astype("<u4").view("<u8").astype(np.uint64).tolist()
    states = []
    for s0, s1, i0, i1 in seed:
        inc = (((i0 << 64) | i1) << 1 | 1) & _MASK128
        states.append((((inc + ((s0 << 64) | s1)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def pcg64_states(*parts) -> list[tuple[int, int]]:
    """The (state, inc) of PCG64(SeedSequence(key)) for each key (*parts).

    Each part is a nonnegative integer shared by every key or a 1-d
    integer array with one entry below 2**32 per key; key i is the tuple
    of the parts' i-th entries, e.g. pcg64_states(seed, np.arange(B), idx)
    for the keys (seed, b, idx). Raises ValidationError for a negative
    part or an array entry of 2**32 or more.
    """
    if not parts:
        raise ValidationError("a stream key needs at least one part")
    lengths = {len(p) for p in parts if not isinstance(p, (int, np.integer))}
    if len(lengths) > 1:
        raise ValidationError("stream key arrays must have equal lengths")
    n = lengths.pop() if lengths else 1
    return _pcg64_states(_pool(np.concatenate([_words(p, n) for p in parts], axis=1)))


def generators(*parts) -> Iterator[np.random.Generator]:
    """Yield one Generator, set in turn to the stream of each key (*parts).

    Keys are built as in pcg64_states. Each yield draws exactly what
    np.random.default_rng(np.random.SeedSequence(key)) would; the
    generator is the same object every time, so take its draws before
    advancing the iterator.
    """
    states = pcg64_states(*parts)
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    for state, inc in states:
        # has_uint32/uinteger: a fresh stream has no buffered half-word
        # (integers() can leave one behind).
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng
