"""Every generator of the package is built here, from nonnegative integer seed words.

README's "Random streams" table lists the words of each stream and the overlaps among them.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

CHUNK = 512
_TAGS = {"bootstrap": 7, "randomization": 13}


def is_integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer; a bool is neither."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def seed_words(*words) -> list[int]:
    """The seed words of ints and of tuples or lists of ints, as one list of ints.

    A negative, non-integer or boolean word is a :class:`ValidationError`.
    """
    flat = [w for word in words for w in (word if isinstance(word, (tuple, list)) else [word])]
    for w in flat:
        if not is_integer(w) or w < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {w!r}")
    return [int(w) for w in flat]


def rng_of(*words) -> np.random.Generator:
    """``default_rng`` of the seed words, or a generator passed alone as it is."""
    if len(words) == 1 and isinstance(words[0], np.random.Generator):
        return words[0]
    return np.random.default_rng(seed_words(*words))


def chunks(kind: str, seed, b: int):
    """Yield the generator ``[*seed, tag, c]`` and size of each chunk ``c`` of ``b`` replicates."""
    for c, start in enumerate(range(0, b, CHUNK)):
        yield rng_of(seed, _TAGS[kind], c), min(CHUNK, b - start)


def grid_seed(seed, i: int) -> int:
    """Grid point ``i``'s harness seed: word 0 of ``SeedSequence([seed, i])``, ``seed`` one word."""
    return int(np.random.SeedSequence(seed_words((seed, i))).generate_state(1)[0])


# numpy's SeedSequence hash on a pool of 4 uint32 words, with explicit
# np.uint32 constants so that value-based casting and NEP 50 give the same words
_U32_MASK, _U128_MASK = 2**32 - 1, 2**128 - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


def _hash_constants(init: int, mult: int, calls: int):
    """The xor and multiplier columns of ``calls`` successive ``hashmix`` calls, each (calls, 1)."""
    h = [init]
    for _ in range(calls):
        h.append(h[-1] * mult & _U32_MASK)
    return np.array(h[:-1], np.uint32)[:, None], np.array(h[1:], np.uint32)[:, None]


_POOL_XOR, _POOL_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_XOR, _STATE_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
# mixing source word s into the others takes calls 4 + 3s, 4 + 3s + 1 and 4 + 3s + 2
# in order of the destination word; row s holds a placeholder
_MIX_CONSTANTS = [tuple(np.insert(a[4 + 3 * s:7 + 3 * s], s, 0, axis=0)
                        for a in (_POOL_XOR, _POOL_MUL)) for s in range(4)]


def _xorshift(value):
    return value ^ (value >> _XSHIFT)


def _hashmix(value, xor, mul):
    return _xorshift((value ^ xor) * mul)


def _pcg64_seeds(seed: int, reps: range) -> list:
    """The words of ``SeedSequence([seed, rep]).generate_state(4, uint64)``, four lists over ``reps``."""
    pool = np.zeros((4, len(reps)), np.uint32)
    pool[0], pool[1] = seed, reps
    pool = _hashmix(pool, _POOL_XOR[:4], _POOL_MUL[:4])
    for src, (xor, mul) in enumerate(_MIX_CONSTANTS):
        word = pool[src].copy()
        pool = _xorshift(_MIX_L * pool - _MIX_R * _hashmix(word, xor, mul))
        pool[src] = word
    state = _hashmix(np.concatenate([pool, pool]), _STATE_XOR, _STATE_MUL).astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).tolist()


def rngs_of(seed, reps: range):
    """Yield the generator of each seed-word row ``(seed, rep)``, ``rep`` in ``reps``, in order.

    Each draws exactly the stream of ``rng_of((seed, rep))``. The seed words
    are checked once, at the ends of ``reps``, as :func:`rng_of` checks them.
    When every word is below 2**32, numpy's SeedSequence hash runs once for
    the block, PCG64's seeding (two 128-bit LCG steps) once per row, and one
    generator is reseeded per row: a yielded generator is valid only until
    the next one is taken. A word of 2**32 or more, which numpy splits into
    several uint32 words, gives every row its own generator from :func:`rng_of`.
    """
    entropy = seed_words((seed, reps[0]), (seed, reps[-1]))
    if max(entropy) > _U32_MASK:
        yield from (rng_of((seed, rep)) for rep in reps)
        return
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    for seed_hi, seed_lo, inc_hi, inc_lo in zip(*_pcg64_seeds(entropy[0], reps)):
        # from state 0, step to inc, add the seed, step again: a step is state * mult + inc
        inc = (inc_hi << 65 | inc_lo << 1 | 1) & _U128_MASK
        lcg = ((seed_hi << 64 | seed_lo) + inc) * _PCG64_MULT + inc & _U128_MASK
        state["state"] = {"state": lcg, "inc": inc}
        bits.state = state
        yield rng
