"""Numpy's seeding and bounded integer draws, replayed as array ops.

`np.random.default_rng(seed).integers(b)` is three fixed algorithms, and
each can run for many generators at once with the same output bits:

  * Seeding. A seed is one uint32 word. `SeedSequence` hashes its entropy
    words into a 4-word pool with 32-bit multiply-xorshift mixes; its
    `generate_state` hashes the pool into output words. `generate_state`
    below runs both hashes on uint32 columns, one row per entropy.
  * The stream. `PCG64` takes generate_state(4, uint64) as its 128-bit seed
    and increment, seeds itself as PCG's srandom does, and steps the 128-bit
    LCG state = state * MULT + inc before each 64-bit output, the XSL-RR
    permutation of the state (O'Neill, "PCG", 2014). After j steps the
    state is MULT**j * state + (MULT**(j-1) + ... + 1) * inc, so every
    output of every stream comes from one table of those two constants.
    The uint32 stream a bounded draw reads is each output's low half, then
    its high half.
  * The draw. A bound b > 1 takes uint32 words x until the low 32 bits of
    x * b are at least 2**32 mod b and returns the high 32 bits (Lemire,
    "Fast random integer generation in an interval", ACM TOMACS 2019). A
    bound of 1 returns 0 and reads no word. Since 2**32 mod b < b, a word
    whose low half is at least b is never rejected: a round of draws where
    every low half clears its bound is returned at once, and only the
    others take the remainder and re-draw the rejected views.

The tests check each piece against numpy itself, so a numpy release that
changed any of them would fail there.

The first call of a numpy loop maps its part of numpy's shared library
into the process, in 64 KB steps that count in the resident set. So the
code keeps to the integer add, multiply, shift and bitwise loops: it
compares as int64, takes the 128-bit carry with bitwise ops and reads
seeds as uint32 words, without object arrays. A training run maps one
64 KB chunk for it, where uint64 comparisons, casts and object arrays
would map four. The words are stored as int64 and a draw multiplies them
as int64, but it takes the product's halves on its uint64 view: the int64
`&` loop is not otherwise used in training, and would map one more 64 KB
chunk.
"""

from __future__ import annotations

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
# Row s: the hash constant that mixes pool word s into each word d != s, in
# SeedSequence's order (the entry at d == s is not used).
_MIX_AT = np.array([[_POOL + (_POOL - 1) * s + d - (d > s) if d != s else 0
                     for d in range(_POOL)] for s in range(_POOL)])
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U32, _U58, _U63 = np.uint64(32), np.uint64(58), np.uint64(63)


def _hash_constants(init, mult, count):
    """The first `count` constants of a SeedSequence hash and the one after
    each, as uint32 arrays: a hash xors in the first and multiplies by the
    second."""
    out, h = [], init
    for _ in range(count + 1):
        out.append(h)
        h = h * mult & _M32
    out = np.array(out, dtype=np.uint32)
    return out[:-1], out[1:]


def _hashmix(x, xor, mult):
    x = (x ^ xor) * mult
    return x ^ (x >> np.uint32(16))


def _mix(x, y):
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> np.uint32(16))


def generate_state(entropy, n_words):
    """`np.random.SeedSequence(row).generate_state(n_words)` for every row of
    `entropy`, a (rows, L) uint32 matrix, as a (rows, n_words) uint32 matrix."""
    words = np.asarray(entropy, dtype=np.uint32).T
    width, rows = words.shape
    xor, mult = _hash_constants(_INIT_A, _MULT_A, _POOL * max(_POOL, width))
    pool = np.zeros((_POOL, rows), dtype=np.uint32)
    pool[:min(width, _POOL)] = words[:_POOL]
    pool = _hashmix(pool, xor[:_POOL, None], mult[:_POOL, None])
    for src, at in enumerate(_MIX_AT):   # mix every pool word into every other
        mixed = _mix(pool, _hashmix(pool[src], xor[at, None], mult[at, None]))
        mixed[src] = pool[src]
        pool = mixed
    for src in range(_POOL, width):   # then each further word into the whole pool
        at = slice(_POOL * src, _POOL * (src + 1))
        pool = _mix(pool, _hashmix(words[src], xor[at, None], mult[at, None]))
    xor, mult = _hash_constants(_INIT_B, _MULT_B, n_words)
    return _hashmix(pool[np.arange(n_words) % _POOL], xor[:, None], mult[:, None]).T


def _mul_hi(a, b):
    """The high 64 bits of the 128-bit products of uint64 arrays."""
    a0, a1, b0, b1 = a & _M32, a >> _U32, b & _M32, b >> _U32
    lo, m1, m2 = a0 * b0, a1 * b0, a0 * b1
    mid = (lo >> _U32) + (m1 & _M32) + (m2 & _M32)
    return a1 * b1 + (m1 >> _U32) + (m2 >> _U32) + (mid >> _U32)


def _mul128(a, b):
    """Products mod 2**128 of 128-bit numbers held as (high, low) uint64 pairs."""
    (ah, al), (bh, bl) = a, b
    return _mul_hi(al, bl) + al * bh + ah * bl, al * bl


def _add128(a, b):
    (ah, al), (bh, bl) = a, b
    lo = al + bl
    carry = ((al & bl) | ((al | bl) & (lo ^ _M64))) >> _U63
    return ah + bh + carry, lo


def _split128(values):
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _M64 for v in values], dtype=np.uint64))


def _jump_table(count):
    """MULT**j and MULT**(j-1) + ... + 1 mod 2**128 for j = 1..count, each a
    (high, low) pair of uint64 rows."""
    powers, sums, a, s = [], [], 1, 0
    for _ in range(count):
        s = (s + a) & _M128
        a = a * _MULT & _M128
        powers.append(a)
        sums.append(s)
    return _split128(powers), _split128(sums)


def _pcg_seed(seeds):
    """PCG64's (state, increment) after seeding from each 32-bit seed's
    SeedSequence, as PCG's srandom does: state 0, step, add the seed, step."""
    # generate_state(4, uint64) reads each pair of words as one little-endian uint64
    words = np.ascontiguousarray(generate_state(np.asarray(seeds, dtype=np.uint32)[:, None], 8))
    seed_hi, seed_lo, inc_hi, inc_lo = words.view("<u8").T
    inc = ((inc_hi << np.uint64(1)) | (inc_lo >> _U63), (inc_lo << np.uint64(1)) | np.uint64(1))
    state = _mul128(_add128(inc, (seed_hi, seed_lo)), _split128([_MULT]))
    return _add128(state, inc), inc


class Streams:
    """One numpy PCG64 uint32 stream per seed, drawn from with array ops.

    `Streams(seeds, words).draw(views, bounds)` gives, for each view i (an
    entry of `seeds`, each below 2**32), what the next `np.random.default_rng(seeds[i])
    .integers(bounds[i])` call would. Each stream's first `words` uint32
    words are made up front (rounded up to even); a draw moves a cursor by
    one word at most, so once there have been as many draws as words,
    every stream makes two more from its own saved state before the next
    draw. The words are int64 in one flat array, word j of stream i at
    j * streams + i, so a cursor is a flat index and the words a round
    reads are one gather.
    """

    def __init__(self, seeds, words):
        self._state, self._inc = _pcg_seed(seeds)
        self._words = np.empty(0, dtype=np.int64)
        self._cursor = np.arange(len(seeds))
        self._draws = 0
        self._extend((max(1, words) + 1) // 2)

    def _extend(self, outputs):
        """Append each stream's next `outputs` 64-bit outputs, as the uint32
        words bounded draws read: the low half, then the high half."""
        powers, sums = (tuple(x[:, None] for x in pair) for pair in _jump_table(outputs))
        hi, lo = _add128(_mul128(self._state, powers), _mul128(self._inc, sums))
        self._state = hi[-1], lo[-1]
        x, rot = hi ^ lo, hi >> _U58
        out = (x >> rot) | (x << ((np.uint64(64) - rot) & _U63))   # (outputs, streams)
        words = np.stack([out & _M32, out >> _U32], axis=1).ravel()
        self._words = np.concatenate([self._words, words.view(np.int64)])

    def draw(self, views, bounds):
        """One draw below each bound (1 <= bound <= 2**32, int64) from each
        view's stream; `views`, an index array or a slice, must be distinct."""
        streams = len(self._cursor)
        if self._draws * streams >= len(self._words):
            self._extend(1)
        self._draws += 1
        at = self._cursor[views]
        m = (self._words[at] * bounds).view(np.uint64)   # x * b mod 2**64
        self._cursor[views] += streams * (bounds > 1)
        out, low = (m >> _U32).view(np.int64), (m & _M32).view(np.int64)
        # no word is rejected when each low half is at least its bound,
        # since 2**32 mod b < b
        if not np.count_nonzero(low < bounds):
            return out
        rejected = (low < (1 << 32) % bounds).nonzero()[0]
        if len(rejected):
            out[rejected] = self.draw(np.arange(streams)[views][rejected], bounds[rejected])
        return out
