"""Numpy's default generator for many seeds at once: the seed hash and the
bounded draw replayed as array ops, the stream made by numpy's PCG64.

`np.random.default_rng(seed).integers(b)` is three fixed algorithms. Numpy
runs each for one generator at a time; two of them are replayed here for
many generators at once, with the same output bits:

  * Seeding (replayed). A seed is one uint32 word. `SeedSequence` hashes
    its entropy words into a 4-word pool with 32-bit multiply-xorshift
    mixes; its `generate_state` hashes the pool into output words.
    `generate_state` below runs both hashes on uint32 columns, one row per
    entropy.
  * The stream (numpy's). Each stream is a real `np.random.PCG64`, seeded
    with its row of generate_state(8) read as four uint64 words: the
    generate_state(4, uint64) that PCG64 asks its seed sequence for. Its
    64-bit outputs come from `random_raw`. The uint32 stream a bounded draw
    reads is each output's low half, then its high half.
  * The draw (replayed). A bound b > 1 takes uint32 words x until the low
    32 bits of x * b are at least 2**32 mod b and returns the high 32 bits
    (Lemire, "Fast random integer generation in an interval", ACM TOMACS
    2019). A bound of 1 returns 0 and reads no word. Since 2**32 mod b < b,
    a word whose low half is at least b is never rejected: a round of draws
    where every low half clears its bound is returned at once, and only the
    others take the remainder and re-draw the rejected views.

The tests check each piece against numpy itself, so a numpy release that
changed any of them would fail there.

The first call of a numpy loop maps its part of numpy's shared library
into the process, in 64 KB steps that count in the resident set. So the
code keeps to the integer add, multiply, shift and bitwise loops: it
compares as int64 and reads seeds as uint32 words, without object arrays.
The words are stored as int64 and a draw multiplies them as int64, but it
takes the product's halves on its uint64 view: the int64 `&` loop is not
otherwise used in training, and would map one more 64 KB chunk.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_M32 = 0xFFFFFFFF
# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL = 4
# Row s: the hash constant that mixes pool word s into each word d != s, in
# SeedSequence's order (the entry at d == s is not used).
_MIX_AT = np.array([[_POOL + (_POOL - 1) * s + d - (d > s) if d != s else 0
                     for d in range(_POOL)] for s in range(_POOL)])
_U32 = np.uint64(32)


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


class _Row(ISeedSequence):
    """A seed sequence whose state is one precomputed row: PCG64 asks it
    once for generate_state(4, uint64), its 128-bit seed and increment, and
    reads the row through a pointer, so it must be a contiguous (4,) native
    uint64 array."""

    def __init__(self, row):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        return self.row


class Streams:
    """One numpy PCG64 uint32 stream per seed, drawn from with array ops.

    `Streams(seeds, words).draw(views, bounds)` gives, for each view i (an
    entry of `seeds`, each below 2**32), what the next `np.random.default_rng(seeds[i])
    .integers(bounds[i])` call would. Each stream's first `words` uint32
    words are made up front (rounded up to even); a draw moves a cursor by
    one word at most, so once there have been as many draws as words,
    every stream's PCG64 makes one more output, two words, before the next
    draw. The words are int64 in one flat array, word j of stream i at
    j * streams + i, so a cursor is a flat index and the words a round
    reads are one gather.
    """

    def __init__(self, seeds, words):
        # SeedSequence.generate_state(4, uint64) reads each pair of uint32
        # words as one little-endian uint64, then converts it to native order
        rows = np.ascontiguousarray(generate_state(np.asarray(seeds, dtype=np.uint32)[:, None], 8))
        self._pcgs = [np.random.PCG64(_Row(row))
                      for row in rows.view("<u8").astype(np.uint64, copy=False)]
        self._words = np.empty(0, dtype=np.int64)
        self._cursor = np.arange(len(seeds))
        self._draws = 0
        self._extend((max(1, words) + 1) // 2)

    def _extend(self, outputs):
        """Append each stream's next `outputs` 64-bit outputs, as the uint32
        words bounded draws read: the low half, then the high half."""
        out = np.stack([pcg.random_raw(outputs) for pcg in self._pcgs], axis=1)
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
