"""The array replay of numpy's seeding and bounded draws against numpy
itself: SeedSequence's hash for entropies of 0-8 words and for 32-bit
seeds, and Generator.integers for small bounds, random bounds and bounds
where rejections are common, alone or mixed with bounds that never reject
in one draw, with the words made up front or one output at a time; and
each stream's words against numpy's own PCG64 outputs."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from dsgc.streams import Streams, generate_state  # noqa: E402

# derandomized: every run draws the same examples, so a failure replays
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

words = st.integers(0, 2**32 - 1)
# 2**32 mod b reaches b - 1 for b just above 2**31: up to half the words
# are rejected there; near 2**32 few are
bounds = st.one_of(
    st.sampled_from([1, 2]),
    st.integers(1, 1000),
    st.integers(1, 2**32),
    st.integers(2**31, 2**31 + 2**20),
    st.integers(2**32 - 2**20, 2**32),
)


class TestSeedHash:
    @PROPERTY
    @given(rows=st.integers(0, 8).flatmap(lambda n: st.lists(
               st.lists(words, min_size=n, max_size=n), min_size=1, max_size=6)),
           n_words=st.integers(1, 9))
    @example(rows=[[0], [2**32 - 1]], n_words=1)
    @example(rows=[[]], n_words=4)
    @example(rows=[[0] * 8, [2**32 - 1] * 8], n_words=8)
    def test_equal_length_rows_match_seed_sequence(self, rows, n_words):
        entropy = np.array(rows, dtype=np.uint32).reshape(len(rows), -1)
        got = generate_state(entropy, n_words)
        for row, out in zip(rows, got):
            assert np.array_equal(out, np.random.SeedSequence(row).generate_state(n_words))

    @PROPERTY
    @given(seeds=st.lists(words, min_size=1, max_size=8))
    @example(seeds=[0, 2**32 - 1, 1, 2**31])
    def test_seeds_hash_as_one_word(self, seeds):
        # a stream's seed, as default_rng(seed) takes it, is one entropy word
        got = generate_state(np.array(seeds, dtype=np.uint32)[:, None], 8)
        for seed, out in zip(seeds, got):
            assert np.array_equal(out, np.random.SeedSequence(seed).generate_state(8))


class TestBoundedDraws:
    @staticmethod
    def replay(seeds, rounds, words):
        """Each round's draws from Streams(seeds, words), and the same draws
        made with one scalar Generator.integers call per view."""
        streams = Streams(seeds, words)
        rngs = [np.random.default_rng(s) for s in seeds]
        got, want = [], []
        for views, bs in rounds:
            if isinstance(views, slice):   # the samplers' leading streams
                at, views = views, range(len(seeds))[views]
            else:
                at = np.array(views, dtype=np.int64)
            got.append(streams.draw(at, np.array(bs, dtype=np.int64)).tolist())
            want.append([int(rngs[v].integers(b)) for v, b in zip(views, bs)])
        return got, want

    @staticmethod
    @st.composite
    def rounds(draw, n_views):
        """Rounds of draws: each a subset of distinct views with a bound each."""
        out = []
        for _ in range(draw(st.integers(1, 12))):
            views = draw(st.lists(st.integers(0, n_views - 1), unique=True))
            out.append((views, [draw(bounds) for _ in views]))
        return out

    @PROPERTY
    @given(data=st.data(), seeds=st.lists(words, min_size=1, max_size=6))
    def test_draws_match_generator_integers(self, data, seeds):
        rounds = data.draw(self.rounds(len(seeds)))
        for words in (1, 40):   # 1: a new output per two words read
            got, want = self.replay(seeds, rounds, words)
            assert got == want

    def test_rejections_read_further_words(self):
        # at 2**31 + 1 about half the words are rejected
        seeds, b = [3, 2**32 - 1], 2**31 + 1
        got, want = self.replay(seeds, [([0, 1], [b, b])] * 100, 1)
        assert got == want
        raw = np.random.PCG64(seeds[0]).random_raw(100)
        words = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()
        assert ((words * np.uint64(b)) & 0xFFFFFFFF < 2**32 % b).sum() > 50

    def test_one_draw_mixes_accepted_and_rejected_words(self):
        # bound 1 reads no word and small bounds are almost never rejected,
        # while about half the words at 2**31 + 1 are: most rounds take the
        # rejection path for some views and return the rest at once
        seeds, b = [3, 2**32 - 1, 11, 0, 12345, 2**31 + 5], 2**31 + 1
        rounds = ([(slice(None), [1, b, 7, 1000, b, 2])] * 40
                  + [([5, 1, 2], [b, 1, 3])] * 20 + [(slice(4), [2, 1, b, 9])] * 20)
        for words in (1, 40):
            got, want = self.replay(seeds, rounds, words)
            assert got == want
        raw = np.random.PCG64(seeds[1]).random_raw(20)
        words = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel()
        assert ((words * np.uint64(b)) & 0xFFFFFFFF < 2**32 % b).sum() > 10

    def test_bound_one_reads_no_word(self):
        got, want = self.replay([7], [([0], [1])] * 5 + [([0], [10])] * 5, 1)
        assert got == want
        assert got[:5] == [[0]] * 5


class TestWordSource:
    @pytest.mark.parametrize("words", [1, 12])
    def test_words_are_pcg64_outputs_low_half_first(self, words):
        # a bound of 2**32 rejects no word and returns it whole; with
        # words=1 each stream holds one output and every second draw refills
        seeds, k = [0, 1, 2**31, 2**32 - 1], 6
        streams = Streams(seeds, words)
        got = np.array([streams.draw(slice(None), np.full(len(seeds), 2**32))
                        for _ in range(2 * k)]).T
        for seed, row in zip(seeds, got):
            raw = np.random.PCG64(seed).random_raw(k)
            assert row.tolist() == np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=1).ravel().tolist()
