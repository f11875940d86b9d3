import functools
import gc
import itertools

import pytest

from setpart import _kernels
from setpart.errors import MalformedInput, NegativeIndex
from setpart.noncrossing import is_noncrossing_bruteforce


@functools.lru_cache(maxsize=None)
def _noncrossing_by_filter(n):
    """Non-crossing words by a route apart from the open-block walk: the
    growth-word odometer filtered by the quartic reference predicate."""
    return tuple(w for w in _kernels.iter_rgs(n) if is_noncrossing_bruteforce(w))


class TestStreams:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_rgs_stream_is_strictly_increasing(self, n):
        words = list(_kernels.iter_rgs(n))
        assert all(a < b for a, b in zip(words, words[1:]))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_noncrossing_stream_is_strictly_increasing(self, n):
        words = list(_kernels.iter_noncrossing(n))
        assert all(a < b for a, b in zip(words, words[1:]))

    @pytest.mark.parametrize("n", range(8))
    def test_rgs_stream_is_growth_words_filtered_from_all_words(self, n):
        # an oracle apart from the odometer: every word over 1..n, in
        # product's lexicographic order, kept when each letter is at most
        # one above the running maximum
        def grows(word):
            top = 0
            for c in word:
                if c > top + 1:
                    return False
                top = max(top, c)
            return True

        words = itertools.product(range(1, n + 1), repeat=n)
        assert list(_kernels.iter_rgs(n)) == list(filter(grows, words))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rgs_word_ends_in_one_exactly_when_its_prefix_changes(self, n):
        # the last letter runs through its values in an inner loop, so a
        # word ending in 1 starts a run, and the prefix is new exactly there;
        # enumerate_partitions rebuilds its prefix blocks on this signal
        previous = None
        for word in _kernels.iter_rgs(n):
            assert (word[-1] == 1) == (word[:-1] != previous)
            previous = word[:-1]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_new_prefix_resets_every_letter_after_its_last_raised_one(self, n):
        # enumerate_partitions keeps the blocks of the prefix up to its last
        # letter above 1 and rebuilds only the letters after it
        words = list(_kernels.iter_rgs(n))
        assert words[0] == (1,) * n
        for previous, word in zip(words, words[1:]):
            if word[-1] != 1:
                continue
            k = max(i for i in range(n - 1) if word[i] > 1)
            assert word[:k] == previous[:k]
            assert word[k] > previous[k]
            assert word[k + 1 : -1] == (1,) * (n - 2 - k)

    @pytest.mark.parametrize("n", range(9))
    def test_noncrossing_stream_is_filtered_rgs_stream(self, n):
        assert tuple(_kernels.iter_noncrossing(n)) == _noncrossing_by_filter(n)


def _adjacent_distinct(word, prefix):
    return all(word[i] != word[i + 1] for i in range(min(prefix, len(word) - 1)))


class TestCountsMatchStreams:
    """Each count against the odometer stream, filtered where needed; the
    non-crossing counts never meet iter_noncrossing, which shares their rule."""

    @pytest.mark.parametrize("n", range(9))
    def test_count_rgs(self, n):
        assert _kernels.count_rgs(n) == len(list(_kernels.iter_rgs(n)))

    @pytest.mark.parametrize("n", range(10))
    def test_count_noncrossing(self, n):
        assert _kernels.count_noncrossing(n) == len(_noncrossing_by_filter(n))

    @pytest.mark.parametrize("n", range(10))
    def test_count_cyclic_smirnov(self, n):
        expected = sum(
            1
            for w in _noncrossing_by_filter(n)
            if _adjacent_distinct(w + w[:1], n)
        )
        assert _kernels.count_noncrossing_cyclic_smirnov(n) == expected

    def test_count_prefix_smirnov(self):
        for n in range(9):
            words = _noncrossing_by_filter(n)
            for j in range(n + 1):
                expected = sum(1 for w in words if _adjacent_distinct(w, j))
                assert (
                    _kernels.count_noncrossing_prefix_smirnov(n, j) == expected
                )


@pytest.mark.parametrize(
    "call",
    [
        lambda: list(_kernels.iter_rgs(-1)),
        lambda: list(_kernels.iter_noncrossing(-1)),
        lambda: _kernels.count_rgs(-1),
        lambda: _kernels.count_noncrossing(-1),
        lambda: _kernels.count_noncrossing_cyclic_smirnov(-1),
        lambda: _kernels.count_noncrossing_prefix_smirnov(-1, 0),
    ],
    ids=[
        "iter_rgs",
        "iter_noncrossing",
        "count_rgs",
        "count_noncrossing",
        "count_noncrossing_cyclic_smirnov",
        "count_noncrossing_prefix_smirnov",
    ],
)
def test_negative_length_rejected(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("length, error", [(-1, NegativeIndex), (2.5, MalformedInput)])
def test_word_length_follows_the_package_rule(length, error):
    # errors._index checks a word length as it checks every size
    walks = [_kernels.iter_rgs, _kernels.iter_noncrossing, _kernels.count_rgs]
    for walk in walks:
        with pytest.raises(error, match="^word length "):
            out = walk(length)
            list(out)


def test_kernels_leave_no_cyclic_garbage():
    # a finished walk is freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        _kernels.count_noncrossing(8)
        _kernels.count_rgs(8)
        list(_kernels.iter_noncrossing(6))
        assert gc.collect() == 0
    finally:
        gc.enable()
