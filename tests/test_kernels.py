import functools

import pytest

from setpart import _kernels
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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rgs_word_ends_in_one_exactly_when_its_prefix_changes(self, n):
        # enumerate_partitions rebuilds its prefix blocks on this signal
        previous = None
        for word in _kernels.iter_rgs(n):
            assert (word[-1] == 1) == (word[:-1] != previous)
            previous = word[:-1]

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
