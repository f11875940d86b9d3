"""Crossing detection on canonical words, and the filtered counts.

A partition is non-crossing when its growth-string form has no
subsequence a b a b with a < b.  Two checkers coexist: a quartic
brute-force reference and a pairwise alternation scan, both valid for
arbitrary words.  The counting routines hand their adjacency filters to
the kernel's open-block walk, which counts the surviving words without
building them.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Tuple

from . import _kernels
from .errors import IndexOutOfRange, SizeTooLarge
from .partitions import RGS, _parse_letters

WORD_CEILING = 14


class CoverMask(NamedTuple):
    """Per-position boolean cover flags for a word."""

    covered: Tuple[bool, ...]

    def covered_count(self) -> int:
        return sum(self.covered)


def _letters(w) -> tuple:
    if isinstance(w, RGS):
        return w.word
    if isinstance(w, str):
        return _parse_letters(w)
    return tuple(w)


def is_noncrossing_bruteforce(w) -> bool:
    """Quartic scan over index quadruples; the reference definition."""
    letters = _letters(w)
    n = len(letters)
    for i in range(n):
        for j in range(i + 1, n):
            if letters[j] <= letters[i]:
                continue
            for k in range(j + 1, n):
                if letters[k] != letters[i]:
                    continue
                for l in range(k + 1, n):
                    if letters[l] == letters[j]:
                        return False
    return True


def is_noncrossing(w) -> bool:
    """True when the word has no subsequence a b a b with a < b.

    Scans the word once per pair of letter values, looking for a, b, a, b
    in that order; valid for arbitrary words, not only growth strings.
    """
    letters = _letters(w)
    values = sorted(set(letters))
    for ai in range(len(values)):
        for bi in range(ai + 1, len(values)):
            a, b = values[ai], values[bi]
            # look for a then b then a then b, left to right
            state = 0
            want = (a, b, a, b)
            for c in letters:
                if c == want[state]:
                    state += 1
                    if state == 4:
                        return False
            # fallthrough: no full alternation for this pair
    return True


def enumerate_noncrossing(n: int) -> Iterator[RGS]:
    """All non-crossing growth strings of length n, lexicographically."""
    _check_size(n)
    for word in _kernels.iter_noncrossing(n):
        yield RGS._trusted(word)


def count_noncrossing(n: int) -> int:
    """Number of non-crossing partitions of an n-set (a Catalan number)."""
    _check_size(n)
    return _kernels.count_noncrossing(n)


def is_cyclic_smirnov(w) -> bool:
    """No letter equals its neighbour, with positions 1 and n adjacent.

    A single letter is its own cyclic neighbour, so length-1 words fail;
    the empty word passes vacuously.
    """
    letters = _letters(w)
    n = len(letters)
    if n == 0:
        return True
    if any(letters[i] == letters[i + 1] for i in range(n - 1)):
        return False
    return letters[-1] != letters[0]


def count_cyclic_smirnov_noncrossing(n: int) -> int:
    """Non-crossing words of length n with no equal cyclically-adjacent
    letters; matches the alternating Catalan transform."""
    _check_size(n)
    return _kernels.count_noncrossing_cyclic_smirnov(n)


def count_prefix_smirnov_noncrossing(n: int, j: int) -> int:
    """Non-crossing words of length n with w_i != w_{i+1} for i <= j.

    The linear reading needs a successor, so j stops at n - 1; matching
    the alternating Catalan partial sum is the point of this count.
    """
    _check_size(n)
    if j < 0 or j > n - 1:
        raise IndexOutOfRange("need 0 <= j <= n - 1")
    return _kernels.count_noncrossing_prefix_smirnov(n, j)


def covering_reduction(w) -> Tuple[CoverMask, tuple]:
    """Mask the positions that cannot matter for crossing detection.

    Covered: every position whose letter equals its successor, plus the
    last position when it holds a 1.  The word crosses exactly when its
    uncovered subword does, and that subword introduces letters in
    increasing order.
    """
    r = w if isinstance(w, RGS) else RGS(_letters(w))
    letters = r.word
    n = len(letters)
    covered = [False] * n
    for i in range(n - 1):
        if letters[i] == letters[i + 1]:
            covered[i] = True
    if n and letters[-1] == 1:
        covered[-1] = True
    uncovered = tuple(
        c for c, hide in zip(letters, covered) if not hide
    )
    return CoverMask(tuple(covered)), uncovered


def _check_size(n: int):
    if n < 0:
        raise IndexOutOfRange("need n >= 0")
    if n > WORD_CEILING:
        raise SizeTooLarge("word sweeps are capped at n = %d" % WORD_CEILING)
