"""Crossing detection on canonical words, and the filtered counts.

A partition is non-crossing when its growth-string form has no
subsequence a b a b with a < b.  Two checkers coexist: a quartic
brute-force reference and a last-occurrence scan, both valid for
arbitrary words.  The counting routines hand their adjacency filters to
the kernel's open-block walk, which counts the surviving words without
building them.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Tuple

from . import _kernels
from .errors import _index
from .partitions import RGS, _word_letters

WORD_CEILING = 14
# is_noncrossing's worst word at this length, 1 2 ... 2000 2000 ... 2 1,
# takes ~0.25 s (2 shared CPUs, Python 3.11)
NONCROSSING_CEILING = 4000
# is_noncrossing_bruteforce's worst word found at this length, 1^45 2^45
# 1^90, takes ~0.21 s (2 shared CPUs, Python 3.11)
BRUTEFORCE_CEILING = 180


class CoverMask(NamedTuple):
    """Per-position boolean cover flags for a word."""

    covered: Tuple[bool, ...]


def is_noncrossing_bruteforce(w) -> bool:
    """Quartic scan over index quadruples; the reference definition.  The
    length is capped at BRUTEFORCE_CEILING."""
    letters = _word_letters(w, BRUTEFORCE_CEILING)
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

    Such a subsequence exists exactly when a letter a, between two of its
    occurrences, sees a larger letter that occurs again after the second;
    valid for arbitrary words, not only growth strings.  Quadratic at
    worst, so the length is capped at NONCROSSING_CEILING.
    """
    letters = _word_letters(w, NONCROSSING_CEILING)
    last = {c: k for k, c in enumerate(letters)}
    prev = {}
    for k, a in enumerate(letters):
        if a in prev and any(
            b > a and last[b] > k for b in letters[prev[a] + 1 : k]
        ):
            return False
        prev[a] = k
    return True


def enumerate_noncrossing(n: int) -> Iterator[RGS]:
    """All non-crossing growth strings of length n, lexicographically."""
    _index(n, ceiling=WORD_CEILING)
    for word in _kernels.iter_noncrossing(n):
        yield RGS._trusted(word)


def count_noncrossing(n: int) -> int:
    """Number of non-crossing partitions of an n-set (a Catalan number)."""
    return _kernels.count_noncrossing(_index(n, ceiling=WORD_CEILING))


def is_cyclic_smirnov(w) -> bool:
    """No letter equals its neighbour, with positions 1 and n adjacent.

    A single letter is its own cyclic neighbour, so length-1 words fail;
    the empty word passes vacuously.
    """
    letters = _word_letters(w)
    n = len(letters)
    if n == 0:
        return True
    if any(letters[i] == letters[i + 1] for i in range(n - 1)):
        return False
    return letters[-1] != letters[0]


def count_cyclic_smirnov_noncrossing(n: int) -> int:
    """Non-crossing words of length n with no equal cyclically-adjacent
    letters; matches the alternating Catalan transform."""
    return _kernels.count_noncrossing_cyclic_smirnov(_index(n, ceiling=WORD_CEILING))


def count_prefix_smirnov_noncrossing(n: int, j: int) -> int:
    """Non-crossing words of length n with w_i != w_{i+1} for i <= j.

    The linear reading needs a successor, so j stops at n - 1; matching
    the alternating Catalan partial sum is the point of this count.
    """
    _index(j, "j", top=_index(n, ceiling=WORD_CEILING) - 1)
    return _kernels.count_noncrossing_prefix_smirnov(n, j)


def covering_reduction(w) -> Tuple[CoverMask, tuple]:
    """Mask the positions that cannot matter for crossing detection.

    Covered: every position whose letter equals its successor, plus the
    last position when it holds a 1.  The word crosses exactly when its
    uncovered subword does, and that subword introduces letters in
    increasing order.
    """
    letters = RGS(w).word
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
