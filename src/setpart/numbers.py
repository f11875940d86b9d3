"""Exact integer sequences and the closed-form sides of the counting
identities.

Everything is arbitrary-precision; there is no floating point anywhere.
The two sides of each identity are computed independently, term by term,
so that comparing them is a real check and not a tautology.
"""

import math

from .errors import (
    IndexOutOfRange,
    MalformedInput,
    NonIntegerCoefficient,
    _index,
    _is_int,
    _shown,
)

SINGLETON_IDENTITY_VARIANTS = ("collapse", "pair", "alternating")

# bell(1000) takes ~0.2 s, and its cost grows about cubically in n
NUMBERS_CEILING = 1000


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, zero outside 0 <= k <= n.

    The zero-outside convention lets identity sums be written without
    guarding their index ranges.  Inside that window n is capped at
    NUMBERS_CEILING: C(10**6, 5 * 10**5) takes ~13 s.
    """
    if not (_is_int(n) and _is_int(k)):
        shown = (_shown(n), _shown(k))
        raise MalformedInput("binomial needs integers, got %s and %s" % shown)
    if k < 0 or n < 0 or k > n:
        return 0
    if n > NUMBERS_CEILING:  # one comparison here; _index raises SizeTooLarge
        _index(n, ceiling=NUMBERS_CEILING)
    return math.comb(n, k)


# (the Bell numbers so far, the last triangle row), replaced whole: no
# thread or fork sees the two out of step, and a race only repeats work
_bell_state = ([1, 1], [1])


def bell(n: int) -> int:
    """Number of partitions of a set of n elements.

    Computed by the triangle recurrence: each row starts with the previous
    row's last entry, each later entry adds its left and upper-left
    neighbours, and the row's last entry is the next value.
    """
    _index(n, ceiling=NUMBERS_CEILING)
    global _bell_state
    values, row = _bell_state
    while len(values) <= n:
        prev, row = row, [row[-1]]
        for entry in prev:
            row.append(row[-1] + entry)
        values = values + [row[-1]]
        _bell_state = values, row
    return values[n]


def catalan(n: int) -> int:
    """The n-th Catalan number, computed as binomial(2n, n) / (n + 1).

    A nonzero remainder raises NonIntegerCoefficient.
    """
    _index(n, ceiling=NUMBERS_CEILING)
    q, r = divmod(math.comb(2 * n, n), n + 1)
    if r:
        raise NonIntegerCoefficient(
            "binomial(%d, %d) is not divisible by %d" % (2 * n, n, n + 1)
        )
    return q


def catalan_difference(n: int) -> int:
    """catalan_partial_sum(n, n), the alternating binomial transform of
    the Catalan numbers; counts, among other things, the non-crossing
    words of length n with no equal cyclically-adjacent letters."""
    _index(n, ceiling=NUMBERS_CEILING)
    return _catalan_transform(n, n)


def bell_alternating_sum(n: int, j: int) -> int:
    """Sum of (-1)^i binomial(j, i) bell(n + 1 - i) over 0 <= i <= j.

    Counts, with signs, the pairs (S, p) where S is a subset of {1..j}
    and p partitions the rest of {1..n+1}.  n is capped one below
    NUMBERS_CEILING, since the first term reads bell(n + 1).
    """
    _index(j, "j", top=_index(n, ceiling=NUMBERS_CEILING - 1))
    return _bell_transform(n + 1, j)


def _bell_transform(m, j):
    """Sum of (-1)^i binomial(j, i) bell(m - i) over 0 <= i <= j."""
    return sum((-1) ** i * binomial(j, i) * bell(m - i) for i in range(j + 1))


def bell_binomial_sum(n: int, j: int) -> int:
    """Sum of binomial(n - j, k) bell(n - k) over 0 <= k <= n - j.

    Counts the partitions of {1..n+1} with no singleton block inside
    {1..j}; always equals bell_alternating_sum(n, j), and shares its cap.
    """
    _index(j, "j", top=_index(n, ceiling=NUMBERS_CEILING - 1))
    return sum(binomial(n - j, k) * bell(n - k) for k in range(n - j + 1))


def singleton_identity_lhs(j: int, variant: str) -> int:
    """Left side of one of the three derived singleton identities.

    variant "collapse":    sum (-1)^i binomial(j,i) bell(j+1-i)
    variant "pair":        sum (-1)^i binomial(j,i) bell(j+2-i)
    variant "alternating": sum (-1)^i binomial(j,i) bell(j-i), j >= 2
    """
    _check_variant(j, variant)
    shift = {"collapse": 1, "pair": 2, "alternating": 0}[variant]
    return _bell_transform(j + shift, j)


def singleton_identity_rhs(j: int, variant: str) -> int:
    """Right side of the matching singleton identity.

    variant "collapse":    bell(j)
    variant "pair":        bell(j) + bell(j+1)
    variant "alternating": sum (-1)^k bell(j-1-k) over 0 <= k <= j-2
    """
    _check_variant(j, variant)
    if variant == "collapse":
        return bell(j)
    if variant == "pair":
        return bell(j) + bell(j + 1)
    return sum((-1) ** k * bell(j - 1 - k) for k in range(j - 1))


def _check_variant(j, variant):
    if variant not in SINGLETON_IDENTITY_VARIANTS:
        raise IndexOutOfRange("unknown identity variant %s" % _shown(variant))
    # the alternating right side starts at j = 2; smaller j is undefined.
    # the pair left side reads bell(j + 2), which caps j for every side
    low = 2 if variant == "alternating" else 0
    _index(j, "j", low=low, ceiling=NUMBERS_CEILING - 2)


def catalan_partial_sum(n: int, j: int) -> int:
    """Sum of (-1)^i binomial(j, i) catalan(n - i) over 0 <= i <= j."""
    _index(j, "j", top=_index(n, ceiling=NUMBERS_CEILING))
    return _catalan_transform(n, j)


def _catalan_transform(n, j):
    """catalan_partial_sum(n, j), from i = j down to 0.

    binomial(j, i) and catalan(n - i) are carried along by exact ratio
    updates, and a remainder raises NonIntegerCoefficient.
    """
    total = 0
    choose, cat = 1, catalan(n - j)  # binomial(j, i) and catalan(n - i) at i = j
    for i in range(j, -1, -1):
        total += (-1) ** i * choose * cat
        m = n - i
        choose, r_choose = divmod(choose * i, j - i + 1)
        cat, r_cat = divmod(cat * 2 * (2 * m + 1), m + 2)
        if r_choose or r_cat:
            raise NonIntegerCoefficient("inexact ratio update at i = %d" % (i,))
    return total


def factorial(n: int) -> int:
    _index(n, ceiling=NUMBERS_CEILING)
    return math.factorial(n)


def derangement(n: int) -> int:
    """Permutations of n elements with no fixed point.

    Recurrence: d_n = (n - 1)(d_{n-1} + d_{n-2}), d_0 = 1, d_1 = 0.
    """
    _index(n, ceiling=NUMBERS_CEILING)
    prev2, prev1 = 1, 0
    if n == 0:
        return prev2
    for m in range(2, n + 1):
        prev2, prev1 = prev1, (m - 1) * (prev1 + prev2)
    return prev1


def a000262(n: int) -> int:
    """Sum over partitions of an n-set of the product of (block size)!
    (OEIS A000262), by a_n = (2n - 1) a_{n-1} - (n - 1)(n - 2) a_{n-2}
    from a_0 = a_1 = 1."""
    _index(n, ceiling=NUMBERS_CEILING)
    prev, cur = 1, 1
    for m in range(2, n + 1):
        prev, cur = cur, (2 * m - 1) * cur - (m - 1) * (m - 2) * prev
    return cur
