"""Exact integer sequences and the closed-form sides of the counting
identities.

Everything is arbitrary-precision; there is no floating point anywhere.
The two sides of each identity are computed independently, term by term,
so that comparing them is a real check and not a tautology.
"""

import math
import threading

from .errors import IndexOutOfRange, NegativeIndex, NonIntegerCoefficient

SINGLETON_IDENTITY_VARIANTS = ("collapse", "pair", "alternating")


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, zero outside 0 <= k <= n.

    The zero-outside convention lets identity sums be written without
    guarding their index ranges.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


_bell_cache = [1, 1]
_bell_row = [1]  # the last triangle row; it ends with _bell_cache[-1]
_bell_lock = threading.Lock()


def bell(n: int) -> int:
    """Number of partitions of a set of n elements.

    Computed by the triangle recurrence: each row starts with the previous
    row's last entry, each later entry adds its left and upper-left
    neighbours, and the row's last entry is the next value.
    """
    if n < 0:
        raise NegativeIndex("sequence index must be nonnegative")
    global _bell_row
    with _bell_lock:
        while len(_bell_cache) <= n:
            row = [_bell_row[-1]]
            for entry in _bell_row:
                row.append(row[-1] + entry)
            _bell_row = row
            _bell_cache.append(row[-1])
        return _bell_cache[n]


def catalan(n: int) -> int:
    """The n-th Catalan number, computed as binomial(2n, n) / (n + 1).

    A nonzero remainder raises NonIntegerCoefficient.
    """
    if n < 0:
        raise NegativeIndex("sequence index must be nonnegative")
    q, r = divmod(math.comb(2 * n, n), n + 1)
    if r:
        raise NonIntegerCoefficient(
            "binomial(%d, %d) is not divisible by %d" % (2 * n, n, n + 1)
        )
    return q


def catalan_difference(n: int) -> int:
    """Alternating binomial transform of the Catalan numbers.

    Counts, among other things, the non-crossing words of length n with
    no equal cyclically-adjacent letters.  binomial(n, i) and catalan(i)
    are carried along by exact ratio updates, and a remainder raises
    NonIntegerCoefficient.
    """
    if n < 0:
        raise NegativeIndex("sequence index must be nonnegative")
    total = 0
    choose = cat = 1  # binomial(n, i) and catalan(i) at i = 0
    for i in range(n + 1):
        total += (-1) ** (n - i) * choose * cat
        choose, r_choose = divmod(choose * (n - i), i + 1)
        cat, r_cat = divmod(cat * 2 * (2 * i + 1), i + 2)
        if r_choose or r_cat:
            raise NonIntegerCoefficient("inexact ratio update at i = %d" % (i,))
    return total


def bell_alternating_sum(n: int, j: int) -> int:
    """Sum of (-1)^i binomial(j, i) bell(n + 1 - i) over 0 <= i <= j.

    Counts, with signs, the pairs (S, p) where S is a subset of {1..j}
    and p partitions the rest of {1..n+1}.
    """
    if j < 0 or j > n:
        raise IndexOutOfRange("need 0 <= j <= n")
    return sum(
        (-1) ** i * binomial(j, i) * bell(n + 1 - i) for i in range(j + 1)
    )


def bell_binomial_sum(n: int, j: int) -> int:
    """Sum of binomial(n - j, k) bell(n - k) over 0 <= k <= n - j.

    Counts the partitions of {1..n+1} with no singleton block inside
    {1..j}; always equals bell_alternating_sum(n, j).
    """
    if j < 0 or j > n:
        raise IndexOutOfRange("need 0 <= j <= n")
    return sum(binomial(n - j, k) * bell(n - k) for k in range(n - j + 1))


def singleton_identity_lhs(j: int, variant: str) -> int:
    """Left side of one of the three derived singleton identities.

    variant "collapse":    sum (-1)^i binomial(j,i) bell(j+1-i)
    variant "pair":        sum (-1)^i binomial(j,i) bell(j+2-i)
    variant "alternating": sum (-1)^i binomial(j,i) bell(j-i), j >= 2
    """
    _check_variant(j, variant)
    shift = {"collapse": 1, "pair": 2, "alternating": 0}[variant]
    return sum(
        (-1) ** i * binomial(j, i) * bell(j + shift - i) for i in range(j + 1)
    )


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
        raise IndexOutOfRange("unknown identity variant %r" % (variant,))
    if j < 0:
        raise IndexOutOfRange("need j >= 0")
    if variant == "alternating" and j < 2:
        # the alternating right side starts at j = 2; smaller j is undefined
        raise IndexOutOfRange("the alternating variant needs j >= 2")


def catalan_partial_sum(n: int, j: int) -> int:
    """Sum of (-1)^i binomial(j, i) catalan(n - i) over 0 <= i <= j.

    At j = n this coincides with catalan_difference(n) after reindexing.
    """
    if j < 0 or j > n:
        raise IndexOutOfRange("need 0 <= j <= n")
    return sum(
        (-1) ** i * binomial(j, i) * catalan(n - i) for i in range(j + 1)
    )


def factorial(n: int) -> int:
    if n < 0:
        raise NegativeIndex("sequence index must be nonnegative")
    return math.factorial(n)


def derangement(n: int) -> int:
    """Permutations of n elements with no fixed point.

    Recurrence: d_n = (n - 1)(d_{n-1} + d_{n-2}), d_0 = 1, d_1 = 0.
    """
    if n < 0:
        raise NegativeIndex("sequence index must be nonnegative")
    prev2, prev1 = 1, 0
    if n == 0:
        return prev2
    for m in range(2, n + 1):
        prev2, prev1 = prev1, (m - 1) * (prev1 + prev2)
    return prev1


# Partition count by block-size weights (i! per block of size i), OEIS
# A000262.  Frozen golden values: generated once from the recurrence
# a(n) = (2n-1) a(n-1) - (n-1)(n-2) a(n-2) and independently confirmed by
# exhaustive weighted enumeration for n <= 9.  A frozen table (rather than
# evaluating the weighted polynomial at run time) keeps this sequence
# usable as an oracle for the polynomial machinery itself.
_A000262 = (
    1,
    1,
    3,
    13,
    73,
    501,
    4051,
    37633,
    394353,
    4596553,
    58941091,
    824073141,
    12470162233,
    202976401213,
    3535017524403,
    65573803186921,
    1290434218669921,
    26846616451246353,
    588633468315403843,
    13564373693588558173,
    327697927886085654441,
    8281153039765859726341,
    218456450997775993367443,
    6004647590528092507965393,
    171679472549945695230447313,
)


def a000262(n: int) -> int:
    """Sum over partitions of an n-set of the product of (block size)!.

    Served from a golden table (see the note above) covering n <= 24.
    """
    if n < 0:
        raise NegativeIndex("sequence index must be nonnegative")
    if n >= len(_A000262):
        raise IndexOutOfRange(
            "golden table covers n <= %d" % (len(_A000262) - 1,)
        )
    return _A000262[n]
