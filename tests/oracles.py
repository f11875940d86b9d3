"""Independent reference implementations used only by the test suite.

Everything here is deliberately written by a different route than the
library code it checks: recursive placement instead of growth strings,
recurrences instead of closed forms, permutation filters instead of
formulas.  Slow is fine; these run at small sizes.
"""

import collections
import functools
import itertools
import math
from fractions import Fraction

from setpart._kernels import iter_rgs
from setpart.bellpoly import (
    BellPolynomial,
    Monomial,
    _combination,
    complete_bell_by_sum,
)


def partitions_by_placement(elements):
    """All partitions of the given elements, as frozensets of frozensets.

    Recursive placement: the first element joins each existing block in
    turn or starts a new one.  Independent of any word encoding.
    """
    elems = list(elements)
    if not elems:
        return [frozenset()]
    first, rest = elems[0], elems[1:]
    out = []
    for sub in partitions_by_placement(rest):
        blocks = sorted(sub, key=min)
        for i in range(len(blocks)):
            grown = list(blocks)
            grown[i] = blocks[i] | {first}
            out.append(frozenset(grown))
        out.append(frozenset(list(blocks) + [frozenset([first])]))
    return out


def bell_by_placement(n):
    return len(partitions_by_placement(range(1, n + 1)))


def catalan_by_recurrence(n):
    """Catalan numbers via the convolution c_{m+1} = sum c_i c_{m-i}."""
    c = [1]
    for m in range(n):
        c.append(sum(c[i] * c[m - i] for i in range(m + 1)))
    return c[n]


@functools.lru_cache(maxsize=None)
def stirling2_by_recurrence(n, r):
    """Partitions of [n] into exactly r blocks, via the standard recurrence.

    Memoised: without it the two-way recursion makes about 2^n calls."""
    if n == 0:
        return 1 if r == 0 else 0
    if r <= 0 or r > n:
        return 0
    return r * stirling2_by_recurrence(n - 1, r) + stirling2_by_recurrence(
        n - 1, r - 1
    )


def partitions_into_parts(n, r):
    """Integer partitions of n into exactly r parts, via
    p(n, r) = p(n - 1, r - 1) + p(n - r, r): either a part is 1, or every
    part shrinks by one."""
    if n == 0 and r == 0:
        return 1
    if r <= 0 or r > n:
        return 0
    return partitions_into_parts(n - 1, r - 1) + partitions_into_parts(n - r, r)


def complete_bell_by_recurrence(x):
    """Y_n(x_1..x_n) for n = len(x), at integer values, via
    Y_{m+1} = sum_k C(m, k) x_{k+1} Y_{m-k}, with Y_0 = 1.  No monomial
    is ever formed."""
    y = [1]
    for m in range(len(x)):
        y.append(sum(math.comb(m, k) * x[k] * y[m - k] for k in range(m + 1)))
    return y[-1]


def complete_bell_polynomial_by_recurrence(n):
    """Y_n as an exact polynomial from Y_{m+1} = sum_k C(m, k) t_{k+1}
    Y_{m-k}, with Y_0 = 1: each Y is a dict from dense exponent tuples
    (t_1..t_n) to coefficients, and no integer partition is walked.  The
    library builds Y_n from the multinomial formula instead.  n = 24 takes
    ~0.1 s."""
    ys = [{(0,) * n: 1}]
    for m in range(n):
        acc = collections.Counter()
        for k in range(m + 1):
            scale = math.comb(m, k)
            for exps, coeff in ys[m - k].items():
                bumped = list(exps)
                bumped[k] += 1
                acc[tuple(bumped)] += scale * coeff
        ys.append(acc)
    return BellPolynomial(
        (Monomial((i + 1, e) for i, e in enumerate(exps) if e), coeff)
        for exps, coeff in ys[n].items()
    )


def complete_bell_by_enumeration(n):
    """Y_n as the sum over every partition of an n-set of t_size per
    block, walking each growth word: a word's letter counts are the block
    sizes.  The library builds Y_n from the integer partitions of n
    instead.  n = 12 takes ~10 s."""
    tally = collections.Counter()
    for word in iter_rgs(n):
        sizes = collections.Counter(collections.Counter(word).values())
        tally[tuple(sorted(sizes.items()))] += 1
    return BellPolynomial((Monomial(key), count) for key, count in tally.items())


def weighted_binomial_by_triples(n, j):
    """The binomial side of Theorem 2 as its literal triple sum, one part
    per (k, l, r): k elements above j and l at most j join the block of
    n + 1, and inclusion-exclusion marks r of the other j - l low
    elements.  The library groups the triples by the block's size."""
    ys = [complete_bell_by_sum(m) for m in range(n + 1)]
    return _combination(
        (
            ys[n - k - l - r],
            (-1) ** r * math.comb(n - j, k) * math.comb(j, l) * math.comb(j - l, r),
            Monomial(((1, r), (k + l + 1, 1))).pairs,
        )
        for k in range(n - j + 1)
        for l in range(j + 1)
        for r in range(j - l + 1)
    )


def derangements_by_bruteforce(n):
    """Count fixed-point-free permutations directly.  Usable up to n = 8."""
    count = 0
    for perm in itertools.permutations(range(n)):
        if all(perm[i] != i for i in range(n)):
            count += 1
    return count


def a000262_by_weighted_count(n):
    """Sum over partitions of [n] of the product of (block size)! per block."""
    total = 0
    for p in partitions_by_placement(range(1, n + 1)):
        prod = 1
        for block in p:
            prod *= math.factorial(len(block))
        total += prod
    return total


def blocks_cross(a, b):
    """True when the two blocks interleave: some x1 < y1 < x2 < y2 with
    x1, x2 in one block and y1, y2 in the other."""
    sides = [s for _, s in sorted(
        [(e, 0) for e in a] + [(e, 1) for e in b]
    )]
    m = len(sides)
    for i in range(m):
        for j in range(i + 1, m):
            if sides[j] == sides[i]:
                continue
            for k in range(j + 1, m):
                if sides[k] != sides[i]:
                    continue
                for l in range(k + 1, m):
                    if sides[l] == sides[j]:
                        return True
    return False


def noncrossing_by_blocks(blocks):
    """Non-crossing test straight from block structure, no word encoding."""
    return all(
        not blocks_cross(a, b)
        for a, b in itertools.combinations(list(blocks), 2)
    )


def exact_binomial(n, k):
    """Binomial via falling-factorial fractions, zero outside 0 <= k <= n."""
    if k < 0 or k > n or n < 0:
        return 0
    val = Fraction(1)
    for i in range(k):
        val *= Fraction(n - i, i + 1)
    assert val.denominator == 1
    return val.numerator


def partner_by_definition(n, j, S, blocks):
    """The carrier involution read off its definition, for the pair (S,
    blocks) over {1..n+1}: take the largest element of {1..j} that is
    marked or alone in its block; a marked one becomes a singleton block
    and a singleton becomes marked.

    Returns (S, blocks, ground) with the blocks as ascending tuples in
    order of least element and the ground as {1..n+1} minus S, ascending;
    None when no element qualifies.  No splicing: the image is rebuilt
    from sets.
    """
    alone = {b[0] for b in blocks if len(b) == 1}
    qualified = [e for e in range(1, j + 1) if e in S or e in alone]
    if not qualified:
        return None
    pivot = max(qualified)
    parts = {frozenset(b) for b in blocks}
    marks = set(S)
    if pivot in marks:
        marks.remove(pivot)
        parts.add(frozenset([pivot]))
    else:
        marks.add(pivot)
        parts.remove(frozenset([pivot]))
    ordered = tuple(sorted((tuple(sorted(b)) for b in parts), key=min))
    ground = tuple(e for e in range(1, n + 2) if e not in marks)
    return frozenset(marks), ordered, ground
