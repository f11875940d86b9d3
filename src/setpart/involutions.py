"""Executable pairings behind the counting identities.

The central object is the signed carrier: pairs (S, p) where S is a subset
of {1..j} and p partitions the remaining elements of {1..n+1}, signed by
(-1)^|S|.  A sign-reversing involution toggles the largest marked-or-
singleton element of {1..j} between the two roles; its fixed points are the
partitions with no singleton inside {1..j}, and a separate explicit
bijection, the singleton-free coding, recounts those.  The same toggle,
weighted by block sizes, proves the polynomial identity.  The
singleton-gathering maps behind the specialized identities are the coding
at n = j and at n = j + 1, and the verifier checks all three with one
checker.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import Counter
from itertools import filterfalse
from typing import Iterator, NamedTuple, Optional, Tuple, Union

from .bellpoly import (
    BellPolynomial,
    Monomial,
    _combination,
    _size_monomial,
    complete_bell_by_sum,
)
from .errors import MalformedInput, PreconditionViolated, _index, _is_int
from .numbers import binomial
from .partitions import SetPartition, _is_range, enumerate_partitions

CARRIER_CEILING = 10
SYMBOLIC_CEILING = 7


class FixedPoint:
    """Sentinel returned by the involution on its fixed set."""

    _only = None

    def __new__(cls):
        if cls._only is None:
            cls._only = super().__new__(cls)
        return cls._only

    def __repr__(self):
        return "FIXED"


FIXED = FixedPoint()


class SignedPair:
    """A subset S of {1..j} plus a partition of {1..n+1} minus S.

    The sign is (-1)^|S|, derived rather than stored.
    """

    __slots__ = ("n", "j", "S", "pi")

    def __init__(self, n: int, j: int, S, pi: SetPartition):
        _index(j, "j", top=_index(n))
        marks = tuple(S)
        if not all(_is_int(e) and 1 <= e <= j for e in marks):
            raise MalformedInput("marked elements must lie in {1..%d}" % j)
        s = frozenset(marks)
        # sizes first, so the check costs no more than the input
        ground = pi.ground
        if len(ground) != n + 1 - len(s) or ground != _without(n + 1, s):
            raise MalformedInput(
                "partition ground must be {1..%d} minus the marked set" % (n + 1)
            )
        self.n = n
        self.j = j
        self.S = s
        self.pi = pi

    @classmethod
    def _trusted(cls, n, j, S, pi) -> "SignedPair":
        lam = object.__new__(cls)
        lam.n = n
        lam.j = j
        lam.S = S
        lam.pi = pi
        return lam

    @property
    def sign(self) -> int:
        return -1 if len(self.S) % 2 else 1

    def __eq__(self, other):
        if isinstance(other, SignedPair):
            return (
                self.n == other.n
                and self.j == other.j
                and self.S == other.S
                and self.pi == other.pi
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.j, self.S, self.pi.blocks))

    def __repr__(self):
        return "SignedPair(n=%d, j=%d, S=%s, pi=%s)" % (
            self.n,
            self.j,
            sorted(self.S),
            self.pi.to_text() or "()",
        )


def partner(lam: SignedPair) -> Union[SignedPair, FixedPoint]:
    """Toggle the largest element of {1..j} that is marked or a singleton.

    If the element is marked, it moves into the partition as a new
    singleton block; if it is a singleton block, it becomes marked.  Either
    way the sign flips.  When no element qualifies, the pair is fixed and
    the FIXED sentinel is returned.
    """
    pivot = pivot_of(lam)
    if pivot is None:
        return FIXED
    ground = lam.pi.ground
    blocks = lam.pi.blocks
    # both tuples ascend (blocks by least element), and the pivot is
    # either marked and absent from both or a singleton block
    i = bisect_left(ground, pivot)
    k = bisect_left(blocks, (pivot,))
    if pivot in lam.S:
        new_ground = ground[:i] + (pivot,) + ground[i:]
        new_blocks = blocks[:k] + ((pivot,),) + blocks[k:]
    else:
        new_ground = ground[:i] + ground[i + 1 :]
        new_blocks = blocks[:k] + blocks[k + 1 :]
    pi = SetPartition._trusted(new_ground, new_blocks)
    return SignedPair._trusted(lam.n, lam.j, lam.S ^ {pivot}, pi)


def pivot_of(lam: SignedPair) -> Optional[int]:
    """The element the involution would toggle, or None on the fixed set."""
    j = lam.j
    best = max(lam.S) if lam.S else 0
    # blocks ascend by least element, so the first singleton inside
    # {1..j} met from the end is the largest, and the scan may stop at
    # the first block that cannot beat the largest mark
    for b in reversed(lam.pi.blocks):
        e = b[0]
        if e <= best:
            break
        if e <= j and len(b) == 1:
            return e
    return best or None


def enumerate_carrier(n: int, j: int) -> Iterator[SignedPair]:
    """All signed pairs for the given n and j, in a fixed order.

    Marked subsets come in binary-counter order (element e is marked when
    bit e-1 of the counter is set); partitions of the complement follow
    the standard enumeration order.
    """
    _index(j, "j", top=_index(n, ceiling=CARRIER_CEILING))
    for s, ground in _complements(n + 1, range(1, j + 1)):
        for pi in enumerate_partitions(ground):
            yield SignedPair._trusted(n, j, s, pi)


def _complements(size: int, choices: range):
    """Each subset X of choices, in binary-counter order (bit i of the
    counter picks choices[i]), with the ground set {1..size} minus X."""
    for mask in range(1 << len(choices)):
        x = frozenset(e for i, e in enumerate(choices) if mask >> i & 1)
        yield x, _without(size, x)


def _without(size: int, x: frozenset) -> tuple:
    """The elements of {1..size} not in x, ascending."""
    return tuple(filterfalse(x.__contains__, range(1, size + 1)))


def build_singleton_free(n: int, j: int, T, rho: SetPartition) -> SetPartition:
    """Assemble a partition of {1..n+1} with no singleton inside {1..j}.

    T picks elements of {j+1..n} to sit with n+1; the singletons of rho
    lying in {1..j} migrate into that block too, which is what removes
    them.
    """
    _index(j, "j", top=_index(n))
    entries = tuple(T)
    for e in entries:  # exact ints skip the call
        if type(e) is not int and not _is_int(e) or not j < e <= n:
            raise MalformedInput("T must lie in {%d..%d}" % (j + 1, n))
    t = frozenset(entries)
    ground = rho.ground
    if len(ground) != n - len(t) or ground != _without(n, t):
        raise MalformedInput("rho must partition {1..%d} minus T" % n)
    return _gather_low_singletons(rho.blocks, j, sorted(t) + [n + 1])


def _gather_low_singletons(blocks, j, larger) -> SetPartition:
    """The partition of {1..larger[-1]} made of the blocks, with every
    singleton inside {1..j} moved into one new block together with the
    ascending elements larger, all above j.

    This is the coding of build_singleton_free; the gather maps are that
    coding at n = j and n = j + 1.  Each caller has checked that the
    blocks partition {1..larger[-1]} minus larger, so the result is built
    unchecked: the new block ascends, and it is inserted where its least
    element puts it among the others.
    """
    out = [b for b in blocks if len(b) > 1 or b[0] > j]
    insort(out, tuple([b[0] for b in blocks if len(b) == 1 and b[0] <= j] + larger))
    return SetPartition._trusted(tuple(range(1, larger[-1] + 1)), tuple(out))


def split_singleton_free(
    n: int, j: int, p: SetPartition
) -> Tuple[frozenset, SetPartition]:
    """Invert build_singleton_free.

    Every element of the block of n+1 that is at most j returns to being
    a singleton; the block's elements in {j+1..n} become T; n+1 itself is
    dropped.
    """
    _index(j, "j", top=_index(n))
    if len(p.ground) != n + 1 or not _is_range(p.ground):
        raise MalformedInput("p must partition {1..%d}" % (n + 1))
    blocks = p.blocks
    for a, b in enumerate(blocks):
        if len(b) == 1 and b[0] <= j:
            raise PreconditionViolated(
                "p has the singleton {%d} inside {1..%d}" % (b[0], j)
            )
        if b[-1] == n + 1:  # the largest element ends its block
            anchor = b
            rest = blocks[:a] + blocks[a + 1 :]
    # the anchor ascends: elements up to j, then T, then n + 1
    k = bisect_right(anchor, j)
    t = frozenset(anchor[k:-1])
    # disjoint blocks sort by least element
    blocks = tuple(sorted(rest + tuple((e,) for e in anchor[:k])))
    return t, SetPartition._trusted(_without(n, t), blocks)


def gather_singletons(src: SetPartition) -> SetPartition:
    """Send a partition of {1..j} to one of {1..j+1} with no singleton
    in {1..j}: all singletons join a new block with j+1."""
    if not _is_range(src.ground):
        raise MalformedInput("source must partition {1..j}")
    j = len(src.ground)
    return _gather_low_singletons(src.blocks, j, [j + 1])


def gather_singletons_two(src: SetPartition, j: int) -> SetPartition:
    """Send a partition of {1..j} or of {1..j+1} to one of {1..j+2} with
    no singleton in {1..j}.

    From {1..j}: all singletons join a new block with both j+1 and j+2.
    From {1..j+1}: singletons lying in {1..j} join a new block with j+2
    only.  The two cases are told apart in the image by whether j+1 and
    j+2 share a block.
    """
    _index(j, "j")
    if not _is_range(src.ground):
        raise MalformedInput("source must partition {1..j} or {1..j+1}")
    size = len(src.ground)
    if size not in (j, j + 1):
        raise MalformedInput(
            "source has %d elements; expected %d or %d" % (size, j, j + 1)
        )
    larger = [j + 1, j + 2] if size == j else [j + 2]
    return _gather_low_singletons(src.blocks, j, larger)


class ClassLabel(NamedTuple):
    """Membership tag for the telescoping argument's partition classes.

    kind "C" with index m: partitions of {1..j} whose singletons are
    exactly the top run {j-k+1..j} of length k = j-1-m.  kind "D" with
    index m: the same shape with run length j-m.  A partition whose
    singleton set is a nonempty proper top run therefore carries one
    label of each kind, which is the overlap the telescoping sum uses.
    """

    kind: str
    index: int


def classify_cd(p: SetPartition, j: int) -> Tuple[ClassLabel, ...]:
    """The class labels holding p, C label first; empty when p is in
    neither kind of class."""
    _index(j, "j", low=2)  # the classes are defined from j = 2
    if len(p.ground) != j or not _is_range(p.ground):
        raise MalformedInput("p must partition {1..%d}" % j)
    singles = set(p.singleton_elements())
    run = 0
    while run < j and (j - run) in singles:
        run += 1
    if len(singles) != run:
        # a singleton below the top run disqualifies both kinds
        return ()
    labels = []
    if run <= j - 2:
        labels.append(ClassLabel("C", j - 1 - run))
    if 1 <= run <= j - 1:
        labels.append(ClassLabel("D", j - run))
    return tuple(labels)


def weight_monomial(lam: SignedPair) -> Monomial:
    """Unsigned block-size weight of a pair: t_1 per marked element and
    per singleton block, t_i per block of size i."""
    return _size_monomial(map(len, lam.pi.blocks), len(lam.S))


def weighted_carrier_sum(n: int, j: int) -> BellPolynomial:
    """Sum of signed weight monomials over the whole carrier.

    Walks every pair, counts the pairs per signature (|S|, sorted block
    sizes), and builds one monomial per signature, signed (-1)^|S|.
    """
    _index(j, "j", top=_index(n, ceiling=SYMBOLIC_CEILING))
    tally = Counter(
        (len(lam.S), tuple(sorted(map(len, lam.pi.blocks))))
        for lam in enumerate_carrier(n, j)
    )
    return BellPolynomial(
        (_size_monomial(sizes, ones), (-1) ** ones * count)
        for (ones, sizes), count in tally.items()
    )


def weighted_alternating_sum(n: int, j: int) -> BellPolynomial:
    """Sum over i of (-1)^i t_1^i binomial(j, i) B_{n+1-i}, where B_m is
    the complete block-size polynomial."""
    _index(j, "j", top=_index(n))
    return _combination(
        (
            complete_bell_by_sum(n + 1 - i),
            (-1) ** i * binomial(j, i),
            Monomial.single(1, i) if i else None,
        )
        for i in range(j + 1)
    )


def weighted_binomial_sum(n: int, j: int) -> BellPolynomial:
    """Triple sum counting singleton-free-in-{1..j} partitions by weight.

    k elements above j and l at most j join the block of n+1 (one block
    of size k+l+1); the rest avoids singletons in the remaining j-l low
    elements by inclusion-exclusion over r marked ones.
    """
    _index(j, "j", top=_index(n))
    complete = [complete_bell_by_sum(m) for m in range(n + 1)]
    return _combination(
        (
            complete[n - k - l - r],
            (-1) ** r * binomial(n - j, k) * binomial(j, l) * binomial(j - l, r),
            Monomial(((1, r), (k + l + 1, 1))),
        )
        for k in range(n - j + 1)
        for l in range(j + 1)
        for r in range(j - l + 1)
    )
