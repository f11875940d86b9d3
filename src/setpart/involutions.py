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
checker.  _marked is the one check of a marked pair, a SignedPair's
(S, pi) or the coding's (T, rho); partitions._range_size is the one
test of a partition of {1..m} that the maps take.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import Counter
from itertools import filterfalse
from typing import Iterator, NamedTuple, Optional, Tuple

from .bellpoly import (
    BellPolynomial,
    Monomial,
    _combination,
    _size_monomial,
    _times,
    complete_bell_by_sum,
)
from .errors import (
    MalformedInput,
    PreconditionViolated,
    _index,
    _instance,
    _ints,
    _shown,
)
from .numbers import binomial
from .partitions import SetPartition, _range_size, enumerate_partitions

CARRIER_CEILING = 10
SYMBOLIC_CEILING = 7
EXACT_CEILING = 10  # thm2's closed half compares its exact sides up to this n
# the binomial side at n = 30, j = 15: 0.25-0.45 s and 17.5 MB peak RSS in a
# fresh process (2 shared CPUs, Python 3.11), growing 3-4x per 5 steps of n
WEIGHTED_CEILING = 30


class SignedPair:
    """A subset S of {1..j} plus a partition of {1..n+1} minus S.

    The sign is (-1)^|S|, derived rather than stored.
    """

    __slots__ = ("n", "j", "S", "pi")

    def __init__(self, n: int, j: int, S, pi: SetPartition):
        _index(j, "j", top=_index(n))
        self.n = n
        self.j = j
        self.S = _marked(n + 1, 1, j, S, pi, "S", "pi")
        self.pi = pi

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
        # pi holds n + 1, which no mark reaches, so its text is never empty
        shown = (*map(_shown, (self.n, self.j, sorted(self.S))), self.pi.to_text())
        return "SignedPair(n=%s, j=%s, S=%s, pi=%s)" % shown


def partner(lam: SignedPair) -> Optional[SignedPair]:
    """Toggle the largest element of {1..j} that is marked or a singleton.

    If the element is marked, it moves into the partition as a new
    singleton block; if it is a singleton block, it becomes marked.  Either
    way the sign flips.  When no element qualifies, the pair is fixed and
    partner returns None, as pivot_of does.
    """
    pivot = pivot_of(lam)
    if pivot is None:
        return None
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
    # the splices keep both objects valid, so they are built unchecked,
    # without a constructor call: partner runs once per pair
    pi = object.__new__(SetPartition)
    pi.ground, pi.blocks = new_ground, new_blocks
    mu = object.__new__(SignedPair)
    mu.n = lam.n
    mu.j = lam.j
    mu.S = lam.S ^ {pivot}
    mu.pi = pi
    return mu


def pivot_of(lam: SignedPair) -> Optional[int]:
    """The element the involution would toggle, or None on the fixed set."""
    if type(lam) is not SignedPair:  # exact pairs skip the call: once per pair
        _instance(lam, SignedPair, "lam")
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
    new = object.__new__
    for s, ground in _complements(n + 1, range(1, j + 1)):
        for pi in enumerate_partitions(ground):
            lam = new(SignedPair)  # unchecked: the walk keeps the pair valid
            lam.n = n
            lam.j = j
            lam.S = s
            lam.pi = pi
            yield lam


def _complements(size: int, choices: range):
    """Each subset X of choices, in binary-counter order (bit i of the
    counter picks choices[i]), with the ground set {1..size} minus X."""
    for mask in range(1 << len(choices)):
        x = frozenset(e for i, e in enumerate(choices) if mask >> i & 1)
        yield x, _without(size, x)


def _without(size: int, x: frozenset) -> tuple:
    """The elements of {1..size} not in x, ascending."""
    return tuple(filterfalse(x.__contains__, range(1, size + 1)))


def _marked(size, low, high, marks, pi, mark_name, part_name) -> frozenset:
    """The marks as a frozenset: the one check of a marked pair.  _ints
    reads them, distinct ints in the window {low..high}, and pi must
    partition {1..size} minus the marks; mark_name and part_name name
    the two in the messages."""
    s = frozenset(_ints(marks, mark_name, low, high, high - low + 1, distinct=True))
    # sizes first, so the check costs no more than the input
    ground = _instance(pi, SetPartition, part_name).ground
    if len(ground) != size - len(s) or ground != _without(size, s):
        raise MalformedInput(
            "%s must partition {1..%s} minus %s" % (part_name, _shown(size), mark_name)
        )
    return s


def build_singleton_free(n: int, j: int, T, rho: SetPartition) -> SetPartition:
    """Assemble a partition of {1..n+1} with no singleton inside {1..j}.

    T picks elements of {j+1..n} to sit with n+1; the singletons of rho
    lying in {1..j} migrate into that block too, which is what removes
    them.
    """
    _index(j, "j", top=_index(n))
    t = _marked(n, j + 1, n, T, rho, "T", "rho")
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
    _range_size(p, n + 1)
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
    j = _range_size(src)
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
    # {1..j} or {1..j+1}: a ground of more than j elements must be the second
    ground = _instance(src, SetPartition, "the partition").ground
    size = _range_size(src, j if len(ground) <= j else j + 1)
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
    _range_size(p, j)
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

    Walks each marked set S with every partition of its complement, with
    no pair built, counts them per (|S|, block sizes in block order), and
    adds each shape's count, signed (-1)^|S|, to its monomial's term.
    """
    _index(j, "j", top=_index(n, ceiling=SYMBOLIC_CEILING))
    shapes = Counter(
        (len(s), tuple(map(len, pi.blocks)))
        for s, ground in _complements(n + 1, range(1, j + 1))
        for pi in enumerate_partitions(ground)
    )
    terms = {}
    for (ones, shape), count in shapes.items():
        key = _size_monomial(shape, ones).pairs
        terms[key] = terms.get(key, 0) + (-1) ** ones * count
    return BellPolynomial._trusted({k: c for k, c in terms.items() if c})


# Y_m is kept per process up to this degree, the largest thm2's closed
# cells read (Y_{n+1}); a call near WEIGHTED_CEILING leaves nothing large behind
_CACHED_DEGREE = EXACT_CEILING + 1
_complete_cache = {}  # m -> (the builder that made it, Y_m)


def _complete(m: int) -> BellPolynomial:
    """Y_m from complete_bell_by_sum, looked up when called; a cached Y_m
    is reused only while that name holds the builder that made it."""
    build = complete_bell_by_sum
    entry = _complete_cache.get(m)
    if entry is None or entry[0] is not build:
        entry = build, build(m)
        if m <= _CACHED_DEGREE:
            _complete_cache[m] = entry
    return entry[1]


def weighted_alternating_sum(n: int, j: int) -> BellPolynomial:
    """Sum over i of (-1)^i t_1^i binomial(j, i) B_{n+1-i}, where B_m is
    the complete block-size polynomial."""
    _index(j, "j", top=_index(n, ceiling=WEIGHTED_CEILING))
    return _combination(
        (_complete(n + 1 - i), (-1) ** i * binomial(j, i), ((1, i),) if i else ())
        for i in range(j + 1)
    )


def weighted_binomial_sum(n: int, j: int) -> BellPolynomial:
    """The partitions of {1..n+1} with no singleton in {1..j}, by weight:
    inclusion-exclusion forces r of {1..j} to be singletons, and n + 1's
    block takes a of the other n - r elements, one part (-1)^r C(j, r)
    C(n-r, a) t_1^r t_{a+1} B_{n-a-r} per (a, r).  By Vandermonde, that
    is the paper's sum over the l low elements in the block of
    C(n-j, a-l) C(j, l) C(j-l, r).  WEIGHTED_CEILING notes its cost.
    """
    _index(j, "j", top=_index(n, ceiling=WEIGHTED_CEILING))
    return _combination(
        (
            _complete(n - a - r),
            (-1) ** r * binomial(j, r) * binomial(n - r, a),
            _times(((1, r),) if r else (), ((a + 1, 1),)),
        )
        for r in range(j + 1)
        for a in range(n - r + 1)
    )
