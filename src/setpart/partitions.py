"""Set partitions over finite integer ground sets.

The canonical encoding for partitions of a contiguous ground set [n] is the
restricted growth string: letter i names the block (in order of smallest
elements) containing element i.  Partitions of non-contiguous grounds, such
as [n+1] minus a subset, carry their literal element names and have no
string encoding.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from . import _kernels
from .errors import (
    ElementNotInGround,
    InvalidRGS,
    MalformedInput,
    NonContiguousGround,
    SizeTooLarge,
)

ENUMERATION_CEILING = 13  # B(13) = 27,644,437 words, walked one by one


class GroundSet:
    """A finite set of positive integers, held in increasing order."""

    __slots__ = ("elements",)

    def __init__(self, elements: Iterable[int]):
        raw = tuple(elements)
        for e in raw:
            if not isinstance(e, int) or e < 1:
                raise MalformedInput("ground elements must be integers >= 1")
        elems = tuple(sorted(raw))
        for a, b in zip(elems, elems[1:]):
            if a == b:
                raise MalformedInput("duplicate ground element %d" % (a,))
        self.elements = elems

    @classmethod
    def _trusted(cls, elements: tuple) -> "GroundSet":
        # Internal fast path: caller guarantees a sorted duplicate-free tuple.
        g = object.__new__(cls)
        g.elements = elements
        return g

    @classmethod
    def range_n(cls, n: int) -> "GroundSet":
        """The contiguous ground set [n] = {1, ..., n}."""
        if n < 0:
            raise MalformedInput("ground size must be nonnegative")
        return cls._trusted(tuple(range(1, n + 1)))

    @classmethod
    def of(cls, source) -> "GroundSet":
        if isinstance(source, GroundSet):
            return source
        if isinstance(source, int):
            return cls.range_n(source)
        return cls(source)

    def is_contiguous(self) -> bool:
        """True when the set is exactly [n] for some n >= 0."""
        return self.elements == tuple(range(1, len(self.elements) + 1))

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, e):
        return e in self.elements

    def __eq__(self, other):
        if isinstance(other, GroundSet):
            return self.elements == other.elements
        return NotImplemented

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return "GroundSet(%r)" % (list(self.elements),)


class SetPartition:
    """A partition of a ground set into disjoint nonempty blocks.

    Blocks are stored sorted by smallest element, with each block's
    elements ascending, so equal partitions compare equal structurally.
    """

    __slots__ = ("ground", "blocks")

    def __init__(self, ground, blocks: Iterable[Iterable[int]]):
        g = GroundSet.of(ground)
        norm = []
        seen = set()
        for block in blocks:
            b = tuple(sorted(block))
            if not b:
                raise MalformedInput("blocks must be nonempty")
            for e in b:
                if e in seen:
                    raise MalformedInput("element %r appears in two blocks" % (e,))
                if e not in g:
                    raise MalformedInput("element %r not in the ground set" % (e,))
                seen.add(e)
            norm.append(b)
        if len(seen) != len(g):
            raise MalformedInput("blocks do not cover the ground set")
        norm.sort(key=lambda b: b[0])
        self.ground = g
        self.blocks = tuple(norm)

    @classmethod
    def _trusted(cls, ground: GroundSet, blocks: tuple) -> "SetPartition":
        # Internal fast path: caller guarantees canonical, valid structure.
        p = object.__new__(cls)
        p.ground = ground
        p.blocks = blocks
        return p

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        """Build a partition whose ground set is the union of the blocks."""
        mat = [tuple(sorted(b)) for b in blocks]
        union = [e for b in mat for e in b]
        return cls(GroundSet(union), mat)

    @classmethod
    def from_text(cls, text: str) -> "SetPartition":
        """Parse "2/4,5/6,8,9/7" notation: blocks '/', elements ','."""
        stripped = text.replace(" ", "").replace("\t", "")
        if stripped == "":
            return cls(GroundSet(()), ())
        blocks = []
        for part in stripped.split("/"):
            if not part:
                raise MalformedInput("empty block in %r" % (text,))
            elems = []
            for tok in part.split(","):
                if not tok.isdigit():
                    raise MalformedInput("bad element %r in %r" % (tok, text))
                elems.append(int(tok))
            blocks.append(elems)
        return cls.from_blocks(blocks)

    def to_text(self) -> str:
        return "/".join(",".join(str(e) for e in b) for b in self.blocks)

    def to_jsonable(self):
        """Sorted list-of-lists form used by the command-line output."""
        return [list(b) for b in self.blocks]

    def block_sizes(self) -> tuple:
        return tuple(len(b) for b in self.blocks)

    def singleton_elements(self) -> tuple:
        return tuple(b[0] for b in self.blocks if len(b) == 1)

    def __len__(self):
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __eq__(self, other):
        if isinstance(other, SetPartition):
            return self.ground == other.ground and self.blocks == other.blocks
        return NotImplemented

    def __hash__(self):
        return hash((self.ground, self.blocks))

    def __repr__(self):
        return "SetPartition.from_text(%r)" % (self.to_text(),)


def _parse_letters(text: str) -> tuple:
    """Letters of a word written "1213", or "1,2,10" when a letter exceeds
    9; any other text raises MalformedInput."""
    stripped = text.strip()
    if not stripped:
        return ()
    tokens = stripped.split(",") if "," in stripped else stripped
    try:
        return tuple(int(t) for t in tokens)
    except ValueError:
        raise MalformedInput("bad letters in %r" % (text,)) from None


class RGS:
    """A restricted growth string: word[0] = 1 and each letter exceeds the
    running maximum by at most one."""

    __slots__ = ("word",)

    def __init__(self, word: Sequence[int]):
        w = tuple(word)
        mx = 0
        for c in w:
            if not isinstance(c, int) or c < 1 or c > mx + 1:
                raise InvalidRGS("not a restricted growth string: %r" % (list(w),))
            if c > mx:
                mx = c
        self.word = w

    @classmethod
    def _trusted(cls, word: tuple) -> "RGS":
        r = object.__new__(cls)
        r.word = word
        return r

    @classmethod
    def from_text(cls, text: str) -> "RGS":
        """Parse a digit string like "112321442", or comma-separated letters
        when any letter exceeds 9."""
        return cls(_parse_letters(text))

    def to_text(self) -> str:
        if any(c > 9 for c in self.word):
            return ",".join(str(c) for c in self.word)
        return "".join(str(c) for c in self.word)

    def to_jsonable(self):
        return list(self.word)

    def __len__(self):
        return len(self.word)

    def __iter__(self):
        return iter(self.word)

    def __getitem__(self, i):
        return self.word[i]

    def __eq__(self, other):
        if isinstance(other, RGS):
            return self.word == other.word
        return NotImplemented

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return "RGS(%r)" % (list(self.word),)


def _partition_from_word(word, elements, ground) -> SetPartition:
    """Trusted build: letter word[i] names the block of elements[i].

    Letters first occur in increasing order, so blocks come out already
    sorted by smallest element.
    """
    nblocks = max(word) if word else 0
    blocks = [[] for _ in range(nblocks)]
    for e, c in zip(elements, word):
        blocks[c - 1].append(e)
    return SetPartition._trusted(ground, tuple(tuple(b) for b in blocks))


def enumerate_partitions(ground) -> Iterator[SetPartition]:
    """Yield every partition of the ground set exactly once.

    The order is lexicographic in the partitions' growth-string encoding
    (after order-isomorphic relabeling when the ground is not [n]), and is
    identical between runs.
    """
    g = GroundSet.of(ground)
    elems = g.elements
    for word in _kernels.iter_rgs(len(elems)):
        yield _partition_from_word(word, elems, g)


def count_partitions(ground) -> int:
    """Count partitions of the ground set by walking every growth word."""
    g = GroundSet.of(ground)
    if len(g) > ENUMERATION_CEILING:
        raise SizeTooLarge(
            "partition counts are capped at n = %d" % ENUMERATION_CEILING
        )
    return _kernels.count_rgs(len(g))


def to_rgs(p: SetPartition) -> RGS:
    """Canonical growth-string encoding of a partition of [n].

    Raises NonContiguousGround for any other ground set, which has no
    canonical word.
    """
    if not p.ground.is_contiguous():
        raise NonContiguousGround(
            "only partitions of {1,...,n} have a growth-string form"
        )
    n = len(p.ground)
    word = [0] * n
    for idx, block in enumerate(p.blocks, start=1):
        for e in block:
            word[e - 1] = idx
    return RGS._trusted(tuple(word))


def from_rgs(w) -> SetPartition:
    """Decode a restricted growth string into the partition of [n] it names.

    Accepts an RGS, a serialized word like "112321442", or any int sequence.
    """
    if isinstance(w, RGS):
        r = w
    elif isinstance(w, str):
        r = RGS.from_text(w)
    else:
        r = RGS(w)
    n = len(r.word)
    return _partition_from_word(
        r.word, range(1, n + 1), GroundSet.range_n(n)
    )


def singletons_in(p: SetPartition, lo: int, hi: int) -> frozenset:
    """The elements e with lo <= e <= hi forming singleton blocks of p."""
    return frozenset(
        b[0] for b in p.blocks if len(b) == 1 and lo <= b[0] <= hi
    )


def block_containing(p: SetPartition, e: int) -> tuple:
    """The unique block of p holding element e."""
    for b in p.blocks:
        if e in b:
            return b
    raise ElementNotInGround("element %r is not in the ground set" % (e,))
