"""Set partitions over finite integer ground sets.

The canonical encoding for partitions of a contiguous ground set [n] is the
restricted growth string: letter i names the block (in order of smallest
elements) containing element i.  Partitions of non-contiguous grounds, such
as [n+1] minus a subset, carry their literal element names and have no
string encoding.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

from . import _kernels
from .errors import (
    ElementNotInGround,
    InvalidRGS,
    MalformedInput,
    NonContiguousGround,
    _index,
    _ints,
    _iterable,
    _printed,
)

ENUMERATION_CEILING = 13  # B(13) = 27,644,437 words, walked one by one

_INTEGER = re.compile("[+-]?[0-9]+")


def _read_integers(text: str, what: str) -> tuple:
    """The integers of a comma-separated list like "1, -2,+3": the one
    syntax for integers written as text.  Spaces and tabs are ignored;
    each token must be ASCII digits with an optional sign, and any other
    token, or one too long for int(), raises MalformedInput."""
    tokens = text.replace(" ", "").replace("\t", "")
    tokens = tokens.split(",") if tokens else []
    if all(map(_INTEGER.fullmatch, tokens)):
        try:
            return tuple(map(int, tokens))
        except ValueError:  # past int()'s limit on digits
            pass
    raise MalformedInput("bad %s %r" % (what, text))


def _ground(source) -> tuple:
    """The ground set source names, ascending: {1..n} for an int n >= 0,
    else the elements of an iterable, each an int >= 1 (bool excluded),
    none repeated.  Either refuses a size past ENUMERATION_CEILING: an
    int n before {1..n} is built, an iterable after reading one more."""
    if not hasattr(source, "__iter__"):
        return tuple(range(1, _index(source, ceiling=ENUMERATION_CEILING) + 1))
    g = _ints(source, "ground", 1, most=ENUMERATION_CEILING, size="n", distinct=True)
    return tuple(sorted(g))


class SetPartition:
    """A partition of a ground set into disjoint nonempty blocks.

    The ground is the ascending tuple of the blocks' elements.  Blocks are
    stored sorted by smallest element, with each block's elements
    ascending, so equal partitions compare equal structurally.
    """

    __slots__ = ("ground", "blocks")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        """Nonempty disjoint blocks of ints >= 1; the ground is their union."""
        norm = []
        seen = set()
        for block in _iterable(blocks, "blocks"):
            b = _ints(block, "a block", low=1)
            if not b:
                raise MalformedInput("blocks must be nonempty")
            for e in b:
                if e in seen:
                    raise MalformedInput("element %r appears in two blocks" % (e,))
                seen.add(e)
            norm.append(tuple(sorted(b)))
        norm.sort()  # disjoint blocks: tuple order is least-element order
        self.ground = tuple(sorted(seen))
        self.blocks = tuple(norm)

    @classmethod
    def _trusted(cls, ground: tuple, blocks: tuple) -> "SetPartition":
        # Internal fast path: caller guarantees canonical, valid structure.
        p = object.__new__(cls)
        p.ground = ground
        p.blocks = blocks
        return p

    @classmethod
    def from_text(cls, text: str) -> "SetPartition":
        """Parse "2/4,5/6,8,9/7" notation: blocks '/', elements ',', each
        block read by _read_integers; blank text is the empty partition."""
        if not isinstance(text, str):
            raise MalformedInput("need partition text, not %s" % type(text).__name__)
        blocks = [_read_integers(part, "block") for part in text.split("/")]
        return cls([] if blocks == [()] else blocks)

    def to_text(self) -> str:
        return _printed(
            lambda: "/".join(",".join(str(e) for e in b) for b in self.blocks),
            "an element",
        )

    def to_jsonable(self):
        """Sorted list-of-lists form used by the command-line output."""
        return [list(b) for b in self.blocks]

    def singleton_elements(self) -> tuple:
        return tuple(b[0] for b in self.blocks if len(b) == 1)

    def __len__(self):
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __eq__(self, other):
        if isinstance(other, SetPartition):
            return self.blocks == other.blocks and self.ground == other.ground
        return NotImplemented

    def __hash__(self):
        # the ground is the union of the blocks, so they alone determine it
        return hash(self.blocks)

    def __repr__(self):
        return "SetPartition.from_text(%r)" % (self.to_text(),)


class RGS:
    """A restricted growth string: word[0] = 1 and each letter exceeds the
    running maximum by at most one."""

    __slots__ = ("word",)

    def __init__(self, word):
        w = _word_letters(word)
        mx = 0
        for c in w:
            if c < 1 or c > mx + 1:
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
        when any letter exceeds 9; both forms go through _read_integers."""
        return cls(text)

    def to_text(self) -> str:
        if any(c > 9 for c in self.word):
            return ",".join(str(c) for c in self.word)
        return "".join(str(c) for c in self.word)

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


def _word_letters(w, ceiling=None) -> tuple:
    """The letters of a word given as an RGS, as text (see RGS.from_text)
    or as a sequence read in order by _ints, letters of any sign.  A
    length past ceiling raises SizeTooLarge once ceiling + 1 letters are
    read; a word that is not a sequence raises MalformedInput."""
    if isinstance(w, RGS):
        w = w.word
    elif isinstance(w, str):
        text = w.replace(" ", "").replace("\t", "")
        w = _read_integers(text if "," in text else ",".join(text), "word")
    elif not isinstance(w, Sequence):
        raise MalformedInput("a word must be a sequence, not %s" % (type(w).__name__,))
    return _ints(w, "a word", most=ceiling)


def _blocks_of_word(word, elements) -> tuple:
    """Letter word[i] names the block of elements[i].

    Letters first occur in increasing order, so blocks come out already
    sorted by smallest element.
    """
    blocks = [[] for _ in range(max(word, default=0))]
    for e, c in zip(elements, word):
        blocks[c - 1].append(e)
    return tuple(map(tuple, blocks))


def enumerate_partitions(ground) -> Iterator[SetPartition]:
    """Yield every partition of the ground set exactly once.

    The order is lexicographic in the partitions' growth-string encoding
    (after order-isomorphic relabeling when the ground is not [n]), and is
    identical between runs.

    Each partition is built from its prefix, as _kernels.iter_rgs walks
    (Knuth's Algorithm H): a word places its last element into a copy of
    the prefix's blocks.  The prefix changes exactly when the last letter
    is 1, and then only its letters from the last one above 1 are new (the
    odometer reset every letter after that one to 1), so only their
    blocks are rebuilt.

    Like count_partitions, it refuses a ground larger than
    ENUMERATION_CEILING.
    """
    g = _ground(ground)
    if not g:  # one empty word, one empty partition
        yield from (SetPartition._trusted(g, ()) for _ in _kernels.iter_rgs(0))
        return
    n = len(g)
    last = g[-1:]
    levels = [()] * n  # levels[i]: the blocks of g[:i] under the current word
    new = object.__new__
    for word in _kernels.iter_rgs(n):
        c = word[-1]
        if c == 1:  # a new prefix
            i = max(n - 2, 0)
            while i > 0 and word[i] == 1:
                i -= 1
            base = levels[i]
            for i in range(i, n - 1):
                b = word[i]
                if b > len(base):
                    base = base + ((g[i],),)
                else:
                    base = base[: b - 1] + (base[b - 1] + (g[i],),) + base[b:]
                levels[i + 1] = base
        if c > len(base):
            blocks = base + (last,)
        else:
            blocks = base[: c - 1] + (base[c - 1] + last,) + base[c:]
        p = new(SetPartition)  # the walk keeps the blocks canonical
        p.ground, p.blocks = g, blocks
        yield p


def count_partitions(ground) -> int:
    """Count partitions of the ground set by walking every growth word."""
    return _kernels.count_rgs(len(_ground(ground)))


def _range_size(p: SetPartition, size=None) -> int:
    """The m for which p partitions {1..m}, which must equal size when
    one is given: the one test of a ground for {1..m}.  Any other ground
    raises NonContiguousGround."""
    ground = p.ground
    m = len(ground)
    # sorted, distinct and >= 1: {1..m} exactly when the largest is m
    if ground and ground[-1] != m or size is not None and m != size:
        raise NonContiguousGround(
            "need a partition of {1..%s}" % ("m" if size is None else size)
        )
    return m


def to_rgs(p: SetPartition) -> RGS:
    """Canonical growth-string encoding of a partition of [n].

    Raises NonContiguousGround for any other ground set, which has no
    canonical word.
    """
    n = _range_size(p)
    word = [0] * n
    for idx, block in enumerate(p.blocks, start=1):
        for e in block:
            word[e - 1] = idx
    return RGS._trusted(tuple(word))


def from_rgs(w) -> SetPartition:
    """Decode a restricted growth string into the partition of [n] it names.

    Accepts an RGS, a word written as RGS.from_text reads it, or any int
    sequence.
    """
    word = RGS(w).word
    g = tuple(range(1, len(word) + 1))
    return SetPartition._trusted(g, _blocks_of_word(word, g))


def block_containing(p: SetPartition, e: int) -> tuple:
    """The unique block of p holding element e."""
    _index(e, "e")
    for b in p.blocks:
        if e in b:
            return b
    raise ElementNotInGround("element %r is not in the ground set" % (e,))
