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
    _is_int,
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
    none repeated."""
    if not hasattr(source, "__iter__"):
        if not _is_int(source) or source < 0:
            raise MalformedInput("ground size must be a nonnegative integer")
        return tuple(range(1, source + 1))
    raw = tuple(source)
    for e in raw:  # before sorting, which mixed types would break
        if not _is_int(e) or e < 1:
            raise MalformedInput("ground elements must be integers >= 1")
    elems = tuple(sorted(raw))
    for a, b in zip(elems, elems[1:]):
        if a == b:
            raise MalformedInput("duplicate ground element %d" % (a,))
    return elems


def _is_range(ground: tuple) -> bool:
    """True when the ground is exactly {1..n} for some n >= 0."""
    # sorted, distinct and >= 1: {1..n} exactly when the largest is n
    return not ground or ground[-1] == len(ground)


class SetPartition:
    """A partition of a ground set into disjoint nonempty blocks.

    The ground is the ascending tuple of its elements.  Blocks are stored
    sorted by smallest element, with each block's elements ascending, so
    equal partitions compare equal structurally.
    """

    __slots__ = ("ground", "blocks")

    def __init__(self, ground, blocks: Iterable[Iterable[int]]):
        """ground: a size n, naming {1..n}, or an iterable as _ground reads
        it; {1..n} is built only once the blocks are seen to cover it."""
        if _is_int(ground) and ground >= 0:
            g, size, members = None, ground, range(1, ground + 1)
        else:
            g = _ground(ground)
            size, members = len(g), set(g)  # one set, so each test is O(1)
        norm = []
        seen = set()
        for block in blocks:
            b = tuple(block)
            if not b:
                raise MalformedInput("blocks must be nonempty")
            for e in b:  # before sorting, which mixed types would break
                if type(e) is not int:  # exact ints skip the calls
                    if not _is_int(e):
                        raise MalformedInput("element %r is not an integer" % (e,))
                    e = int(e)  # a range scans for an int subclass
                if e in seen:
                    raise MalformedInput("element %r appears in two blocks" % (e,))
                if e not in members:
                    raise MalformedInput("element %r not in the ground set" % (e,))
                seen.add(e)
            norm.append(tuple(sorted(b)))
        if len(seen) != size:
            raise MalformedInput("blocks do not cover the ground set")
        norm.sort()  # disjoint blocks: tuple order is least-element order
        self.ground = tuple(members) if g is None else g
        self.blocks = tuple(norm)

    @classmethod
    def _trusted(cls, ground: tuple, blocks: tuple) -> "SetPartition":
        # Internal fast path: caller guarantees canonical, valid structure.
        p = object.__new__(cls)
        p.ground = ground
        p.blocks = blocks
        return p

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        """Build a partition whose ground set is the union of the blocks."""
        mat = [tuple(b) for b in blocks]  # the constructor sorts them
        union = [e for b in mat for e in b]
        return cls(union, mat)

    @classmethod
    def from_text(cls, text: str) -> "SetPartition":
        """Parse "2/4,5/6,8,9/7" notation: blocks '/', elements ',', each
        block read by _read_integers; blank text is the empty partition."""
        blocks = [_read_integers(part, "block") for part in text.split("/")]
        return cls.from_blocks([] if blocks == [()] else blocks)

    def to_text(self) -> str:
        return "/".join(",".join(str(e) for e in b) for b in self.blocks)

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
            return (
                self.blocks == other.blocks
                and self.ground == other.ground
            )
        return NotImplemented

    def __hash__(self):
        # valid blocks cover the ground, so they alone determine it
        return hash(self.blocks)

    def __repr__(self):
        return "SetPartition.from_text(%r)" % (self.to_text(),)


class RGS:
    """A restricted growth string: word[0] = 1 and each letter exceeds the
    running maximum by at most one."""

    __slots__ = ("word",)

    def __init__(self, word: Sequence[int]):
        w = tuple(word)
        mx = 0
        for c in w:
            if not _is_int(c) or c < 1 or c > mx + 1:
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
        return cls(_word_letters(text))

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


def _word_letters(w) -> tuple:
    """The letters of a word given as an RGS, as text (see RGS.from_text)
    or as any sequence of ints; only text is checked here."""
    if isinstance(w, RGS):
        return w.word
    if not isinstance(w, str):
        return tuple(w)
    text = w.replace(" ", "").replace("\t", "")
    return _read_integers(text if "," in text else ",".join(text), "word")


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

    Consecutive words mostly differ in the last letter only, so the blocks
    of the first n - 1 elements are rebuilt only when that prefix changes,
    and the last element is placed into a copy of them.  In lexicographic
    order the prefix changes exactly when the last letter falls back to 1.

    Like count_partitions, it refuses a ground larger than
    ENUMERATION_CEILING.
    """
    g = _walkable_ground(ground)
    head, last = g[:-1], g[-1:]
    make = SetPartition._trusted
    for word in _kernels.iter_rgs(len(g)):
        if not word:
            yield make(g, ())
            continue
        c = word[-1]
        if c == 1:
            base = _blocks_of_word(word[:-1], head)
        if c > len(base):
            blocks = base + (last,)
        else:
            blocks = base[: c - 1] + (base[c - 1] + last,) + base[c:]
        yield make(g, blocks)


def count_partitions(ground) -> int:
    """Count partitions of the ground set by walking every growth word."""
    return _kernels.count_rgs(len(_walkable_ground(ground)))


def _walkable_ground(ground) -> tuple:
    """The ground as _ground reads it, once its size is within
    ENUMERATION_CEILING; a size meets the ceiling before {1..n} is built."""
    if _is_int(ground) and ground >= 0:
        _index(ground, ceiling=ENUMERATION_CEILING)
    g = _ground(ground)
    _index(len(g), ceiling=ENUMERATION_CEILING)
    return g


def to_rgs(p: SetPartition) -> RGS:
    """Canonical growth-string encoding of a partition of [n].

    Raises NonContiguousGround for any other ground set, which has no
    canonical word.
    """
    if not _is_range(p.ground):
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

    Accepts an RGS, a word written as RGS.from_text reads it, or any int
    sequence.
    """
    word = RGS(_word_letters(w)).word
    g = tuple(range(1, len(word) + 1))
    return SetPartition._trusted(g, _blocks_of_word(word, g))


def block_containing(p: SetPartition, e: int) -> tuple:
    """The unique block of p holding element e."""
    _index(e, "e")
    for b in p.blocks:
        if e in b:
            return b
    raise ElementNotInGround("element %r is not in the ground set" % (e,))
