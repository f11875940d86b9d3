"""Block-size generating polynomials over set partitions.

A partition gets the weight t_a t_b t_c ... where a, b, c are its block
sizes.  Summing the weights over all partitions of an n-set gives a
polynomial in t_1..t_n; restricting to partitions with exactly r blocks
gives its fixed-block-count part.  Both come from the multinomial formula
over the integer partitions of n, which the test suite checks against a
walk over every set partition: one walk, held to r parts for the
fixed-block-count part, that divides exactly in integers; it never forms
a rational.  A BellPolynomial is one dict from each monomial's sorted
(index, exponent) pair tuple to its coefficient, with no object per term.
A Monomial is made only at the public edge: BellPolynomial(...) checks
each term's Monomial and coefficient, coefficient() looks up a Monomial's
pairs, and terms() wraps each key, unchecked, for printing.
"""

from __future__ import annotations

from typing import Iterable

from .errors import (
    MalformedInput,
    NonIntegerCoefficient,
    WeightVectorTooShort,
    _index,
    _ints,
    _is_int,
    _iterable,
    _printed,
)
from .numbers import NUMBERS_CEILING, factorial

# Y_n has p(n) monomials: p(60) = 966,467 take ~170 MB, p(70) over four times as many
POLY_CEILING = 60


def _pairs(items, name) -> list:
    """The items of a collection as 2-tuples; MalformedInput naming name
    for an item that is not a pair, or where _iterable refuses items."""
    items = list(_iterable(items, name))  # read first: only unpacking is caught
    try:
        return [(a, b) for a, b in items]
    except (TypeError, ValueError):  # an item not iterable, or not two items
        raise MalformedInput("%s must be pairs" % (name,)) from None


class Monomial:
    """A product of variables t_i with positive integer exponents, sparse."""

    __slots__ = ("pairs",)

    def __init__(self, exponents):
        """exponents: a collection of (index, exponent) pairs."""
        merged = {}
        for i, e in _pairs(exponents, "exponent pairs"):
            _index(i, "variable index", low=1)
            if _index(e, "exponent"):
                merged[i] = merged.get(i, 0) + e
        self.pairs = tuple(sorted(merged.items()))

    @classmethod
    def _trusted(cls, pairs) -> "Monomial":
        # pairs: a tuple sorted by int index >= 1, each exponent an int >= 1
        mono = object.__new__(cls)
        mono.pairs = pairs
        return mono

    @classmethod
    def one(cls) -> "Monomial":
        return cls(())

    @classmethod
    def single(cls, index: int, exponent: int = 1) -> "Monomial":
        return cls(((index, exponent),))

    def to_text(self) -> str:
        factors = ("t%d" % i if e == 1 else "t%d^%d" % (i, e) for i, e in self.pairs)
        return _printed(lambda: "*".join(factors), "an index or exponent") or "1"

    def to_jsonable(self):
        return [list(p) for p in self.pairs]

    def __eq__(self, other):
        if isinstance(other, Monomial):
            return self.pairs == other.pairs
        return NotImplemented

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return _printed(
            lambda: "Monomial(%r)" % (list(self.pairs),), "an index or exponent"
        )


class BellPolynomial:
    """A finite integer combination of monomials in t_1, t_2, ..."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable = ()):
        """terms: a collection of (Monomial, int coefficient); duplicates merge."""
        acc = {}
        for mono, coeff in _pairs(terms, "terms"):
            if not isinstance(mono, Monomial):
                raise MalformedInput("each term needs a Monomial, got %r" % (mono,))
            if not _is_int(coeff):
                raise MalformedInput("coefficients must be integers, got %r" % (coeff,))
            acc[mono.pairs] = acc.get(mono.pairs, 0) + coeff
        self._terms = {pairs: c for pairs, c in acc.items() if c}

    @classmethod
    def _trusted(cls, terms: dict) -> "BellPolynomial":
        # terms: canonical pair tuple -> nonzero int, owned by the result
        out = object.__new__(cls)
        out._terms = terms
        return out

    def terms(self):
        """Term list in the canonical order used for printing: descending
        lexicographic on the exponents of t_1, t_2, ..., as in t1^3, t1*t2,
        t3.  On the sparse pairs that is descending on [(-index, exponent),
        ...]: a monomial whose pairs are a prefix of another's (exponent 0
        where the other goes on) comes after it."""
        order = sorted(self._terms, key=lambda k: [(-i, e) for i, e in k], reverse=True)
        return [(Monomial._trusted(pairs), self._terms[pairs]) for pairs in order]

    def coefficient(self, mono: Monomial) -> int:
        return self._terms.get(mono.pairs, 0)

    def __add__(self, other):
        if not isinstance(other, BellPolynomial):
            return NotImplemented
        return _combination(((self, 1, ()), (other, 1, ())))

    def evaluate(self, weights) -> int:
        values = _ints(weights, "weights")
        need = max((pairs[-1][0] for pairs in self._terms if pairs), default=0)
        if need > len(values):
            raise WeightVectorTooShort("need %d weights, got %d" % (need, len(values)))
        power = {}  # (index, exponent) -> t_index^exponent, each worked out once
        total = 0
        for pairs, coeff in self._terms.items():
            for p in pairs:
                v = power.get(p)
                if v is None:
                    v = power[p] = values[p[0] - 1] ** p[1]
                coeff *= v
            total += coeff
        return total

    def to_text(self) -> str:
        parts = []
        for mono, coeff in self.terms():
            mag = _printed(lambda: "%d" % abs(coeff), "a coefficient")
            if mono.pairs:
                body = mono.to_text() if mag == "1" else mag + "*" + mono.to_text()
            else:
                body = mag
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts) if parts else "0"

    def to_jsonable(self):
        return [
            {"exponents": m.to_jsonable(), "coefficient": c}
            for m, c in self.terms()
        ]

    def __eq__(self, other):
        if isinstance(other, BellPolynomial):
            return self._terms == other._terms
        return NotImplemented

    def __repr__(self):
        return "<BellPolynomial %s>" % (self.to_text(),)


def _times(a: tuple, b: tuple) -> tuple:
    """The product of two sorted pair tuples, by one merge that keeps a's pairs."""
    out = []
    i = 0
    for s, e in b:
        while i < len(a) and a[i][0] < s:
            out.append(a[i])
            i += 1
        if i < len(a) and a[i][0] == s:
            e += a[i][1]
            i += 1
        out.append((s, e))
    return tuple(out) + a[i:]


def _combination(parts) -> BellPolynomial:
    """The sum of coeff * mono * poly over (poly, coeff, mono) in parts,
    mono a sorted pair tuple (() for 1), added term by term into one dict."""
    acc = {}
    get = acc.get
    for poly, coeff, mono in parts:
        for m, c in poly._terms.items():
            if mono:
                m = _times(m, mono)
            acc[m] = get(m, 0) + c * coeff
    return BellPolynomial._trusted({m: c for m, c in acc.items() if c})


def _weight_indices(m) -> range:
    """1..m, once m is an int within NUMBERS_CEILING."""
    return range(1, _index(m, "m", ceiling=NUMBERS_CEILING) + 1)


class WeightVector:
    """Integer values for t_1..t_m, with the common specializations."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int]):
        self.values = _ints(values, "weights")

    @classmethod
    def ones(cls, m: int) -> "WeightVector":
        return cls([1] * len(_weight_indices(m)))

    @classmethod
    def factorials(cls, m: int) -> "WeightVector":
        """t_i = i!; turns the polynomial sum into A000262."""
        return cls([factorial(i) for i in _weight_indices(m)])

    @classmethod
    def shifted_factorials(cls, m: int) -> "WeightVector":
        """t_i = (i-1)!; turns the polynomial sum into n!."""
        return cls([factorial(i - 1) for i in _weight_indices(m)])

    @classmethod
    def derangement_pattern(cls, m: int) -> "WeightVector":
        """t_1 = 0 and t_i = (i-1)!; kills singletons, counts derangements."""
        return cls([factorial(i - 1) if i > 1 else 0 for i in _weight_indices(m)])

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        if isinstance(other, WeightVector):
            return self.values == other.values
        return NotImplemented

    def __repr__(self):
        return _printed(lambda: "WeightVector(%r)" % (list(self.values),), "a weight")


def _size_monomial(sizes, ones: int = 0) -> Monomial:
    """t_{size} per block size, times t_1 to the power ones."""
    return Monomial([(1, ones), *((size, 1) for size in sizes)])


def _bell_terms(n: int, blocks=None) -> BellPolynomial:
    """Y_n, or its part with exactly `blocks` blocks, from one walk that
    visits each integer partition of n once; r_i blocks of size i add n! /
    prod(r_i! (i!)^r_i) times prod t_i^r_i.  The walk picks sizes 2 and up,
    descending, with their multiplicities, carries the denominator down and
    fills the rest with ones; each leaf divides exactly (NonIntegerCoefficient
    otherwise) into one pair-tuple key.  A block count prunes dead branches.
    Every key shares its (size, multiplicity) pairs from one table, which
    also holds the factor m! (s!)^m that each pair adds to the denominator."""
    fact = [factorial(i) for i in range(n + 1)]
    step = [None] + [
        [((s, m), fact[m] * fact[s] ** m) for m in range(n // s + 1)]
        for s in range(1, n + 1)
    ]
    terms = {}

    def walk(total, count, top, pairs, denom):
        # parts of size at most top still sum to total, in count parts
        # unless count is None; pairs: the (size, multiplicity) pairs so far
        if count is None or count == total:
            leaf = (step[1][total][0],) + pairs if total else pairs
            coeff, rem = divmod(fact[n], denom * fact[total])
            if rem:
                raise NonIntegerCoefficient("coefficient of %r is inexact" % (leaf,))
            terms[leaf] = coeff
        for s in range(min(top, total if count is None else total - count + 1), 1, -1):
            if count is None:
                low, most = 1, total // s
            else:
                # m parts of size s leave count - m parts in [1, s - 1]
                low = max(1, total - count * (s - 1))
                most = min(count, (total - count) // (s - 1))
            row = step[s]
            for m in range(low, most + 1):
                rest = None if count is None else count - m
                p, d = row[m]
                walk(total - m * s, rest, s - 1, (p,) + pairs, denom * d)

    walk(n, blocks, n, (), 1)
    del walk  # walk reaches itself through its closure: free terms with the result
    return BellPolynomial._trusted(terms)


def partial_bell(n: int, r: int) -> BellPolynomial:
    """The part of the full polynomial from exactly r blocks: the
    integer-partition walk held to r parts.  n is capped at POLY_CEILING."""
    _index(r, "r", top=_index(n, ceiling=POLY_CEILING))
    return _bell_terms(n, r)


def complete_bell_by_sum(n: int) -> BellPolynomial:
    """The full polynomial, from the integer-partition walk with no block
    count: every block count's terms in one pass.  n is capped at POLY_CEILING."""
    _index(n, ceiling=POLY_CEILING)
    return _bell_terms(n)
