"""Block-size generating polynomials over set partitions.

A partition gets the weight t_a t_b t_c ... where a, b, c are its block
sizes.  Summing the weights over all partitions of an n-set gives a
polynomial in t_1..t_n; restricting to partitions with exactly r blocks
gives its fixed-block-count part.  Two independent constructions of the
full polynomial (partition enumeration, and the multinomial formula per
block-count) are kept side by side so they can be checked against each
other.  The formula route walks the integer partitions of n and divides
exactly in integers; it never forms a rational.  A partition's weight is
a sparse Monomial with one factor t_size per block.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import _kernels
from .errors import (
    IndexOutOfRange,
    MalformedInput,
    NonIntegerCoefficient,
    SizeTooLarge,
    WeightVectorTooShort,
)
from .numbers import factorial
from .partitions import ENUMERATION_CEILING, SetPartition


class Monomial:
    """A product of variables t_i with positive integer exponents, sparse."""

    __slots__ = ("pairs",)

    def __init__(self, exponents):
        """exponents: mapping or iterable of (index, exponent) pairs."""
        items = exponents.items() if hasattr(exponents, "items") else exponents
        merged = {}
        for i, e in items:
            if i < 1 or e < 0:
                raise IndexOutOfRange("variable indices start at 1, exponents at 0")
            if e:
                merged[i] = merged.get(i, 0) + e
        self.pairs = tuple(sorted(merged.items()))

    @classmethod
    def one(cls) -> "Monomial":
        return cls(())

    @classmethod
    def single(cls, index: int, exponent: int = 1) -> "Monomial":
        return cls(((index, exponent),))

    def exponent(self, i: int) -> int:
        for idx, e in self.pairs:
            if idx == i:
                return e
        return 0

    def weighted_degree(self) -> int:
        """Sum of index times exponent; block sizes times block counts."""
        return sum(i * e for i, e in self.pairs)

    def times(self, other: "Monomial") -> "Monomial":
        merged = dict(self.pairs)
        for i, e in other.pairs:
            merged[i] = merged.get(i, 0) + e
        return Monomial(merged)

    def dense(self, width: int) -> tuple:
        vec = [0] * width
        for i, e in self.pairs:
            if i <= width:
                vec[i - 1] = e
        return tuple(vec)

    def max_index(self) -> int:
        return self.pairs[-1][0] if self.pairs else 0

    def evaluate(self, values) -> int:
        vals = list(values)
        if self.pairs and self.pairs[-1][0] > len(vals):
            raise WeightVectorTooShort(
                "need %d weights, got %d" % (self.pairs[-1][0], len(vals))
            )
        out = 1
        for i, e in self.pairs:
            out *= vals[i - 1] ** e
        return out

    def to_text(self) -> str:
        if not self.pairs:
            return "1"
        factors = []
        for i, e in self.pairs:
            factors.append("t%d" % i if e == 1 else "t%d^%d" % (i, e))
        return "*".join(factors)

    def to_jsonable(self):
        return [list(p) for p in self.pairs]

    def __eq__(self, other):
        if isinstance(other, Monomial):
            return self.pairs == other.pairs
        return NotImplemented

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return "Monomial(%r)" % (list(self.pairs),)


def _term_sort_key(width):
    # descending lexicographic on the dense exponent vector
    def key(item):
        mono, _ = item
        return tuple(-e for e in mono.dense(width))

    return key


class BellPolynomial:
    """A finite integer combination of monomials in t_1, t_2, ..."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable = ()):
        """terms: iterable of (Monomial, coefficient); duplicates merge."""
        acc = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for mono, coeff in items:
            if coeff:
                acc[mono] = acc.get(mono, 0) + coeff
                if not acc[mono]:
                    del acc[mono]
        self._terms = acc

    @classmethod
    def zero(cls) -> "BellPolynomial":
        return cls(())

    @classmethod
    def constant(cls, c: int) -> "BellPolynomial":
        return cls(((Monomial.one(), c),))

    def terms(self):
        """Term list in the canonical order used for printing."""
        width = max((m.max_index() for m in self._terms), default=0)
        return sorted(self._terms.items(), key=_term_sort_key(width))

    def coefficient(self, mono: Monomial) -> int:
        return self._terms.get(mono, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other):
        if not isinstance(other, BellPolynomial):
            return NotImplemented
        merged = dict(self._terms)
        for mono, coeff in other._terms.items():
            new = merged.get(mono, 0) + coeff
            if new:
                merged[mono] = new
            else:
                merged.pop(mono, None)
        out = BellPolynomial.zero()
        out._terms = merged
        return out

    def scaled(self, coeff: int, mono: Optional[Monomial] = None) -> "BellPolynomial":
        """This polynomial times a constant and, optionally, a monomial."""
        out = BellPolynomial.zero()
        if coeff == 0:
            return out
        if mono is None or not mono.pairs:
            out._terms = {m: c * coeff for m, c in self._terms.items()}
        else:
            out._terms = {
                m.times(mono): c * coeff for m, c in self._terms.items()
            }
        return out

    def evaluate(self, weights) -> int:
        values = _integer_weights(weights)
        need = max((m.max_index() for m in self._terms), default=0)
        if need > len(values):
            raise WeightVectorTooShort(
                "need %d weights, got %d" % (need, len(values))
            )
        return sum(c * m.evaluate(values) for m, c in self._terms.items())

    def to_text(self) -> str:
        parts = []
        for mono, coeff in self.terms():
            mag = abs(coeff)
            if mono.pairs:
                body = mono.to_text() if mag == 1 else "%d*%s" % (mag, mono.to_text())
            else:
                body = str(mag)
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


def _integer_weights(weights) -> tuple:
    """The weights as a tuple; MalformedInput unless every entry is an int."""
    values = tuple(weights)
    for v in values:
        if not isinstance(v, int):
            raise MalformedInput("weights must be integers, got %r" % (v,))
    return values


class WeightVector:
    """Integer values for t_1..t_m, with the common specializations."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int]):
        self.values = _integer_weights(values)

    @classmethod
    def ones(cls, m: int) -> "WeightVector":
        return cls([1] * m)

    @classmethod
    def factorials(cls, m: int) -> "WeightVector":
        """t_i = i!; turns the polynomial sum into A000262."""
        return cls([factorial(i) for i in range(1, m + 1)])

    @classmethod
    def shifted_factorials(cls, m: int) -> "WeightVector":
        """t_i = (i-1)!; turns the polynomial sum into n!."""
        return cls([factorial(i - 1) for i in range(1, m + 1)])

    @classmethod
    def derangement_pattern(cls, m: int) -> "WeightVector":
        """t_1 = 0 and t_i = (i-1)!; kills singletons, counts derangements."""
        return cls([0] + [factorial(i - 1) for i in range(2, m + 1)])

    def value_at(self, i: int) -> int:
        if i < 1:
            raise IndexOutOfRange("weight indices start at 1")
        if i > len(self.values):
            raise WeightVectorTooShort(
                "need weight %d, got only %d" % (i, len(self.values))
            )
        return self.values[i - 1]

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        if isinstance(other, WeightVector):
            return self.values == other.values
        return NotImplemented

    def __repr__(self):
        return "WeightVector(%r)" % (list(self.values),)


def _size_monomial(blocks, ones: int = 0) -> Monomial:
    """t_{size} per block, times t_1 to the power ones."""
    counts = {1: ones}
    for b in blocks:
        size = len(b)
        counts[size] = counts.get(size, 0) + 1
    return Monomial(counts)


def weight_of_partition(p: SetPartition, weights=None):
    """The monomial t_{size} per block, multiplied over all blocks.

    With a weight vector, returns the integer value of that product
    instead of the symbolic monomial.
    """
    mono = _size_monomial(p.blocks)
    if weights is None:
        return mono
    return mono.evaluate(_integer_weights(weights))


def complete_bell_by_enumeration(n: int) -> BellPolynomial:
    """Sum of block-size weights over every partition of an n-set.

    Walks the full partition stream, so n is capped at 13; the formula
    route has no such cap.
    """
    if n < 0:
        raise IndexOutOfRange("need n >= 0")
    if n > ENUMERATION_CEILING:
        raise SizeTooLarge(
            "enumeration route is capped at n = %d" % ENUMERATION_CEILING
        )
    tally = {}
    for word in _kernels.iter_rgs(n):
        sizes = [0] * (max(word) if word else 0)
        for c in word:
            sizes[c - 1] += 1
        key = tuple(sorted(sizes))
        tally[key] = tally.get(key, 0) + 1
    return BellPolynomial(
        (Monomial((s, 1) for s in key), count) for key, count in tally.items()
    )


def _parts(total, count, top):
    """Yield the partitions of total into exactly count parts of size at
    most top, largest part first.

    A part p obeys ceil(total/count) <= p <= min(top, total - count + 1),
    so the other count - 1 parts can always take up the rest.
    """
    if count == 0:
        if total == 0:
            yield ()
        return
    for p in range(min(top, total - count + 1), -(-total // count) - 1, -1):
        for rest in _parts(total - p, count - 1, p):
            yield (p,) + rest


def partial_bell(n: int, r: int) -> BellPolynomial:
    """The part of the full polynomial coming from exactly r blocks.

    Each partition of the integer n into r block sizes, with r_i blocks
    of size i, contributes n! / (prod r_i! * prod (i!)^{r_i}) times
    prod t_i^{r_i}.  Each coefficient is an exact integer division, and
    a nonzero remainder raises NonIntegerCoefficient.
    """
    if n < 0 or r < 0 or r > n:
        raise IndexOutOfRange("need 0 <= r <= n")
    terms = []
    n_fact = factorial(n)
    for parts in _parts(n, r, n):
        mono = Monomial((i, 1) for i in parts)
        denom = 1
        for i, r_i in mono.pairs:
            denom *= factorial(r_i) * factorial(i) ** r_i
        coeff, rem = divmod(n_fact, denom)
        if rem:
            raise NonIntegerCoefficient(
                "coefficient %d/%d for block sizes %r" % (n_fact, denom, parts)
            )
        terms.append((mono, coeff))
    return BellPolynomial(terms)


def complete_bell_by_sum(n: int) -> BellPolynomial:
    """The full polynomial as the sum of its fixed-block-count parts."""
    if n < 0:
        raise IndexOutOfRange("need n >= 0")
    out = BellPolynomial.zero()
    for r in range(n + 1):
        out = out + partial_bell(n, r)
    return out
