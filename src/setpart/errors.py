"""Exception types raised by the library.

Every error is a subclass of :class:`SetpartError`, so callers can catch the
whole family with one clause.  The concrete classes mirror the failure modes
of the public operations.

The module also holds the one rule for integer arguments: _is_int decides
what an integer is, _index checks every size, index, window and job count
against it, and _ints reads every collection of them; _printed is the one
rule for printing integers, refusing one too long for str().
"""

import sys
from itertools import islice


class SetpartError(Exception):
    """Base class for all library errors."""


class IndexOutOfRange(SetpartError, ValueError):
    """An index or parameter pair lies outside the operation's domain."""


class NegativeIndex(IndexOutOfRange):
    """An integer argument that must be nonnegative was negative."""


class SizeTooLarge(SetpartError, ValueError):
    """The requested exhaustive sweep exceeds the documented ceiling."""


class ElementNotInGround(SetpartError, ValueError):
    """An element lookup fell outside the partition's ground set."""


class WeightVectorTooShort(SetpartError, ValueError):
    """A polynomial evaluation needs more weights than were supplied."""


class NonIntegerCoefficient(SetpartError, ArithmeticError):
    """A coefficient that must reduce to an integer did not.  Signals a bug."""


class MalformedInput(SetpartError, ValueError):
    """A structured argument does not satisfy the operation's preconditions."""


class InvalidRGS(MalformedInput):
    """A word violates the restricted-growth invariants."""


class NonContiguousGround(MalformedInput):
    """A partition's ground set is not {1..m}, or not of the size the map needs."""


class PreconditionViolated(SetpartError, ValueError):
    """An inverse map was applied to a value outside the forward image."""


def _is_int(value) -> bool:
    """The one test of an integer argument, element or weight: an int, not
    a bool (True == 1 would otherwise pass every range check)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _printed(show, what: str) -> str:
    """The text show() makes of integers.  One that str() refuses as past
    its digit limit raises SizeTooLarge naming it as what."""
    try:
        return show()
    except ValueError:  # past int-to-text's limit on digits
        raise SizeTooLarge(
            "%s has over %d digits, too many to print"
            % (what, sys.get_int_max_str_digits())
        ) from None


def _index(value, name="n", top=None, low=0, ceiling=None):
    """value, when it is an integer with low <= value <= top (the window,
    such as j <= n) and value <= ceiling (the cap of an exhaustive walk).

    Raises MalformedInput for anything but an int (bool excluded),
    NegativeIndex below 0, IndexOutOfRange outside [low, top] and
    SizeTooLarge above ceiling.
    """
    if type(value) is not int and not _is_int(value):  # exact ints skip the call
        raise MalformedInput("%s must be an integer, got %r" % (name, value))
    if value < 0:
        raise NegativeIndex("%s must be nonnegative" % (name,))
    if value < low or top is not None and value > top:
        high = "" if top is None else " <= %d" % (top,)
        raise IndexOutOfRange("need %d <= %s%s" % (low, name, high))
    if ceiling is not None and value > ceiling:
        raise SizeTooLarge("%s is capped at %d" % (name, ceiling))
    return value


def _iterable(values, name):
    """iter(values); MalformedInput for text and for what has no __iter__."""
    if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
        kind = type(values).__name__
        raise MalformedInput("%s must be a collection, not %s" % (name, kind))
    return iter(values)


def _ints(values, name, low=None, high=None, most=None, size="length", distinct=False):
    """The items of the collection values, in order, as a tuple of ints
    (bool excluded) >= low and, with low, <= high, none repeated if
    distinct; else MalformedInput naming name.  Reads at most most + 1
    items, and refuses more than most with SizeTooLarge naming size."""
    items = tuple(islice(_iterable(values, name), None if most is None else most + 1))
    for v in items:
        if type(v) is not int and not _is_int(v):  # exact ints skip the call
            raise MalformedInput("%s must hold integers, got %r" % (name, v))
        if high is not None and not low <= v <= high:
            raise MalformedInput("%s must lie in {%d..%d}" % (name, low, high))
        if low is not None and v < low:
            raise MalformedInput("%s must hold integers >= %d" % (name, low))
    if distinct and len(set(items)) < len(items):
        raise MalformedInput("%s must not repeat an element" % (name,))
    _index(len(items), size, ceiling=most)
    return items
