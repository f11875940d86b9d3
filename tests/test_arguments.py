"""One rule for every public integer argument (a size, index, window, job
count or element): it must be an int, not a bool, and it is checked
before any work is done.  Anything else raises MalformedInput, and -1
raises an IndexOutOfRange (a NegativeIndex where the rule applies)."""

import inspect
import time

import pytest

import setpart
from setpart import (
    Monomial,
    SetPartition,
    SignedPair,
    WeightVector,
    a000262,
    bell,
    bell_alternating_sum,
    bell_binomial_sum,
    binomial,
    block_containing,
    build_singleton_free,
    catalan,
    catalan_difference,
    catalan_partial_sum,
    classify_cd,
    complete_bell_by_sum,
    count_cyclic_smirnov_noncrossing,
    count_noncrossing,
    count_partitions,
    count_prefix_smirnov_noncrossing,
    derangement,
    enumerate_carrier,
    enumerate_noncrossing,
    enumerate_partitions,
    factorial,
    gather_singletons_two,
    partial_bell,
    run_identity,
    singleton_identity_lhs,
    singleton_identity_rhs,
    split_singleton_free,
    verify,
)
from setpart.errors import IndexOutOfRange, MalformedInput, SizeTooLarge
from setpart.involutions import (
    weighted_alternating_sum,
    weighted_binomial_sum,
    weighted_carrier_sum,
)
from setpart.numbers import NUMBERS_CEILING
from setpart.partitions import ENUMERATION_CEILING, _ground

P = SetPartition.from_text


class GroundSet:
    """The two ways a ground is given, as the former GroundSet class read
    them, both now partitions._ground."""

    @staticmethod
    def range_n(n):
        """{1..n} from its size n."""
        return _ground(n)

    @staticmethod
    def of(source):
        """A ground from its size or from an iterable of its elements."""
        return _ground(source)


# (name, callable, valid arguments, positions of the integer arguments,
# and optionally what -1 in such a position raises when that is not an
# IndexOutOfRange: a ground size raises MalformedInput, as a bad element
# would, and None marks binomial's zero-outside rule); a name outside
# setpart.__all__ has a module prefix
ARGUMENTS = [
    ("a000262", a000262, (3,), (0,)),
    ("bell", bell, (3,), (0,)),
    ("bell_alternating_sum", bell_alternating_sum, (3, 1), (0, 1)),
    ("bell_binomial_sum", bell_binomial_sum, (3, 1), (0, 1)),
    ("binomial", binomial, (3, 1), (0, 1), None),
    ("catalan", catalan, (3,), (0,)),
    ("catalan_difference", catalan_difference, (3,), (0,)),
    ("catalan_partial_sum", catalan_partial_sum, (3, 1), (0, 1)),
    ("derangement", derangement, (3,), (0,)),
    ("factorial", factorial, (3,), (0,)),
    ("singleton_identity_lhs", singleton_identity_lhs, (3, "pair"), (0,)),
    ("singleton_identity_rhs", singleton_identity_rhs, (3, "pair"), (0,)),
    ("partitions._ground", GroundSet.range_n, (3,), (0,), MalformedInput),
    ("partitions._ground", GroundSet.of, (3,), (0,), MalformedInput),
    ("SetPartition", SetPartition, (2, [[1, 2]]), (0,), MalformedInput),
    ("count_partitions", count_partitions, (3,), (0,), MalformedInput),
    ("enumerate_partitions", enumerate_partitions, (3,), (0,), MalformedInput),
    ("block_containing", block_containing, (P("1/2"), 1), (1,)),
    ("Monomial", Monomial.single, (2, 1), (0, 1)),
    ("WeightVector", WeightVector.ones, (3,), (0,)),
    ("WeightVector", WeightVector.factorials, (3,), (0,)),
    ("WeightVector", WeightVector.shifted_factorials, (3,), (0,)),
    ("WeightVector", WeightVector.derangement_pattern, (3,), (0,)),
    ("complete_bell_by_sum", complete_bell_by_sum, (3,), (0,)),
    ("partial_bell", partial_bell, (3, 2), (0, 1)),
    ("SignedPair", SignedPair, (1, 1, (), P("1,2")), (0, 1)),
    ("build_singleton_free", build_singleton_free, (1, 1, (), P("1")), (0, 1)),
    ("split_singleton_free", split_singleton_free, (1, 1, P("1,2")), (0, 1)),
    ("gather_singletons_two", gather_singletons_two, (P("1"), 1), (1,)),
    ("classify_cd", classify_cd, (P("1,2"), 2), (1,)),
    ("enumerate_carrier", enumerate_carrier, (2, 1), (0, 1)),
    ("involutions.weighted_carrier_sum", weighted_carrier_sum, (2, 1), (0, 1)),
    ("involutions.weighted_alternating_sum", weighted_alternating_sum, (2, 1), (0, 1)),
    ("involutions.weighted_binomial_sum", weighted_binomial_sum, (2, 1), (0, 1)),
    ("count_noncrossing", count_noncrossing, (3,), (0,)),
    ("count_cyclic_smirnov_noncrossing", count_cyclic_smirnov_noncrossing, (3,), (0,)),
    (
        "count_prefix_smirnov_noncrossing",
        count_prefix_smirnov_noncrossing,
        (3, 1),
        (0, 1),
    ),
    ("enumerate_noncrossing", enumerate_noncrossing, (3,), (0,)),
    ("run_identity", run_identity, ("thm1", 2, "both", 0, 1), (1, 4)),
    ("verify.plan_cells", verify.plan_cells, ("thm1", 2, "both"), (1,)),
]

# public names that take no integer argument: exceptions and constants,
# words (sequences of letters, checked as words), polynomial coefficients
# and weight values, and maps of partitions or pairs alone
NO_INTEGER_ARGUMENTS = {
    "ElementNotInGround",
    "IndexOutOfRange",
    "InvalidRGS",
    "MalformedInput",
    "NegativeIndex",
    "NonContiguousGround",
    "NonIntegerCoefficient",
    "PreconditionViolated",
    "SetpartError",
    "SizeTooLarge",
    "WeightVectorTooShort",
    "FIXED",
    "IDENTITIES",
    "__version__",
    "RGS",
    "from_rgs",
    "to_rgs",
    "covering_reduction",
    "is_cyclic_smirnov",
    "is_noncrossing",
    "BellPolynomial",
    "gather_singletons",
    "partner",
    "pivot_of",
}


def _call(fn, args):
    """fn(*args), with a generator drained: generators check their
    arguments on the first next()."""
    out = fn(*args)
    return list(out) if inspect.isgenerator(out) else out


def _cases(values):
    for _, fn, args, slots, *negative in ARGUMENTS:
        for slot in slots:
            for value in values:
                bad = args[:slot] + (value,) + args[slot + 1 :]
                label = "%s-%d-%r" % (fn.__qualname__, slot, value)
                yield pytest.param(fn, bad, *negative or [IndexOutOfRange], id=label)


def test_every_public_name_is_classified():
    named = {name for name, *_ in ARGUMENTS if "." not in name}
    assert not named & NO_INTEGER_ARGUMENTS
    assert named | NO_INTEGER_ARGUMENTS == set(setpart.__all__)


@pytest.mark.parametrize(
    "fn, args",
    [pytest.param(fn, args, id=fn.__qualname__) for _, fn, args, *_ in ARGUMENTS],
)
def test_valid_arguments_pass(fn, args):
    _call(fn, args)


@pytest.mark.parametrize("fn, args, negative", _cases([2.5, True, "3"]))
def test_non_integers_are_malformed(fn, args, negative):
    with pytest.raises(MalformedInput):
        _call(fn, args)


@pytest.mark.parametrize("fn, args, negative", _cases([-1]))
def test_minus_one_is_out_of_range(fn, args, negative):
    if negative is None:
        assert _call(fn, args) == 0
    else:
        with pytest.raises(negative):
            _call(fn, args)


@pytest.mark.parametrize(
    "fn", [bell, catalan, catalan_difference, factorial, derangement]
)
def test_sequences_stop_at_their_ceiling(fn):
    assert fn(NUMBERS_CEILING) > 0
    with pytest.raises(SizeTooLarge):
        fn(NUMBERS_CEILING + 1)


# a walk over every growth word refuses a ground past its ceiling before
# it builds the ground or the word; count_partitions at the ceiling itself
# walks 27,644,437 words, so only the enumeration's first step runs there
@pytest.mark.parametrize(
    "walk",
    [
        pytest.param(count_partitions, id="count_partitions"),
        pytest.param(lambda g: next(enumerate_partitions(g)), id="enumerate_partitions"),
    ],
)
def test_partition_walks_stop_at_their_ceiling(walk):
    if walk is not count_partitions:
        assert len(walk(ENUMERATION_CEILING).ground) == ENUMERATION_CEILING
    top = ENUMERATION_CEILING + 1
    for ground in (top, 3 * 10**6, 10**12, range(1, top + 1)):
        start = time.perf_counter()
        with pytest.raises(SizeTooLarge, match="^n is capped at %d$" % (top - 1)):
            walk(ground)
        assert time.perf_counter() - start < 0.1


# each identity side is capped by the largest sequence index it reads, so
# both sides of an identity share one domain and the refusal names the
# side's own argument
@pytest.mark.parametrize(
    "side, name, below",
    [
        pytest.param(lambda n: bell_alternating_sum(n, 0), "n", 1, id="bell-alt"),
        pytest.param(lambda n: bell_binomial_sum(n, 0), "n", 1, id="bell-binom"),
        pytest.param(lambda n: catalan_partial_sum(n, 0), "n", 0, id="catalan-partial"),
    ]
    + [
        pytest.param(
            lambda j, side=side, variant=variant: side(j, variant),
            "j",
            2,
            id="%s-%s" % (side.__name__[-3:], variant),
        )
        for side in (singleton_identity_lhs, singleton_identity_rhs)
        for variant in ("collapse", "pair", "alternating")
    ],
)
def test_identity_sides_stop_at_their_own_ceiling(side, name, below):
    cap = NUMBERS_CEILING - below
    assert isinstance(side(cap), int)
    with pytest.raises(SizeTooLarge, match="^%s is capped at %d$" % (name, cap)):
        side(cap + 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_identity("thm9"),
        lambda: verify.default_max_n("thm9"),
        lambda: verify.default_max_n("thm1", "sideways"),
        lambda: verify.plan_cells("thm9", 3, "both"),
    ],
    ids=["run_identity", "default_max_n", "default_max_n-mode", "plan_cells"],
)
def test_unknown_tokens_are_out_of_range(call):
    with pytest.raises(IndexOutOfRange):
        call()


def test_jobs_below_one_are_rejected():
    with pytest.raises(IndexOutOfRange):
        run_identity("thm1", 2, jobs=0)
