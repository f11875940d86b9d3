"""One rule for every public integer argument (a size, index, window, job
count or element): it must be an int, not a bool, and it is checked
before any work is done.  Anything else raises MalformedInput, and -1
raises an IndexOutOfRange (a NegativeIndex where the rule applies).  One
rule, too, for every argument that is a collection of integers: it must
be a collection, not text, of such ints, read no further than its
ceiling."""

import inspect
import itertools
import sys
import time

import pytest

import setpart
from setpart import (
    RGS,
    BellPolynomial,
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
    covering_reduction,
    derangement,
    enumerate_carrier,
    enumerate_noncrossing,
    enumerate_partitions,
    factorial,
    from_rgs,
    gather_singletons_two,
    is_cyclic_smirnov,
    is_noncrossing,
    partial_bell,
    run_identity,
    singleton_identity_lhs,
    singleton_identity_rhs,
    split_singleton_free,
    verify,
)
from setpart.bellpoly import POLY_CEILING
from setpart.errors import IndexOutOfRange, MalformedInput, SetpartError, SizeTooLarge
from setpart.involutions import (
    WEIGHTED_CEILING,
    weighted_alternating_sum,
    weighted_binomial_sum,
    weighted_carrier_sum,
)
from setpart.noncrossing import (
    BRUTEFORCE_CEILING,
    NONCROSSING_CEILING,
    is_noncrossing_bruteforce,
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


def one_block(*elements):
    """SetPartition([elements]): the integer arguments of a partition are
    its elements, and the ground is their union."""
    return SetPartition([elements])


one_block.__qualname__ = SetPartition.__qualname__  # the case ids name the class


# (name, callable, valid arguments, positions of the integer arguments,
# and optionally what -1 in such a position raises when that is not an
# IndexOutOfRange: an element below 1 raises MalformedInput, and None
# marks binomial's zero-outside rule); a name outside setpart.__all__ has
# a module prefix
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
    ("partitions._ground", GroundSet.range_n, (3,), (0,)),
    ("partitions._ground", GroundSet.of, (3,), (0,)),
    ("SetPartition", one_block, (1, 2), (0,), MalformedInput),
    ("count_partitions", count_partitions, (3,), (0,)),
    ("enumerate_partitions", enumerate_partitions, (3,), (0,)),
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


def test_run_identity_seed_is_any_int():
    # a seed is a label: any sign is valid, anything but an int is not
    assert run_identity("nc-catalan", 1, seed=-1).seed == -1
    for seed in ("x", True, 2.5, None):
        with pytest.raises(MalformedInput, match="^seed must be an integer, got "):
            run_identity("nc-catalan", 1, seed=seed)


# every public reader of a word given as text, an RGS or a sequence
WORD_READERS = [
    RGS,
    is_noncrossing,
    is_noncrossing_bruteforce,
    is_cyclic_smirnov,
    covering_reduction,
    from_rgs,
]


@pytest.mark.parametrize("read", WORD_READERS, ids=lambda f: f.__qualname__)
def test_word_readers_take_a_sequence_of_ints_alone(read):
    read([1, 2, 1])
    for word, message in (
        (None, "a word must be a sequence, not NoneType"),
        (5, "a word must be a sequence, not int"),
        (iter([1]), "a word must be a sequence, not list_iterator"),
        ([1, "a", 1, "a"], "a word must hold integers, got 'a'"),
        ([1, 2.5, 1, 2.5], "a word must hold integers, got 2.5"),
        ([True, 2], "a word must hold integers, got True"),
    ):
        with pytest.raises(MalformedInput) as err:
            read(word)
        assert str(err.value) == message


# every public argument that is a collection of integers, as a call that
# takes it and is otherwise valid, with the class itertools.count(1)
# raises where a ceiling bounds the read (None where none applies); an
# int names a ground of that size, so 5 is no bad ground
COLLECTIONS = [
    ("count_partitions", count_partitions, SizeTooLarge),
    ("enumerate_partitions", enumerate_partitions, SizeTooLarge),
    ("SetPartition-blocks", SetPartition, None),
    ("SetPartition-elements", lambda b: SetPartition([[1], b]), None),
    ("RGS", RGS, None),
    ("from_rgs", from_rgs, None),
    ("covering_reduction", covering_reduction, None),
    ("is_noncrossing", is_noncrossing, MalformedInput),  # a word is a sequence
    ("is_noncrossing_bruteforce", is_noncrossing_bruteforce, MalformedInput),
    ("is_cyclic_smirnov", is_cyclic_smirnov, None),
    ("SignedPair-S", lambda S: SignedPair(3, 2, S, P("3,4")), MalformedInput),
    (
        "build_singleton_free-T",
        lambda T: build_singleton_free(3, 1, T, P("1,2,3")),
        MalformedInput,
    ),
    ("WeightVector", WeightVector, None),
    ("evaluate", complete_bell_by_sum(2).evaluate, None),
]


def _collection_cases():
    for name, fn, endless in COLLECTIONS:
        bad = [None, [True], [2.5]]
        if not name.endswith("partitions"):  # there an int n names {1..n}
            bad.append(5)
        for value in bad:
            yield pytest.param(fn, value, MalformedInput, id="%s-%r" % (name, value))
        if endless is not None:
            count = itertools.count(1)
            yield pytest.param(fn, count, endless, id="%s-count(1)" % (name,))


@pytest.mark.parametrize("fn, value, error", _collection_cases())
def test_collections_are_refused_at_once(fn, value, error):
    start = time.perf_counter()
    with pytest.raises(SetpartError) as err:
        _call(fn, (value,))
    assert time.perf_counter() - start < 0.1
    assert type(err.value) is error


def test_word_letters_may_have_any_sign():
    # the predicates take arbitrary words, as _read_integers reads signed text
    assert is_noncrossing([-1, 3, -1]) and is_noncrossing("-1,3,-1")
    for check in (is_noncrossing, is_noncrossing_bruteforce):
        assert not check([-2, -1, -2, -1])
    assert is_cyclic_smirnov([-1, 2]) and not is_cyclic_smirnov([-1, -1])


@pytest.mark.parametrize(
    "fn", [bell, catalan, catalan_difference, factorial, derangement, a000262]
)
def test_sequences_stop_at_their_ceiling(fn):
    assert fn(NUMBERS_CEILING) > 0
    with pytest.raises(SizeTooLarge):
        fn(NUMBERS_CEILING + 1)


# a walk over every growth word refuses a ground past its ceiling before
# it builds the ground or the word, and reads an iterable ground no further
# than one element past the ceiling; count_partitions at the ceiling itself
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
    for ground in (top, 3 * 10**6, 10**12, range(1, top + 1), range(1, 10**7)):
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


def _refused_at_once(call, message):
    start = time.perf_counter()
    with pytest.raises(SizeTooLarge) as err:
        call()
    assert time.perf_counter() - start < 0.1
    assert str(err.value) == message


# both sides of Theorem 2 share one domain, capped at WEIGHTED_CEILING
# well below POLY_CEILING, since their cost grows about fourfold per 5
# steps of n; neither side is evaluated at its cap here
@pytest.mark.parametrize(
    "side", [weighted_alternating_sum, weighted_binomial_sum], ids=lambda f: f.__name__
)
def test_weighted_sides_stop_below_the_polynomial_ceiling(side):
    assert WEIGHTED_CEILING < POLY_CEILING - 1
    for n in (WEIGHTED_CEILING + 1, POLY_CEILING, 10**6):
        _refused_at_once(lambda: side(n, 0), "n is capped at %d" % (WEIGHTED_CEILING,))


def test_is_noncrossing_stops_at_its_length_ceiling():
    # the worst word for the last-occurrence scan is nested,
    # 1 2 ... m m ... 2 1: every letter scans its whole span
    m = NONCROSSING_CEILING // 2
    assert is_noncrossing(tuple(range(1, m + 1)) + tuple(range(m, 0, -1)))
    for length in (NONCROSSING_CEILING + 1, 10**6):
        _refused_at_once(
            lambda: is_noncrossing((1,) * length),
            "length is capped at %d" % (NONCROSSING_CEILING,),
        )


def test_is_noncrossing_bruteforce_stops_at_its_length_ceiling():
    # the worst word found for the quartic scan is 1^q 2^q 1^2q: every
    # 1 before the 2s pairs with every 2 and every later 1, and each
    # such triple scans the rest of the word
    q = BRUTEFORCE_CEILING // 4
    word = (1,) * q + (2,) * q + (1,) * (BRUTEFORCE_CEILING - 2 * q)
    assert is_noncrossing_bruteforce(word)
    for length in (BRUTEFORCE_CEILING + 1, 10**6):
        _refused_at_once(
            lambda: is_noncrossing_bruteforce((1,) * length),
            "length is capped at %d" % (BRUTEFORCE_CEILING,),
        )


@pytest.mark.parametrize(
    "build",
    [
        WeightVector.ones,
        WeightVector.factorials,
        WeightVector.shifted_factorials,
        WeightVector.derangement_pattern,
    ],
    ids=lambda f: f.__name__,
)
def test_weight_vectors_stop_at_the_sequence_ceiling(build):
    assert len(build(NUMBERS_CEILING)) == NUMBERS_CEILING
    for m in (NUMBERS_CEILING + 1, 10**9):
        _refused_at_once(lambda: build(m), "m is capped at %d" % (NUMBERS_CEILING,))


def test_binomial_stops_at_the_sequence_ceiling_inside_its_window():
    assert binomial(NUMBERS_CEILING, NUMBERS_CEILING // 2) > 0
    message = "n is capped at %d" % (NUMBERS_CEILING,)
    for n, k in ((NUMBERS_CEILING + 1, 1), (10**6, 5 * 10**5)):
        _refused_at_once(lambda: binomial(n, k), message)
    # outside 0 <= k <= n the answer is 0 at any size
    assert binomial(10**6, 2 * 10**6) == 0
    assert binomial(-1, 0) == 0
    assert binomial(10**6, -1) == 0


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


@pytest.mark.parametrize(
    "show, what",
    [
        (lambda: SetPartition([[2, 10**5000]]).to_text(), "an element"),
        (lambda: repr(SetPartition([[2, 10**5000]])), "an element"),
        (lambda: Monomial([(1, 10**5000)]).to_text(), "an index or exponent"),
        (lambda: repr(Monomial([(10**5000, 1)])), "an index or exponent"),
        (
            lambda: BellPolynomial([(Monomial.single(1), 10**5000)]).to_text(),
            "a coefficient",
        ),
        (lambda: repr(BellPolynomial([(Monomial.one(), -10**5000)])), "a coefficient"),
        (lambda: repr(WeightVector([2, 10**5000])), "a weight"),
    ],
    ids=[
        "partition-text", "partition-repr", "monomial-text", "monomial-repr",
        "polynomial-text", "polynomial-repr", "weights-repr",
    ],
)
def test_integers_past_the_text_limit_are_refused_by_the_printers(show, what):
    # the library holds such integers; str() refuses them with a bare
    # ValueError, which each printer turns into a SetpartError
    with pytest.raises(SizeTooLarge) as err:
        show()
    limit = sys.get_int_max_str_digits()
    assert str(err.value) == "%s has over %d digits, too many to print" % (what, limit)
