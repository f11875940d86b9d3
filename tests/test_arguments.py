"""One rule for every public integer argument (a size, index, window, job
count or element): it must be an int, not a bool, and it is checked
before any work is done.  Anything else raises MalformedInput, and -1
raises an IndexOutOfRange (a NegativeIndex where the rule applies).  One
rule, too, for every argument that is a collection of integers: it must
be a collection, not text, of such ints, read no further than its
ceiling.  A collection of pairs is read no further than its ceiling
either, and an argument that must be an object of a given class (a
partition, a signed pair, a monomial) or a token raises a SetpartError
when it is anything else."""

import inspect
import itertools
import operator
import os
import subprocess
import sys
import time
from fractions import Fraction

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
    gather_singletons,
    gather_singletons_two,
    is_cyclic_smirnov,
    is_noncrossing,
    partial_bell,
    partner,
    pivot_of,
    run_identity,
    singleton_identity_lhs,
    singleton_identity_rhs,
    split_singleton_free,
    to_rgs,
    verify,
)
from setpart.bellpoly import POLY_CEILING, TERM_CEILING
from setpart.errors import (
    IndexOutOfRange,
    MalformedInput,
    NegativeIndex,
    SetpartError,
    SizeTooLarge,
)
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


def one_pair(index, exponent):
    """Monomial([(index, exponent)]): the integer arguments of a monomial
    are the index and exponent of its pairs."""
    return Monomial([(index, exponent)])


# the row's case ids keep their established names
one_pair.__qualname__ = "Monomial.single"


def one_letter(word, i):
    """RGS(word)[i]: the integer argument of a word is the index of a letter."""
    return RGS(word)[i]


one_letter.__qualname__ = "RGS.__getitem__"


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
    ("RGS", one_letter, ("121", 2), (1,)),
    ("count_partitions", count_partitions, (3,), (0,)),
    ("enumerate_partitions", enumerate_partitions, (3,), (0,)),
    ("block_containing", block_containing, (P("1/2"), 1), (1,)),
    ("Monomial", one_pair, (2, 1), (0, 1)),
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
    "index, error",
    [
        (3, IndexOutOfRange),
        (10**5000, IndexOutOfRange),
        (-1, NegativeIndex),
        ([1], MalformedInput),
        (slice(0, 2), MalformedInput),
    ],
    ids=["past-the-end", "huge", "negative", "list", "slice"],
)
def test_an_rgs_index_names_the_letters_it_may_read(index, error):
    start = time.perf_counter()
    with pytest.raises(SetpartError) as err:
        RGS("121")[index]
    assert time.perf_counter() - start < 0.1
    assert type(err.value) is error


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
    ("WeightVector", WeightVector, SizeTooLarge),
    ("evaluate", complete_bell_by_sum(2).evaluate, SizeTooLarge),
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


def test_endless_pairs_are_refused_within_a_memory_bound():
    # a child caps its own address space at 400 MB, where reading an
    # endless collection whole ends in MemoryError: the first item that is
    # no pair is refused as it is read, and a stream of valid pairs after
    # TERM_CEILING + 1 of them
    code = (
        "import itertools, resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
        "from setpart import BellPolynomial, Monomial, SetpartError\n"
        "count, repeat = itertools.count, itertools.repeat\n"
        "for call in (\n"
        "    lambda: Monomial(count(1)),\n"
        "    lambda: BellPolynomial(count(1)),\n"
        "    lambda: Monomial(zip(count(1), repeat(1))),\n"
        "    lambda: BellPolynomial(zip(repeat(Monomial(())), repeat(1))),\n"
        "):\n"
        "    start = time.perf_counter()\n"
        "    try:\n"
        "        call()\n"
        "    except SetpartError as err:\n"
        "        print(type(err).__name__, time.perf_counter() - start < 2)\n"
    )
    src = os.path.dirname(os.path.dirname(setpart.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    refused = "MalformedInput True\n" * 2 + "SizeTooLarge True\n" * 2
    assert done.stdout == refused


def test_pairs_are_read_up_to_their_ceiling():
    # p(POLY_CEILING) integer partitions, by the parts-at-most-k recurrence:
    # no builder makes more terms than Y_60 has
    ways = [1] + [0] * POLY_CEILING
    for part in range(1, POLY_CEILING + 1):
        for total in range(part, POLY_CEILING + 1):
            ways[total] += ways[total - part]
    assert TERM_CEILING == ways[POLY_CEILING]
    at = Monomial(zip(range(1, TERM_CEILING + 1), itertools.repeat(1)))
    assert len(at.pairs) == TERM_CEILING
    with pytest.raises(SizeTooLarge, match="^the number of terms is capped at"):
        BellPolynomial([(Monomial(()), 1)] * (TERM_CEILING + 1))


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


PAIR = SignedPair(1, 1, (), P("1,2"))

# (name, callable, valid arguments, positions of the object arguments, and
# optionally the class a wrong one raises when that is not MalformedInput:
# an identity, mode or variant that is not one of its tokens is unknown,
# an IndexOutOfRange); a name outside setpart.__all__ has a module prefix
OBJECT_ARGUMENTS = [
    ("to_rgs", to_rgs, (P("1"),), (0,)),
    ("block_containing", block_containing, (P("1/2"), 1), (0,)),
    ("SignedPair", SignedPair, (1, 1, (), P("1,2")), (3,)),
    ("partner", partner, (PAIR,), (0,)),
    ("pivot_of", pivot_of, (PAIR,), (0,)),
    ("build_singleton_free", build_singleton_free, (1, 1, (), P("1")), (3,)),
    ("split_singleton_free", split_singleton_free, (1, 1, P("1,2")), (2,)),
    ("gather_singletons", gather_singletons, (P("1"),), (0,)),
    ("gather_singletons_two", gather_singletons_two, (P("1"), 1), (0,)),
    ("classify_cd", classify_cd, (P("1,2"), 2), (0,)),
    (
        "BellPolynomial",
        complete_bell_by_sum(2).coefficient,
        (Monomial([(1, 2)]),),
        (0,),
    ),
    # both operand orders: None + p calls p.__radd__, p + None p.__add__
    (
        "BellPolynomial",
        operator.add,
        (complete_bell_by_sum(2), complete_bell_by_sum(1)),
        (0, 1),
    ),
    (
        "singleton_identity_lhs",
        singleton_identity_lhs,
        (3, "pair"),
        (1,),
        IndexOutOfRange,
    ),
    (
        "singleton_identity_rhs",
        singleton_identity_rhs,
        (3, "pair"),
        (1,),
        IndexOutOfRange,
    ),
    ("run_identity", run_identity, ("thm1", 2, "both"), (0, 2), IndexOutOfRange),
    (
        "verify.plan_cells",
        verify.plan_cells,
        ("thm1", 2, "both"),
        (0, 2),
        IndexOutOfRange,
    ),
    (
        "verify.default_max_n",
        verify.default_max_n,
        ("thm1", "both"),
        (0, 1),
        IndexOutOfRange,
    ),
]

# public names that take no object argument: exceptions and constants,
# integers alone, and collections of integers or pairs (a word given as
# text is a collection too), which the rules above read
NO_OBJECT_ARGUMENTS = {
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
    "a000262",
    "bell",
    "bell_alternating_sum",
    "bell_binomial_sum",
    "binomial",
    "catalan",
    "catalan_difference",
    "catalan_partial_sum",
    "derangement",
    "factorial",
    "count_partitions",
    "enumerate_partitions",
    "SetPartition",
    "RGS",
    "from_rgs",
    "Monomial",
    "WeightVector",
    "complete_bell_by_sum",
    "partial_bell",
    "enumerate_carrier",
    "count_noncrossing",
    "count_cyclic_smirnov_noncrossing",
    "count_prefix_smirnov_noncrossing",
    "enumerate_noncrossing",
    "covering_reduction",
    "is_cyclic_smirnov",
    "is_noncrossing",
}


def _object_cases():
    for _, fn, args, slots, *error in OBJECT_ARGUMENTS:
        for slot in slots:
            for value in (None, 5, "1", [[1, 2]]):
                bad = args[:slot] + (value,) + args[slot + 1 :]
                label = "%s-%d-%r" % (fn.__qualname__, slot, value)
                yield pytest.param(fn, bad, *error or [MalformedInput], id=label)


def test_every_public_name_is_classified_by_its_objects():
    named = {name for name, *_ in OBJECT_ARGUMENTS if "." not in name}
    assert not named & NO_OBJECT_ARGUMENTS
    assert named | NO_OBJECT_ARGUMENTS == set(setpart.__all__)


@pytest.mark.parametrize(
    "fn, args",
    [
        pytest.param(fn, args, id=fn.__qualname__)
        for _, fn, args, *_ in OBJECT_ARGUMENTS
    ],
)
def test_valid_objects_pass(fn, args):
    _call(fn, args)


@pytest.mark.parametrize("fn, args, error", _object_cases())
def test_wrong_objects_are_refused_at_once(fn, args, error):
    start = time.perf_counter()
    with pytest.raises(SetpartError) as err:
        _call(fn, args)
    assert time.perf_counter() - start < 0.1
    assert type(err.value) is error


def test_a_wrong_object_is_named_by_its_type():
    # never by its value, which may be too long to show
    for value, kind in (([[1, 2]], "list"), (10**5000, "int")):
        with pytest.raises(MalformedInput) as err:
            to_rgs(value)
        message = "the partition must be a SetPartition, not %s" % (kind,)
        assert str(err.value) == message


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
            lambda: BellPolynomial([(Monomial([(1, 1)]), 10**5000)]).to_text(),
            "a coefficient",
        ),
        (lambda: repr(BellPolynomial([(Monomial(()), -10**5000)])), "a coefficient"),
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


# a refusal that names a value past int-to-text's digit limit shows a
# stand-in for it: each call raises, at once, the class it raises for an
# ordinary bad value (the second item), not a bare ValueError from repr()
HUGE = 10**5000
PAST_THE_DIGIT_LIMIT = [
    ("RGS", lambda v: RGS([1, v]), 3, HUGE),
    ("SetPartition-repeat", lambda v: SetPartition([[v], [v]]), 5, HUGE),
    (
        "SetPartition-element",
        lambda v: SetPartition([[v]]),
        Fraction(5),
        Fraction(HUGE),
    ),
    ("WeightVector", lambda v: WeightVector([v]), Fraction(5), Fraction(HUGE)),
    ("block_containing", lambda v: block_containing(P("1,2"), v), 3, HUGE),
    ("SignedPair-j", lambda v: SignedPair(v, v + 1, [], P("1")), 5, HUGE),
    ("SignedPair-pi", lambda v: SignedPair(v, 0, [], P("1")), 5, HUGE),
    (
        "build_singleton_free",
        lambda v: build_singleton_free(v, v + 1, [], P("1")),
        5,
        HUGE,
    ),
    ("split_singleton_free", lambda v: split_singleton_free(v, 0, P("1")), 5, HUGE),
    ("gather_singletons_two", lambda v: gather_singletons_two(P("1"), v), 5, HUGE),
    ("classify_cd", lambda v: classify_cd(P("1,2"), v), 5, HUGE),
    (
        "evaluate",
        lambda v: BellPolynomial([(Monomial([(v, 1)]), 1)]).evaluate([]),
        5,
        HUGE,
    ),
    ("binomial", lambda v: binomial(v, 1), Fraction(5), Fraction(HUGE)),
    (
        "run_identity-seed",
        lambda v: run_identity("thm1", max_n=1, seed=v),
        Fraction(5),
        Fraction(HUGE),
    ),
    ("run_identity-identity", run_identity, Fraction(5), Fraction(HUGE)),
    (
        "singleton_identity_lhs",
        lambda v: singleton_identity_lhs(3, v),
        Fraction(5),
        Fraction(HUGE),
    ),
]


@pytest.mark.parametrize(
    "call, ordinary, huge",
    [pytest.param(*row[1:], id=row[0]) for row in PAST_THE_DIGIT_LIMIT],
)
def test_a_refusal_never_fails_on_the_value_it_names(call, ordinary, huge):
    with pytest.raises(SetpartError) as want:
        call(ordinary)
    start = time.perf_counter()
    with pytest.raises(SetpartError) as err:
        call(huge)
    assert time.perf_counter() - start < 0.1
    assert type(err.value) is type(want.value)
    assert "too long to show>" in str(err.value)


def test_weights_are_read_no_further_than_needed():
    # WeightVector holds at most NUMBERS_CEILING weights; evaluate reads no
    # more than the polynomial's largest index or NUMBERS_CEILING
    assert len(WeightVector([1] * NUMBERS_CEILING)) == NUMBERS_CEILING
    with pytest.raises(SizeTooLarge, match="^length is capped at 1000$"):
        WeightVector([1] * (NUMBERS_CEILING + 1))
    y2 = complete_bell_by_sum(2)
    assert y2.evaluate([1] * NUMBERS_CEILING) == 2
    with pytest.raises(SizeTooLarge):
        y2.evaluate([1] * (NUMBERS_CEILING + 1))
    far = BellPolynomial([(Monomial([(NUMBERS_CEILING + 5, 1)]), 1)])
    assert far.evaluate(range(1, NUMBERS_CEILING + 6)) == NUMBERS_CEILING + 5
    with pytest.raises(SizeTooLarge):
        far.evaluate(itertools.count(1))
