import gc
import math
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import oracles
from setpart import bellpoly, numbers
from setpart.bellpoly import (
    BellPolynomial,
    Monomial,
    WeightVector,
    complete_bell_by_sum,
    partial_bell,
)
from setpart.errors import (
    IndexOutOfRange,
    MalformedInput,
    NonIntegerCoefficient,
    SizeTooLarge,
    WeightVectorTooShort,
)
from setpart.involutions import weighted_alternating_sum, weighted_binomial_sum
from setpart.partitions import SetPartition, enumerate_partitions


class TestMonomial:
    def test_merges_and_drops_zero_exponents(self):
        m = Monomial([(2, 1), (1, 3), (2, 1), (4, 0)])
        assert m.pairs == ((1, 3), (2, 2))
        assert m.to_text() == "t1^3*t2^2"

    def test_identity_element(self):
        one = Monomial.one()
        m = Monomial.single(3)
        assert bellpoly._times(one.pairs, m.pairs) == m.pairs
        assert bellpoly._times(m.pairs, one.pairs) == m.pairs
        assert one.to_text() == "1"
        assert one.pairs == ()

    def test_max_index_and_dense_vector(self):
        # a key's last pair holds its largest index, the weights it needs
        m = Monomial([(1, 2), (3, 1)])
        assert dense_vector(m.pairs, 4) == [2, 0, 1, 0]
        poly = BellPolynomial([(m, 1)])
        with pytest.raises(WeightVectorTooShort, match="need 3 weights, got 2"):
            poly.evaluate([1, 1])
        assert poly.evaluate([2, 7, 5]) == 20

    def test_times_adds_exponents(self):
        a = Monomial([(1, 1), (2, 1)])
        b = Monomial([(2, 2), (5, 1)])
        want = Monomial([(1, 1), (2, 3), (5, 1)]).pairs
        assert bellpoly._times(a.pairs, b.pairs) == want
        assert bellpoly._times(b.pairs, a.pairs) == want

    @pytest.mark.parametrize("pairs", [[(2, 0.5)], [(1.5, 2)], [(True, 2)]])
    def test_rejects_non_integer_indices_and_exponents(self, pairs):
        # a float exponent would evaluate to a float, and True would read as t1
        with pytest.raises(MalformedInput):
            Monomial(pairs)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            (None, "exponent pairs must be a collection, not NoneType"),
            ("t1", "exponent pairs must be a collection, not str"),
            ([5], "exponent pairs must be pairs"),
            ([(1, 2, 3)], "exponent pairs must be pairs"),
            ([(1,)], "exponent pairs must be pairs"),
        ],
    )
    def test_rejects_what_is_not_a_pair(self, pairs, message):
        with pytest.raises(MalformedInput) as err:
            Monomial(pairs)
        assert str(err.value) == message

    @given(st.lists(st.tuples(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=4),
    ), max_size=6))
    def test_hash_consistent_with_equality(self, pairs):
        a = Monomial(pairs)
        b = Monomial(list(reversed(pairs)))
        assert a == b and hash(a) == hash(b)


class TestBellPolynomial:
    def test_known_rendering_n3(self):
        assert complete_bell_by_sum(3).to_text() == "t1^3 + 3*t1*t2 + t3"

    def test_known_rendering_n4(self):
        want = "t1^4 + 6*t1^2*t2 + 4*t1*t3 + 3*t2^2 + t4"
        assert complete_bell_by_sum(4).to_text() == want

    def test_zero_and_constant(self):
        one = Monomial.one()
        assert BellPolynomial().to_text() == "0"
        assert BellPolynomial([(one, 0)]) == BellPolynomial()
        assert BellPolynomial([(one, 7)]).to_text() == "7"
        assert BellPolynomial([(one, -2)]).to_text() == "-2"

    @pytest.mark.parametrize("coeff", [2.5, True, "3"])
    def test_rejects_non_integer_coefficients(self, coeff):
        # 2.5 would evaluate to a float, and True would read as 1
        with pytest.raises(MalformedInput):
            BellPolynomial([(Monomial.one(), coeff)])

    @pytest.mark.parametrize(
        "terms, message",
        [
            (None, "terms must be a collection, not NoneType"),
            (5, "terms must be a collection, not int"),
            ([5], "terms must be pairs"),
            ([(Monomial.one(), 1, 2)], "terms must be pairs"),
        ],
    )
    def test_rejects_what_is_not_a_term_pair(self, terms, message):
        with pytest.raises(MalformedInput) as err:
            BellPolynomial(terms)
        assert str(err.value) == message

    def test_an_error_while_making_the_terms_passes_through(self):
        # only unpacking a term reads as a malformed pair
        with pytest.raises(IndexOutOfRange):
            BellPolynomial((Monomial.single(0), 1) for _ in range(1))

    @pytest.mark.parametrize("mono", ["t1", None])
    def test_rejects_terms_without_a_monomial(self, mono):
        # to_text and evaluate would raise a bare AttributeError later
        with pytest.raises(MalformedInput):
            BellPolynomial([(mono, 1)])

    def test_negative_terms_render_with_minus(self):
        p = BellPolynomial([(Monomial.one(), 1)]) + BellPolynomial(
            [(Monomial.single(1), -2)]
        )
        assert p.to_text() == "-2*t1 + 1"
        q = complete_bell_by_sum(1) + BellPolynomial([(Monomial.one(), -3)])
        assert q.to_text() == "t1 - 3"

    def test_addition_cancels(self):
        p = complete_bell_by_sum(3)
        q = BellPolynomial((m, -c) for m, c in p.terms())
        assert p + q == BellPolynomial()
        assert (p + q).to_text() == "0"

    def test_coefficient_lookup(self):
        p = complete_bell_by_sum(4)
        assert p.coefficient(Monomial([(1, 2), (2, 1)])) == 6
        assert p.coefficient(Monomial([(2, 2)])) == 3
        assert p.coefficient(Monomial([(1, 9)])) == 0

    def test_scaled_by_monomial_shifts_terms(self):
        # the two weighted closed forms scale by a pair tuple through _combination
        t1 = Monomial.single(1).pairs
        p = bellpoly._combination(((complete_bell_by_sum(2), 3, t1),))
        # 3*t1*(t1^2 + t2) = 3*t1^3 + 3*t1*t2
        assert p.coefficient(Monomial([(1, 3)])) == 3
        assert p.coefficient(Monomial([(1, 1), (2, 1)])) == 3

    def test_evaluate_requires_enough_weights(self):
        p = complete_bell_by_sum(5)
        with pytest.raises(WeightVectorTooShort):
            p.evaluate([1, 1, 1])
        assert p.evaluate([1, 1, 1, 1, 1]) == numbers.bell(5)

    def test_jsonable_schema(self):
        data = complete_bell_by_sum(3).to_jsonable()
        assert data == [
            {"exponents": [[1, 3]], "coefficient": 1},
            {"exponents": [[1, 1], [2, 1]], "coefficient": 3},
            {"exponents": [[3, 1]], "coefficient": 1},
        ]


def dense_vector(pairs, width):
    """The exponents of t_1..t_width in a sparse pair tuple."""
    vec = [0] * width
    for i, e in pairs:
        vec[i - 1] = e
    return vec


def dense_order(poly):
    """The terms sorted descending lexicographic on dense exponent vectors
    (t_1's exponent first), each key made a Monomial by the checking
    constructor: the reference for BellPolynomial.terms()."""
    width = max((i for pairs in poly._terms for i, _ in pairs), default=0)
    order = sorted(
        poly._terms.items(),
        key=lambda term: [-e for e in dense_vector(term[0], width)],
    )
    return [(Monomial(pairs), coeff) for pairs, coeff in order]


class TestTermOrder:
    @pytest.mark.parametrize("n", range(14))
    def test_complete_polynomials(self, n):
        poly = complete_bell_by_sum(n)
        assert poly.terms() == dense_order(poly)

    def test_partial_polynomials(self):
        for n in range(11):
            for r in range(n + 1):
                poly = partial_bell(n, r)
                assert poly.terms() == dense_order(poly)

    @given(st.lists(st.tuples(
        st.lists(st.tuples(st.integers(1, 6), st.integers(0, 3)), max_size=4),
        st.integers(-3, 3),
    ), max_size=8))
    def test_any_polynomial(self, terms):
        poly = BellPolynomial((Monomial(pairs), c) for pairs, c in terms)
        assert poly.terms() == dense_order(poly)


class TestEnumerationRoute:
    @pytest.mark.parametrize("n", range(11))
    def test_agrees_with_formula_route(self, n):
        want = oracles.complete_bell_by_enumeration(n)
        assert want == complete_bell_by_sum(n)

    def test_every_term_covers_n_elements(self):
        for n in range(9):
            for mono, coeff in oracles.complete_bell_by_enumeration(n).terms():
                assert sum(i * e for i, e in mono.pairs) == n
                assert coeff > 0


class TestRecurrenceOracle:
    @pytest.mark.parametrize("n", list(range(14)) + [20, 30, 40])
    def test_formula_route_matches_recurrence(self, n):
        poly = complete_bell_by_sum(n)
        assert len(poly.terms()) == sum(
            oracles.partitions_into_parts(n, r) for r in range(n + 1)
        )
        for seed in range(3):
            rng = random.Random(seed)
            x = [rng.randint(-3, 3) for _ in range(n)]
            assert poly.evaluate(x) == oracles.complete_bell_by_recurrence(x)
        rng = random.Random(n)
        for x in ([0] * n, [rng.randint(-(10**30), 10**30) for _ in range(n)]):
            assert poly.evaluate(x) == oracles.complete_bell_by_recurrence(x)
        if n:
            with pytest.raises(WeightVectorTooShort):
                poly.evaluate(x[:-1])


class TestSymbolicRecurrenceOracle:
    # the recurrence builds Y_n without the integer-partition walk, so it
    # checks every term and coefficient far past the enumeration route
    @pytest.mark.parametrize("n", range(25))
    def test_formula_route_matches_symbolic_recurrence(self, n):
        want = oracles.complete_bell_polynomial_by_recurrence(n)
        assert complete_bell_by_sum(n) == want
        by_blocks = {}
        for mono, coeff in want.terms():
            blocks = sum(e for _, e in mono.pairs)
            by_blocks.setdefault(blocks, []).append((mono, coeff))
        for r in range(n + 1):
            assert partial_bell(n, r) == BellPolynomial(by_blocks.get(r, ()))


class TestBuildSharing:
    def test_builders_leave_no_cyclic_garbage(self):
        # a dropped polynomial is freed by reference counting alone
        gc.collect()
        gc.disable()
        try:
            complete_bell_by_sum(12)
            partial_bell(12, 4)
            weighted_alternating_sum(8, 3)
            weighted_binomial_sum(8, 3)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_monomials_share_one_object_per_pair(self):
        polys = [complete_bell_by_sum(20)] + [partial_bell(20, r) for r in range(21)]
        for poly in polys:
            pairs = [p for key in poly._terms for p in key]
            assert len({id(p) for p in pairs}) == len(set(pairs))


def live_monomials():
    return sum(isinstance(o, Monomial) for o in gc.get_objects())


class TestTermStorage:
    # perfbench/tracer.py counts a polynomial's terms as len(poly._terms)
    def test_one_key_per_integer_partition(self):
        for n in range(41):
            poly = complete_bell_by_sum(n)
            assert all(type(key) is tuple for key in poly._terms)
            assert len(poly._terms) == sum(
                oracles.partitions_into_parts(n, r) for r in range(n + 1)
            )

    def test_no_monomial_outlives_a_build(self):
        gc.collect()
        before = live_monomials()
        polys = [complete_bell_by_sum(20), partial_bell(20, 6)]
        polys += [weighted_alternating_sum(8, 3), weighted_binomial_sum(8, 3)]
        assert live_monomials() == before
        assert len(polys[0]._terms) == 627

    def test_build_peak_memory(self):
        # Y_40's 37,338 terms peak at 5.7 MB under tracemalloc with one
        # pair-tuple key each (Python 3.11); a Monomial object per term
        # took it to 7.1 MB.  A full collection first empties the tuple
        # free lists, whose untraced tuples would otherwise hide up to
        # 0.7 MB of keys, depending on what ran before.
        gc.collect()
        tracemalloc.start()
        try:
            complete_bell_by_sum(40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.2e6


def assert_canonical(keys):
    """Each pair tuple is what the checking constructor makes of it."""
    for pairs in keys:
        assert pairs == Monomial(pairs).pairs
        assert all(type(e) is int and e > 0 for _, e in pairs)


class TestCanonicalMonomials:
    @pytest.mark.parametrize("n", range(13))
    def test_builders_make_canonical_monomials(self, n):
        parts = [partial_bell(n, r) for r in range(n + 1)]
        for poly in parts + [complete_bell_by_sum(n)]:
            assert_canonical(poly._terms)
            assert_canonical(m.pairs for m, _ in poly.terms())
        keys = [key for poly in parts for key in poly._terms]
        factors = [
            Monomial.one(), Monomial.single(1, 2), Monomial([(2, 1), (n + 3, 2)]),
        ]
        factors = [f.pairs for f in factors] + keys[:3]
        for key in keys:
            for f in factors:
                product = bellpoly._times(key, f)
                assert_canonical([product])
                assert product == Monomial(key + f).pairs


class TestPartialSplit:
    # both builders are the one integer-partition walk, apart from its
    # block-count pruning, so n = 20 and 25 check the pruning far past
    # the enumeration route's ceiling
    @pytest.mark.parametrize("n", [*range(11), 20, 25])
    def test_partials_sum_to_complete(self, n):
        total = BellPolynomial()
        for r in range(n + 1):
            total = total + partial_bell(n, r)
        assert total == complete_bell_by_sum(n)

    def test_partial_at_ones_counts_block_numbers(self):
        # reaches well past the enumeration route's ceiling of 13
        for n in range(26):
            for r in range(n + 1):
                poly = partial_bell(n, r)
                assert len(poly.terms()) == oracles.partitions_into_parts(n, r)
                got = poly.evaluate([1] * max(n, 1))
                assert got == oracles.stirling2_by_recurrence(n, r)

    def test_coefficients_are_integers(self):
        for n in range(11):
            for r in range(n + 1):
                for mono, coeff in partial_bell(n, r).terms():
                    assert isinstance(coeff, int)

    def test_inexact_coefficient_raises(self, monkeypatch):
        monkeypatch.setattr(
            bellpoly, "factorial", lambda k: 7 if k == 3 else math.factorial(k)
        )
        with pytest.raises(NonIntegerCoefficient):
            partial_bell(3, 2)

    def test_inexact_coefficient_raises_without_a_block_count(self, monkeypatch):
        monkeypatch.setattr(
            bellpoly, "factorial", lambda k: 7 if k == 3 else math.factorial(k)
        )
        with pytest.raises(NonIntegerCoefficient):
            complete_bell_by_sum(3)

    def test_partial_term_block_counts(self):
        # every monomial of the (n, r) slice uses exactly r blocks
        for n in range(9):
            for r in range(n + 1):
                for mono, _ in partial_bell(n, r).terms():
                    total_blocks = sum(e for _, e in mono.pairs)
                    assert total_blocks == r
                    assert sum(i * e for i, e in mono.pairs) == n

    def test_ceiling_enforced(self):
        assert bellpoly.POLY_CEILING == 60
        assert partial_bell(60, 59).terms() == [(Monomial([(1, 58), (2, 1)]), 1770)]
        with pytest.raises(SizeTooLarge):
            partial_bell(61, 1)
        # refused before any of its p(100) = 190,569,292 terms is built
        with pytest.raises(SizeTooLarge):
            complete_bell_by_sum(100)


class TestSpecializations:
    @pytest.mark.parametrize("n", range(11))
    def test_all_ones_counts_partitions(self, n):
        poly = complete_bell_by_sum(n)
        assert poly.evaluate(WeightVector.ones(max(n, 1))) == numbers.bell(n)

    @pytest.mark.parametrize("n", range(11))
    def test_shifted_factorials_count_permutations(self, n):
        poly = complete_bell_by_sum(n)
        got = poly.evaluate(WeightVector.shifted_factorials(max(n, 1)))
        assert got == numbers.factorial(n)

    # to n = 24: Y_n at t_i = i! checks a000262 apart from its recurrence
    @pytest.mark.parametrize("n", range(25))
    def test_factorials_count_ordered_lists(self, n):
        poly = complete_bell_by_sum(n)
        got = poly.evaluate(WeightVector.factorials(max(n, 1)))
        assert got == numbers.a000262(n)

    @pytest.mark.parametrize("n", range(11))
    def test_zero_first_weight_counts_derangements(self, n):
        poly = complete_bell_by_sum(n)
        got = poly.evaluate(WeightVector.derangement_pattern(max(n, 1)))
        assert got == numbers.derangement(n)


class TestWeightVector:
    def test_named_patterns(self):
        assert tuple(WeightVector.ones(4)) == (1, 1, 1, 1)
        assert tuple(WeightVector.factorials(4)) == (1, 2, 6, 24)
        assert tuple(WeightVector.shifted_factorials(4)) == (1, 1, 2, 6)
        assert tuple(WeightVector.derangement_pattern(4)) == (0, 1, 2, 6)
        # m weights for t_1..t_m: none at m = 0, then t_1 alone
        assert tuple(WeightVector.ones(0)) == ()
        assert tuple(WeightVector.factorials(0)) == ()
        assert tuple(WeightVector.shifted_factorials(0)) == ()
        assert tuple(WeightVector.derangement_pattern(0)) == ()
        assert tuple(WeightVector.ones(1)) == (1,)
        assert tuple(WeightVector.factorials(1)) == (1,)
        assert tuple(WeightVector.shifted_factorials(1)) == (1,)
        assert tuple(WeightVector.derangement_pattern(1)) == (0,)

    @pytest.mark.parametrize(
        "values", [[1.5, 3], [1, "3"], [2.0], [1, None], [True, 2]]
    )
    def test_non_integer_entries_are_rejected(self, values):
        with pytest.raises(MalformedInput):
            WeightVector(values)

    @pytest.mark.parametrize(
        "values", [[1.5, 2], [1, "2"], [2.0, 1.0], [True, False]]
    )
    def test_evaluate_rejects_non_integer_weights(self, values):
        with pytest.raises(MalformedInput):
            complete_bell_by_sum(2).evaluate(values)


def weight_of(p):
    """The block-size monomial of a partition: t_size per block."""
    return bellpoly._size_monomial(map(len, p.blocks))


class TestPartitionWeights:
    def test_worked_example_block_sizes(self):
        p = SetPartition.from_text("1,2,6/3,5,9/4/7,8")
        mono = weight_of(p)
        assert mono.pairs == ((1, 1), (2, 1), (3, 2))
        assert mono == Monomial([(1, 1), (2, 1), (3, 2)])
        # extra factors of t_1, one per marked element of a signed pair
        assert bellpoly._size_monomial([3, 1], 2) == Monomial([(1, 3), (3, 1)])

    def test_symbolic_weight_is_profile_monomial(self):
        p = SetPartition.from_text("1,3/2/4,5")
        assert weight_of(p) == Monomial([(1, 1), (2, 2)])

    def test_numeric_weight_multiplies_block_weights(self):
        p = SetPartition.from_text("1,3/2/4,5")
        poly = BellPolynomial([(weight_of(p), 1)])
        assert poly.evaluate(WeightVector([3, 5])) == 75
        with pytest.raises(MalformedInput):
            poly.evaluate([3, 5.0])

    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=3))
    def test_numeric_equals_symbolic_evaluated(self, n, t):
        weights = [t * k for k in range(1, max(n, 1) + 1)]
        for p in enumerate_partitions(n):
            direct = math.prod(weights[len(b) - 1] for b in p.blocks)
            assert BellPolynomial([(weight_of(p), 1)]).evaluate(weights) == direct
