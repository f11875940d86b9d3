import math

import pytest
from hypothesis import given, strategies as st

import oracles
from setpart import bellpoly, numbers
from setpart.bellpoly import (
    BellPolynomial,
    Monomial,
    WeightVector,
    complete_bell_by_enumeration,
    complete_bell_by_sum,
    partial_bell,
    weight_of_partition,
)
from setpart.errors import (
    MalformedInput,
    NonIntegerCoefficient,
    SizeTooLarge,
    WeightVectorTooShort,
)
from setpart.partitions import SetPartition, enumerate_partitions


class TestMonomial:
    def test_merges_and_drops_zero_exponents(self):
        m = Monomial([(2, 1), (1, 3), (2, 1), (4, 0)])
        assert m.exponent(1) == 3
        assert m.exponent(2) == 2
        assert m.exponent(4) == 0
        assert m.to_text() == "t1^3*t2^2"

    def test_identity_element(self):
        one = Monomial.one()
        m = Monomial.single(3)
        assert one.times(m) == m
        assert one.to_text() == "1"
        assert one.weighted_degree() == 0

    def test_weighted_degree_counts_covered_elements(self):
        # t1^2 * t3 covers 2*1 + 1*3 elements
        m = Monomial([(1, 2), (3, 1)])
        assert m.weighted_degree() == 5
        assert m.max_index() == 3
        assert m.dense(4) == (2, 0, 1, 0)

    def test_times_adds_exponents(self):
        a = Monomial([(1, 1), (2, 1)])
        b = Monomial([(2, 2), (5, 1)])
        assert a.times(b) == Monomial([(1, 1), (2, 3), (5, 1)])

    def test_evaluate(self):
        m = Monomial([(1, 2), (3, 1)])
        assert m.evaluate([2, 9, 5]) == 20
        with pytest.raises(WeightVectorTooShort):
            m.evaluate([2, 9])

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
        assert BellPolynomial.zero().to_text() == "0"
        assert BellPolynomial.zero().is_zero()
        assert BellPolynomial.constant(7).to_text() == "7"
        assert BellPolynomial.constant(-2).to_text() == "-2"

    def test_negative_terms_render_with_minus(self):
        p = BellPolynomial.constant(1).scaled(1) + complete_bell_by_sum(
            1
        ).scaled(-2)
        assert p.to_text() == "-2*t1 + 1"
        q = complete_bell_by_sum(1) + BellPolynomial.constant(-3)
        assert q.to_text() == "t1 - 3"

    def test_addition_cancels(self):
        p = complete_bell_by_sum(3)
        q = p.scaled(-1)
        assert (p + q).is_zero()

    def test_coefficient_lookup(self):
        p = complete_bell_by_sum(4)
        assert p.coefficient(Monomial([(1, 2), (2, 1)])) == 6
        assert p.coefficient(Monomial([(2, 2)])) == 3
        assert p.coefficient(Monomial([(1, 9)])) == 0

    def test_scaled_by_monomial_shifts_terms(self):
        p = complete_bell_by_sum(2).scaled(3, Monomial.single(1))
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


class TestEnumerationRoute:
    @pytest.mark.parametrize("n", range(11))
    def test_agrees_with_formula_route(self, n):
        assert complete_bell_by_enumeration(n) == complete_bell_by_sum(n)

    def test_every_term_covers_n_elements(self):
        for n in range(9):
            for mono, coeff in complete_bell_by_enumeration(n).terms():
                assert mono.weighted_degree() == n
                assert coeff > 0

    def test_ceiling_enforced(self):
        with pytest.raises(SizeTooLarge):
            complete_bell_by_enumeration(14)


class TestPartialSplit:
    @pytest.mark.parametrize("n", range(11))
    def test_partials_sum_to_complete(self, n):
        total = BellPolynomial.zero()
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

    def test_partial_term_block_counts(self):
        # every monomial of the (n, r) slice uses exactly r blocks
        for n in range(9):
            for r in range(n + 1):
                for mono, _ in partial_bell(n, r).terms():
                    total_blocks = sum(e for _, e in mono.pairs)
                    assert total_blocks == r
                    assert mono.weighted_degree() == n


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

    @pytest.mark.parametrize("n", range(11))
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
    def test_value_at_is_one_based(self):
        w = WeightVector([5, 7, 9])
        assert w.value_at(1) == 5
        assert w.value_at(3) == 9
        with pytest.raises(WeightVectorTooShort):
            w.value_at(4)

    def test_named_patterns(self):
        assert tuple(WeightVector.ones(4)) == (1, 1, 1, 1)
        assert tuple(WeightVector.factorials(4)) == (1, 2, 6, 24)
        assert tuple(WeightVector.shifted_factorials(4)) == (1, 1, 2, 6)
        assert tuple(WeightVector.derangement_pattern(4)) == (0, 1, 2, 6)

    @pytest.mark.parametrize("values", [[1.5, 3], [1, "3"], [2.0], [1, None]])
    def test_non_integer_entries_are_rejected(self, values):
        with pytest.raises(MalformedInput):
            WeightVector(values)

    @pytest.mark.parametrize("values", [[1.5, 2], [1, "2"], [2.0, 1.0]])
    def test_evaluate_rejects_non_integer_weights(self, values):
        with pytest.raises(MalformedInput):
            complete_bell_by_sum(2).evaluate(values)


class TestPartitionWeights:
    def test_worked_example_block_sizes(self):
        p = SetPartition.from_text("1,2,6/3,5,9/4/7,8")
        mono = weight_of_partition(p)
        assert mono.exponent(1) == 1
        assert mono.exponent(2) == 1
        assert mono.exponent(3) == 2
        assert mono.weighted_degree() == 9
        assert mono == Monomial([(1, 1), (2, 1), (3, 2)])

    def test_symbolic_weight_is_profile_monomial(self):
        p = SetPartition.from_text("1,3/2/4,5")
        assert weight_of_partition(p) == Monomial([(1, 1), (2, 2)])

    def test_numeric_weight_multiplies_block_weights(self):
        p = SetPartition.from_text("1,3/2/4,5")
        assert weight_of_partition(p, WeightVector([3, 5])) == 75
        with pytest.raises(MalformedInput):
            weight_of_partition(p, [3, 5.0])

    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=3))
    def test_numeric_equals_symbolic_evaluated(self, n, t):
        weights = WeightVector([t] * max(n, 1))
        for p in enumerate_partitions(n):
            direct = weight_of_partition(p, weights)
            via_mono = weight_of_partition(p).evaluate(list(weights))
            assert direct == via_mono
