import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import oracles
from setpart import numbers
from setpart.errors import IndexOutOfRange, NegativeIndex, NonIntegerCoefficient


BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597)
CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012)
KDIFF = (1, 0, 1, 1, 3, 6, 15, 36, 91, 232, 603, 1585, 4213)


class TestBinomial:
    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=-5, max_value=45),
    )
    def test_matches_exact_oracle(self, n, k):
        assert numbers.binomial(n, k) == oracles.exact_binomial(n, k)

    def test_zero_outside_range(self):
        assert numbers.binomial(5, -1) == 0
        assert numbers.binomial(5, 6) == 0
        assert numbers.binomial(0, 0) == 1

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=39),
    )
    def test_pascal_rule(self, n, k):
        lhs = numbers.binomial(n, k)
        rhs = numbers.binomial(n - 1, k - 1) + numbers.binomial(n - 1, k)
        assert lhs == rhs


class TestBell:
    def test_golden_prefix(self):
        assert tuple(numbers.bell(n) for n in range(13)) == BELL

    @pytest.mark.parametrize("n", range(11))
    def test_matches_placement_oracle(self, n):
        assert numbers.bell(n) == oracles.bell_by_placement(n)

    @pytest.mark.parametrize("n", range(16))
    def test_binomial_recurrence(self, n):
        total = sum(
            numbers.binomial(n, k) * numbers.bell(k) for k in range(n + 1)
        )
        assert numbers.bell(n + 1) == total

    def test_negative_raises(self):
        with pytest.raises(NegativeIndex):
            numbers.bell(-1)

    def test_cache_keeps_only_the_last_row(self):
        # a fresh interpreter, so that no earlier test has filled the cache;
        # keeping every triangle row peaks near 280 MB at n = 1000
        code = (
            "import tracemalloc\n"
            "from setpart import numbers\n"
            "tracemalloc.start()\n"
            "numbers.bell(1000)\n"
            "print(tracemalloc.get_traced_memory()[1])\n"
        )
        src = Path(numbers.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 20 * 2**20


class TestCatalan:
    def test_golden_prefix(self):
        assert tuple(numbers.catalan(n) for n in range(13)) == CATALAN

    @pytest.mark.parametrize("n", range(26))
    def test_matches_convolution_oracle(self, n):
        assert numbers.catalan(n) == oracles.catalan_by_recurrence(n)

    def test_exact_at_larger_index(self):
        # big enough that float arithmetic would already be wrong
        assert numbers.catalan(40) == oracles.catalan_by_recurrence(40)

    def test_negative_raises(self):
        with pytest.raises(NegativeIndex):
            numbers.catalan(-3)

    def test_inexact_division_raises_under_optimisation(self, monkeypatch):
        # an assert would vanish under python -O; the check must not
        monkeypatch.setattr(numbers.math, "comb", lambda n, k: 7)
        with pytest.raises(NonIntegerCoefficient):
            numbers.catalan(3)


class TestCatalanDifference:
    def test_golden_prefix(self):
        assert tuple(numbers.catalan_difference(n) for n in range(13)) == KDIFF

    @pytest.mark.parametrize("n", range(2, 201))
    def test_holonomic_recurrence(self, n):
        lhs = (n + 1) * numbers.catalan_difference(n)
        rhs = (n - 1) * (
            2 * numbers.catalan_difference(n - 1)
            + 3 * numbers.catalan_difference(n - 2)
        )
        assert lhs == rhs

    @pytest.mark.parametrize("n", range(16))
    def test_binomial_transform_recovers_catalan(self, n):
        total = sum(
            numbers.binomial(n, i) * numbers.catalan_difference(i)
            for i in range(n + 1)
        )
        assert total == numbers.catalan(n)

    def test_equals_full_catalan_partial_sum(self):
        for n in range(13):
            got = numbers.catalan_partial_sum(n, n)
            assert got == numbers.catalan_difference(n)


class TestAlternatingVsBinomialSums:
    def test_agree_on_full_grid(self):
        for n in range(13):
            for j in range(n + 1):
                assert numbers.bell_alternating_sum(
                    n, j
                ) == numbers.bell_binomial_sum(n, j)

    def test_degenerate_column_is_shifted_bell(self):
        for n in range(12):
            assert numbers.bell_alternating_sum(n, 0) == numbers.bell(n + 1)

    def test_full_diagonal_counts_no_low_singletons(self):
        # direct tally over partitions of [n+1] with no singleton in [n]
        from setpart.partitions import enumerate_partitions

        for n in range(8):
            tally = 0
            for p in enumerate_partitions(n + 1):
                if not any(e <= n for e in p.singleton_elements()):
                    tally += 1
            assert numbers.bell_binomial_sum(n, n) == tally

    @pytest.mark.parametrize("fn", ["bell_alternating_sum", "bell_binomial_sum"])
    def test_window_errors(self, fn):
        f = getattr(numbers, fn)
        with pytest.raises(IndexOutOfRange):
            f(3, 4)
        with pytest.raises(IndexOutOfRange):
            f(3, -1)
        with pytest.raises(IndexOutOfRange):
            f(-1, 0)


class TestSingletonIdentities:
    @pytest.mark.parametrize("variant", ["collapse", "pair"])
    def test_variants_agree_from_zero(self, variant):
        for j in range(13):
            lhs = numbers.singleton_identity_lhs(j, variant)
            rhs = numbers.singleton_identity_rhs(j, variant)
            assert lhs == rhs

    def test_alternating_variant_agrees(self):
        for j in range(2, 13):
            lhs = numbers.singleton_identity_lhs(j, "alternating")
            rhs = numbers.singleton_identity_rhs(j, "alternating")
            assert lhs == rhs

    def test_collapse_closes_to_bell(self):
        for j in range(12):
            assert numbers.singleton_identity_rhs(j, "collapse") == numbers.bell(j)

    def test_pair_closes_to_bell_pair(self):
        for j in range(12):
            want = numbers.bell(j) + numbers.bell(j + 1)
            assert numbers.singleton_identity_rhs(j, "pair") == want

    def test_alternating_needs_two(self):
        with pytest.raises(IndexOutOfRange):
            numbers.singleton_identity_lhs(1, "alternating")
        with pytest.raises(IndexOutOfRange):
            numbers.singleton_identity_rhs(0, "alternating")

    def test_unknown_variant_rejected(self):
        with pytest.raises(IndexOutOfRange):
            numbers.singleton_identity_lhs(4, "bogus")


class TestCatalanPartialSum:
    def test_matches_direct_formula(self):
        for n in range(13):
            for j in range(n + 1):
                want = sum(
                    (-1) ** i
                    * oracles.exact_binomial(j, i)
                    * oracles.catalan_by_recurrence(n - i)
                    for i in range(min(j, n) + 1)
                )
                assert numbers.catalan_partial_sum(n, j) == want

    def test_window_errors(self):
        with pytest.raises(IndexOutOfRange):
            numbers.catalan_partial_sum(3, 4)
        with pytest.raises(IndexOutOfRange):
            numbers.catalan_partial_sum(-1, 0)


class TestSmallSequences:
    def test_factorial(self):
        assert [numbers.factorial(n) for n in range(8)] == [
            1, 1, 2, 6, 24, 120, 720, 5040,
        ]

    @pytest.mark.parametrize("n", range(8))
    def test_derangement_vs_bruteforce(self, n):
        assert numbers.derangement(n) == oracles.derangements_by_bruteforce(n)

    def test_derangement_recurrence(self):
        for n in range(2, 20):
            want = (n - 1) * (
                numbers.derangement(n - 1) + numbers.derangement(n - 2)
            )
            assert numbers.derangement(n) == want

    def test_a000262_golden_prefix(self):
        assert [numbers.a000262(n) for n in range(8)] == [
            1, 1, 3, 13, 73, 501, 4051, 37633,
        ]

    @pytest.mark.parametrize("n", range(9))
    def test_a000262_vs_weighted_enumeration(self, n):
        assert numbers.a000262(n) == oracles.a000262_by_weighted_count(n)

    def test_a000262_table_bounds(self):
        numbers.a000262(24)
        with pytest.raises(IndexOutOfRange):
            numbers.a000262(25)
        with pytest.raises(NegativeIndex):
            numbers.a000262(-1)
