"""End-to-end acceptance sweep.

Each criterion prints its own PASS/FAIL line with a timing straight to
the terminal, so a plain ``pytest -v`` run shows the per-criterion
outcomes alongside the test results.  Budgets are asserted, not just
reported; they are far above the observed times so a slow machine does
not produce false failures.
"""

import os
import time

from setpart import cli, numbers, verify
from setpart.bellpoly import WeightVector, complete_bell_by_sum
from setpart.noncrossing import (
    count_cyclic_smirnov_noncrossing,
    count_noncrossing,
    count_prefix_smirnov_noncrossing,
    covering_reduction,
    enumerate_noncrossing,
    is_cyclic_smirnov,
    is_noncrossing,
    is_noncrossing_bruteforce,
)
from setpart.partitions import (
    RGS,
    SetPartition,
    enumerate_partitions,
    from_rgs,
    to_rgs,
)

import oracles

MODULE_T0 = time.perf_counter()
JOBS = min(4, os.cpu_count() or 1)


def run_criterion(capsys, num, label, budget_s, fn):
    t0 = time.perf_counter()
    try:
        fn()
    except BaseException:
        dt = time.perf_counter() - t0
        with capsys.disabled():
            print("\nCRITERION %d (%s): FAIL after %.2fs" % (num, label, dt))
        raise
    dt = time.perf_counter() - t0
    verdict = "PASS" if dt < budget_s else "FAIL (over %ds budget)" % budget_s
    with capsys.disabled():
        print("\nCRITERION %d (%s): %s in %.2fs" % (num, label, verdict, dt))
    assert dt < budget_s, "finished correct but over the %ds budget" % budget_s


def test_criterion_1_alternating_equals_binomial_closed_form(capsys):
    def body():
        for n in range(13):
            for j in range(n + 1):
                lhs = numbers.bell_alternating_sum(n, j)
                rhs = numbers.bell_binomial_sum(n, j)
                assert lhs == rhs, (n, j)

    run_criterion(capsys, 1, "closed-form identity grid", 1, body)


def test_criterion_2_sign_reversing_involution_sweep(capsys):
    def body():
        report = verify.run_identity(
            "involution", max_n=9, mode="enumerative", jobs=JOBS
        )
        assert report.passed, report.failures()
        grid = {(c.params["n"], c.params["j"]) for c in report.cells}
        assert grid == {(n, j) for n in range(10) for j in range(n + 1)}

    run_criterion(capsys, 2, "involution carrier sweep", 120, body)


def test_criterion_3_singleton_free_coding_bijection(capsys):
    def body():
        report = verify.run_identity("psi", max_n=9, jobs=JOBS)
        assert report.passed, report.failures()
        grid = {(c.params["n"], c.params["j"]) for c in report.cells}
        assert grid == {(n, j) for n in range(10) for j in range(n + 1)}

    run_criterion(capsys, 3, "companion bijection round trip", 120, body)


def test_criterion_4_singleton_identities_and_classes(capsys):
    def body():
        for token in ("cor2", "cor3", "cor4"):
            report = verify.run_identity(token, max_n=12, jobs=JOBS)
            assert report.passed, (token, report.failures())
        report = verify.run_identity("bijections", max_n=9, jobs=JOBS)
        assert report.passed, report.failures()

    run_criterion(capsys, 4, "window identities and class algebra", 120, body)


def test_criterion_5_weighted_identity(capsys):
    def body():
        report = verify.run_identity("thm2", max_n=10, seed=0, jobs=JOBS)
        assert report.passed, report.failures()
        assert [c.params for c in report.cells] == [
            {"n": n, "j": j} for n in range(11) for j in range(n + 1)
        ]

    run_criterion(capsys, 5, "weighted identity, exact polynomials", 180, body)


def test_criterion_6_polynomial_specializations(capsys):
    def body():
        for n in range(11):
            poly = complete_bell_by_sum(n)
            m = max(n, 1)
            assert poly.evaluate(WeightVector.ones(m)) == numbers.bell(n)
            assert poly.evaluate(
                WeightVector.shifted_factorials(m)
            ) == numbers.factorial(n)
            assert poly.evaluate(
                WeightVector.factorials(m)
            ) == numbers.a000262(n)
            assert poly.evaluate(
                WeightVector.derangement_pattern(m)
            ) == numbers.derangement(n)
        # cross-oracle for the ordered-list counts: independent weighted
        # enumeration against the recurrence and the formula route
        for n in range(10):
            assert oracles.a000262_by_weighted_count(n) == numbers.a000262(n)
        tally = 0
        for p in enumerate_partitions(10):
            prod = 1
            for b in p.blocks:
                prod *= numbers.factorial(len(b))
            tally += prod
        assert tally == numbers.a000262(10)
        for n in range(9):
            assert numbers.derangement(n) == oracles.derangements_by_bruteforce(n)

    run_criterion(capsys, 6, "specialization ladder", 60, body)


def test_criterion_7_noncrossing_counts(capsys):
    def body():
        for n in range(13):
            assert count_noncrossing(n) == numbers.catalan(n)
            assert count_cyclic_smirnov_noncrossing(
                n
            ) == numbers.catalan_difference(n)
        witnesses = sorted(
            w.to_text()
            for w in enumerate_noncrossing(4)
            if is_cyclic_smirnov(w)
        )
        assert witnesses == ["1213", "1232", "1234"]
        assert numbers.catalan_difference(4) == 3
        for n in range(1, 11):
            for j in range(n):
                assert count_prefix_smirnov_noncrossing(
                    n, j
                ) == numbers.catalan_partial_sum(n, j)
        # reduction soundness: the masked word decides the full word's
        # predicate, checked by a different route on each side
        from setpart._kernels import iter_rgs

        for n in range(10):
            for word in iter_rgs(n):
                mask, rest = covering_reduction(word)
                assert len(mask.covered) == n
                assert is_noncrossing(word) == is_noncrossing_bruteforce(rest)

    run_criterion(capsys, 7, "word-count interpretations", 300, body)


def test_criterion_8_trace_and_encoding_fidelity(capsys):
    def body():
        code = cli.main(
            [
                "trace",
                "--n", "8",
                "--j", "4",
                "--S", "1,3",
                "--pi", "2/4,5/6,8,9/7",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == [
            "lambda: + | 1,3 | 2/4,5/6,8,9/7",
            "pivot: 3",
            "partner: - | 1 | 2/3/4,5/6,8,9/7",
        ]
        p = SetPartition.from_text("1,2,6/3,5,9/4/7,8")
        assert to_rgs(p).to_text() == "112321442"
        assert from_rgs(RGS.from_text("112321442")) == p

    run_criterion(capsys, 8, "worked-example fidelity", 10, body)


def test_criterion_9_suite_fits_the_budget(capsys):
    def body():
        elapsed = time.perf_counter() - MODULE_T0
        assert elapsed < 600, "acceptance module alone took %.0fs" % elapsed

    run_criterion(capsys, 9, "whole-sweep wall clock", 600, body)
