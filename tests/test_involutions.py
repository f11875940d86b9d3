import itertools

import pytest
from hypothesis import given, strategies as st

import oracles

from setpart import _kernels, involutions, numbers, verify
from setpart.bellpoly import BellPolynomial, Monomial
from setpart.errors import (
    IndexOutOfRange,
    MalformedInput,
    NonContiguousGround,
    PreconditionViolated,
    SizeTooLarge,
)
from setpart.involutions import (
    SignedPair,
    build_singleton_free,
    classify_cd,
    enumerate_carrier,
    gather_singletons,
    gather_singletons_two,
    partner,
    pivot_of,
    split_singleton_free,
    weight_monomial,
    weighted_alternating_sum,
    weighted_binomial_sum,
    weighted_carrier_sum,
)
from setpart.partitions import SetPartition, enumerate_partitions, to_rgs


def unsigned_carrier_count(n, j):
    return sum(
        numbers.binomial(j, i) * numbers.bell(n + 1 - i) for i in range(j + 1)
    )


def is_fixed_shape(lam):
    if lam.S:
        return False
    return not any(e <= lam.j for e in lam.pi.singleton_elements())


@st.composite
def carrier_pairs(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    j = draw(st.integers(min_value=0, max_value=n))
    idx = draw(
        st.integers(min_value=0, max_value=unsigned_carrier_count(n, j) - 1)
    )
    return next(itertools.islice(enumerate_carrier(n, j), idx, None))


class TestSignedPair:
    def test_sign_tracks_mark_parity(self):
        pi = SetPartition.from_text("2/3,4")
        lam = SignedPair(3, 1, frozenset({1}), pi)
        assert lam.sign == -1
        pi2 = SetPartition.from_text("1,2/3,4")
        assert SignedPair(3, 1, frozenset(), pi2).sign == 1

    def test_rejects_marks_outside_window(self):
        pi = SetPartition.from_text("2/3,4")
        with pytest.raises(MalformedInput):
            SignedPair(3, 1, frozenset({2}), pi)
        with pytest.raises(IndexOutOfRange):
            SignedPair(3, 4, frozenset(), SetPartition.from_text("1,2,3,4"))

    def test_rejects_mismatched_ground(self):
        # partition must cover exactly {1..n+1} minus the marks
        pi = SetPartition.from_text("2/3")
        with pytest.raises(MalformedInput):
            SignedPair(3, 1, frozenset({1}), pi)

    def test_rejects_ground_of_right_size_and_wrong_elements(self):
        # {1..4} has four elements, as does {1, 2, 3, 5}
        pi = SetPartition.from_text("1,2/3,5")
        ground = r"^pi must partition \{1\.\.4\} minus S$"
        with pytest.raises(MalformedInput, match=ground):
            SignedPair(3, 1, frozenset(), pi)

    def test_huge_n_is_rejected_at_input_cost(self):
        with pytest.raises(MalformedInput):
            SignedPair(10**12, 0, (), SetPartition.from_text("1"))


@pytest.mark.parametrize(
    "build",
    [
        lambda: SetPartition([[True]]),
        lambda: SetPartition([[1.0, 2]]),
        lambda: SetPartition([[1, "a"]]),
        lambda: SignedPair(1, 1, [True], SetPartition.from_text("2")),
        lambda: build_singleton_free(1, 0, [True], SetPartition.from_text("")),
    ],
    ids=["bool-element", "float-element", "mixed-block", "bool-mark", "bool-T"],
)
def test_validating_constructors_take_only_ints(build):
    # True == 1 and 1.0 == 1 would otherwise pass every range check, and
    # sorting a block of mixed types raises TypeError
    with pytest.raises(MalformedInput):
        build()


@pytest.mark.parametrize(
    "apply, good, bad",
    [
        (to_rgs, ["1,2/3"], ["1/3", "2,3"]),
        (
            lambda p: split_singleton_free(2, 1, p),
            ["1,3/2"],
            ["1,4/2", "1,2", "1,2,3,4"],
        ),
        (gather_singletons, ["1/2"], ["1/3", "2"]),
        (
            lambda p: gather_singletons_two(p, 2),
            ["1,2", "1/2,3"],
            ["1/3", "1", "1,2,3,4"],
        ),
        (lambda p: classify_cd(p, 3), ["1,2,3"], ["1,2/4", "1,2", "1/2/3/4"]),
    ],
    ids=[
        "to_rgs", "split_singleton_free", "gather_singletons",
        "gather_singletons_two", "classify_cd",
    ],
)
def test_maps_of_one_to_m_refuse_any_other_ground(apply, good, bad):
    # partitions._range_size is the one test: a ground with a gap, or of
    # a size the map does not take, is a NonContiguousGround, which is a
    # MalformedInput
    for text in good:
        apply(SetPartition.from_text(text))
    for text in bad:
        with pytest.raises(MalformedInput) as err:
            apply(SetPartition.from_text(text))
        assert err.type is NonContiguousGround, text


@pytest.mark.parametrize(
    "build, marks, text, message",
    [
        (SignedPair, {2}, "1/3,4", "S must lie in {1..1}"),
        (SignedPair, {1}, "2/3", "pi must partition {1..4} minus S"),
        (build_singleton_free, {1}, "2/3", "T must lie in {2..3}"),
        (build_singleton_free, {2}, "1/2", "rho must partition {1..3} minus T"),
        (SignedPair, [1, 1], "2,3,4", "S must not repeat an element"),
        (build_singleton_free, [2, 2], "1/3", "T must not repeat an element"),
    ],
    ids=["S", "pi", "T", "rho", "S-repeated", "T-repeated"],
)
def test_marked_pairs_name_their_marks_and_partition(build, marks, text, message):
    # involutions._marked is the one check of a marked pair, under the
    # paper's names: S and pi for a signed pair, T and rho for the coding
    with pytest.raises(MalformedInput) as err:
        build(3, 1, marks, SetPartition.from_text(text))
    assert str(err.value) == message


class TestWorkedExample:
    def test_pivot_and_partner(self):
        lam = SignedPair(
            8,
            4,
            frozenset({1, 3}),
            SetPartition.from_text("2/4,5/6,8,9/7"),
        )
        assert pivot_of(lam) == 3
        out = partner(lam)
        assert out.S == frozenset({1})
        assert out.pi == SetPartition.from_text("2/3/4,5/6,8,9/7")
        assert out.sign == -lam.sign
        assert partner(out) == lam

    def test_repr_names_n_j_the_marks_and_the_partition(self):
        lam = SignedPair(8, 4, {3, 1}, SetPartition.from_text("2/4,5/6,8,9/7"))
        assert repr(lam) == "SignedPair(n=8, j=4, S=[1, 3], pi=2/4,5/6,8,9/7)"
        out = repr(partner(lam))
        assert out == "SignedPair(n=8, j=4, S=[1], pi=2/3/4,5/6,8,9/7)"
        assert repr(SignedPair(0, 0, (), SetPartition([[1]]))) == (
            "SignedPair(n=0, j=0, S=[], pi=1)"
        )

    def test_fixed_example(self):
        lam = SignedPair(
            3, 2, frozenset(), SetPartition.from_text("1,2/3,4")
        )
        assert pivot_of(lam) is None
        assert partner(lam) is None


class TestCarrier:
    def test_count_matches_unsigned_formula(self):
        for n in range(6):
            for j in range(n + 1):
                got = sum(1 for _ in enumerate_carrier(n, j))
                assert got == unsigned_carrier_count(n, j)

    def test_one_partition_and_one_word_per_pair(self, monkeypatch):
        # the sweep benchmark pins kernels.words == partitions.objects ==
        # carrier pairs; a pair built without its partition breaks that
        pulled = {"partitions": 0, "words": 0}

        def counted(name, source):
            def wrapper(*args):
                for item in source(*args):
                    pulled[name] += 1
                    yield item

            return wrapper

        monkeypatch.setattr(
            involutions,
            "enumerate_partitions",
            counted("partitions", involutions.enumerate_partitions),
        )
        monkeypatch.setattr(_kernels, "iter_rgs", counted("words", _kernels.iter_rgs))
        for n in range(6):
            for j in range(n + 1):
                pulled.update(partitions=0, words=0)
                pairs = sum(1 for _ in enumerate_carrier(n, j))
                assert pulled == {"partitions": pairs, "words": pairs}

    def test_stream_deterministic_and_distinct(self):
        a = list(enumerate_carrier(4, 3))
        b = list(enumerate_carrier(4, 3))
        assert a == b
        assert len(set(a)) == len(a)
        assert a[0].S == frozenset()

    def test_window_and_size_errors(self):
        with pytest.raises(IndexOutOfRange):
            list(enumerate_carrier(3, 4))
        with pytest.raises(IndexOutOfRange):
            list(enumerate_carrier(-1, 0))
        with pytest.raises(SizeTooLarge):
            list(enumerate_carrier(involutions.CARRIER_CEILING + 1, 0))


class TestInvolution:
    @pytest.mark.parametrize("n", range(7))
    def test_full_sweep(self, n):
        for j in range(n + 1):
            signed = 0
            fixed = 0
            for lam in enumerate_carrier(n, j):
                signed += lam.sign
                out = partner(lam)
                if out is None:
                    fixed += 1
                    assert is_fixed_shape(lam)
                    assert pivot_of(lam) is None
                else:
                    assert not is_fixed_shape(lam)
                    assert out.sign == -lam.sign
                    assert partner(out) == lam
            want = numbers.bell_binomial_sum(n, j)
            assert signed == want
            assert fixed == want
            assert signed == numbers.bell_alternating_sum(n, j)

    @pytest.mark.parametrize("n", range(7))
    def test_partner_is_none_exactly_where_pivot_of_is(self, n):
        for j in range(n + 1):
            for lam in enumerate_carrier(n, j):
                assert (partner(lam) is None) == (pivot_of(lam) is None)

    @given(carrier_pairs())
    def test_partner_is_involutive(self, lam):
        out = partner(lam)
        if out is None:
            assert pivot_of(lam) is None
        else:
            assert partner(out) == lam
            assert out.sign == -lam.sign

    @given(carrier_pairs())
    def test_partner_preserves_weight(self, lam):
        out = partner(lam)
        if out is not None:
            assert weight_monomial(out) == weight_monomial(lam)

    @pytest.mark.parametrize("n", range(7))
    def test_partner_matches_its_definition(self, n):
        # S, the block tuple and the ground are compared apart, so a wrong
        # ground cannot hide behind equal blocks
        for j in range(n + 1):
            for lam in enumerate_carrier(n, j):
                want = oracles.partner_by_definition(n, j, lam.S, lam.pi.blocks)
                out = partner(lam)
                if want is None:
                    assert out is None
                    continue
                S, blocks, ground = want
                assert (out.n, out.j) == (n, j)
                assert out.S == S
                assert out.pi.blocks == blocks
                assert out.pi.ground == ground

    def test_pivot_is_largest_toggle_site(self):
        lam = SignedPair(
            8,
            4,
            frozenset({1, 3}),
            SetPartition.from_text("2/4,5/6,8,9/7"),
        )
        # candidates: marks {1, 3} and no singleton of pi lies in {1..4}
        assert pivot_of(lam) == 3


class TestSingletonFreeCoding:
    @pytest.mark.parametrize("n", range(7))
    def test_round_trip_and_exact_image(self, n):
        for j in range(n + 1):
            tail = list(range(j + 1, n + 1))
            image = set()
            for r in range(len(tail) + 1):
                for combo in itertools.combinations(tail, r):
                    T = frozenset(combo)
                    rest = [e for e in range(1, n + 1) if e not in T]
                    for rho in enumerate_partitions(rest):
                        p = build_singleton_free(n, j, T, rho)
                        assert not any(
                            e <= j for e in p.singleton_elements()
                        )
                        back_T, back_rho = split_singleton_free(n, j, p)
                        assert back_T == T
                        assert back_rho == rho
                        image.add(p)
            want = {
                p
                for p in enumerate_partitions(n + 1)
                if not any(e <= j for e in p.singleton_elements())
            }
            assert image == want

    def test_split_rejects_low_singletons(self):
        # {1} lies below j = 2 and {2} is j itself
        for text in ("1/2,3,4", "2/1,3,4"):
            p = SetPartition.from_text(text)
            with pytest.raises(PreconditionViolated):
                split_singleton_free(3, 2, p)

    def test_build_rejects_bad_tail_set(self):
        rho = SetPartition.from_text("1,2,3")
        with pytest.raises(MalformedInput):
            build_singleton_free(3, 2, frozenset({2}), rho)

    @pytest.mark.parametrize(
        "n, j, T, rho, tail",
        [
            (3, 2, (2,), "1/3", r"lie in \{3\.\.3\}"),
            (3, 2, (4,), "1,2/3", r"lie in \{3\.\.3\}"),
            (1, 0, (True,), "", "hold integers, got True"),
        ],
        ids=["j", "n+1", "True"],
    )
    def test_build_rejects_each_entry_outside_the_tail(self, n, j, T, rho, tail):
        # the message tells the check on T apart from the check on rho
        with pytest.raises(MalformedInput, match="^T must %s$" % (tail,)):
            build_singleton_free(n, j, T, SetPartition.from_text(rho))

    def test_huge_n_is_rejected_at_input_cost(self):
        p = SetPartition.from_text("1,2")
        with pytest.raises(MalformedInput):
            build_singleton_free(10**12, 0, (), p)
        with pytest.raises(MalformedInput):
            split_singleton_free(10**12, 0, p)


class TestGatherSingletons:
    @pytest.mark.parametrize("j", range(8))
    def test_bijects_onto_no_low_singleton_partitions(self, j):
        image = set()
        for src in enumerate_partitions(j):
            out = gather_singletons(src)
            assert out.ground == tuple(range(1, j + 2))
            assert not any(e <= j for e in out.singleton_elements())
            image.add(out)
        want = {
            p
            for p in enumerate_partitions(j + 1)
            if not any(e <= j for e in p.singleton_elements())
        }
        assert len(image) == numbers.bell(j)
        assert image == want

    def test_rejects_sparse_ground(self):
        with pytest.raises(MalformedInput):
            gather_singletons(SetPartition([[2], [4]]))


class TestGatherSingletonsTwo:
    @pytest.mark.parametrize("j", range(7))
    def test_disjoint_images_cover_target(self, j):
        image_small = set()
        for src in enumerate_partitions(j):
            out = gather_singletons_two(src, j)
            assert out.ground == tuple(range(1, j + 3))
            # discriminator: the two new elements share a block
            b1 = next(b for b in out.blocks if j + 1 in b)
            assert j + 2 in b1
            image_small.add(out)
        image_large = set()
        for src in enumerate_partitions(j + 1):
            out = gather_singletons_two(src, j)
            b1 = next(b for b in out.blocks if j + 1 in b)
            assert j + 2 not in b1
            image_large.add(out)
        assert len(image_small) == numbers.bell(j)
        assert len(image_large) == numbers.bell(j + 1)
        assert not image_small & image_large
        want = {
            p
            for p in enumerate_partitions(j + 2)
            if not any(e <= j for e in p.singleton_elements())
        }
        assert image_small | image_large == want

    def test_rejects_wrong_sizes(self):
        with pytest.raises(MalformedInput):
            gather_singletons_two(SetPartition.from_text("1/2/3"), 1)


class TestGatherIsTheCoding:
    @pytest.mark.parametrize("j", range(8))
    def test_gather_maps_are_the_coding_at_n_j_and_j_plus_1(self, j):
        for src in enumerate_partitions(j):
            assert gather_singletons(src) == build_singleton_free(j, j, (), src)
            assert gather_singletons_two(src, j) == build_singleton_free(
                j + 1, j, {j + 1}, src
            )
        for src in enumerate_partitions(j + 1):
            assert gather_singletons_two(src, j) == build_singleton_free(
                j + 1, j, (), src
            )


class TestClassLabels:
    def test_examples_at_j4(self):
        f = lambda text: classify_cd(SetPartition.from_text(text), 4)
        assert f("1,2,3,4") == (("C", 3),)
        assert f("1,2/3,4") == (("C", 3),)
        assert f("1,2,3/4") == (("C", 2), ("D", 3))
        assert f("1,2/3/4") == (("C", 1), ("D", 2))
        assert f("1/2,3,4") == ()
        assert f("1/2/3/4") == ()
        assert f("1,3/2/4") == ()

    def test_all_singletons_never_classified(self):
        for j in range(2, 7):
            blocks = [[e] for e in range(1, j + 1)]
            assert classify_cd(SetPartition(blocks), j) == ()

    @pytest.mark.parametrize("j", range(2, 8))
    def test_class_sizes_telescope(self, j):
        by_c = {}
        by_d = {}
        for p in enumerate_partitions(j):
            for kind, m in classify_cd(p, j):
                (by_c if kind == "C" else by_d).setdefault(m, set()).add(p)
        assert 1 not in by_d or not by_d[1]
        for m in range(2, j):
            assert by_d.get(m, set()) == by_c.get(m - 1, set())
        for m in range(1, j):
            total = len(by_c.get(m, ())) + len(by_d.get(m, ()))
            assert total == numbers.bell(m)
        assert len(by_c.get(j - 1, ())) == numbers.singleton_identity_lhs(
            j, "alternating"
        )

    def test_errors(self):
        with pytest.raises(IndexOutOfRange):
            classify_cd(SetPartition.from_text("1"), 1)
        with pytest.raises(MalformedInput):
            classify_cd(SetPartition.from_text("1,2"), 3)

    def test_huge_j_is_rejected_at_input_cost(self):
        with pytest.raises(MalformedInput):
            classify_cd(SetPartition.from_text("1,2"), 10**12)


class TestWeightedSums:
    def test_three_routes_agree(self):
        for n in range(6):
            for j in range(n + 1):
                by_carrier = weighted_carrier_sum(n, j)
                assert by_carrier == weighted_alternating_sum(n, j)
                assert by_carrier == weighted_binomial_sum(n, j)

    def test_sums_make_canonical_monomials(self):
        for n in range(6):
            for j in range(n + 1):
                for build in (
                    weighted_carrier_sum,
                    weighted_alternating_sum,
                    weighted_binomial_sum,
                ):
                    for m, _ in build(n, j).terms():
                        assert m.pairs == Monomial(m.pairs).pairs
                        assert all(type(e) is int and e > 0 for _, e in m.pairs)

    def test_grouped_binomial_side_equals_triple_sum(self):
        for n in range(14):
            for j in range(n + 1):
                want = oracles.weighted_binomial_by_triples(n, j)
                assert weighted_binomial_sum(n, j) == want

    def test_carrier_tally_equals_per_pair_sum(self):
        for n in range(7):
            for j in range(n + 1):
                per_pair = BellPolynomial(
                    (weight_monomial(lam), lam.sign)
                    for lam in enumerate_carrier(n, j)
                )
                assert weighted_carrier_sum(n, j) == per_pair

    def test_smallest_window_reduces_to_pair_weight(self):
        poly = weighted_carrier_sum(1, 1)
        assert poly.to_text() == "t2"
        assert poly.coefficient(Monomial([(2, 1)])) == 1

    def test_specializes_to_plain_identity(self):
        for n in range(6):
            for j in range(n + 1):
                got = weighted_carrier_sum(n, j).evaluate([1] * (n + 1))
                assert got == numbers.bell_binomial_sum(n, j)

    def test_carrier_sum_ceiling(self):
        with pytest.raises(SizeTooLarge):
            weighted_carrier_sum(involutions.SYMBOLIC_CEILING + 1, 0)


class TestCompleteCache:
    def test_bound_covers_the_closed_thm2_cells(self):
        closed = verify._IDENTITIES["thm2"].closed_ceiling
        assert involutions._CACHED_DEGREE >= closed + 1

    def test_no_large_polynomial_stays_cached(self):
        weighted_alternating_sum(25, 3)
        weighted_binomial_sum(25, 3)
        assert max(involutions._complete_cache) == involutions._CACHED_DEGREE
