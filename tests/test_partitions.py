import pytest
from hypothesis import given

import oracles
from strategies import rgs_words
from setpart import partitions
from setpart.errors import (
    ElementNotInGround,
    InvalidRGS,
    MalformedInput,
    NonContiguousGround,
    SizeTooLarge,
)
from setpart.partitions import (
    RGS,
    GroundSet,
    SetPartition,
    block_containing,
    count_partitions,
    enumerate_partitions,
    from_rgs,
    singletons_in,
    to_rgs,
)


class TestGroundSet:
    def test_of_int(self):
        g = GroundSet.of(4)
        assert tuple(g) == (1, 2, 3, 4)
        assert len(g) == 4
        assert 3 in g and 5 not in g

    def test_of_iterable_sorts_and_checks(self):
        g = GroundSet.of([5, 2, 4])
        assert tuple(g) == (2, 4, 5)
        assert not g.is_contiguous()
        assert GroundSet.of([1, 2, 3]).is_contiguous()
        assert GroundSet.of(0).is_contiguous()

    def test_of_groundset_is_identity(self):
        g = GroundSet.of([3, 1])
        assert GroundSet.of(g) is g

    def test_rejects_bad_elements(self):
        with pytest.raises(MalformedInput):
            GroundSet.of([0, 1])
        with pytest.raises(MalformedInput):
            GroundSet.of([-2])
        with pytest.raises(MalformedInput):
            GroundSet.of([1, 1, 2])
        with pytest.raises(MalformedInput):
            GroundSet.of(["a"])
        with pytest.raises(MalformedInput):
            GroundSet.range_n(-1)


class TestSetPartition:
    def test_blocks_sorted_by_minimum(self):
        p = SetPartition.from_blocks([[7], [2, 4, 5], [6, 8, 9], [1, 3]])
        assert p.to_text() == "1,3/2,4,5/6,8,9/7"
        assert p.block_sizes() == (2, 3, 3, 1)
        assert p.singleton_elements() == (7,)

    def test_from_text_round_trip(self):
        text = "2/4,5/6,8,9/7"
        p = SetPartition.from_text(text)
        assert p.to_text() == text
        assert SetPartition.from_text(p.to_text()) == p
        assert p.to_jsonable() == [[2], [4, 5], [6, 8, 9], [7]]

    def test_from_text_ignores_whitespace(self):
        a = SetPartition.from_text(" 1 , 3 / 2 ")
        b = SetPartition.from_text("1,3/2")
        assert a == b

    def test_empty_partition(self):
        p = SetPartition.from_text("")
        assert len(p) == 0
        assert p.to_text() == ""
        assert p == SetPartition.from_blocks([])

    def test_rejects_overlap_and_empty_blocks(self):
        with pytest.raises(MalformedInput):
            SetPartition.from_blocks([[1, 2], [2, 3]])
        with pytest.raises(MalformedInput):
            SetPartition.from_blocks([[1], []])
        with pytest.raises(MalformedInput):
            SetPartition(GroundSet.of(3), [[1, 2]])
        with pytest.raises(MalformedInput):
            SetPartition.from_text("1//2")

    def test_equality_and_hash(self):
        a = SetPartition.from_text("1,2/3")
        b = SetPartition.from_blocks([[3], [2, 1]])
        assert a == b and hash(a) == hash(b)
        assert a != SetPartition.from_text("1,3/2")


class TestRGS:
    def test_accepts_valid_words(self):
        w = RGS([1, 1, 2, 3, 2, 1, 4, 4, 2])
        assert w.to_text() == "112321442"
        assert len(w) == 9
        assert w[2] == 2
        assert list(w) == [1, 1, 2, 3, 2, 1, 4, 4, 2]

    def test_rejects_growth_violations(self):
        with pytest.raises(InvalidRGS):
            RGS([2])
        with pytest.raises(InvalidRGS):
            RGS([1, 3])
        with pytest.raises(InvalidRGS):
            RGS([1, 2, 4])
        with pytest.raises(InvalidRGS):
            RGS([1, 0])

    def test_from_text_forms(self):
        assert RGS.from_text("1213") == RGS([1, 2, 1, 3])
        assert RGS.from_text("1,2,1,3") == RGS([1, 2, 1, 3])
        assert RGS.from_text("") == RGS([])
        with pytest.raises(MalformedInput):
            RGS.from_text("1x2")

    @given(rgs_words())
    def test_round_trips_any_valid_word(self, word):
        w = RGS(word)
        assert RGS.from_text(w.to_text()) == w
        assert tuple(w.to_jsonable()) == word


class TestEnumeration:
    @pytest.mark.parametrize("n", range(8))
    def test_matches_placement_oracle_on_ranges(self, n):
        got = {
            frozenset(frozenset(b) for b in p)
            for p in enumerate_partitions(n)
        }
        want = set(oracles.partitions_by_placement(tuple(range(1, n + 1))))
        assert got == want

    @pytest.mark.parametrize("ground", [(2, 4, 5), (1, 3), (9,)])
    def test_matches_placement_oracle_on_sparse_grounds(self, ground):
        got = {
            frozenset(frozenset(b) for b in p)
            for p in enumerate_partitions(GroundSet.of(ground))
        }
        assert got == set(oracles.partitions_by_placement(ground))

    def test_stream_is_deterministic_and_word_ordered(self):
        first = [p.to_text() for p in enumerate_partitions(5)]
        second = [p.to_text() for p in enumerate_partitions(5)]
        assert first == second
        words = [tuple(to_rgs(p)) for p in enumerate_partitions(5)]
        assert words == sorted(words)
        assert words[0] == (1, 1, 1, 1, 1)
        assert words[-1] == (1, 2, 3, 4, 5)

    @pytest.mark.parametrize("n", range(11))
    def test_count_agrees_with_bell(self, n):
        assert count_partitions(n) == oracles.bell_by_placement(n)

    def test_count_on_sparse_ground_depends_only_on_size(self):
        assert count_partitions(GroundSet.of((2, 4, 5))) == 5
        assert count_partitions(GroundSet.of(())) == 1

    def test_count_above_ceiling_raises(self):
        with pytest.raises(SizeTooLarge):
            count_partitions(partitions.ENUMERATION_CEILING + 1)


class TestRGSCoding:
    def test_worked_encoding_is_bit_exact(self):
        p = SetPartition.from_text("1,2,6/3,5,9/4/7,8")
        assert to_rgs(p).to_text() == "112321442"
        assert from_rgs(RGS.from_text("112321442")) == p
        assert from_rgs("112321442") == p

    @pytest.mark.parametrize("n", range(9))
    def test_round_trip_over_all_partitions(self, n):
        for p in enumerate_partitions(n):
            w = to_rgs(p)
            assert from_rgs(w) == p

    @given(rgs_words(max_len=9))
    def test_round_trip_from_word_side(self, word):
        w = RGS(word)
        assert to_rgs(from_rgs(w)) == w

    def test_to_rgs_needs_contiguous_ground(self):
        p = SetPartition.from_blocks([[2], [4, 5]])
        with pytest.raises(NonContiguousGround):
            to_rgs(p)


class TestQueries:
    def test_singletons_in_window(self):
        p = SetPartition.from_text("1/2,3/4/5/6,7")
        assert singletons_in(p, 1, 5) == frozenset({1, 4, 5})
        assert singletons_in(p, 2, 3) == frozenset()
        assert singletons_in(p, 6, 1) == frozenset()

    def test_block_containing(self):
        p = SetPartition.from_text("1,3/2/4,5")
        assert block_containing(p, 3) == (1, 3)
        assert block_containing(p, 2) == (2,)
        with pytest.raises(ElementNotInGround):
            block_containing(p, 9)
