import time

import pytest
from hypothesis import given

import oracles
from strategies import rgs_words
from setpart import _kernels, partitions
from setpart.errors import (
    ElementNotInGround,
    InvalidRGS,
    MalformedInput,
    NegativeIndex,
    NonContiguousGround,
    SizeTooLarge,
)
from setpart.partitions import (
    RGS,
    SetPartition,
    _ground,
    _range_size,
    block_containing,
    count_partitions,
    enumerate_partitions,
    from_rgs,
    to_rgs,
)


class IntSubclass(int):
    """An integer element that is not of type int itself."""


# every public reader of a ground, and the private one they share
GROUND_READERS = [
    _ground,
    count_partitions,
    lambda ground: list(enumerate_partitions(ground)),
]


def assert_every_reader_refuses(cases, error=MalformedInput):
    for bad, message in cases:
        for read in GROUND_READERS:
            with pytest.raises(error) as err:
                read(bad)
            assert str(err.value) == message


class TestGroundSet:
    """A ground is the ascending tuple of its elements; an int n names
    {1..n}.  A partition's ground is the union of its blocks."""

    def test_of_int(self):
        assert _ground(4) == (1, 2, 3, 4)
        assert SetPartition([[4, 2], [3, 1]]).ground == (1, 2, 3, 4)
        assert {p.ground for p in enumerate_partitions(4)} == {(1, 2, 3, 4)}
        assert count_partitions(4) == 15

    def test_of_iterable_sorts_and_checks(self):
        assert _ground([5, 2, 4]) == (2, 4, 5)
        assert SetPartition([[5], [4, 2]]).ground == (2, 4, 5)
        assert {p.ground for p in enumerate_partitions([5, 2, 4])} == {(2, 4, 5)}
        for ground in ([1, 2, 3], 0, []):
            for p in enumerate_partitions(ground):
                assert _range_size(p) == len(_ground(ground))
        for gaps in ([5, 2, 4], [2], [1, 3], [2, 3]):
            for check in (_range_size, to_rgs):
                with pytest.raises(NonContiguousGround):
                    check(SetPartition([gaps]))

    def test_of_groundset_is_identity(self):
        g = _ground([3, 1])
        assert _ground(g) == g
        p = SetPartition([[3], [1]])
        assert p.ground == g
        assert SetPartition(p.blocks) == p

    def test_rejects_bad_elements(self):
        assert_every_reader_refuses(
            [
                ([0, 1], "ground must hold integers >= 1"),
                ([-2], "ground must hold integers >= 1"),
                ([1, 1, 2], "ground must not repeat an element"),
                (["a"], "ground must hold integers, got 'a'"),
            ]
        )
        # a size goes through errors._index, like every other size
        assert_every_reader_refuses([(-1, "n must be nonnegative")], NegativeIndex)

    def test_rejects_bool_elements(self):
        assert_every_reader_refuses(
            [
                ([True, 2], "ground must hold integers, got True"),
                (True, "n must be an integer, got True"),
            ]
        )


class TestSetPartition:
    def test_blocks_sorted_by_minimum(self):
        p = SetPartition([[7], [2, 4, 5], [6, 8, 9], [1, 3]])
        assert p.to_text() == "1,3/2,4,5/6,8,9/7"
        assert tuple(map(len, p.blocks)) == (2, 3, 3, 1)
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
        assert p == SetPartition([])

    def test_rejects_overlap_and_empty_blocks(self):
        with pytest.raises(MalformedInput):
            SetPartition([[1, 2], [2, 3]])
        with pytest.raises(MalformedInput):
            SetPartition([[1], []])
        with pytest.raises(MalformedInput):
            SetPartition([[1, 2], [0]])
        with pytest.raises(MalformedInput):
            SetPartition.from_text("1//2")

    @pytest.mark.parametrize("text", [None, 5, [[1], [2]], b"1/2"])
    def test_from_text_reads_text_alone(self, text):
        # as RGS.from_text does; the blocks themselves go to the constructor
        with pytest.raises(MalformedInput) as err:
            SetPartition.from_text(text)
        assert str(err.value) == "need partition text, not %s" % type(text).__name__

    @pytest.mark.parametrize("text", ["1,\u00b2/3", "\u00b3"])
    def test_from_text_rejects_digits_int_cannot_read(self, text):
        # superscripts pass str.isdigit() but not int()
        with pytest.raises(MalformedInput):
            SetPartition.from_text(text)

    @pytest.mark.parametrize("text", ["1,\u0663/2", "1,2/3_0", "1/" + "1" * 5000])
    def test_from_text_reads_only_ascii_integers(self, text):
        # int() reads "\u0663" as 3 and "3_0" as 30; 5,000 digits it refuses
        with pytest.raises(MalformedInput):
            SetPartition.from_text(text)

    def test_equality_and_hash(self):
        a = SetPartition.from_text("1,2/3")
        b = SetPartition([[3], [2, 1]])
        assert a == b and hash(a) == hash(b)
        assert a != SetPartition.from_text("1,3/2")

    @pytest.mark.parametrize(
        "ground", [*range(8), (2, 4, 5), (1, 3)], ids=str
    )
    def test_every_route_builds_equal_and_hash_equal_objects(self, ground):
        g = _ground(ground)
        for p in enumerate_partitions(g):
            # reversed blocks and elements, so the constructor sorts
            shuffled = [list(reversed(b)) for b in reversed(p.blocks)]
            routes = [
                SetPartition(shuffled),
                SetPartition(iter(map(iter, shuffled))),  # one pass each
                SetPartition.from_text(p.to_text()),
            ]
            if isinstance(ground, int):  # only {1..n} has growth strings
                routes.append(from_rgs(to_rgs(p)))
            for q in routes:
                assert q == p and hash(q) == hash(p)
                assert q.blocks == p.blocks and q.ground == p.ground

    @pytest.mark.parametrize(
        "blocks, message",
        [
            ([[1, 2], [2, 3]], "element 2 appears in two blocks"),
            ([[1, 1], [2, 3]], "element 1 appears in two blocks"),
            ([[1], []], "blocks must be nonempty"),
            ([[2, 0]], "a block must hold integers >= 1"),
            ([[1], [-3]], "a block must hold integers >= 1"),
            ([[1, True]], "a block must hold integers, got True"),
            ([[1], ["a", 2]], "a block must hold integers, got 'a'"),
            ([5], "a block must be a collection, not int"),
            ([[1], "23"], "a block must be a collection, not str"),
            (None, "blocks must be a collection, not NoneType"),
        ],
    )
    def test_constructor_messages(self, blocks, message):
        with pytest.raises(MalformedInput) as err:
            SetPartition(blocks)
        assert str(err.value) == message

    def test_int_subclass_elements_build_the_same_partition(self):
        p = SetPartition([[IntSubclass(2)], [IntSubclass(1), 3]])
        assert p == SetPartition.from_text("1,3/2")
        assert p.ground == (1, 2, 3)

    @pytest.mark.parametrize(
        "walk",
        [count_partitions, lambda n: next(enumerate_partitions(n))],
        ids=["count_partitions", "enumerate_partitions"],
    )
    def test_huge_size_is_refused_before_the_ground_is_built(self, walk):
        # {1..10**12} as a tuple would take terabytes
        start = time.perf_counter()
        with pytest.raises(SizeTooLarge) as err:
            walk(10**12)
        assert time.perf_counter() - start < 0.1
        assert str(err.value) == "n is capped at 13"

    def test_large_block_builds_in_linear_time(self):
        # each element is looked up in one set of the elements seen, not
        # scanned for in a tuple, which took ~10 s at this size
        n = 50_000
        text = ",".join(map(str, range(1, n + 1)))
        start = time.perf_counter()
        p = SetPartition.from_text(text)
        assert time.perf_counter() - start < 2.0
        assert p.blocks == (tuple(range(1, n + 1)),)


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

    def test_rejects_bool_letters(self):
        # a bool is refused by the word reader, before the growth check
        for word in ([True], [1, True, 2]):
            with pytest.raises(MalformedInput) as err:
                RGS(word)
            assert str(err.value) == "a word must hold integers, got True"

    def test_from_text_forms(self):
        assert RGS.from_text("1213") == RGS([1, 2, 1, 3])
        assert RGS.from_text("1,2,1,3") == RGS([1, 2, 1, 3])
        assert RGS.from_text("") == RGS([])
        with pytest.raises(MalformedInput):
            RGS.from_text("1x2")

    def test_from_text_reads_only_ascii_digits(self):
        with pytest.raises(MalformedInput):
            RGS.from_text("\u0661\u0662")
        with pytest.raises(MalformedInput):
            from_rgs("1,2,3,4,5,6,7,8,9,1_0")

    @given(rgs_words())
    def test_round_trips_any_valid_word(self, word):
        w = RGS(word)
        assert RGS.from_text(w.to_text()) == w
        assert w.word == word


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
            for p in enumerate_partitions(ground)
        }
        assert got == set(oracles.partitions_by_placement(ground))

    @pytest.mark.parametrize("ground", [*range(9), (2, 5, 6, 9, 11)], ids=str)
    def test_takes_one_word_per_partition(self, monkeypatch, ground):
        # the sweep benchmark pins kernels.words == partitions.objects
        words = []

        def counted(n):
            for word in iter_rgs(n):
                words.append(word)
                yield word

        iter_rgs = _kernels.iter_rgs
        monkeypatch.setattr(_kernels, "iter_rgs", counted)
        stream = list(enumerate_partitions(ground))
        bell = oracles.bell_by_placement(len(_ground(ground)))
        assert len(words) == len(stream) == bell

    @pytest.mark.parametrize(
        "ground",
        [*range(10), (2, 4, 5), (1, 3), (9,), ()],
        ids=str,
    )
    def test_stream_decodes_each_growth_word(self, ground):
        g = _ground(ground)
        stream = list(enumerate_partitions(ground))
        decoded = [
            SetPartition(
                [
                    [e for e, c in zip(g, word) if c == letter]
                    for letter in range(1, max(word, default=0) + 1)
                ],
            )
            for word in _kernels.iter_rgs(len(g))
        ]
        assert stream == decoded
        assert len(stream) == oracles.bell_by_placement(len(g))
        for p in stream:
            canonical = SetPartition(p.blocks)
            assert canonical == p and canonical.blocks == p.blocks

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
        assert count_partitions((2, 4, 5)) == 5
        assert count_partitions(()) == 1

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

    def test_letters_past_nine_round_trip_in_the_comma_form(self):
        # eleven blocks: letters 10 and 11 need the comma form of RGS.to_text
        word = list(range(1, 12)) + [10, 1]
        p = from_rgs(word)
        assert p.blocks[0] == (1, 13) and p.blocks[9] == (10, 12)
        text = to_rgs(p).to_text()
        assert text == "1,2,3,4,5,6,7,8,9,10,11,10,1"
        assert RGS.from_text(text) == RGS(word) == to_rgs(p)
        assert from_rgs(text) == p
        assert RGS(word[:9]).to_text() == "123456789"  # digits up to 9

    def test_to_rgs_needs_contiguous_ground(self):
        p = SetPartition([[2], [4, 5]])
        with pytest.raises(NonContiguousGround):
            to_rgs(p)


class TestQueries:
    def test_block_containing(self):
        p = SetPartition.from_text("1,3/2/4,5")
        assert block_containing(p, 3) == (1, 3)
        assert block_containing(p, 2) == (2,)
        with pytest.raises(ElementNotInGround):
            block_containing(p, 9)
