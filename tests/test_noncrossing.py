import pytest
from hypothesis import given

import oracles
from strategies import arbitrary_words, rgs_words
from setpart import noncrossing, numbers
from setpart.errors import (
    IndexOutOfRange,
    InvalidRGS,
    MalformedInput,
    SizeTooLarge,
)
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
from setpart.partitions import RGS, from_rgs, to_rgs


def blocks_view(word):
    return [tuple(b) for b in from_rgs(word).blocks]


class TestPredicateRoutes:
    @pytest.mark.parametrize("n", range(8))
    def test_three_routes_agree_on_growth_words(self, n):
        from setpart._kernels import iter_rgs

        for word in iter_rgs(n):
            fast = is_noncrossing(word)
            slow = is_noncrossing_bruteforce(word)
            oracle = oracles.noncrossing_by_blocks(blocks_view(word))
            assert fast == slow == oracle

    @given(arbitrary_words())
    def test_routes_agree_on_arbitrary_words(self, word):
        assert is_noncrossing(word) == is_noncrossing_bruteforce(word)

    def test_pattern_needs_smaller_letter_first(self):
        # 2121 alternates, but never small-then-large, so it does not cross
        assert is_noncrossing((2, 1, 2, 1))
        assert not is_noncrossing((1, 2, 1, 2))
        assert is_noncrossing((2, 2, 1, 1))

    def test_known_example_with_late_return(self):
        # letters 1 and 2 interleave as 1,2,1,2 at positions 2,3,6,9
        assert not is_noncrossing("112321442")

    def test_small_words(self):
        assert is_noncrossing("")
        assert is_noncrossing("1")
        assert is_noncrossing("1213")
        assert is_noncrossing("12131")
        assert not is_noncrossing("1212")
        assert not is_noncrossing("12312")

    def test_string_and_sequence_forms_agree(self):
        for text in ("1213", "1,2,1,3", "12131"):
            assert is_noncrossing(text) == is_noncrossing(
                tuple(int(c) for c in text.replace(",", ""))
            )

    @pytest.mark.parametrize(
        "fn",
        [
            is_noncrossing,
            is_noncrossing_bruteforce,
            is_cyclic_smirnov,
            covering_reduction,
        ],
    )
    @pytest.mark.parametrize("text", ["12a", "1,x", "1\u0662", "1,2_0"])
    def test_malformed_text_is_rejected(self, fn, text):
        with pytest.raises(MalformedInput):
            fn(text)


class TestEnumeration:
    @pytest.mark.parametrize("n", range(10))
    def test_counts_are_catalan(self, n):
        stream = list(enumerate_noncrossing(n))
        assert len(stream) == numbers.catalan(n)
        assert count_noncrossing(n) == numbers.catalan(n)

    def test_stream_yields_growth_words_in_order(self):
        stream = list(enumerate_noncrossing(5))
        assert all(isinstance(w, RGS) for w in stream)
        words = [tuple(w) for w in stream]
        assert words == sorted(words)

    def test_stream_is_exact_filter_of_all_words(self):
        from setpart._kernels import iter_rgs

        want = [w for w in iter_rgs(6) if is_noncrossing_bruteforce(w)]
        got = [tuple(w) for w in enumerate_noncrossing(6)]
        assert got == want

    def test_counts_at_depth(self):
        assert count_noncrossing(12) == numbers.catalan(12)

    def test_size_guards(self):
        with pytest.raises(IndexOutOfRange):
            count_noncrossing(-1)
        with pytest.raises(SizeTooLarge):
            count_noncrossing(noncrossing.WORD_CEILING + 1)
        with pytest.raises(SizeTooLarge):
            list(enumerate_noncrossing(noncrossing.WORD_CEILING + 1))


class TestCyclicSmirnov:
    def test_tiny_cases(self):
        assert is_cyclic_smirnov("")
        assert not is_cyclic_smirnov("1")
        assert is_cyclic_smirnov("12")
        assert not is_cyclic_smirnov("11")
        assert not is_cyclic_smirnov("121")
        assert is_cyclic_smirnov("123")

    @pytest.mark.parametrize("n", range(13))
    def test_filtered_count_is_catalan_difference(self, n):
        assert count_cyclic_smirnov_noncrossing(
            n
        ) == numbers.catalan_difference(n)

    def test_exact_witnesses_at_four(self):
        found = sorted(
            w.to_text()
            for w in enumerate_noncrossing(4)
            if is_cyclic_smirnov(w)
        )
        assert found == ["1213", "1232", "1234"]

    def test_count_agrees_with_predicate_filter(self):
        for n in range(9):
            direct = sum(
                1 for w in enumerate_noncrossing(n) if is_cyclic_smirnov(w)
            )
            assert direct == count_cyclic_smirnov_noncrossing(n)


class TestPrefixSmirnov:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_count_is_catalan_partial_sum(self, n):
        for j in range(n):
            got = count_prefix_smirnov_noncrossing(n, j)
            assert got == numbers.catalan_partial_sum(n, j)

    def test_count_agrees_with_predicate_filter(self):
        for n in range(1, 9):
            for j in range(n):
                direct = 0
                for w in enumerate_noncrossing(n):
                    if all(w[i] != w[i + 1] for i in range(j)):
                        direct += 1
                assert direct == count_prefix_smirnov_noncrossing(n, j)

    def test_unconstrained_column_is_catalan(self):
        for n in range(1, 10):
            assert count_prefix_smirnov_noncrossing(
                n, 0
            ) == numbers.catalan(n)

    def test_window_needs_a_successor(self):
        with pytest.raises(IndexOutOfRange):
            count_prefix_smirnov_noncrossing(0, 0)
        with pytest.raises(IndexOutOfRange):
            count_prefix_smirnov_noncrossing(5, 5)
        with pytest.raises(IndexOutOfRange):
            count_prefix_smirnov_noncrossing(5, -1)


class TestCoveringReduction:
    def test_masks_repeats_and_trailing_one(self):
        mask, rest = covering_reduction("112321442")
        assert mask.covered == (
            True, False, False, False, False, False, True, False, False,
        )
        assert rest == (1, 2, 3, 2, 1, 4, 2)

    def test_trailing_one_is_masked(self):
        mask, rest = covering_reduction("1231")
        assert mask.covered == (False, False, False, True)
        assert rest == (1, 2, 3)

    def test_empty_word(self):
        mask, rest = covering_reduction("")
        assert mask.covered == ()
        assert rest == ()

    @pytest.mark.parametrize("n", range(9))
    def test_reduction_preserves_the_predicate(self, n):
        from setpart._kernels import iter_rgs

        for word in iter_rgs(n):
            _, rest = covering_reduction(word)
            assert is_noncrossing(word) == is_noncrossing_bruteforce(rest)

    @given(rgs_words(max_len=9))
    def test_uncovered_subword_introduces_letters_in_order(self, word):
        _, rest = covering_reduction(word)
        seen = set()
        order = []
        for c in rest:
            if c not in seen:
                seen.add(c)
                order.append(c)
        assert order == sorted(order)

    def test_rejects_non_growth_words(self):
        with pytest.raises(InvalidRGS):
            covering_reduction("2121")


class TestRGSBridge:
    @given(rgs_words(max_len=8))
    def test_block_oracle_matches_word_predicate(self, word):
        want = oracles.noncrossing_by_blocks(blocks_view(word))
        assert is_noncrossing(word) == want

    def test_partition_side_round_trip(self):
        for w in enumerate_noncrossing(6):
            assert to_rgs(from_rgs(w)) == w
