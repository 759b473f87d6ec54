"""Permutation layer: composition algebra, Bruhat order, reduced words, and
Rothe diagrams (the box sets of complete dreams)."""

from math import comb

import pytest
from hypothesis import given

import oracles
from conftest import permutation_pairs, sized_permutations
from flagpipes.exceptions import DomainError, GuardExceededError, SizeMismatchError
from flagpipes.perm import (
    all_permutations,
    ascents,
    bruhat_leq,
    bruhat_leq_subword_oracle,
    descents,
    identity,
    inverse,
    is_permutation,
    key,
    length,
    reduced_word,
    right_multiply,
    validate_permutation,
)
from flagpipes.pipedream import box_order, construct_fpp
from oracles import compose, inversions, longest, word_to_perm


class TestBasics:
    def test_identity_and_longest(self):
        assert identity(4) == (1, 2, 3, 4)
        assert longest(4) == (4, 3, 2, 1)
        assert length(identity(5)) == 0
        assert length(longest(5)) == comb(5, 2)

    def test_is_permutation(self):
        assert is_permutation((2, 1, 3))
        assert not is_permutation((1, 1, 3))
        assert not is_permutation((0, 1, 2))
        assert is_permutation(())

    def test_validate_rejects_malformed(self):
        with pytest.raises(DomainError):
            validate_permutation((1, 3))
        assert validate_permutation([2, 1]) == (2, 1)

    def test_all_permutations_lex(self):
        perms = list(all_permutations(3))
        assert perms == sorted(perms)
        assert len(perms) == 6

    @given(sized_permutations())
    def test_inverse_involution(self, w):
        assert inverse(inverse(w)) == w
        assert compose(w, inverse(w)) == identity(len(w))
        assert compose(inverse(w), w) == identity(len(w))

    @given(permutation_pairs())
    def test_compose_pointwise(self, pair):
        a, b = pair
        c = compose(a, b)
        assert all(c[i - 1] == a[b[i - 1] - 1] for i in range(1, len(a) + 1))

    def test_compose_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            compose((1, 2), (1, 2, 3))

    def test_simple_and_right_multiply(self):
        assert right_multiply((3, 1, 2), 1) == (1, 3, 2)
        # right multiplication by s_2 equals composition with (1, 3, 2)
        assert right_multiply((3, 1, 2), 2) == compose((3, 1, 2), (1, 3, 2))
        with pytest.raises(DomainError):
            right_multiply((2, 1), 2)

    @given(sized_permutations())
    def test_length_counts_inversions(self, w):
        assert length(w) == len(inversions(w))

    @given(sized_permutations())
    def test_descents_ascents_partition(self, w):
        n = len(w)
        assert sorted(descents(w) + ascents(w)) == list(range(1, n))


class TestWords:
    @given(sized_permutations())
    def test_reduced_word_roundtrip(self, w):
        word = reduced_word(w)
        assert len(word) == length(w)
        assert word_to_perm(len(w), word) == w

    def test_reduced_word_peels_the_last_descent(self):
        for n in range(1, 6):
            for w in all_permutations(n):
                d = descents(w)
                if d:
                    i = d[-1]
                    assert reduced_word(w) == reduced_word(right_multiply(w, i)) + (i,)
                else:
                    assert reduced_word(w) == ()

    def test_reduced_word_of_a_long_permutation(self):
        w = longest(60)
        word = reduced_word(w)
        assert len(word) == length(w) == 60 * 59 // 2
        assert word_to_perm(60, word) == w

    def test_word_to_perm_golden(self):
        assert word_to_perm(3, (1, 2)) == (2, 3, 1)
        assert word_to_perm(3, ()) == (1, 2, 3)


class TestBruhat:
    def test_key_golden(self):
        assert key((3, 1, 2)) == ((1, 3), (3,))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_three_routes_agree(self, n):
        perms = list(all_permutations(n))
        for u in perms:
            for v in perms:
                got = bruhat_leq(u, v)
                assert got == bruhat_leq_subword_oracle(u, v)
                assert got == oracles.sorted_prefix_leq(u, v)

    def test_partial_order_laws(self):
        perms = list(all_permutations(3))
        for u in perms:
            assert bruhat_leq(u, u)
            assert bruhat_leq(identity(3), u)
            assert bruhat_leq(u, longest(3))
            for v in perms:
                if u != v:
                    assert not (bruhat_leq(u, v) and bruhat_leq(v, u))
                for w in perms:
                    if bruhat_leq(u, v) and bruhat_leq(v, w):
                        assert bruhat_leq(u, w)

    @given(permutation_pairs())
    def test_leq_respects_length(self, pair):
        u, v = pair
        if bruhat_leq(u, v):
            assert length(u) <= length(v)

    def test_subword_oracle_guard(self):
        with pytest.raises(GuardExceededError):
            bruhat_leq_subword_oracle(identity(7), longest(7))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            bruhat_leq((1, 2), (1, 2, 3))


class TestRothe:
    """The Rothe diagram {(i, j) : u(i) < j and u^{-1}(j) > i} is the box
    set of every complete dream with pivots u; its reading word is the
    letter sequence of :func:`box_order`."""

    @staticmethod
    def dream(u):
        return construct_fpp(u, longest(len(u)))

    @staticmethod
    def boxes(D):
        """The Rothe boxes in reading order (top to bottom, left to right)."""
        return [(i, j) for i in range(1, D.rows + 1) for j in D.box_columns(i)]

    def test_goldens(self):
        assert self.boxes(self.dream((1, 2, 3))) == [(1, 2), (1, 3), (2, 3)]
        assert self.boxes(self.dream((3, 2, 1))) == []

    @given(sized_permutations())
    def test_box_count_complements_length(self, w):
        assert len(self.boxes(self.dream(w))) == comb(len(w), 2) - length(w)

    @given(sized_permutations(max_n=5))
    def test_word_x_lifts_to_longest(self, w):
        n = len(w)
        word = tuple(letter for _, letter in box_order(self.dream(w)))
        assert len(word) == comb(n, 2) - length(w)
        target = compose(inverse(w), longest(n))
        assert word_to_perm(n, word) == target
        assert length(target) == len(word)  # the word is reduced

    def test_word_x_golden(self):
        D = self.dream((5, 3, 1, 6, 2, 7, 4))
        assert tuple(letter for _, letter in box_order(D)) == (
            5, 6, 4, 3, 4, 5, 6, 2, 3, 4, 1, 2)

