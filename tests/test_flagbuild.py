"""Row appending, quotient covers, flags, and the one-element embedding."""

import random
from itertools import combinations

import pytest

import oracles
from helpers import assert_rebuilds
from flagpipes import decperm, flagbuild
from flagpipes.decperm import (
    DecoratedPermutation,
    covers_by_shift,
    decperm_of,
    parse_decperm,
    positroid_of,
    right_cyclic_shift,
    unblocked_positions,
)
from flagpipes.exceptions import (
    DomainError,
    EmptyChoiceError,
    GuardExceededError,
    NotUnblockedError,
    SizeMismatchError,
)
from flagpipes.flagbuild import (
    FlagPositroid,
    append_row,
    flag_of_fpp,
    quotient_covers,
)
from flagpipes.pathgraph import bases_of
from flagpipes.perm import all_permutations, bruhat_leq
from flagpipes.pipedream import (
    PipeDream,
    construct_fpp,
    enumerate_fpps,
    is_gamma_free,
    restrict,
)
from flagpipes.positroid import (
    Positroid,
    enumerate_positroids,
    is_quotient,
    standardize,
)


def uniform_positroid(r: int, n: int) -> Positroid:
    pivots = tuple(range(r, 0, -1))
    fill = {(i, j): "E"
            for i in range(1, r + 1) for j in range(1, n + 1)
            if oracles.structural_tile(pivots, i, j) is None}
    return Positroid.from_dream(oracles.dream_from_fill(n, pivots, fill))


class TestAppendRow:
    def test_pivot_lands_at_min_choice(self, running_example):
        D = append_row(running_example.dream, (5, 9))
        assert D.rows == 4
        assert D.pivots[-1] == 5

    def test_pipeline_golden(self, running_example):
        S = standardize(append_row(running_example.dream, (5, 9)))
        assert S.pivots == (6, 5, 4, 1)
        assert decperm_of(S).to_string() == "5o1u3u8o9o7o6u4u2u"

    def test_errors(self, running_example):
        with pytest.raises(EmptyChoiceError):
            append_row(running_example.dream, ())
        with pytest.raises(NotUnblockedError):
            append_row(running_example.dream, (3,))

    def test_errors_name_the_first_bad_column(self, running_example):
        # Unblocked columns are (2, 5, 8, 9); pivots are 6, 4 and 1.
        for C, bad in [((2, 3, 6), 3), ((6,), 6), ((1, 2), 1), ((5, 10), 10)]:
            with pytest.raises(NotUnblockedError) as info:
                append_row(running_example.dream, C)
            assert info.value.column == bad
        with pytest.raises(EmptyChoiceError):
            append_row(running_example.dream, set())


class TestQuotientCovers:
    def test_running_example_has_fifteen(self, running_example):
        assert len(quotient_covers(running_example)) == 15

    def test_bottom_on_three(self):
        bottom = Positroid.from_dream(PipeDream(cols=3, pivots=(), grid=()))
        assert len(quotient_covers(bottom)) == 7

    @pytest.mark.parametrize("r,n", [(1, 3), (2, 4), (3, 4), (2, 5)])
    def test_uniform_count(self, r, n):
        assert len(quotient_covers(uniform_positroid(r, n))) == 2 ** (n - r) - 1

    def test_full_rank_raises(self):
        top = uniform_positroid(3, 3)
        with pytest.raises(DomainError):
            quotient_covers(top)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_covers_are_quotients_both_routes(self, n):
        for P in enumerate_positroids(n):
            if P.rank == n:
                continue
            for Q in quotient_covers(P):
                assert Q.rank == P.rank + 1
                assert is_quotient(P.bases, Q.bases)
                assert oracles.quotient_via_flats(
                    P.bases.bases, Q.bases.bases, P.bases.ground)
                assert oracles.elementary_quotient_via_extension(
                    P.bases.bases, Q.bases.bases, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_checked_append_route(self, n):
        for P in enumerate_positroids(n):
            if P.rank == n:
                continue
            covers = quotient_covers(P)
            expected = oracles.quotient_covers_by_append_row(P)
            assert [Q.key for Q in covers] == [Q.key for Q in expected]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_sorted_by_the_swept_text_of_each_cover(self, n):
        """The shift route names and orders the covers; sweeping each
        cover's dream gives the same order."""
        for P in enumerate_positroids(n):
            if P.rank == n:
                continue
            covers = quotient_covers(P)
            assert list(covers) == sorted(
                covers,
                key=lambda Q: oracles.swept_decperm(Q.dream).to_string())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_the_row_append_covers_in_shift_order(self, n):
        """quotient_covers builds each cover from its right cyclic shift;
        appending a row along each choice and standardizing gives the same
        dreams, in order once sorted by the text of each choice's shift."""
        for P in enumerate_positroids(n):
            if P.rank == n:
                continue
            w, U = decperm_of(P.dream), P.unblocked
            appended = sorted(
                (right_cyclic_shift(w, C).to_string(),
                 standardize(append_row(P.dream, C)))
                for r in range(1, len(U) + 1) for C in combinations(U, r))
            assert [Q.dream for Q in quotient_covers(P)] == [
                D for _, D in appended]

    def test_one_decperm_of_per_walk(self, monkeypatch, running_example):
        """The walk reads P's decorated permutation once and sweeps no
        cover's dream."""
        calls = []
        real = decperm.decperm_of

        def counting(D):
            calls.append(D)
            return real(D)

        for module in (decperm, flagbuild):
            monkeypatch.setattr(module, "decperm_of", counting)
        assert len(quotient_covers(running_example)) == 15
        assert calls == [running_example.dream]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_appended_dreams_rebuild(self, n):
        """append_row and quotient_covers build their dreams unchecked;
        each one passes the public constructor, on every choice."""
        for P in enumerate_positroids(n):
            if P.rank == n:
                continue
            U = P.unblocked
            choices = [C for r in range(1, len(U) + 1)
                       for C in combinations(U, r)]
            for C in choices:
                assert_rebuilds(append_row(P.dream, C))
            covers = quotient_covers(P)
            assert len(covers) == len(choices)
            for Q in covers:
                assert_rebuilds(Q.dream)

    def test_appended_dreams_are_gamma_free_at_n5(self):
        """The row-append route needs no gamma-freeness sweep: every row
        appended along unblocked columns keeps the dream gamma-free,
        checked on every positroid on [5] and every choice."""
        appended = 0
        for P in enumerate_positroids(5):
            U = P.unblocked
            for r in range(1, len(U) + 1):
                for C in combinations(U, r):
                    assert is_gamma_free(append_row(P.dream, C))
                    appended += 1
        assert appended == sum(len(quotient_covers(P))
                               for P in enumerate_positroids(5) if P.rank < 5)

    def test_running_example_matches_the_checked_append_route(
            self, running_example):
        assert (quotient_covers(running_example)
                == oracles.quotient_covers_by_append_row(running_example))

    @pytest.mark.parametrize("n", [2, 3])
    def test_cover_choice_inverts_append(self, n):
        for P in enumerate_positroids(n):
            if P.rank == n:
                continue
            U = P.unblocked
            for r in range(1, len(U) + 1):
                for C in combinations(U, r):
                    Q = Positroid.from_dream(append_row(P.dream, C))
                    assert oracles.cover_choice_by_search(P, Q) == C

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cover_choice_matches_the_search(self, n):
        """On every ordered pair, the row-append search finds a choice
        exactly when the shift walk lists Q among P's covers, and the right
        cyclic shift along that choice gives Q's decorated permutation."""
        elements = list(enumerate_positroids(n))
        found = 0
        for P in elements:
            w = decperm_of(P.dream)
            shifts = set(covers_by_shift(w)) if P.rank < n else set()
            for Q in elements:
                q = decperm_of(Q.dream)
                try:
                    C = oracles.cover_choice_by_search(P, Q)
                except oracles.NotACoverError:
                    assert q not in shifts
                    continue
                assert q in shifts
                assert right_cyclic_shift(w, C) == q
                found += 1
        assert found == sum(len(quotient_covers(P))
                            for P in elements if P.rank < n)

    def test_missing_pair_is_quotient_but_not_cover(self):
        P = positroid_of(parse_decperm("3o1u2u"))
        Q = positroid_of(parse_decperm("3o2o1u"))
        assert is_quotient(P.bases, Q.bases)
        assert oracles.elementary_quotient_via_extension(
            P.bases.bases, Q.bases.bases, 3)
        with pytest.raises(oracles.NotACoverError):
            oracles.cover_choice_by_search(P, Q)


class TestBenchmarkSizes:
    """The unchecked builders at the sizes of the queries benchmark, on
    seeded decorated permutations with 1 to 4 unblocked positions; the
    exhaustive tests stop at n = 5."""

    @staticmethod
    def sample(rng: random.Random, n: int, unblocked: int):
        while True:
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            color = tuple(2 if v > j else 1 if v < j else rng.choice((1, 2))
                          for j, v in enumerate(perm, 1))
            w = DecoratedPermutation(tuple(perm), color)
            if len(unblocked_positions(w)) == unblocked:
                return w

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_covers_agree_with_the_shifts(self, n):
        rng = random.Random(f"flagbuild/{n}")
        for unblocked in (1, 2, 3, 4):
            for _ in range(4):
                w = self.sample(rng, n, unblocked)
                P = positroid_of(w)
                assert oracles.swept_decperm(P.dream) == w
                covers = quotient_covers(P)
                assert ([oracles.swept_decperm(Q.dream) for Q in covers]
                        == list(covers_by_shift(w)))
                for D in [P.dream] + [Q.dream for Q in covers]:
                    assert_rebuilds(D)


class TestChoiceGuard:
    """Routines that try every nonempty choice of unblocked columns stop at
    covers_max_unblocked = 12 columns."""

    @staticmethod
    def bottom(n: int) -> Positroid:
        return Positroid.from_dream(PipeDream(cols=n, pivots=(), grid=()))

    def test_twelve_columns_are_listed(self):
        assert len(quotient_covers(self.bottom(12))) == 4095

    def test_thirteen_columns_are_refused(self):
        P = self.bottom(13)
        with pytest.raises(GuardExceededError,
                           match=r"quotient_covers: 13 .*covers_max_unblocked = 12\b"):
            quotient_covers(P)


class TestFlag:
    def test_constituents_golden(self):
        F = flag_of_fpp(construct_fpp((2, 4, 1, 3), (4, 2, 3, 1)))
        assert F.ranks == (1, 2, 3, 4)
        got = tuple(P.bases.bases for P in F.constituents[:3])
        assert got == (((2,), (4,)), ((2, 4),), ((1, 2, 4), (2, 3, 4)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lex_extremes_are_interval_prefixes(self, n):
        for u in all_permutations(n):
            for v in all_permutations(n):
                if not bruhat_leq(u, v):
                    continue
                F = flag_of_fpp(construct_fpp(u, v))
                for k in range(1, n + 1):
                    B = F.constituents[k - 1].bases.bases
                    assert B[0] == tuple(sorted(u[:k]))
                    assert B[-1] == tuple(sorted(v[:k]))

    def test_unchecked_flag_passes_the_public_constructor(self):
        """``flag_of_fpp`` builds its flag unchecked; the checked
        constructor, with its quotient test per rank, accepts it."""
        count = 0
        for n in range(1, 6):
            for D in enumerate_fpps(n):
                F = flag_of_fpp(D)
                assert FlagPositroid(n=F.n, ranks=F.ranks,
                                     constituents=F.constituents) == F
                count += 1
        assert count == 4017

    def test_a_dream_without_rows_has_no_flag(self):
        with pytest.raises(DomainError, match="at least one constituent"):
            flag_of_fpp(PipeDream(cols=2, pivots=(), grid=()))

    def test_validation(self):
        p1 = positroid_of(parse_decperm("1o2u3u"))
        p2 = positroid_of(parse_decperm("1o2o3u"))
        with pytest.raises(DomainError):
            FlagPositroid(n=3, ranks=(), constituents=())
        with pytest.raises(DomainError):
            FlagPositroid(n=3, ranks=(2,), constituents=(p1,))  # wrong rank list
        with pytest.raises(DomainError):
            FlagPositroid(n=3, ranks=(2, 1), constituents=(p2, p1))
        with pytest.raises(SizeMismatchError):
            FlagPositroid(n=3, ranks=(1,),
                          constituents=(positroid_of(parse_decperm("1o2u")),))

    def test_rejects_non_quotient_chain(self):
        by_bases = {P.bases.bases: P for P in enumerate_positroids(3)}
        p = by_bases[((2,), (3,))]
        q = by_bases[((1, 3), (2, 3))]
        assert not is_quotient(p.bases, q.bases)
        with pytest.raises(DomainError):
            FlagPositroid(n=3, ranks=(1, 2), constituents=(p, q))


class TestEmbedding:
    def test_extended_dream_golden(self):
        p = Positroid.from_dream(
            oracles.dream_from_fill(4, (4, 2), {(2, 3): "X"}))
        assert oracles.extended_cover_dream_by_hand(p, (1, 3)).grid == (
            "VVVVP", "VVPXH", "PEHEH")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_extended_dream_matches_the_tile_rule(self, n):
        """The 0-embedding dream of the cover along C is P's dream behind
        a new vertical column for the element 0, with a row appended along
        that column and the shifted C."""
        for P in enumerate_positroids(n):
            D = P.dream
            shifted = PipeDream(D.cols + 1, tuple(p + 1 for p in D.pivots),
                                tuple("V" + row for row in D.grid))
            U = P.unblocked
            for r in range(1, len(U) + 1):
                for C in combinations(U, r):
                    ext = append_row(shifted, (1,) + tuple(c + 1 for c in C))
                    assert_rebuilds(ext)
                    assert ext == oracles.extended_cover_dream_by_hand(P, C)

    def test_extended_dream_carries_phi_bases(self):
        """The 0-embedding of a cover pair is a matroid, and the positroid
        of the extended dream, ground set shifted by one."""
        for n in (2, 3):
            for P in enumerate_positroids(n):
                if P.rank == n:
                    continue
                U = P.unblocked
                for r in range(1, len(U) + 1):
                    for C in combinations(U, r):
                        Q = Positroid.from_dream(append_row(P.dream, C))
                        R = oracles.zero_join(P, Q)
                        assert oracles.is_matroid(R)
                        ext = bases_of(
                            oracles.extended_cover_dream_by_hand(P, C))
                        shifted = tuple(tuple(x - 1 for x in b)
                                        for b in ext.bases)
                        assert shifted == R.bases

    def test_phi_golden(self):
        d = construct_fpp((2, 4, 1, 3), (4, 2, 3, 1))
        p2 = Positroid.from_dream(restrict(d, 2))
        p3 = Positroid.from_dream(restrict(d, 3))
        R = oracles.zero_join(p2, p3)
        assert R.bases == ((0, 2, 4), (1, 2, 4), (2, 3, 4))
        assert R.offset_zero
        assert oracles.is_matroid(R)

    def test_phi_rejects_non_adjacent_ranks(self):
        """Ranks two apart join into no matroid on {0} + [n]."""
        d = construct_fpp((2, 4, 1, 3), (4, 2, 3, 1))
        p1 = Positroid.from_dream(restrict(d, 1))
        p3 = Positroid.from_dream(restrict(d, 3))
        assert is_quotient(p1.bases, p3.bases)
        assert not oracles.elementary_quotient_via_extension(
            p1.bases.bases, p3.bases.bases, 4)
