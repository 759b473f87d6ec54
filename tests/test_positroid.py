"""Positroid layer: matroid primitives, blocking, standardization, shape."""

from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

import oracles
from helpers import assert_rebuilds
from flagpipes import positroid as positroid_module
from flagpipes.decperm import parse_decperm, positroid_of
from flagpipes.exceptions import DomainError, SizeMismatchError
from flagpipes.flagbuild import quotient_covers
from flagpipes.pathgraph import bases_of, basis_set
from flagpipes.pipedream import (
    PipeDream,
    _fillings,
    construct_fpp,
    enumerate_le_dreams,
    enumerate_partial_fpps,
    restrict,
    right_exit_labels,
)
from flagpipes.poset import build_poset
from flagpipes.positroid import (
    Positroid,
    _exchange_index,
    enumerate_positroids,
    is_lpm,
    is_quotient,
    rank_increments,
    standardize,
    standardize_step,
    unblocked_columns,
)


def small_families():
    """Strategy: an arbitrary nonempty family of k-subsets of [n]."""
    def build(n):
        def pick(k):
            pool = list(combinations(range(1, n + 1), k))
            return st.sets(st.sampled_from(pool), min_size=1).map(
                lambda chosen: basis_set(n, chosen))
        return st.integers(min_value=1, max_value=n).flatmap(pick)
    return st.integers(min_value=2, max_value=4).flatmap(build)


def all_matroids_on_three():
    out = []
    for k in range(0, 4):
        for r in range(1, len(list(combinations(range(1, 4), k))) + 1):
            for chosen in combinations(list(combinations(range(1, 4), k)), r):
                B = basis_set(3, chosen)
                if oracles.is_matroid(B):
                    out.append(B)
    return out


class TestMatroidPrimitives:
    def test_exchange_goldens(self):
        assert oracles.is_matroid(basis_set(3, [{1, 2}, {2, 3}]))
        assert not oracles.is_matroid(basis_set(4, [{1, 2}, {3, 4}]))

    @given(small_families())
    def test_exchange_agrees_with_rank_axioms(self, B):
        assert oracles.is_matroid(B) == oracles.is_matroid_via_rank_axioms(
            B.bases, B.ground)

    def test_dual_involution(self):
        B = basis_set(4, [{1, 2}, {2, 4}])
        assert oracles.dual(oracles.dual(B)) == B
        assert oracles.dual(B).k == 2
        assert oracles.dual(basis_set(4, [{2, 4}])).bases == ((1, 3),)

    def test_rank_and_closure(self):
        B = basis_set(3, [{1, 2}, {2, 3}])
        assert oracles.max_overlap_rank(B.bases, {1, 3}) == 1
        assert oracles.max_overlap_rank(B.bases, set()) == 0
        # closures of {1}, {2} and {1, 2}, indexed by bitmask over (1, 2, 3)
        table = oracles.closure_table(B.bases, B.ground)
        assert table[0b001] == frozenset({1, 3})
        assert table[0b010] == frozenset({2})
        assert table[0b011] == frozenset({1, 2, 3})


class TestQuotient:
    def test_goldens(self):
        assert is_quotient(basis_set(3, [{1}, {3}]),
                           basis_set(3, [{1, 2}, {2, 3}]))
        assert not is_quotient(basis_set(3, [{2}, {3}]),
                               basis_set(3, [{1, 3}, {2, 3}]))

    def test_flats_route_agrees_everywhere(self):
        matroids = all_matroids_on_three()
        assert len(matroids) == 16
        for M in matroids:
            for Mp in matroids:
                if M.k > Mp.k:
                    continue
                assert is_quotient(M, Mp) == oracles.quotient_via_flats(
                    M.bases, Mp.bases, M.ground)

    def test_closure_route_agrees_on_every_pair_at_four(self):
        elements = list(enumerate_positroids(4))
        assert len(elements) == 65
        tables = [oracles.closure_table(P.bases.bases, P.bases.ground)
                  for P in elements]
        for P, low in zip(elements, tables):
            for Q, up in zip(elements, tables):
                assert is_quotient(P.bases, Q.bases) == \
                    oracles.quotient_via_closures(low, up)

    def test_closure_route_agrees_on_offset_zero_sets(self):
        d = construct_fpp((2, 4, 1, 3), (4, 2, 3, 1))
        p1, p2, p3 = (Positroid.from_dream(restrict(d, k)) for k in (1, 2, 3))
        family = [oracles.zero_join(p1, p2), oracles.zero_join(p2, p3),
                  basis_set(4, p1.bases.bases, offset_zero=True),
                  basis_set(4, p2.bases.bases, offset_zero=True)]
        tables = [oracles.closure_table(B.bases, B.ground) for B in family]
        for M, low in zip(family, tables):
            for Mp, up in zip(family, tables):
                assert is_quotient(M, Mp) == oracles.quotient_via_closures(low, up)
        # contracting the new element 0 gives a quotient, not the reverse
        assert is_quotient(family[3], family[1])
        assert not is_quotient(family[1], family[3])

    def test_every_matroid_is_a_quotient_of_itself(self):
        for M in all_matroids_on_three():
            assert is_quotient(M, M)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            is_quotient(basis_set(3, [{1}]), basis_set(4, [{1, 2}]))


def increment_pairs(B, inc, old_layout=False):
    """The (subset, element) pairs of a rank-increment mask, the subset as
    a frozenset of ground elements, in either bit layout."""
    ground = B.ground
    m = len(ground)
    pairs = set()
    while inc:
        bit = (inc & -inc).bit_length() - 1
        inc &= inc - 1
        S, i = divmod(bit, m) if old_layout else (bit % (1 << m), bit >> m)
        pairs.add((frozenset(e for j, e in enumerate(ground) if S >> j & 1),
                   ground[i]))
    return pairs


def assert_increments_agree(B):
    assert increment_pairs(B, rank_increments(B)) == increment_pairs(
        B, oracles.rank_increments_by_bases(B), old_layout=True)


class TestRankIncrements:
    def test_golden_layout(self):
        B = basis_set(2, [{1}])
        # Element 1 raises the rank of {} and of {2}.
        assert rank_increments(B) == 0b101
        assert oracles.rank_increments_by_bases(B) == 0b10001
        assert increment_pairs(B, rank_increments(B)) == {
            (frozenset(), 1), (frozenset({2}), 1)}

    def test_every_positroid_up_to_six(self, monkeypatch):
        monkeypatch.setenv("POSITROID_MAX_N", "6")
        count = 0
        for n in range(7):
            for P in enumerate_positroids(n):
                count += 1
                assert_increments_agree(P.bases)
        assert count == 2372

    @pytest.mark.parametrize("offset_zero", [False, True])
    def test_rank_zero_and_full_rank(self, offset_zero):
        for n in range(7):
            ground = range(0 if offset_zero else 1, n + 1)
            empty = basis_set(n, [()], offset_zero=offset_zero)
            full = basis_set(n, [ground], offset_zero=offset_zero)
            assert rank_increments(empty) == 0
            assert len(increment_pairs(full, rank_increments(full))) == \
                len(ground) * 2 ** (len(ground) - 1)
            assert_increments_agree(empty)
            assert_increments_agree(full)

    def test_offset_zero_sets(self):
        count = 0
        for n in range(1, 5):
            for P in enumerate_positroids(n):
                count += 1
                assert_increments_agree(
                    basis_set(n, P.bases.bases, offset_zero=True))
                for Q in quotient_covers(P) if P.rank < n else ():
                    assert_increments_agree(oracles.zero_join(P, Q))
        assert count == 88


class TestUnblocked:
    def test_golden(self):
        d = restrict(construct_fpp((2, 4, 1, 3), (4, 2, 3, 1)), 2)
        assert unblocked_columns(d) == (1, 3)

    def test_two_routes_agree_on_le_dreams(self):
        for n in (2, 3, 4):
            for k in range(1, n + 1):
                for D in enumerate_le_dreams(n, k):
                    assert unblocked_columns(D) == oracles.unblocked_le(D)

    def test_le_route_needs_decreasing_pivots(self):
        with pytest.raises(DomainError):
            oracles.unblocked_le(restrict(construct_fpp((1, 2, 3), (3, 1, 2)), 2))

    def test_full_rank_has_none(self):
        for P in enumerate_positroids(3):
            if P.rank == 3:
                assert P.unblocked == ()


class TestStandardizeStep:
    def test_small_golden(self):
        d = oracles.dream_from_fill(
            3, (1, 2), {(1, 2): "X", (1, 3): "X", (2, 3): "X"})
        assert standardize_step(d, 1).grid == ("VPX", "PHX")

    def test_eleven_column_step_golden(self):
        D = PipeDream(cols=11, pivots=(3, 7, 1, 5), grid=(
            "VVPXXXXXXXX",
            "VV.VVVPXXXX",
            "PEHXEEHEXXX",
            ".V.VPEHXEEX",
        ))
        out = standardize_step(D, 3)
        assert out == PipeDream(cols=11, pivots=(3, 7, 5, 1), grid=(
            "VVPXXXXXXXX",
            "VV.VVVPXXXX",
            "VV.VPEHEEEX",
            "PEHXHEHXEXX",
        ))
        assert _exchange_index(D.grid[2], D.grid[3], D.pivots[3]) + 1 == 9

    def test_descending_rows_are_untouched(self):
        D = restrict(construct_fpp((3, 1, 2), (3, 2, 1)), 2)
        assert D.pivots == (3, 1)
        assert standardize_step(D, 1) == D

    def test_row_index_bounds(self):
        D = restrict(construct_fpp((1, 2, 3), (3, 1, 2)), 2)
        with pytest.raises(DomainError):
            standardize_step(D, 2)
        with pytest.raises(DomainError):
            standardize_step(D, 0)

    def test_step_preserves_bases_and_swap_law(self):
        for n in (2, 3):
            for k in range(2, n + 1):
                for D in enumerate_partial_fpps(n, k):
                    for i in range(1, k):
                        if D.pivots[i - 1] > D.pivots[i]:
                            continue
                        out = standardize_step(D, i)
                        assert bases_of(out) == bases_of(D)
                        before = right_exit_labels(D)
                        after = right_exit_labels(out)
                        swapped = _exchange_index(D.grid[i - 1], D.grid[i],
                                                  D.pivots[i]) is not None
                        if swapped:
                            assert after[i] == before[i + 1]
                            assert after[i + 1] == before[i]
                        else:
                            assert after[i] == before[i]
                            assert after[i + 1] == before[i + 1]


class TestStandardize:
    def test_pivots_descend_and_idempotent(self):
        for n in (2, 3):
            for k in range(1, n + 1):
                for D in enumerate_partial_fpps(n, k):
                    S = standardize(D)
                    assert all(a > b for a, b in zip(S.pivots, S.pivots[1:]))
                    assert standardize(S) == S
                    assert bases_of(S) == bases_of(D)
                    assert set(unblocked_columns(S)) == set(unblocked_columns(D))
                    assert (set(right_exit_labels(S).values())
                            == set(right_exit_labels(D).values()))


def outcome(route, *args):
    """A route's result, or the type of the domain error it raised."""
    try:
        return route(*args)
    except DomainError as exc:
        return type(exc)


def unblocked_by_walk(D):
    blocked = set(D.pivots)
    for t in oracles.trace_pipes_by_walk(D):
        if t.exit_side == "bottom":
            blocked.update(j for (_, j) in t.horizontal_crosses)
    return tuple(j for j in range(1, D.cols + 1) if j not in blocked)


class TestOneBuildStandardize:
    """The in-place kernels against the step-by-step reference routes."""

    @staticmethod
    def assert_kernels_match(D):
        S = standardize(D)
        assert_rebuilds(S)
        assert S == outcome(oracles.standardize_by_steps, D)
        for i in range(1, D.rows):
            step = standardize_step(D, i)
            assert_rebuilds(step)
            assert step == outcome(oracles.exchange_rows_by_hand, D, i)
        assert unblocked_columns(D) == unblocked_by_walk(D)

    def test_every_filling_up_to_n4(self):
        count = 0
        for n in range(1, 5):
            for k in range(n + 1):
                for pivots in permutations(range(1, n + 1), k):
                    for D in _fillings(n, pivots):
                        self.assert_kernels_match(D)
                        count += 1
        assert count == 810

    def test_every_gamma_free_dream_at_n5(self, gamma_free_dreams_n5):
        for D in gamma_free_dreams_n5:
            self.assert_kernels_match(D)

    def test_descending_pivots_return_the_same_dream(self):
        for n in range(1, 5):
            for k in range(n + 1):
                for D in enumerate_le_dreams(n, k):
                    assert standardize(D) is D
                    for i in range(1, k):
                        assert standardize_step(D, i) is D


class TestPositroid:
    def test_from_dream_canonicalizes(self, running_example):
        P = running_example
        assert P.rank == 3 and P.n == 9
        assert P.dream.pivots == (6, 4, 1)
        assert Positroid.from_dream(P.dream) == P

    def test_rejects_ascending_pivots(self):
        D = restrict(construct_fpp((1, 2, 3), (3, 1, 2)), 2)
        with pytest.raises(DomainError):
            Positroid(dream=D)

    def test_rejects_a_dream_that_is_not_gamma_free(self):
        # Descending pivots, but the bases {12, 14, 23, 34} form no positroid.
        D = PipeDream(cols=4, pivots=(2, 1), grid=("VPXE", "PHEX"))
        assert bases_of(D).bases == ((1, 2), (1, 4), (2, 3), (3, 4))
        with pytest.raises(DomainError, match="not gamma-free"):
            Positroid(dream=D)

    def test_unchecked_builds_pass_the_constructor(self):
        # enumerate_positroids, positroid_of (the poset's elements),
        # quotient_covers and from_dream skip the constructor's checks.
        listed = [P for n in range(6) for P in enumerate_positroids(n)]
        listed += build_poset(4, "matroidal").elements
        listed += [Q for P in enumerate_positroids(4) if P.rank < 4
                   for Q in quotient_covers(P)]
        listed += [Positroid.from_dream(D) for k in range(5)
                   for D in enumerate_partial_fpps(4, k)]
        for P in listed:
            assert Positroid(dream=P.dream) == P

    def test_rejects_blocked_pattern(self):
        bad = oracles.dream_from_fill(3, (1, 2, 3),
                                      {(1, 2): "X", (1, 3): "E", (2, 3): "E"})
        with pytest.raises(DomainError):
            Positroid.from_dream(bad)

    def test_bases_are_lazy_and_match_the_path_families(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("bases enumerated while keying")

        monkeypatch.setattr(positroid_module, "bases_of", refuse)
        elements = list(enumerate_positroids(4))
        assert len({P.key for P in elements}) == len(set(elements)) == 65
        monkeypatch.undo()
        for P in elements:
            assert P.bases == bases_of(P.dream)
            assert P.bases is P.bases

    def test_equality_and_hash_follow_the_key(self):
        elements = list(enumerate_positroids(3))
        again = [Positroid.from_dream(P.dream) for P in elements]
        for P, P2 in zip(elements, again):
            assert P == P2 and hash(P) == hash(P2)
            for Q in elements:
                assert (P == Q) == (P.key == Q.key)
        empty = [Positroid.from_dream(PipeDream(cols=n, pivots=(), grid=()))
                 for n in (2, 3)]
        assert empty[0].key == empty[1].key and empty[0] != empty[1]

    def test_immutable(self, running_example):
        with pytest.raises(AttributeError):
            running_example.dream = None

    def test_repr_shows_the_dream_alone(self, running_example):
        P = Positroid(dream=running_example.dream)
        want = f"Positroid(dream={P.dream!r})"
        assert repr(P) == want
        assert P.bases == running_example.bases and repr(P) == want

    def test_counts(self):
        assert [sum(1 for _ in enumerate_positroids(n)) for n in (1, 2, 3, 4)] \
            == [2, 5, 16, 65]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_enumeration_is_from_dream_of_every_le_dream(self, n):
        want = [Positroid.from_dream(D).key
                for k in range(n + 1)
                for D in sorted(enumerate_le_dreams(n, k),
                                key=lambda d: (d.pivots, d.grid))]
        assert [P.key for P in enumerate_positroids(n)] == want

    def test_enumeration_is_canonical(self):
        seen = set()
        last_rank = 0
        for P in enumerate_positroids(3):
            assert P.rank >= last_rank
            last_rank = P.rank
            assert P.key not in seen
            seen.add(P.key)


class TestLatticePathShape:
    def test_uniform_is_lpm(self):
        P = Positroid.from_dream(PipeDream(cols=3, pivots=(1,), grid=("PEE",)))
        assert P.bases.bases == ((1,), (2,), (3,))
        assert is_lpm(P)

    def test_named_counterexamples(self):
        assert not is_lpm(positroid_of(parse_decperm("3o2u1u")))
        assert not is_lpm(positroid_of(parse_decperm("3o2o1u")))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_gale_interval_oracle(self, n):
        for P in enumerate_positroids(n):
            assert is_lpm(P) == oracles.gale_interval_is_lpm(P.bases.bases, P.n)
