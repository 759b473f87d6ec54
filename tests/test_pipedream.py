"""Pipe-dream layer: grids, traces, words, rotation, enumeration."""

from itertools import combinations, permutations

import pytest
from hypothesis import given

import oracles
from helpers import assert_rebuilds, permutation_pairs
from flagpipes import pipedream
from flagpipes.config import ENV_MAX_N
from flagpipes.exceptions import (
    DomainError,
    GuardExceededError,
    MalformedDreamError,
    NotComparableError,
    SizeMismatchError,
)
from flagpipes.perm import all_permutations, bruhat_leq, inverse, length
from flagpipes.pipedream import (
    CROSS,
    ELBOW,
    LeDream,
    PipeDream,
    _fillings,
    _front_rows,
    _sweep,
    _templates,
    box_order,
    construct_fpp,
    cross_positions,
    elbow_count,
    enumerate_fpps,
    enumerate_le_dreams,
    enumerate_partial_fpps,
    is_gamma_free,
    restrict,
    right_exit_labels,
    rotate_le,
    trace_pipes,
    word_y_of_crosses,
)
from oracles import (
    compose,
    exit_permutation,
    longest,
    trivial_completion,
    word_to_perm,
)


class TestValidation:
    @pytest.mark.parametrize(
        "cols,pivots,grid",
        [
            (2, (1,), ("XX",)),        # pivot cell must hold the pivot tile
            (3, (1,), ("PE",)),        # row too short
            (2, (3,), ("..P",)),       # pivot column out of range
            (2, (1, 1), ("PE", "PE")),  # repeated pivot
            (3, (1,), ("PQE",)),       # unknown tile letter
            (3, (0,), ("...",)),       # pivot zero
            (3, (-1,), ("...",)),      # negative pivot
            (2, (2.0,), ("..",)),      # pivot that is no integer
            (2, (1, 2, 3), ("..",) * 3),  # more rows than columns
        ],
    )
    def test_malformed_grids_raise(self, cols, pivots, grid):
        with pytest.raises(MalformedDreamError):
            PipeDream(cols=cols, pivots=pivots, grid=grid)

    @pytest.mark.parametrize(
        "cols,pivots,fill",
        [
            (3, (5,), {}),                         # pivot right of the grid
            (3, (0,), {}),                         # pivot zero
            (3, (-1,), {}),                        # negative pivot
            (3, (2, 2), {(1, 3): "E"}),            # repeated pivot
            (2, (1, 2, 3), {}),                    # more rows than columns
            (2, (2.0,), {}),                       # pivot that is no integer
            (3, (1,), {(1, 2): "E", (1, 3): "X", (1, 1): "E"}),  # pivot cell
            (3, (1,), {(1, 2): "E", (1, 3): "X", (1, 4): "E"}),  # off the grid
            (3, (1,), {(1, 2): "E", (1, 3): "Q"}),  # neither cross nor elbow
        ],
    )
    def test_dream_from_fill_rejects_malformed_input(self, cols, pivots, fill):
        with pytest.raises(MalformedDreamError):
            oracles.dream_from_fill(cols, pivots, fill)

    @pytest.mark.parametrize("n", range(7))
    def test_templates_match_the_cell_rule(self, n):
        for k in range(n + 1):
            for pivots in permutations(range(1, n + 1), k):
                want = [[oracles.structural_tile(pivots, i, j)
                         for j in range(1, n + 1)] for i in range(1, k + 1)]
                assert list(_templates(n, pivots)) == want

    def test_dream_from_fill_requires_every_box(self):
        with pytest.raises(MalformedDreamError):
            oracles.dream_from_fill(3, (1,), {(1, 2): "E"})
        with pytest.raises(MalformedDreamError):
            oracles.dream_from_fill(
                3, (1,), {(1, 2): "E", (1, 3): "X", (2, 2): "E"})

    def test_empty_dream_is_fine(self):
        D = PipeDream(cols=3, pivots=(), grid=())
        assert D.rows == 0 and not D.is_complete


class TestConstruction:
    def test_golden_grids(self):
        assert construct_fpp((1, 2, 3), (3, 1, 2)).grid == ("PEE", ".PX", "..P")
        assert construct_fpp((2, 4, 1, 3), (4, 2, 3, 1)).grid == (
            "VPXE", "V.VP", "PHEH", "..PH")

    def test_seven_column_golden(self):
        D = construct_fpp((5, 3, 1, 6, 2, 7, 4), (6, 7, 3, 5, 1, 4, 2))
        assert elbow_count(D) == 7
        assert cross_positions(D) == (1, 2, 4, 5, 11)
        assert word_y_of_crosses(D) == (5, 6, 3, 4, 1)

    @pytest.mark.parametrize("n", range(6))
    def test_matches_the_box_fill_route(self, n):
        """The front walk writes its rows straight into the templates; the
        grids equal the old route's, the walk's box -> tile dict assembled
        and validated by oracles.dream_from_fill."""
        for u in all_permutations(n):
            for v in all_permutations(n):
                if bruhat_leq(u, v):
                    assert construct_fpp(u, v) == oracles.fpp_by_fill(u, v)

    def test_lists_the_templates_twice_and_checks_the_pivots_once(
            self, monkeypatch):
        """One template listing for the front walk and one, with the one
        pivot check, in the constructor's validation."""
        calls = {"_templates": 0, "_check_pivots": 0}
        for name in calls:
            def counted(*args, _name=name, _inner=getattr(pipedream, name)):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(pipedream, name, counted)
        pairs = [(u, v) for u in all_permutations(4)
                 for v in all_permutations(4) if bruhat_leq(u, v)]
        for u, v in pairs:
            construct_fpp(u, v)
        assert calls == {"_templates": 2 * len(pairs),
                         "_check_pivots": len(pairs)}

    @pytest.mark.parametrize("n", range(6))
    def test_front_walk_is_the_bruhat_test(self, n):
        """The end check of the front walk (the front must come back as the
        identity) fails on exactly the pairs that are not Bruhat-comparable,
        so ``dle_of`` needs no comparability test of its own."""
        for u in all_permutations(n):
            for v in all_permutations(n):
                if bruhat_leq(u, v):
                    _front_rows(u, v)
                else:
                    with pytest.raises(MalformedDreamError,
                                       match="front corrupted"):
                        _front_rows(u, v)

    def test_rejects_incomparable_and_mismatched(self):
        with pytest.raises(NotComparableError):
            construct_fpp((2, 1, 3), (1, 3, 2))
        with pytest.raises(SizeMismatchError):
            construct_fpp((1, 2), (1, 2, 3))
        with pytest.raises(DomainError):
            construct_fpp((1, 1), (2, 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_boundary_and_elbow_law(self, n):
        for u in all_permutations(n):
            for v in all_permutations(n):
                if not bruhat_leq(u, v):
                    continue
                D = construct_fpp(u, v)
                assert D.pivots == u
                assert exit_permutation(D) == v
                assert elbow_count(D) == length(v) - length(u)
                assert is_gamma_free(D)

    @given(permutation_pairs(max_n=5))
    def test_construct_when_comparable(self, pair):
        u, v = pair
        if not bruhat_leq(u, v):
            with pytest.raises(NotComparableError):
                construct_fpp(u, v)
        else:
            D = construct_fpp(u, v)
            assert exit_permutation(D) == v and D.pivots == u


class TestTraces:
    def test_right_exit_labels_golden(self):
        D = construct_fpp((1, 2, 3), (3, 1, 2))
        assert right_exit_labels(D) == {2: 1, 3: 2, 1: 3}
        assert all(t.exit_side == "right" for t in trace_pipes(D))

    def test_exits_partition_labels(self):
        for n in (2, 3):
            for k in range(n + 1):
                for D in enumerate_partial_fpps(n, k):
                    rights = right_exit_labels(D)
                    bottoms = [t.label for t in trace_pipes(D)
                               if t.exit_side == "bottom"]
                    assert len(rights) == k
                    assert sorted(rights) == list(range(1, k + 1))
                    labels = sorted(list(rights.values()) + bottoms)
                    assert labels == list(range(1, n + 1))
                    assert len(trace_pipes(D)) == n

    @staticmethod
    def assert_sweep_matches_the_walk(D):
        walked = oracles.trace_pipes_by_walk(D)
        assert trace_pipes(D) == walked
        assert list(right_exit_labels(D).items()) == [
            (t.exit_index, t.label) for t in walked if t.exit_side == "right"]
        # The sweep itself: each row's right-exit label, each column's
        # bottom label (0 under a pivot column), and the crosses only when
        # asked for.
        right, bottom = [0] * D.rows, [0] * D.cols
        for t in walked:
            exits = right if t.exit_side == "right" else bottom
            exits[t.exit_index - 1] = t.label
        passes = [list(t.horizontal_crosses) for t in walked]
        assert _sweep(D) == (right, bottom, None)
        assert _sweep(D, crosses=True) == (right, bottom, passes)

    def test_sweep_matches_the_walk_on_every_filling(self):
        count = 0
        for n in range(1, 5):
            for k in range(n + 1):
                for pivots in permutations(range(1, n + 1), k):
                    for D in _fillings(n, pivots):
                        self.assert_sweep_matches_the_walk(D)
                        count += 1
        assert count == 810

    def test_sweep_matches_the_walk_at_n5(self, gamma_free_dreams_n5):
        assert len(gamma_free_dreams_n5) == 9430
        for D in gamma_free_dreams_n5:
            self.assert_sweep_matches_the_walk(D)

    def test_sweep_matches_the_cell_by_cell_sweep(self):
        """Each row read from its pivot, and from elbow to elbow without
        crosses, gives what reading every cell gave, on every FPP and
        partial FPP with n <= 4."""
        count = 0
        for n in range(1, 5):
            for k in range(n + 1):
                for D in enumerate_partial_fpps(n, k):
                    for crosses in (False, True):
                        assert (_sweep(D, crosses)
                                == oracles.sweep_by_cells(D, crosses))
                    count += 1
        assert count == 580

    def test_only_the_cross_readers_ask_for_crosses(self, monkeypatch):
        """One sweep per reader; decperm_of and right_exit_labels read the
        exit labels alone, so the sweep records no cross for them."""
        from flagpipes import decperm, positroid

        asked = []
        real = pipedream._sweep

        def spy(D, crosses=False):
            asked.append(crosses)
            return real(D, crosses)

        for module in (pipedream, positroid, decperm):
            monkeypatch.setattr(module, "_sweep", spy)
        D = restrict(construct_fpp((2, 4, 1, 3), (4, 2, 3, 1)), 2)
        for reader, crosses in [(trace_pipes, True), (is_gamma_free, True),
                                (positroid.unblocked_columns, True),
                                (decperm.decperm_of, False),
                                (right_exit_labels, False)]:
            asked.clear()
            reader(D)
            assert asked == [crosses], reader.__name__

    def test_exit_permutation_needs_complete(self):
        with pytest.raises(DomainError):
            exit_permutation(restrict(construct_fpp((1, 2, 3), (3, 1, 2)), 1))


class TestWords:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_x_word_matches_diagram_reading(self, n):
        for u in all_permutations(n):
            D = construct_fpp(u, longest(n))
            word = tuple(letter for _, letter in box_order(D))
            assert word == oracles.rothe_reading_word(u)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_y_word_evaluates_to_rotated_exit(self, n):
        for u in all_permutations(n):
            for v in all_permutations(n):
                if not bruhat_leq(u, v):
                    continue
                D = construct_fpp(u, v)
                wy = word_y_of_crosses(D)
                target = compose(inverse(v), longest(n))
                assert word_to_perm(n, wy) == target
                assert len(wy) == length(target)  # the subword is reduced


class TestGammaFree:
    def test_documented_violation(self):
        bad = oracles.dream_from_fill(3, (1, 2, 3),
                                      {(1, 2): "X", (1, 3): "E", (2, 3): "E"})
        assert not is_gamma_free(bad)

    def test_two_routes_agree_on_every_filling(self):
        for n in (2, 3, 4):
            for k in range(1, n + 1):
                for pivots in all_permutations(n):
                    for D in _fillings(n, pivots[:k]):
                        assert is_gamma_free(D) == oracles.gamma_free_by_pattern_search(D)


class TestRestriction:
    def test_restrict_and_complete(self):
        D = construct_fpp((2, 4, 1, 3), (4, 2, 3, 1))
        P = restrict(D, 2)
        assert P.rows == 2 and P.grid == D.grid[:2]
        full = trivial_completion(P)
        assert full.is_complete
        assert restrict(full, 2) == P
        assert full.pivots[:2] == P.pivots
        assert sorted(full.pivots) == [1, 2, 3, 4]

    def test_completion_pivots_descend(self):
        P = restrict(construct_fpp((1, 2, 3), (3, 1, 2)), 1)
        assert trivial_completion(P).pivots == (1, 3, 2)

    def test_every_restriction_up_to_n5_rebuilds(self):
        count = 0
        for n in range(1, 6):
            for D in enumerate_fpps(n):
                for k in range(n + 1):
                    assert_rebuilds(restrict(D, k))
                    count += 1
        assert count == 1 * 2 + 3 * 3 + 19 * 4 + 213 * 5 + 3781 * 6

    def test_restrict_bounds(self):
        D = construct_fpp((1, 2), (2, 1))
        with pytest.raises(DomainError):
            restrict(D, 3)
        assert restrict(D, 0).rows == 0


class TestRotation:
    def test_rotation_golden(self):
        L = rotate_le(construct_fpp((3, 1, 6, 5, 4, 2), (6, 3, 4, 5, 2, 1)))
        assert L.rows == ("XXEE", "EXE")
        assert L.pivots == (3, 1)
        assert tuple(map(len, L.rows)) == (4, 3)

    def test_rotation_is_injective_on_le_dreams(self):
        rotated = set()
        count = 0
        for n in range(1, 5):
            for k in range(n + 1):
                for P in enumerate_le_dreams(n, k):
                    L = rotate_le(P)
                    shape = tuple(map(len, L.rows))
                    assert shape == tuple(sorted(shape, reverse=True))
                    assert (L.cols, L.pivots) == (P.cols, P.pivots)
                    rotated.add(L)
                    count += 1
        assert len(rotated) == count == 2 + 5 + 16 + 65

    def test_rejects_wrong_pivot_order(self):
        with pytest.raises(DomainError):
            rotate_le(restrict(construct_fpp((1, 2, 3), (3, 1, 2)), 2))
        with pytest.raises(DomainError):
            rotate_le(construct_fpp((1, 2, 3, 4), (4, 3, 2, 1)))  # two ascents

    def test_ledream_validation(self):
        with pytest.raises(MalformedDreamError):
            LeDream(cols=3, pivots=(1, 2), rows=("E", "E"))  # increasing pivots
        with pytest.raises(MalformedDreamError):
            LeDream(cols=3, pivots=(2,), rows=("EEE",))  # wrong row length
        with pytest.raises(MalformedDreamError):
            LeDream(cols=3, pivots=(2,), rows=("P",))  # bad tile


class TestEnumeration:
    def test_counts_match_interval_counts(self):
        assert [sum(1 for _ in enumerate_fpps(n)) for n in (1, 2, 3, 4)] == [
            1, 3, 19, 213]

    def test_dreams_are_distinct_fpps(self):
        seen = set(enumerate_fpps(3))
        assert len(seen) == 19
        assert all(is_gamma_free(D) for D in seen)

    def test_partial_count_golden(self):
        assert sum(1 for _ in enumerate_partial_fpps(3, 2)) == 19
        assert sum(1 for _ in enumerate_le_dreams(3, 1)) == 7

    @pytest.mark.parametrize("n", range(7))
    def test_enumerations_match_the_validated_fill_route(self, n):
        for k in range(n + 1):
            le = list(enumerate_le_dreams(n, k))
            assert le == list(oracles.le_dreams_by_fill(n, k))
            partial = []
            if n <= 5:
                partial = list(enumerate_partial_fpps(n, k))
                assert partial == list(oracles.partial_fpps_by_fill(n, k))
            for D in le + partial:
                assert PipeDream(D.cols, D.pivots, D.grid) == D

    @staticmethod
    def keeps_the_le_condition(D):
        """No cross with an elbow to its right in its row and an elbow
        below it in its column."""
        grid = D.grid
        return not any(t == CROSS and ELBOW in row[j + 1:]
                       and any(below[j] == ELBOW for below in grid[i + 1:])
                       for i, row in enumerate(grid)
                       for j, t in enumerate(row))

    def test_le_rule_is_gamma_freeness_on_descending_pivots(self, monkeypatch):
        monkeypatch.setenv(ENV_MAX_N, "7")
        for n in range(8):
            fillings = 0
            for k in range(n + 1):
                kept = []
                for chosen in combinations(range(1, n + 1), k):
                    for D in _fillings(n, chosen[::-1]):
                        fillings += 1
                        free = is_gamma_free(D)
                        assert free == self.keeps_the_le_condition(D)
                        if free:
                            kept.append(D)
                assert list(enumerate_le_dreams(n, k)) == kept
        assert fillings == 29212

    def test_the_le_walk_builds_only_what_it_yields(self, monkeypatch):
        next(enumerate_le_dreams(1, 0))  # compiles PipeDream._trusted
        real = PipeDream._trusted
        built = []

        def counting(cls, **fields):
            built.append(fields["grid"])
            return real(**fields)

        monkeypatch.setattr(PipeDream, "_trusted", classmethod(counting))
        total = 0
        for k in range(7):
            built.clear()
            yielded = [D.grid for D in enumerate_le_dreams(6, k)]
            assert built == yielded
            total += len(yielded)
        assert total == 1957

    def test_guards(self):
        with pytest.raises(GuardExceededError):
            next(enumerate_fpps(7))
        with pytest.raises(GuardExceededError):
            next(enumerate_partial_fpps(7, 1))
        with pytest.raises(GuardExceededError):
            next(enumerate_le_dreams(7, 1))
