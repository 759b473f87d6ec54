"""Decorated permutations: boundary data, cyclic shift moves, duality."""

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

import oracles
from helpers import assert_rebuilds
from flagpipes import decperm as decperm_module
from flagpipes.decperm import (
    DecoratedPermutation,
    _all_decperms,
    _necklace,
    _necklace_bases,
    _row_shifts,
    covered_by_shift,
    covers_by_shift,
    decperm_of,
    dle_of,
    inverse_decperm,
    left_cyclic_shift,
    left_unblocked_positions,
    or_set,
    parse_decperm,
    positroid_of,
    right_cyclic_shift,
    tc_set,
    unblocked_positions,
)
from flagpipes.exceptions import (
    DomainError,
    EmptyChoiceError,
    GuardExceededError,
    InvariantError,
    NotUnblockedError,
)
from flagpipes.pipedream import (
    _fillings,
    construct_fpp,
    enumerate_partial_fpps,
    is_gamma_free,
    restrict,
)
from flagpipes.poset import build_poset
from flagpipes.pathgraph import bases_of
from flagpipes.positroid import (
    _basis_bits,
    enumerate_positroids,
    unblocked_columns,
)
from oracles import all_decperms, dual


def decperms(max_n: int = 6):
    """Strategy: a random decorated permutation, any fixed-point colors."""
    def build(n):
        return st.tuples(
            st.permutations(tuple(range(1, n + 1))).map(tuple),
            st.lists(st.booleans(), min_size=n, max_size=n),
        ).map(_decorate)
    return st.integers(min_value=1, max_value=max_n).flatmap(build)


def _decorate(args):
    perm, flags = args
    color = tuple(
        2 if (v > j or (v == j and flag)) else 1
        for j, (v, flag) in enumerate(zip(perm, flags), 1))
    return DecoratedPermutation(perm, color)


RUNNING = "5o1u3u9o2u7o6u4u8u"


def outcome(routine, *args):
    """A routine's result, or the type and position of its choice error."""
    try:
        return routine(*args)
    except (EmptyChoiceError, NotUnblockedError) as exc:
        return type(exc), getattr(exc, "column", None)


class TestRepresentation:
    def test_forced_colors(self):
        with pytest.raises(DomainError):
            DecoratedPermutation((2, 1), (1, 1))  # 2 > 1 forces color 2
        with pytest.raises(DomainError):
            DecoratedPermutation((2, 1), (2, 2))  # 1 < 2 forces color 1
        with pytest.raises(DomainError):
            DecoratedPermutation((1, 2), (1,))    # wrong length
        with pytest.raises(DomainError):
            DecoratedPermutation((1, 2), (1, 3))  # bad color value

    def test_rank_counts_over_marks(self):
        assert parse_decperm(RUNNING).rank == 3
        assert parse_decperm("1o2o").rank == 2

    @given(decperms())
    def test_string_roundtrip(self, dp):
        assert parse_decperm(dp.to_string()) == dp

    def test_comma_form_beyond_nine(self):
        dp = _decorate((tuple(range(10, 0, -1)), [False] * 10))
        text = dp.to_string()
        assert "," in text
        assert parse_decperm(text) == dp

    def test_text_matches_the_formatted_form(self):
        """``to_string`` and the listing join cached tokens; both equal the
        text formatted value by value, on every decorated permutation with
        n <= 6 and on random ones with n = 10..12, whose text has
        commas."""
        rng = random.Random("decperm/text")
        for n in range(7):
            for w in all_decperms(n):
                assert w.to_string() == oracles.decperm_text(w)
            for _, text, code in decperm_module._all_codes(n):
                assert text == oracles.decperm_text(
                    DecoratedPermutation._trusted(code=code))
        for n in (10, 11, 12):
            for _ in range(100):
                perm = list(range(1, n + 1))
                for i in rng.sample(range(n), rng.randint(0, n)):
                    j = rng.randrange(n)
                    perm[i], perm[j] = perm[j], perm[i]
                w = _decorate((tuple(perm),
                               [rng.random() < 0.5 for _ in range(n)]))
                assert w.to_string() == oracles.decperm_text(w)

    def test_parse_rejects_garbage(self):
        with pytest.raises(DomainError):
            parse_decperm("3o1x2u")
        for separators in (",", ",,", " , "):
            with pytest.raises(DomainError):
                parse_decperm(separators)
        with pytest.raises(DomainError):
            parse_decperm("2o2o1u")  # not a permutation

    def test_empty_text_is_the_decorated_permutation_on_zero(self):
        empty = DecoratedPermutation((), ())
        assert empty.to_string() == ""
        assert parse_decperm("") == empty

    def test_counts(self):
        assert [len(all_decperms(n)) for n in (1, 2, 3, 4)] == [2, 5, 16, 65]
        texts = {dp.to_string() for dp in all_decperms(4)}
        assert len(texts) == 65

    def test_listing_matches_the_oracle(self):
        counts = []
        for n in range(7):
            listed = [(w.perm, w.color)
                      for w in decperm_module._all_decperms(n)]
            assert len(set(listed)) == len(listed)
            assert set(listed) == {(w.perm, w.color)
                                   for w in all_decperms(n)}
            counts.append(len(listed))
        assert counts == [1, 2, 5, 16, 65, 326, 1957]


class TestBoundaryData:
    def test_decperm_of_golden(self):
        d = restrict(construct_fpp((2, 4, 1, 3), (4, 2, 3, 1)), 2)
        assert decperm_of(d).to_string() == "1u2o3u4o"

    def test_dle_of_golden(self):
        assert dle_of(parse_decperm("2o1u4o3u")).pivots == (3, 1)

    @pytest.mark.parametrize("n", range(7))
    def test_dle_of_matches_the_box_fill_route(self, n):
        """dle_of keeps a row prefix of the front walk's rows unchecked; its
        dream, or its error, equals the old route's: the walk's box -> tile
        dict assembled and validated by oracles.dream_from_fill."""
        def outcome(build, dp):
            try:
                return build(dp)
            except DomainError as exc:
                return type(exc), str(exc)

        for dp in all_decperms(n):
            assert outcome(dle_of, dp) == outcome(oracles.dle_by_fill, dp)

    @staticmethod
    def assert_peel_matches_the_front_walk(w):
        D = dle_of(w)
        assert D == oracles.dle_by_construct_fpp(w), w.to_string()
        assert decperm_of(D) == w

    @pytest.mark.parametrize("n", range(8))
    def test_dle_of_matches_the_front_walk(self, n):
        """The peel off the code gives the front walk's row prefix of the
        canonical FPP, on every decorated permutation with n <= 7, and
        the dream's boundary data is w again."""
        for w in all_decperms(n):
            self.assert_peel_matches_the_front_walk(w)

    @pytest.mark.parametrize("n", range(8, 13))
    def test_dle_of_matches_the_front_walk_at_random(self, n):
        rng = random.Random(f"dle_of/{n}")
        for _ in range(2000):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            self.assert_peel_matches_the_front_walk(
                _decorate((tuple(perm), [rng.random() < 0.5 for _ in perm])))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_decperm_dream_mutual_inverse(self, n):
        for dp in all_decperms(n):
            assert decperm_of(dle_of(dp)) == dp
        canonical = {P.key for P in enumerate_positroids(n)}
        via_decperms = {positroid_of(dp).key for dp in all_decperms(n)}
        assert canonical == via_decperms

    @pytest.mark.parametrize("n", range(1, 6))
    def test_derived_results_pass_the_public_constructor(self, n):
        for w in all_decperms(n):
            derived = [inverse_decperm(w), decperm_of(positroid_of(w).dream)]
            derived += covers_by_shift(w) + covered_by_shift(w)
            for q in derived:
                assert DecoratedPermutation(q.perm, q.color) == q

    def test_positroid_of_matches_the_validating_route_at_n6(self):
        """positroid_of renders the canonical dream unchecked; it equals
        the construct_fpp / from_dream route on every decorated
        permutation on [6], and every dream passes the constructor."""
        ws = all_decperms(6)
        assert len(ws) == 1957
        for w in ws:
            P = positroid_of(w)
            assert P == oracles.positroid_by_construct_fpp(w)
            assert_rebuilds(P.dream)

    @pytest.mark.parametrize("n", [8, 9, 10, 11])
    def test_positroid_of_matches_the_validating_route_at_benchmark_sizes(
            self, n):
        rng = random.Random(f"positroid_of/{n}")
        for _ in range(40):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            w = _decorate((tuple(perm), [rng.random() < 0.5 for _ in perm]))
            P = positroid_of(w)
            assert P == oracles.positroid_by_construct_fpp(w)
            assert_rebuilds(P.dream)

    def test_running_example_roundtrip(self, running_example):
        assert decperm_of(running_example.dream).to_string() == RUNNING

    def test_pipe_exits_match_the_completion_route_on_every_filling(self):
        count = 0
        for n in range(1, 5):
            for k in range(n + 1):
                for pivots in permutations(range(1, n + 1), k):
                    for D in _fillings(n, pivots):
                        assert decperm_of(D) == oracles.decperm_via_completion(D)
                        count += 1
        assert count == 810

    def test_pipe_exits_match_the_completion_route_at_n5(self):
        dreams = [D for k in range(6) for D in enumerate_partial_fpps(5, k)]
        assert len(dreams) == 9430
        for D in dreams:
            assert decperm_of(D) == oracles.decperm_via_completion(D)


class TestRowShifts:
    """A dream's rows are right cyclic shifts along unblocked choices: the
    walk from ``1u2u...nu`` gives the decorated permutation of every row
    restriction, and refuses exactly the dreams that are not gamma-free."""

    def test_walk_matches_the_restrictions_at_n5(self, gamma_free_dreams_n5):
        assert len(gamma_free_dreams_n5) == 9430
        for D in gamma_free_dreams_n5:
            assert _row_shifts(D) == tuple(decperm_of(restrict(D, k))
                                           for k in range(D.rows + 1))

    def test_refused_exactly_when_not_gamma_free(self):
        count = refused = 0
        for n in range(6):
            for k in range(n + 1):
                for pivots in permutations(range(1, n + 1), k):
                    for D in _fillings(n, pivots):
                        count += 1
                        try:
                            _row_shifts(D)
                        except DomainError as exc:
                            assert str(exc) == "dream is not gamma-free"
                            assert not is_gamma_free(D), D
                            refused += 1
                        else:
                            assert is_gamma_free(D), D
        assert (count, refused) == (24093, 14082)


class TestUnblocked:
    def test_golden(self):
        assert unblocked_positions(parse_decperm(RUNNING)) == (2, 5, 8, 9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_positions_match_columns(self, n):
        for dp in all_decperms(n):
            assert unblocked_positions(dp) == unblocked_columns(dle_of(dp))

    def test_left_golden(self):
        omega = inverse_decperm(parse_decperm(RUNNING))
        assert omega.to_string() == "2o5o3o8o1u7o6u9o4u"
        assert left_unblocked_positions(omega) == (1, 2, 4, 8)


class TestCompletionSets:
    def test_tc_goldens(self):
        pi = parse_decperm(RUNNING)
        assert tc_set(pi, {8}) == (1, 4)
        assert tc_set(pi, {2, 5, 8, 9}) == ()
        assert tc_set(pi, {5, 9}) == (4,)
        assert tc_set(pi, {2, 5, 8}) == (1,)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_tc_reads_only_the_ends_of_a_choice(self, n):
        """tc_set(w, C) equals that of the choice (min C, max C); it is
        2-colored, increases and lies left of min C, so tc + C lists the
        moved positions in order.  The scan agrees with the search written
        out pick by pick."""
        for w in all_decperms(n):
            U = unblocked_positions(w)
            assert U == oracles.unblocked_by_hand(w)
            for r in range(1, len(U) + 1):
                for C in combinations(U, r):
                    tc = tc_set(w, C)
                    assert tc == tc_set(w, (min(C), max(C)))
                    assert list(tc) == sorted(set(tc))
                    assert all(t < min(C) and w.color[t - 1] == 2 for t in tc)
                    assert tc == oracles.tc_by_search(w, C)

    def test_or_golden(self):
        omega = parse_decperm("2o5o3o8o1u7o6u9o4u")
        assert or_set(omega, {2, 8}) == (9,)

    def test_errors(self):
        pi = parse_decperm(RUNNING)
        with pytest.raises(EmptyChoiceError):
            tc_set(pi, set())
        with pytest.raises(NotUnblockedError):
            tc_set(pi, {3})
        with pytest.raises(EmptyChoiceError):
            right_cyclic_shift(pi, ())
        with pytest.raises(NotUnblockedError) as err:
            right_cyclic_shift(pi, {3, 5})
        assert err.value.column == 3
        omega = parse_decperm("2o5o3o8o1u7o6u9o4u")
        with pytest.raises(EmptyChoiceError):
            or_set(omega, set())
        with pytest.raises(NotUnblockedError):
            or_set(omega, {3})


class TestShifts:
    def test_footnote_example(self):
        assert right_cyclic_shift(parse_decperm("1u2u"), {2}).to_string() \
            == "1u2o"

    def test_table_rows(self):
        pi = parse_decperm(RUNNING)
        rows = {
            (2, 5, 8, 9): "5o8o3u9o1u7o6u2u4u",
            (2, 5, 8): "4o5o3u9o1u7o6u2u8u",
            (5, 9): "5o1u3u8o9o7o6u4u2u",
            (8,): "4o1u3u5o2u7o6u9o8u",
        }
        for C, want in rows.items():
            assert right_cyclic_shift(pi, C).to_string() == want

    def test_left_shift_golden(self):
        omega = parse_decperm("2o5o3o8o1u7o6u9o4u")
        assert left_cyclic_shift(omega, {2, 8}).to_string() == "2o9o3o8o1u7o6u4u5u"

    def test_shift_raises_rank_by_one(self):
        pi = parse_decperm(RUNNING)
        for q in covers_by_shift(pi):
            assert q.rank == pi.rank + 1
        assert len(covers_by_shift(pi)) == 15

    def test_duality_square(self):
        pi = parse_decperm(RUNNING)
        omega = inverse_decperm(pi)
        assert inverse_decperm(right_cyclic_shift(pi, {5, 9})) \
            == left_cyclic_shift(omega, {2, 8})

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_square_commutes_everywhere(self, n):
        """The left routines equal the hand-written mirrors on every choice;
        the R below run over every nonempty left-unblocked choice."""
        for dp in all_decperms(n):
            omega = inverse_decperm(dp)
            U = unblocked_positions(dp)
            assert (left_unblocked_positions(omega)
                    == oracles.left_unblocked_by_hand(omega))
            for r in range(1, len(U) + 1):
                for C in combinations(U, r):
                    R = tuple(sorted(dp.perm[c - 1] for c in C))
                    left = inverse_decperm(right_cyclic_shift(dp, C))
                    assert left == left_cyclic_shift(omega, R)
                    assert left == oracles.left_cyclic_shift_by_hand(omega, R)
                    assert or_set(omega, R) == oracles.or_set_by_hand(omega, R)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_left_choice_errors_match_the_mirror(self, n):
        """Bad left choices fail as in the mirror, naming the same position
        in the caller's numbering."""
        for omega in all_decperms(n):
            for r in range(n + 1):
                for R in combinations(range(1, n + 1), r):
                    assert (outcome(or_set, omega, R)
                            == outcome(oracles.or_set_by_hand, omega, R))
                    assert (outcome(left_cyclic_shift, omega, R) == outcome(
                        oracles.left_cyclic_shift_by_hand, omega, R))

    def test_walks_find_the_unblocked_positions_once(self, monkeypatch):
        """Each walk draws its choices from one scan for the unblocked
        positions of a code and shifts along them without checking each
        again; build_poset walks once per element."""
        calls = []
        real = decperm_module._unblocked

        def counted(code):
            calls.append(code)
            return real(code)

        monkeypatch.setattr(decperm_module, "_unblocked", counted)
        pi = parse_decperm(RUNNING)
        assert len(covers_by_shift(pi)) == 15 and len(calls) == 1
        calls.clear()
        omega = inverse_decperm(pi)
        assert len(covered_by_shift(omega)) == 15 and len(calls) == 1
        calls.clear()
        assert len(build_poset(4).decperms) == 65 and len(calls) == 65

    @pytest.mark.parametrize("n", range(7))
    def test_walks_match_one_shift_per_choice(self, n):
        """The shared walk against one checked shift per choice, computed
        afresh each time: in walk order, and item for item in both sorted
        listings."""
        def text(q):
            return q.to_string()

        for w in all_decperms(n):
            want = oracles.right_shifts_by_choice(w)
            assert (decperm_module._shifts(w.code, "covers_by_shift")
                    == tuple([q.code for q in want]))
            assert covers_by_shift(w) == tuple(sorted(want, key=text))
            down = oracles.right_shifts_by_choice(inverse_decperm(w))
            assert covered_by_shift(w) == tuple(sorted(
                (inverse_decperm(q) for q in down), key=text))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_covered_mirrors_covers(self, n):
        for dp in all_decperms(n):
            omega = inverse_decperm(dp)
            up = {inverse_decperm(q).to_string() for q in covers_by_shift(dp)}
            down = covered_by_shift(omega)
            assert up == {q.to_string() for q in down}
            assert down == oracles.covered_by_shift_by_hand(omega)


def identity(n: int, mark: str) -> DecoratedPermutation:
    """The identity on [n] with every fixed point marked ``mark``: all n
    positions are (left-)unblocked."""
    return parse_decperm(",".join(f"{j}{mark}" for j in range(1, n + 1)))


class TestChoiceGuard:
    """Listings over every nonempty subset of the unblocked positions stop
    at covers_max_unblocked = 12 positions, 4095 covers."""

    def test_twelve_positions_are_listed(self):
        assert len(covers_by_shift(identity(12, "u"))) == 4095
        assert len(covered_by_shift(identity(12, "o"))) == 4095

    def test_twelve_positions_with_top_completions(self):
        """At the guard limit, with 2-colored positions between the
        unblocked ones, so that the top-completion set changes with the
        ends of a choice: every choice is scanned on its own."""
        pi = parse_decperm("5o,1u,9o,2u,12o,3u,15o,4u,6u,19o,16o,7u,18o,"
                           "17o,8u,10u,11u,13u,14u,20u")
        U = unblocked_positions(pi)
        assert len(U) == 12
        assert len({tc_set(pi, C) for r in range(1, 13)
                    for C in combinations(U, r)}) == 14
        want = oracles.right_shifts_by_choice(pi)
        assert len(want) == 4095
        assert covers_by_shift(pi) == tuple(
            sorted(want, key=DecoratedPermutation.to_string))

    @pytest.mark.parametrize("routine, mark", [
        (covers_by_shift, "u"), (covered_by_shift, "o")])
    def test_thirteen_positions_are_refused(self, routine, mark):
        with pytest.raises(GuardExceededError,
                           match=r"covers_max_unblocked = 12\b"):
            routine(identity(13, mark))
        with pytest.raises(GuardExceededError, match=routine.__name__):
            routine(identity(25, mark))

    @pytest.mark.parametrize("routine",
                             [covers_by_shift, covered_by_shift, build_poset])
    def test_two_choices_with_one_result_raise(self, monkeypatch, routine):
        """A shift that leaves every choice where it was trips the walk's
        check at its first two choices; build_poset walks the same kernel
        with the same applier, and its first walk is on 1u2u3u."""
        monkeypatch.setattr(decperm_module, "_cycle",
                            lambda code, moved: code)
        arg = {covers_by_shift: identity(3, "u"),
               covered_by_shift: identity(3, "o"), build_poset: 3}[routine]
        with pytest.raises(InvariantError, match=r"\(1,\) and \(2,\)"):
            routine(arg)

    def test_environment_raises_the_guard(self, monkeypatch):
        monkeypatch.setenv("POSITROID_MAX_N", "13")
        with pytest.raises(GuardExceededError,
                           match=r"covers_max_unblocked = 13\b"):
            covers_by_shift(identity(14, "u"))


class TestDuality:
    @given(decperms())
    def test_inverse_is_involution(self, dp):
        assert inverse_decperm(inverse_decperm(dp)) == dp
        assert inverse_decperm(dp).rank == dp.n - dp.rank

    @pytest.mark.parametrize("n", range(7))
    def test_codes_match_the_pair_routes(self, n):
        """On every decorated permutation with n <= 6, the stored code is
        the byte formula of the (perm, color) read off it, which the public
        constructor turns back into the same code, and the inverse on codes
        equals the formula on (perm, color)."""
        for w in all_decperms(n):
            assert list(w.code) == [0 if v == j and c == 2 else v
                                    for j, (v, c)
                                    in enumerate(zip(w.perm, w.color), 1)]
            assert DecoratedPermutation(w.perm, w.color).code == w.code
            assert inverse_decperm(w) == oracles.inverse_decperm_by_formula(w)

    def test_codes_past_a_byte(self):
        """Past n = 255 a value does not fit a byte: the code is a tuple,
        and shifts and inverses run on it alike."""
        n = 300
        w = parse_decperm(",".join([f"{j}o" for j in range(1, n - 1)]
                                   + [f"{n}o", f"{n - 1}u"]))
        assert type(w.code) is tuple
        assert DecoratedPermutation(w.perm, w.color).code == w.code
        assert covers_by_shift(w) == oracles.right_shifts_by_choice(w)
        assert inverse_decperm(w) == oracles.inverse_decperm_by_formula(w)
        assert inverse_decperm(inverse_decperm(w)) == w

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dual_positroid_complements_bases(self, n):
        """The positroid of the inverse boundary data is the dual."""
        for P in enumerate_positroids(n):
            Q = positroid_of(inverse_decperm(decperm_of(P.dream)))
            assert Q.bases == dual(P.bases)


def _every_positroid_basis_bits(max_n: int):
    """Each decorated permutation with n <= max_n, with the bases of its
    positroid from the path families, as masks (bit e - 1 for e) and as a
    set of subsets."""
    for n in range(max_n + 1):
        for w in _all_decperms(n):
            B = bases_of(positroid_of(w).dream)
            masks = [sum(1 << (e - 1) for e in b) for b in B.bases]
            yield n, w, masks, _basis_bits(B)


class TestNecklace:
    """Oh's theorem: the bases read off the Grassmann necklace are the
    path-family bases, on every positroid with n <= 6."""

    @pytest.fixture(scope="class")
    def positroids(self):
        return list(_every_positroid_basis_bits(6))

    def test_count(self, positroids):
        assert len(positroids) == 2372  # 2371 with n >= 1, and n = 0

    def test_necklace_bases_are_the_path_family_bases(self, positroids):
        for _, w, _, bits in positroids:
            assert _necklace_bases(w.code) == bits, w.to_string()

    def test_each_set_is_the_lex_first_basis_from_its_start(self, positroids):
        for n, w, masks, _ in positroids:
            necklace = _necklace(w.code)
            assert len(necklace) == n
            for i, I in enumerate(necklace):
                place = {(i + j) % n: j for j in range(n)}
                first = min(masks, key=lambda S: sorted(
                    place[e] for e in range(n) if S >> e & 1))
                assert I == first, (w.to_string(), i)

    def test_lowest_and_highest_bits_are_the_lex_extremes(self, positroids):
        for _, w, masks, _ in positroids:
            bits = _necklace_bases(w.code)
            assert (bits & -bits).bit_length() - 1 == masks[0]
            assert bits.bit_length() - 1 == masks[-1]
