"""Basis sets of dreams: the row scan against the listed path families."""

from itertools import combinations, permutations

import pytest

import oracles
from flagpipes.decperm import parse_decperm, positroid_of
from flagpipes.exceptions import DomainError, GuardExceededError
from flagpipes.pathgraph import (
    BasisSet,
    bases_of,
    basis_set,
)
from flagpipes.perm import all_permutations, bruhat_leq
from flagpipes.pipedream import (
    PipeDream,
    _fillings,
    construct_fpp,
    enumerate_partial_fpps,
    restrict,
    right_exit_labels,
)
from flagpipes.positroid import enumerate_positroids


class TestBasisSet:
    def test_normalization(self):
        B = basis_set(3, [{2}, {1}])
        assert B.bases == ((1,), (2,))
        assert B.k == 1 and B.n == 3 and not B.offset_zero
        assert B.ground == (1, 2, 3)

    def test_offset_ground(self):
        B = basis_set(2, [(0, 1)], offset_zero=True)
        assert B.ground == (0, 1, 2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=3, k=1, offset_zero=False, bases=((1,), (1, 2))),  # mixed ranks
            dict(n=3, k=2, offset_zero=False, bases=((2, 1),)),       # not sorted
            dict(n=3, k=1, offset_zero=False, bases=((4,),)),         # off ground
            dict(n=3, k=1, offset_zero=False, bases=((0,),)),         # 0 not allowed
            dict(n=3, k=1, offset_zero=False, bases=((2,), (1,))),    # not lex order
            dict(n=3, k=1, offset_zero=False, bases=()),              # empty
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            BasisSet(**kwargs)


class TestBasesOf:
    def test_single_family_golden(self):
        D = restrict(construct_fpp((2, 4, 1, 3), (4, 2, 3, 1)), 2)
        assert bases_of(D).bases == ((2, 4),)

    def test_running_example_extremes(self, running_example):
        D = running_example.dream
        B = bases_of(D)
        assert B.bases[0] == (1, 4, 6) == tuple(sorted(D.pivots))
        assert B.bases[-1] == (5, 7, 9) == tuple(
            sorted(right_exit_labels(D).values()))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_interval_prefix_oracle(self, n):
        perms = list(all_permutations(n))
        for u in perms:
            for v in perms:
                if not bruhat_leq(u, v):
                    continue
                D = construct_fpp(u, v)
                for k in range(1, n + 1):
                    got = bases_of(restrict(D, k)).bases
                    assert got == oracles.interval_restriction_bases(u, v, k)

    def test_always_a_matroid(self):
        for n in (2, 3):
            for k in range(1, n + 1):
                for D in enumerate_partial_fpps(n, k):
                    B = bases_of(D)
                    assert oracles.is_matroid(B)
                    assert oracles.is_matroid_via_rank_axioms(B.bases, B.ground)

    def test_lex_extremes_bracket_every_basis(self):
        for D in enumerate_partial_fpps(4, 2):
            B = bases_of(D)
            assert B.bases[0] == tuple(sorted(D.pivots))
            assert B.bases[-1] == tuple(sorted(right_exit_labels(D).values()))

    def test_unchecked_result_passes_the_checked_constructor(self,
                                                            monkeypatch):
        """``bases_of`` builds its :class:`BasisSet` unchecked; normalizing
        and validating the same bases again gives it back."""
        dreams = [D for n in range(5) for k in range(n + 1)
                  for D in enumerate_partial_fpps(n, k)]
        monkeypatch.setenv("POSITROID_MAX_N", "6")
        dreams += [P.dream for n in range(7) for P in enumerate_positroids(n)]
        assert len(dreams) == 2953
        for D in dreams:
            B = bases_of(D)
            assert B == basis_set(D.cols, B.bases)

    def test_guard_and_override(self, monkeypatch):
        wide = PipeDream(cols=13, pivots=(1,), grid=("P" + "E" * 12,))
        with pytest.raises(GuardExceededError):
            bases_of(wide)
        monkeypatch.setenv("POSITROID_MAX_N", "13")
        B = bases_of(wide)
        assert B.bases == tuple((j,) for j in range(1, 14))


def edge_list_sinks(D):
    """The sink sets of the families the edge-list oracle lists."""
    return basis_set(D.cols, ([path[-1][1] for path in fam]
                              for fam in oracles.path_families_by_edges(D)))


class TestGraph:
    def test_family_sinks_golden(self):
        D = restrict(construct_fpp((1, 2, 3), (3, 1, 2)), 1)
        families = oracles.path_families_by_edges(D)
        assert [fam[0][-1] for fam in families] == [(0, 1), (0, 2), (0, 3)]
        assert bases_of(D) == edge_list_sinks(D)

    def test_families_are_disjoint(self):
        D = restrict(construct_fpp((2, 4, 1, 3), (4, 2, 3, 1)), 3)
        families = oracles.path_families_by_edges(D)
        assert families
        for fam in families:
            seen = set()
            for path in fam:
                assert seen.isdisjoint(path)
                seen.update(path)
        assert bases_of(D) == edge_list_sinks(D)

    def test_bases_are_the_edge_list_sinks_on_every_filling(self):
        count = 0
        for n in range(1, 5):
            for k in range(n + 1):
                for pivots in permutations(range(1, n + 1), k):
                    for D in _fillings(n, pivots):
                        assert bases_of(D) == edge_list_sinks(D)
                        count += 1
        assert count == 810

    def test_bases_are_the_edge_list_sinks_at_n5(self, gamma_free_dreams_n5):
        assert len(gamma_free_dreams_n5) == 9430
        for D in gamma_free_dreams_n5:
            assert bases_of(D) == edge_list_sinks(D)

    def test_bases_are_the_edge_list_sinks_on_every_positroid(self):
        count = 0
        for n in range(7):
            for P in enumerate_positroids(n):
                assert bases_of(P.dream) == edge_list_sinks(P.dream)
                count += 1
        assert count == 2372

    def test_uniform_matroids_have_every_k_subset(self):
        for n in range(13):
            for k in range(n + 1):
                w = ",".join(f"{j + n - k}o" if j <= k else f"{j - k}u"
                             for j in range(1, n + 1))
                D = positroid_of(parse_decperm(w)).dream
                assert bases_of(D).bases == tuple(
                    combinations(range(1, n + 1), k))
