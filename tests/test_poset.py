"""The two-flavor cover poset, its chains, and the chain/dream bijection."""

import hashlib

import pytest

import oracles
import flagpipes.pipedream as pipedream_module
import flagpipes.poset as poset_module
import flagpipes.positroid as positroid_module
from flagpipes.config import ENV_MAX_N
from flagpipes.decperm import (
    DecoratedPermutation,
    covers_by_shift,
    decperm_of,
    parse_decperm,
)
from flagpipes.exceptions import (
    DomainError,
    GuardExceededError,
    InvariantError,
    SizeMismatchError,
)
from flagpipes.flagbuild import flag_of_fpp, quotient_covers
from flagpipes.pipedream import PipeDream, construct_fpp, enumerate_fpps
from flagpipes.poset import (
    QuotientPoset,
    build_poset,
    chain_to_fpp,
    check_self_dual,
    export_dot,
    export_json,
    fpp_to_chain,
    iter_maximal_chains,
    maximal_chain_count,
    missing_covers,
)
from flagpipes.positroid import enumerate_positroids, is_quotient


def missing_at_three():
    return missing_covers(build_poset(3), build_poset(3, "matroidal"))


class TestBuild:
    def test_published_numbers_at_three(self):
        rep = build_poset(3)
        mat = build_poset(3, "matroidal")
        assert len(rep.elements) == len(mat.elements) == 16
        assert maximal_chain_count(rep) == 19
        assert maximal_chain_count(mat) == 22
        assert len(rep.covers) == 33
        assert len(mat.covers) == 36

    def test_levels_match_rank_counts(self):
        poset = build_poset(3)
        by_rank = {}
        for P in enumerate_positroids(3):
            by_rank[P.rank] = by_rank.get(P.rank, 0) + 1
        for k in range(4):
            assert len(poset.rank_indices(k)) == by_rank[k]
        assert poset.elements[poset.bottom].rank == 0
        assert poset.elements[poset.top].rank == 3

    @pytest.mark.parametrize("flavor", ["representable", "matroidal"])
    def test_rank_indices_match_a_scan(self, flavor):
        for n in range(5):
            poset = build_poset(n, flavor)
            for k in range(-1, n + 2):
                assert poset.rank_indices(k) == tuple(
                    i for i, p in enumerate(poset.elements) if p.rank == k)

    def test_edges_go_up_one_rank(self):
        for flavor in ("representable", "matroidal"):
            poset = build_poset(3, flavor)
            for a, b in poset.covers:
                pa, pb = poset.elements[a], poset.elements[b]
                assert pb.rank == pa.rank + 1
                assert is_quotient(pa.bases, pb.bases)

    def test_representable_edges_match_shift_route(self):
        poset = build_poset(3)
        for i, name in enumerate(poset.names):
            ups = {poset.names[b] for a, b in poset.covers if a == i}
            shifts = {q.to_string() for q in covers_by_shift(parse_decperm(name))}
            assert ups == shifts

    def test_representable_edges_match_dream_route(self):
        poset = build_poset(5)
        ups = {i: set() for i in range(len(poset.elements))}
        for a, b in poset.covers:
            ups[a].add(poset.names[b])
        for i, P in enumerate(poset.elements):
            dreams = ({decperm_of(Q.dream).to_string()
                       for Q in quotient_covers(P)} if P.rank < P.n else set())
            assert ups[i] == dreams

    def test_matroidal_edges_match_closure_oracle(self):
        poset = build_poset(4, "matroidal")
        tables = [oracles.closure_table(P.bases.bases, P.bases.ground)
                  for P in poset.elements]
        want = {(a, b)
                for a, P in enumerate(poset.elements)
                for b, Q in enumerate(poset.elements)
                if Q.rank == P.rank + 1
                and oracles.quotient_via_closures(tables[a], tables[b])}
        assert set(poset.covers) == want
        assert len(poset.covers) == 248

    def test_negative_and_empty_sizes(self):
        for flavor in ("representable", "matroidal"):
            with pytest.raises(DomainError):
                build_poset(-1, flavor)
            empty = build_poset(0, flavor)
            assert len(empty.elements) == 1 and empty.covers == ()

    def test_flavor_and_guards(self):
        with pytest.raises(DomainError):
            build_poset(3, flavor="bogus")
        with pytest.raises(GuardExceededError):
            build_poset(6)
        with pytest.raises(GuardExceededError):
            build_poset(5, "matroidal")


class TestMissingCovers:
    def test_exact_three_at_n_three(self):
        assert missing_at_three() == (
            ("3o1u2u", "3o2o1u"),
            ("3o2u1u", "2o3o1u"),
            ("3o2u1u", "3o2o1u"),
        )

    def test_matroidal_extends_representable(self, monkeypatch):
        """The row walk against the set difference of the two posets' name
        pairs, for n <= 5, pairs and order."""
        monkeypatch.setenv(ENV_MAX_N, "5")
        for n in range(6):
            rep = build_poset(n)
            mat = build_poset(n, "matroidal")
            rep_edges = {(rep.names[a], rep.names[b]) for a, b in rep.covers}
            mat_edges = {(mat.names[a], mat.names[b]) for a, b in mat.covers}
            assert rep_edges <= mat_edges
            assert rep_edges < mat_edges or n < 3
            assert missing_covers(rep, mat) == tuple(sorted(mat_edges
                                                            - rep_edges))

    def test_elements_are_matched_by_name(self):
        """Posets that list their elements in another order give the same
        pairs; a representable cover, or an element with covers, that the
        matroidal poset lacks is an invariant failure."""
        rep, mat = build_poset(3), build_poset(3, "matroidal")

        def reversed_without(poset, dropped=(), extra=()):
            kept = [i for i in reversed(range(len(poset.decperms)))
                    if i not in dropped]
            at = {i: t for t, i in enumerate(kept)}
            return QuotientPoset(
                poset.n, poset.flavor, tuple(poset.decperms[i] for i in kept),
                tuple(sorted((at[a], at[b]) for a, b in poset.covers + extra
                             if a in at and b in at)))

        assert missing_covers(reversed_without(rep), mat) == missing_at_three()
        assert missing_covers(rep, reversed_without(mat)) == missing_at_three()
        with pytest.raises(InvariantError, match="quotient test"):
            missing_covers(
                reversed_without(rep, extra=((rep.bottom, rep.top),)), mat)
        with pytest.raises(InvariantError, match="quotient test"):
            missing_covers(rep, reversed_without(mat, dropped={mat.bottom}))

    def test_refuses_posets_of_other_sizes_or_flavors(self):
        rep, mat = build_poset(3), build_poset(3, "matroidal")
        with pytest.raises(SizeMismatchError):
            missing_covers(build_poset(2), mat)
        for pair in ((mat, rep), (rep, rep), (mat, mat)):
            with pytest.raises(DomainError, match="representable"):
                missing_covers(*pair)


class TestLazyElements:
    """The poset stores decorated permutations; a positroid is built only
    when a caller reads ``elements``, and then once per element."""

    @pytest.mark.parametrize("n", range(6))
    def test_readers_of_the_order_build_no_positroid(self, monkeypatch, n):
        monkeypatch.setenv(ENV_MAX_N, "5")
        poset = build_poset(n)
        maximal_chain_count(poset)
        check_self_dual(poset)
        export_json(poset)
        export_dot(poset)
        missing_covers(poset, build_poset(n, "matroidal"))
        assert "elements" not in vars(poset)

    @pytest.mark.parametrize("n", range(6))
    def test_matroidal_edges_need_no_positroid(self, monkeypatch, n):
        """The matroidal edges come from the decorated permutations'
        necklaces: the build neither builds a positroid nor reads bases,
        and each positroid is built once when ``elements`` is read."""
        monkeypatch.setenv(ENV_MAX_N, "5")
        calls = {"positroid_of": 0, "bases_of": 0}

        def counted(module, name):
            real = getattr(module, name)

            def count(*args):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, count)

        counted(poset_module, "positroid_of")
        counted(positroid_module, "bases_of")
        poset = build_poset(n, "matroidal")
        assert calls == {"positroid_of": 0, "bases_of": 0}
        assert "elements" not in vars(poset)
        assert len(poset.elements) == len(poset.decperms)
        assert calls == {"positroid_of": len(poset.decperms), "bases_of": 0}


class TestSelfDuality:
    @pytest.mark.parametrize("flavor", ["representable", "matroidal"])
    def test_n_three(self, flavor):
        assert check_self_dual(build_poset(3, flavor))

    @pytest.mark.parametrize("flavor", ["representable", "matroidal"])
    def test_a_dropped_edge_breaks_it(self, flavor):
        poset = build_poset(4, flavor)
        broken = QuotientPoset(poset.n, poset.flavor, poset.decperms,
                               poset.covers[1:])
        assert not check_self_dual(broken)
        assert not oracles.self_dual_by_names(broken)


@pytest.mark.parametrize("n, flavor", [
    (n, flavor) for n in range(6) for flavor in ("representable", "matroidal")
] + [(6, "representable")])
def test_build_matches_the_name_indexed_route(monkeypatch, n, flavor):
    monkeypatch.setenv(ENV_MAX_N, "6")
    poset = build_poset(n, flavor)
    want = oracles.build_poset_by_names(n, flavor)
    assert poset.names == want.names
    assert poset.elements == want.elements
    assert poset.covers == want.covers
    assert poset == want
    assert check_self_dual(poset) is True
    if n:  # the name route cannot parse the empty text of n = 0
        assert oracles.self_dual_by_names(poset) is True


@pytest.mark.parametrize("n, covers, names, count, chains", [
    (6, "680c3d2602368a3a", "4f4dd48533851ed2", 9786, 98407),
    (7, "94a3b4ce207f9d79", "323b774ac2f66a7f", 82201, 3550919),
])
def test_representable_posets_are_pinned(monkeypatch, n, covers, names,
                                         count, chains):
    """The compact build gives the covers, names and chain counts of the
    (perm, color)-keyed build it replaced, byte for byte."""
    monkeypatch.setenv(ENV_MAX_N, str(n))
    poset = build_poset(n)

    def digest(x):
        return hashlib.sha256(repr(x).encode()).hexdigest()

    assert digest(poset.covers).startswith(covers)
    assert digest(poset.names).startswith(names)
    assert len(poset.covers) == count
    assert maximal_chain_count(poset) == chains
    assert check_self_dual(poset) is True


@pytest.mark.parametrize("flavor", ["representable", "matroidal"])
@pytest.mark.parametrize("n", range(5))
def test_the_constructor_rebuilds_the_compact_form(n, flavor):
    """A poset given its fields derives the codes, CSR arrays and rank
    index that build_poset stores, and every reader answers alike."""
    poset = build_poset(n, flavor)
    other = build_poset(n, "matroidal" if flavor == "representable"
                        else "representable")
    rebuilt = QuotientPoset(poset.n, poset.flavor, poset.decperms,
                            poset.covers)
    assert rebuilt == poset and hash(rebuilt) == hash(poset)
    assert rebuilt._codes == poset._codes
    assert rebuilt._csr == poset._csr
    assert rebuilt._by_rank == poset._by_rank
    assert rebuilt.names == poset.names
    for a, b in ((rebuilt, poset), (poset, rebuilt)):
        assert maximal_chain_count(a) == maximal_chain_count(b)
        assert check_self_dual(a) == check_self_dual(b) is True
        assert (list(iter_maximal_chains(a))
                == list(iter_maximal_chains(b)))
        pair = (a, other) if flavor == "representable" else (other, a)
        assert missing_covers(*pair) == missing_covers(
            *((b, other) if flavor == "representable" else (other, b)))


@pytest.mark.parametrize("flavor", ["representable", "matroidal"])
def test_the_build_makes_no_decorated_permutation(monkeypatch, flavor):
    """Elements stay codes through the build, the chain count and the
    self-duality check; ``decperms`` is decoded on first read."""
    monkeypatch.setenv(ENV_MAX_N, "5")
    made = []
    DecoratedPermutation._trusted(perm=(), color=())  # compiles the builder
    real = DecoratedPermutation._trusted.__func__

    def counted(cls, **fields):
        made.append(fields)
        return real(cls, **fields)

    monkeypatch.setattr(DecoratedPermutation, "_trusted",
                        classmethod(counted))
    poset = build_poset(5, flavor)
    maximal_chain_count(poset)
    check_self_dual(poset)
    assert made == [] and "decperms" not in vars(poset)
    assert len(poset.decperms) == len(made) == 326


def test_matroidal_covers_at_six_are_pinned(monkeypatch):
    """The candidate buckets of the matroidal build lose no cover: the
    n = 6 edge list is the one the all-pairs route gave."""
    monkeypatch.setenv(ENV_MAX_N, "6")
    covers = build_poset(6, "matroidal").covers
    assert len(covers) == 18076
    assert hashlib.sha256(repr(covers).encode()).hexdigest().startswith(
        "7cf6aedfdf1d6dac")


class TestChains:
    def test_chains_step_through_covers(self):
        poset = build_poset(3)
        edge_set = set(poset.covers)
        index = {p.key: i for i, p in enumerate(poset.elements)}
        count = 0
        for chain in iter_maximal_chains(poset):
            count += 1
            assert [p.rank for p in chain] == [0, 1, 2, 3]
            for p, q in zip(chain, chain[1:]):
                assert (index[p.key], index[q.key]) in edge_set
        assert count == maximal_chain_count(poset)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_bijection_with_dreams(self, n):
        poset = build_poset(n)
        chains = list(iter_maximal_chains(poset))
        dreams = list(enumerate_fpps(n))
        assert len(chains) == len(dreams)
        for chain in chains:
            back = fpp_to_chain(chain_to_fpp(chain))
            assert tuple(p.key for p in back) == tuple(p.key for p in chain)
        for D in dreams:
            assert chain_to_fpp(fpp_to_chain(D)) == D

    def test_fpp_to_chain_needs_complete(self):
        from flagpipes.pipedream import restrict
        with pytest.raises(DomainError):
            fpp_to_chain(restrict(construct_fpp((1, 2), (2, 1)), 1))

    @pytest.mark.parametrize("build", [fpp_to_chain, flag_of_fpp])
    def test_no_gamma_freeness_sweep(self, monkeypatch, build):
        """The walk of the rows' shifts refuses a dream that is not
        gamma-free, so no sweep runs."""
        sweeps = []
        for module in (positroid_module, pipedream_module):
            monkeypatch.setattr(module, "is_gamma_free",
                                lambda D: sweeps.append(D))
        D = construct_fpp((1, 2, 3, 4, 5, 6), (6, 5, 4, 3, 2, 1))
        build(D)
        assert sweeps == []

    @pytest.mark.parametrize("build", [fpp_to_chain, flag_of_fpp])
    def test_a_dream_that_is_not_gamma_free_is_refused(self, build):
        D = PipeDream(cols=4, pivots=(2, 1, 3, 4),
                      grid=("VPXE", "PHEX", "..PX", "...P"))
        with pytest.raises(DomainError, match="^dream is not gamma-free$"):
            build(D)

    def test_chain_to_fpp_rejects_malformed(self):
        good = fpp_to_chain(construct_fpp((1, 2, 3), (3, 1, 2)))
        with pytest.raises(DomainError):
            chain_to_fpp(())
        with pytest.raises(DomainError):
            chain_to_fpp(good[:-1])  # ranks stop short
        with pytest.raises(DomainError):
            chain_to_fpp(tuple(reversed(good)))
        # basis deltas of size two between adjacent links
        from flagpipes.decperm import parse_decperm, positroid_of
        jump = (
            good[0],
            positroid_of(parse_decperm("1u2o3u")),   # lex-min {2}
            positroid_of(parse_decperm("1o2u3o")),   # lex-min {1, 3}
            good[3],
        )
        with pytest.raises(DomainError):
            chain_to_fpp(jump)
        # deltas look fine but the restrictions disagree with the links
        splice = tuple(
            positroid_of(parse_decperm(s))
            for s in ("1u2u3u", "2o1u3u", "3o2o1u", "1o2o3o"))
        with pytest.raises(DomainError):
            chain_to_fpp(splice)
        mixed = fpp_to_chain(construct_fpp((1, 2), (2, 1)))
        with pytest.raises(SizeMismatchError):
            chain_to_fpp((good[0], mixed[1], good[2], good[3]))


class TestExports:
    def test_json_shape(self):
        data = export_json(build_poset(2))
        assert data["n"] == 2
        assert data["flavor"] == "representable"
        assert data["nodes"][0] == {"decperm": "1u2u", "rank": 0}
        assert all(len(edge) == 2 for edge in data["covers"])
        assert len(data["nodes"]) == 5

    def test_dot_shape(self):
        poset = build_poset(2)
        dot = export_dot(poset)
        assert dot.splitlines()[0] == "digraph quotient_poset {"
        assert "rankdir=BT;" in dot
        assert dot.count("rank=same") == 3
        assert dot.rstrip().endswith("}")

    def test_dot_dashed_edges(self):
        mat = build_poset(3, "matroidal")
        dot = export_dot(mat, dashed=missing_at_three())
        assert dot.count("[style=dashed]") == 3
        assert '"3o2u1u" -> "3o2o1u" [style=dashed];' in dot

    def test_dot_dashed_non_cover_is_drawn_once(self):
        rep = build_poset(3)
        dot = export_dot(rep, dashed=missing_at_three() + (("1u2u3u", "1o2u3u"),))
        assert dot.count("[style=dashed]") == 4
        assert dot.count('"3o2u1u" -> "2o3o1u"') == 1

    @pytest.mark.parametrize("dashed", [
        [("1u2u3u", "9o")], [("nope", "1o2u3u")], [("1u2u", "1o2u")]])
    def test_dot_dashed_names_must_be_elements(self, dashed):
        with pytest.raises(DomainError, match="not an element"):
            export_dot(build_poset(3), dashed=dashed)
