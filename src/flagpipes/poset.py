"""The graded poset of positroids on [n] under the quotient order.

Positroids on [n] biject with decorated permutations, so the poset stores
only those: its elements are listed straight from the permutations of [n],
keyed in the poset's own loops by their ``(perm, color)`` pairs, and a
positroid is built for an element only when a caller reads
:attr:`QuotientPoset.elements`, for either flavor.  Two flavors share one
container.  "Representable" edges are the right cyclic shifts of
:func:`~flagpipes.decperm.covers_by_shift`, which realize exactly the
row-append covers; the row-append route itself stays as the cross-check of
``verify quotient-covers`` and the tests.  "Matroidal" edges are the bare
quotient test on adjacent ranks, run on one rank-increment mask per
element.  The mask comes from the element's Grassmann necklace, with no
positroid built: by Oh's theorem (arXiv:0803.1018) the bases are the
rank-k sets in the intersection of the n cyclically shifted Schubert
matroids the necklace names (see :func:`~flagpipes.decperm._necklace`),
and ``verify bases-engine`` checks them against the path-family bases.
The build tests an element only against the next rank's elements whose
lex-first and lex-last bases each contain its own: when M is a quotient
of N, every element that raises the rank of a set in M raises it in N, so
M's greedy basis in any order lies inside N's, and these two bases are
the greedy bases of 1 < ... < n and of n > ... > 1.  So the candidates
lose no cover.  Every representable cover is matroidal; the difference is
reported by :func:`missing_covers`.  Maximal chains of the representable
flavor biject with complete flag positroid pipe dreams: an FPP's chain is
the walk of right cyclic shifts along its rows, and back (u, v) is read
off where the 2-colored positions and their values grow.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

from .config import _Frozen, _check_sizes, _guard
from .decperm import (
    OVER,
    DecoratedPermutation,
    _all_decperms,
    _necklace_bases,
    _right_shift_walk,
    _row_shifts,
    decperm_of,
    inverse_decperm,
    positroid_of,
)
from .exceptions import (
    DomainError,
    InvariantError,
    SizeMismatchError,
)
from .pipedream import PipeDream, construct_fpp
from .positroid import Positroid, _increments

__all__ = [
    "QuotientPoset",
    "build_poset",
    "maximal_chain_count",
    "iter_maximal_chains",
    "missing_covers",
    "check_self_dual",
    "chain_to_fpp",
    "fpp_to_chain",
    "export_dot",
    "export_json",
]

FLAVORS = ("representable", "matroidal")


class QuotientPoset(_Frozen):
    """Positroids on [n], stored as their decorated permutations
    ``decperms`` (sorted by rank then text form), with rank-adjacent cover
    edges as index pairs into them.  ``names[i]`` is the text form of
    ``decperms[i]`` and ``elements[i]`` its positroid; both are derived on
    first read and cached."""

    _fields = ("n", "flavor", "decperms", "covers")
    n: int
    flavor: str
    decperms: tuple[DecoratedPermutation, ...]
    covers: tuple[tuple[int, int], ...]

    def __init__(self, n: int, flavor: str,
                 decperms: tuple[DecoratedPermutation, ...],
                 covers: tuple[tuple[int, int], ...]) -> None:
        self._store(n=n, flavor=flavor, decperms=decperms, covers=covers)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(w.to_string() for w in self.decperms)

    @cached_property
    def elements(self) -> tuple[Positroid, ...]:
        return tuple(map(positroid_of, self.decperms))

    @cached_property
    def _by_rank(self) -> tuple[tuple[int, ...], ...]:
        return _indices_by_rank(self.n, self.decperms)

    def rank_indices(self, k: int) -> tuple[int, ...]:
        return self._by_rank[k] if 0 <= k <= self.n else ()

    @property
    def bottom(self) -> int:
        return self.rank_indices(0)[0]

    @property
    def top(self) -> int:
        return self.rank_indices(self.n)[0]


def _indices_by_rank(n: int, decperms) -> tuple[tuple[int, ...], ...]:
    """The indices of the elements of each rank 0..n, in element order,
    from one scan of ``decperms``."""
    by_rank: list[list[int]] = [[] for _ in range(n + 1)]
    for i, w in enumerate(decperms):
        by_rank[w.rank].append(i)
    return tuple(map(tuple, by_rank))


def _outside(mask: int, n: int) -> list[int]:
    """The one-bit masks of the elements of [n] outside ``mask``."""
    return [1 << e for e in range(n) if not mask >> e & 1]


def build_poset(n: int, flavor: str = "representable") -> QuotientPoset:
    """Assemble the poset of all positroids on [n] for one edge flavor.

    The elements are the decorated permutations on [n], listed from the
    permutations of [n] and sorted by rank then text form, which become
    the :attr:`~QuotientPoset.names`.  The representable edges of an
    element are its right cyclic shifts, one walk per element that scans
    the top-completion set of each choice C, which reads only its ends
    ``(min C, max C)``; each shifted
    ``(perm, color)`` pair is looked up in the index, and two choices that
    give one pair raise.  The matroidal edges join each element to those
    of the next rank whose rank-increment masks cover its own (see
    :func:`~flagpipes.positroid.is_quotient`).  Each mask is worked out
    from the element's bases as a set of subsets, read off its Grassmann
    necklace (:func:`~flagpipes.decperm._necklace_bases`, Oh's theorem).
    The next rank's elements are bucketed by their lex-first and lex-last
    bases (lo, hi), the lowest and highest set bits of that set, and a
    rank-k element with ends (lo, hi) is tested only against the buckets
    (lo + e, hi + f) for e not in lo and f not in hi: a quotient's greedy
    bases lie inside its cover's (see the module docstring), so every
    cover is among them.  Neither flavor builds a positroid; the
    :attr:`~QuotientPoset.elements` are built on first read.

    >>> p = build_poset(3)
    >>> len(p.decperms), len(p.covers)
    (16, 33)
    """
    if flavor not in FLAVORS:
        raise DomainError(f"unknown flavor {flavor!r}; pick one of {FLAVORS}")
    _check_sizes("build_poset", n=n)
    _guard("build_poset", f"poset_{flavor}_max_n", n)
    # Text forms are distinct, so the sort never compares two elements.
    named = sorted([(w.rank, w.to_string(), w) for w in _all_decperms(n)])
    decperms = tuple([w for _, _, w in named])
    edges = []
    if flavor == "representable":
        index = {(w.perm, w.color): i for i, w in enumerate(decperms)}
        for i, w in enumerate(decperms):
            edges.extend((i, index[pair]) for pair
                         in _right_shift_walk(w, "covers_by_shift"))
    else:
        inc, ends = [], []
        for w in decperms:
            bits = _necklace_bases(w)
            inc.append(_increments(bits, n, w.rank))
            ends.append(((bits & -bits).bit_length() - 1,
                         bits.bit_length() - 1))
        missing = [~x for x in inc]
        by_rank = _indices_by_rank(n, decperms)
        for lower, upper in zip(by_rank, by_rank[1:]):
            buckets: dict[tuple[int, int], list[int]] = {}
            for j in upper:
                buckets.setdefault(ends[j], []).append(j)
            for i in lower:
                lo, hi = ends[i]
                x, his = inc[i], _outside(hi, n)
                edges.extend((i, j) for e in _outside(lo, n) for f in his
                             for j in buckets.get((lo | e, hi | f), ())
                             if not x & missing[j])
    poset = QuotientPoset(n=n, flavor=flavor, decperms=decperms,
                          covers=tuple(sorted(edges)))
    vars(poset)["names"] = tuple([name for _, name, _ in named])
    return poset


def _up(poset: QuotientPoset) -> list[list[int]]:
    """The up-adjacency of the cover edges: entry i lists the elements
    that cover element i, in edge order."""
    up: list[list[int]] = [[] for _ in poset.decperms]
    for a, b in poset.covers:
        up[a].append(b)
    return up


def maximal_chain_count(poset: QuotientPoset) -> int:
    """Number of bottom-to-top cover paths, by rank-layer dynamic counting.

    >>> maximal_chain_count(build_poset(3))
    19
    >>> maximal_chain_count(build_poset(3, "matroidal"))
    22
    """
    up = _up(poset)
    paths = [0] * len(up)
    paths[poset.top] = 1
    for k in range(poset.n - 1, -1, -1):
        for i in poset.rank_indices(k):
            paths[i] = sum([paths[j] for j in up[i]])
    return paths[poset.bottom]


def iter_maximal_chains(poset: QuotientPoset) -> Iterator[tuple[Positroid, ...]]:
    """Yield every bottom-to-top chain as a tuple of elements.

    >>> sum(1 for _ in iter_maximal_chains(build_poset(3)))
    19
    """
    up = _up(poset)
    chain = [poset.bottom]

    def walk() -> Iterator[tuple[Positroid, ...]]:
        i = chain[-1]
        if i == poset.top:
            yield tuple(poset.elements[j] for j in chain)
            return
        for j in sorted(up[i]):
            chain.append(j)
            yield from walk()
            chain.pop()

    yield from walk()


def missing_covers(rep: QuotientPoset,
                   mat: QuotientPoset) -> tuple[tuple[str, str], ...]:
    """Matroidal cover pairs that no row-append realizes, as boundary-text
    pairs (lower, upper), sorted: the covers of the matroidal poset ``mat``
    that the representable poset ``rep`` on the same [n] lacks.

    >>> missing_covers(build_poset(3), build_poset(3, "matroidal"))
    (('3o1u2u', '3o2o1u'), ('3o2u1u', '2o3o1u'), ('3o2u1u', '3o2o1u'))
    """
    if rep.flavor != "representable" or mat.flavor != "matroidal":
        raise DomainError(f"missing_covers compares a representable and a "
                          f"matroidal poset, got {rep.flavor!r} and "
                          f"{mat.flavor!r}")
    if rep.n != mat.n:
        raise SizeMismatchError(f"missing_covers: posets on [{rep.n}] and "
                                f"[{mat.n}]")
    rep_edges = {(rep.names[a], rep.names[b]) for a, b in rep.covers}
    mat_edges = {(mat.names[a], mat.names[b]) for a, b in mat.covers}
    if not rep_edges <= mat_edges:
        raise InvariantError("a representable cover failed the quotient test")
    return tuple(sorted(mat_edges - rep_edges))


def check_self_dual(poset: QuotientPoset) -> bool:
    """Does inverting every boundary permutation reverse all cover edges?
    Each inverse is looked up by its ``(perm, color)`` pair.

    >>> check_self_dual(build_poset(3))
    True
    """
    lookup = {(w.perm, w.color): i for i, w in enumerate(poset.decperms)}
    image = []
    for w in poset.decperms:
        v = inverse_decperm(w)
        mirrored = lookup.get((v.perm, v.color))
        if mirrored is None:
            return False
        image.append(mirrored)
    edge_set = set(poset.covers)
    return all((image[b], image[a]) in edge_set for a, b in poset.covers)


def fpp_to_chain(D: PipeDream) -> tuple[Positroid, ...]:
    """The maximal chain of row-restriction positroids, ranks 0 through n.

    >>> d = construct_fpp((1, 2, 3), (3, 1, 2))
    >>> [p.rank for p in fpp_to_chain(d)]
    [0, 1, 2, 3]
    """
    if not D.is_complete:
        raise DomainError("chains need a complete dream")
    return tuple(map(positroid_of, _row_shifts(D)))


def chain_to_fpp(chain) -> PipeDream:
    """Rebuild the unique complete dream whose restrictions give the chain:
    step k turns one position u_k 2-colored, 2-colored positions gain one
    value v_k, and the row shifts of ``construct_fpp(u, v)`` must match.

    >>> d = construct_fpp((1, 2, 3), (3, 1, 2))
    >>> chain_to_fpp(fpp_to_chain(d)) == d
    True
    """
    chain = tuple(chain)
    if not chain:
        raise DomainError("empty chain")
    n = chain[0].n
    if [p.rank for p in chain] != list(range(0, n + 1)):
        raise DomainError("chain must step through ranks 0..n")
    if any(p.n != n for p in chain):
        raise SizeMismatchError("chain elements live on different ground sets")
    decperms = tuple(decperm_of(p.dream) for p in chain)
    over = [{j for j, c in enumerate(w.color, 1) if c == OVER}
            for w in decperms]
    vals = [{w.perm[j - 1] for j in s} for w, s in zip(decperms, over)]
    u, v = [], []
    for k in range(n):
        du, dv = over[k + 1] - over[k], vals[k + 1] - vals[k]
        if len(du) != 1 or len(dv) != 1:
            raise DomainError("chain is not the flag of any dream")
        u.append(du.pop())
        v.append(dv.pop())
    D = construct_fpp(tuple(u), tuple(v))
    if _row_shifts(D) != decperms:
        raise DomainError("chain is not the flag of any dream")
    return D


def export_json(poset: QuotientPoset) -> dict:
    """Plain-data form: nodes carry boundary text and rank, edges index them.

    >>> export_json(build_poset(3))["nodes"][0]
    {'decperm': '1u2u3u', 'rank': 0}
    """
    return {
        "n": poset.n,
        "flavor": poset.flavor,
        "nodes": [{"decperm": name, "rank": w.rank}
                  for name, w in zip(poset.names, poset.decperms)],
        "covers": [[a, b] for a, b in poset.covers],
    }


def export_dot(poset: QuotientPoset, dashed=()) -> str:
    """Graphviz text, ranks on shared levels; edges in ``dashed`` (pairs of
    boundary texts) render dashed, and those that are not covers are drawn
    after the covers.  A dashed name that is not an element is a domain
    error.

    >>> print(export_dot(build_poset(2)).splitlines()[0])
    digraph quotient_poset {
    """
    dashed_set = {tuple(e) for e in dashed}
    names = poset.names
    known = set(names)
    for pair in dashed_set:
        for name in pair:
            if name not in known:
                raise DomainError(f"dashed edge {pair[0]!r} -> {pair[1]!r}: "
                                  f"{name!r} is not an element of the poset")
    lines = ["digraph quotient_poset {", "  rankdir=BT;"]
    for k in range(poset.n + 1):
        row = " ".join(f'"{names[i]}";' for i in poset.rank_indices(k))
        lines.append(f"  {{ rank=same; {row} }}")
    drawn = set()
    for a, b in poset.covers:
        pair = (names[a], names[b])
        drawn.add(pair)
        style = " [style=dashed]" if pair in dashed_set else ""
        lines.append(f'  "{pair[0]}" -> "{pair[1]}"{style};')
    for a, b in sorted(dashed_set - drawn):
        lines.append(f'  "{a}" -> "{b}" [style=dashed];')
    lines.append("}")
    return "\n".join(lines)
