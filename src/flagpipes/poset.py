"""The graded poset of positroids on [n] under the quotient order.

Positroids on [n] biject with decorated permutations, so the poset stores
only their codes (see :class:`~flagpipes.decperm.DecoratedPermutation`),
with its cover edges in CSR arrays.  Two flavors share one container.
"Representable" edges are the right cyclic shifts, which realize exactly
the row-append covers; the row-append route stays as the cross-check of
``verify quotient-covers`` and the tests.  "Matroidal" edges are the bare
quotient test on adjacent ranks, run on rank-increment masks of the bases
each Grassmann necklace names (Oh, arXiv:0803.1018; ``verify
bases-engine`` checks them against the path-family bases).  An element is
tested only against the next rank's elements whose lex-first and lex-last
bases each contain its own: when M is a quotient of N, every element that
raises the rank of a set in M raises it in N, so M's greedy basis in any
order lies inside N's, and these two bases are the greedy bases of
1 < ... < n and of n > ... > 1.  Every representable cover is matroidal;
:func:`missing_covers` reports the difference.  Maximal chains of the
representable flavor biject with complete flag positroid pipe dreams: an
FPP's chain is the walk of right cyclic shifts along its rows, and back
(u, v) is read off where the 2-colored positions and their values grow.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from functools import cached_property
from typing import Iterator

from .config import _Frozen, _as_tuple, _check_sizes, _guard, _keep
from .decperm import (
    DecoratedPermutation,
    _all_codes,
    _inverse_code,
    _necklace_bases,
    _row_shifts,
    _shifts,
    decperm_of,
    positroid_of,
)
from .exceptions import DomainError, InvariantError, SizeMismatchError
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
    """Positroids on [n] as decorated permutations ``decperms``, sorted by
    rank then text form, and rank-adjacent cover edges ``covers``, index
    pairs into them.  Only a compact form is stored: each element's code
    (see :class:`~flagpipes.decperm.DecoratedPermutation`), the edges in
    CSR form, two ``array('i')`` where element i's targets are
    ``targets[offsets[i]:offsets[i + 1]]``, ascending, and the indices of
    each rank.  ``decperms`` is built from the codes and ``covers`` from
    the CSR arrays on each read, so covers given out of order read back
    sorted.  ``names`` and ``elements`` are cached on first read.  The
    constructor refuses a size that is not a non-negative ``int``,
    elements or covers not given as a tuple or a list, an unknown flavor,
    an element that is not a decorated permutation or is on another [n],
    a repeated element and a cover that is not two indices of
    elements."""

    _fields = ("n", "flavor", "decperms", "covers")
    n: int
    flavor: str
    _codes: tuple[bytes, ...]
    _csr: tuple[array, array]
    _by_rank: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, flavor: str,
                 decperms: tuple[DecoratedPermutation, ...],
                 covers: tuple[tuple[int, int], ...]) -> None:
        _check_sizes("QuotientPoset", n=n)
        _check_flavor(flavor)
        decperms = _as_tuple("QuotientPoset", "decperms", decperms)
        covers = _as_tuple("QuotientPoset", "covers", covers)
        if any(type(w) is not DecoratedPermutation for w in decperms):
            raise DomainError("QuotientPoset: an element is not a decorated "
                              "permutation")
        codes = tuple([w.code for w in decperms])
        if any(w.n != n for w in decperms):
            raise DomainError(f"QuotientPoset: an element is not on [{n}]")
        if len(set(codes)) != len(codes):
            raise DomainError("QuotientPoset: an element is repeated")
        # Each cover is checked before the sort, which would compare what
        # it holds.
        if not all(isinstance(edge, (tuple, list)) and len(edge) == 2
                   and all(type(i) is int and 0 <= i < len(codes)
                           for i in edge) for edge in covers):
            raise DomainError(f"QuotientPoset: a cover is not two indices "
                              f"among the {len(codes)} elements")
        edges = sorted(map(tuple, covers))
        sources = [a for a, _ in edges]
        by_rank: list[list[int]] = [[] for _ in range(n + 1)]
        for i, w in enumerate(decperms):
            by_rank[w.rank].append(i)
        self._store(n=n, flavor=flavor, _codes=codes,
                    _csr=(array("i", [bisect_left(sources, i)
                                      for i in range(len(decperms) + 1)]),
                          array("i", [b for _, b in edges])),
                    _by_rank=tuple(map(tuple, by_rank)))

    @property
    def decperms(self) -> tuple[DecoratedPermutation, ...]:
        build = DecoratedPermutation._trusted
        return tuple([build(code=code) for code in self._codes])

    @property
    def covers(self) -> tuple[tuple[int, int], ...]:
        offsets, targets = self._csr
        return tuple([(a, b) for a in range(len(offsets) - 1)
                      for b in targets[offsets[a]:offsets[a + 1]]])

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(w.to_string() for w in self.decperms)

    @cached_property
    def elements(self) -> tuple[Positroid, ...]:
        return tuple(map(positroid_of, self.decperms))

    def rank_indices(self, k: int) -> tuple[int, ...]:
        return self._by_rank[k] if 0 <= k <= self.n else ()

    def _first(self, k: int) -> int:
        for i in self.rank_indices(k):
            return i
        raise DomainError(f"the poset has no element of rank {k}")

    @property
    def bottom(self) -> int:
        return self._first(0)

    @property
    def top(self) -> int:
        return self._first(self.n)


def _check_flavor(flavor: str) -> None:
    if flavor not in FLAVORS:
        raise DomainError(f"unknown flavor {flavor!r}; pick one of {FLAVORS}")


def _outside(mask: int, n: int) -> list[int]:
    """The one-bit masks of the elements of [n] outside ``mask``."""
    return [1 << e for e in range(n) if not mask >> e & 1]


def build_poset(n: int, flavor: str = "representable") -> QuotientPoset:
    """Assemble the poset of all positroids on [n] for one edge flavor.

    The elements are the codes on [n], sorted by rank then text form (the
    :attr:`~QuotientPoset.names`), so each rank is a range of indices; no
    decorated permutation or positroid is built.  An element's
    representable edges come from one walk of the shift kernel
    :func:`~flagpipes.decperm._shifts` on its code: each shift is a code,
    which is looked up, and two choices that give one code raise.  Its
    matroidal edges go to the next rank's elements whose rank-increment
    masks cover its own (see :func:`~flagpipes.positroid.is_quotient`),
    among those in the buckets (lo + e, hi + f), e not in lo and f not in
    hi, of its lex-first and lex-last bases (lo, hi) (see the module
    docstring).

    >>> p = build_poset(3)
    >>> len(p.decperms), len(p.covers)
    (16, 33)
    """
    _check_flavor(flavor)
    _check_sizes("build_poset", n=n)
    _guard("build_poset", f"poset_{flavor}_max_n", n)
    # Text forms are distinct, so the sort never compares two codes.
    listed = sorted(_all_codes(n))
    starts = [bisect_left(listed, (k,)) for k in range(n + 2)]
    names = tuple([text for _, text, _ in listed])
    codes = tuple([code for _, _, code in listed])
    by_rank = tuple([tuple(range(a, b)) for a, b in zip(starts, starts[1:])])
    del listed
    if flavor == "representable":
        index = {code: i for i, code in enumerate(codes)}.__getitem__
        rows = (sorted(map(index, _shifts(code, "covers_by_shift")))
                for code in codes)
    else:
        rows = [[] for _ in codes]
        inc, ends = [], []
        for k, level in enumerate(by_rank):
            for i in level:
                bits = _necklace_bases(codes[i])
                inc.append(_increments(bits, n, k))
                ends.append(((bits & -bits).bit_length() - 1,
                             bits.bit_length() - 1))
        missing = [~x for x in inc]
        for lower, upper in zip(by_rank, by_rank[1:]):
            buckets: dict[tuple[int, int], list[int]] = {}
            for j in upper:
                buckets.setdefault(ends[j], []).append(j)
            for i in lower:
                lo, hi = ends[i]
                x, his = inc[i], _outside(hi, n)
                rows[i] = sorted([j for e in _outside(lo, n) for f in his
                                  for j in buckets.get((lo | e, hi | f), ())
                                  if not x & missing[j]])
    offsets, targets = array("i", [0]), array("i")
    for row in rows:
        targets.extend(row)
        offsets.append(len(targets))
    poset = QuotientPoset._trusted(n=n, flavor=flavor, _codes=codes,
                                   _csr=(offsets, targets), _by_rank=by_rank)
    _keep(poset, "names", names)  # the cache of the lazy property
    return poset


def maximal_chain_count(poset: QuotientPoset) -> int:
    """Number of bottom-to-top cover paths, by rank-layer dynamic counting.

    >>> maximal_chain_count(build_poset(3))
    19
    >>> maximal_chain_count(build_poset(3, "matroidal"))
    22
    """
    offsets, targets = poset._csr
    paths = [0] * (len(offsets) - 1)
    paths[poset.top] = 1
    for k in range(poset.n - 1, -1, -1):
        for i in poset.rank_indices(k):
            paths[i] = sum(map(paths.__getitem__,
                               targets[offsets[i]:offsets[i + 1]]))
    return paths[poset.bottom]


def iter_maximal_chains(poset: QuotientPoset) -> Iterator[tuple[Positroid, ...]]:
    """Yield every bottom-to-top chain as a tuple of elements.

    >>> sum(1 for _ in iter_maximal_chains(build_poset(3)))
    19
    """
    offsets, targets = poset._csr
    chain = [poset.bottom]

    def walk() -> Iterator[tuple[Positroid, ...]]:
        i = chain[-1]
        if i == poset.top:
            yield tuple(poset.elements[j] for j in chain)
            return
        for j in targets[offsets[i]:offsets[i + 1]]:
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
    names = mat.names
    where = {name: i for i, name in enumerate(names)}
    # Each representable element and target as a matroidal index, None
    # where the matroidal poset lacks the name.
    to_mat = [where.get(name) for name in rep.names]
    from_rep = [None] * len(names)
    for a, i in enumerate(to_mat):
        if i is not None:
            from_rep[i] = a
    (rep_offsets, rep_targets), (offsets, targets) = rep._csr, mat._csr
    if any(i is None and rep_offsets[a] < rep_offsets[a + 1]
           for a, i in enumerate(to_mat)):
        raise InvariantError("a representable cover failed the quotient test")
    missing = []
    for i, a in enumerate(from_rep):
        row = targets[offsets[i]:offsets[i + 1]]
        if a is None:
            have = set()
        else:
            have = {to_mat[b]
                    for b in rep_targets[rep_offsets[a]:rep_offsets[a + 1]]}
            if not have.issubset(row):
                raise InvariantError(
                    "a representable cover failed the quotient test")
        missing.extend([(names[i], names[j]) for j in row if j not in have])
    missing.sort()
    return tuple(missing)


def check_self_dual(poset: QuotientPoset) -> bool:
    """Does inverting every boundary permutation reverse all cover edges?
    Each inverse is a code (:func:`~flagpipes.decperm._inverse_code`),
    looked up by code, and each reversed edge is sought in its source's
    ascending targets.

    >>> check_self_dual(build_poset(3))
    True
    """
    index = {code: i for i, code in enumerate(poset._codes)}
    image = [index.get(_inverse_code(code)) for code in poset._codes]
    if None in image:
        return False
    offsets, targets = poset._csr
    for a, want in enumerate(image):
        for b in targets[offsets[a]:offsets[a + 1]]:
            lo, hi = offsets[image[b]], offsets[image[b] + 1]
            k = bisect_left(targets, want, lo, hi)
            if k == hi or targets[k] != want:
                return False
    return True


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
    over = [{j for j, b in enumerate(w.code, 1) if b > j or not b}
            for w in decperms]
    vals = [{w.code[j - 1] or j for j in s} for w, s in zip(decperms, over)]
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
    after the covers.  A dashed entry that is not a pair of names, or a
    name that is not an element, is a domain error.

    >>> print(export_dot(build_poset(2)).splitlines()[0])
    digraph quotient_poset {
    """
    names = poset.names
    known = set(names)
    dashed_set = set()
    for edge in dashed:
        if (type(edge) not in (tuple, list) or len(edge) != 2
                or not all(type(name) is str for name in edge)):
            raise DomainError(f"dashed edge {edge!r} is not a pair of names")
        for name in edge:
            if name not in known:
                raise DomainError(f"dashed edge {edge[0]!r} -> {edge[1]!r}: "
                                  f"{name!r} is not an element of the poset")
        dashed_set.add(tuple(edge))
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
