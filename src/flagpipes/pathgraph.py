"""Basis sets cut out by the non-intersecting path families on a dream.

The network of a partial dream (Postnikov's Le-diagram network) has a source
at every pivot elbow, an internal vertex at every elbow tile, and a sink above
the top edge of every column (virtual row 0).  Each pivot or elbow vertex has
two kinds of out-edge: up to the nearest vertex above it in its column (the
sink if none), and right to the next elbow in its row, if one exists.  A
row's pivot lies left of all its elbows, so paths move up and to the right,
from a source to a sink.

An admissible family chooses one path per source such that all paths are
pairwise vertex-disjoint.  The set of sink columns of a family is a basis;
the collection of all bases of a dream is its basis set.  :func:`bases_of`
reads it off one bottom-up scan of the rows that never lists a family.
"""

from __future__ import annotations

from typing import Iterable

from .config import _Frozen, _guard
from .exceptions import DomainError
from .pipedream import ELBOW, PipeDream

__all__ = [
    "BasisSet",
    "basis_set",
    "bases_of",
]


class BasisSet(_Frozen):
    """The bases of a matroid on [1..n], or on [0..n] when ``offset_zero``.

    ``bases`` holds each basis as a sorted tuple, the tuples themselves in
    lexicographic order.  Use :func:`basis_set` to normalize raw data.
    """

    _fields = ("n", "k", "offset_zero", "bases")
    n: int
    k: int
    offset_zero: bool
    bases: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, k: int, offset_zero: bool,
                 bases: tuple[tuple[int, ...], ...]) -> None:
        self._store(n=n, k=k, offset_zero=offset_zero, bases=bases)
        lo = 0 if self.offset_zero else 1
        seen = set()
        for b in self.bases:
            if len(b) != self.k:
                raise DomainError(f"basis {b!r} does not have rank {self.k}")
            if list(b) != sorted(set(b)):
                raise DomainError(f"basis {b!r} is not strictly increasing")
            if b and (b[0] < lo or b[-1] > self.n):
                raise DomainError(f"basis {b!r} leaves ground [{lo}..{self.n}]")
            seen.add(b)
        if len(seen) != len(self.bases):
            raise DomainError("duplicate bases")
        if list(self.bases) != sorted(self.bases):
            raise DomainError("bases must be listed in lexicographic order")
        if not self.bases:
            raise DomainError("a matroid has at least one basis")

    @property
    def ground(self) -> tuple[int, ...]:
        lo = 0 if self.offset_zero else 1
        return tuple(range(lo, self.n + 1))


def basis_set(n: int, bases: Iterable[Iterable[int]],
              offset_zero: bool = False) -> BasisSet:
    """Normalize raw bases into a :class:`BasisSet`.

    >>> basis_set(3, [{2}, {1}]).bases
    ((1,), (2,))
    """
    normalized = sorted({tuple(sorted(b)) for b in bases})
    if not normalized:
        raise DomainError("a matroid has at least one basis")
    k = len(normalized[0])
    return BasisSet(n=n, k=k, offset_zero=offset_zero, bases=tuple(normalized))


def bases_of(D: PipeDream) -> BasisSet:
    """Sink-column sets of all admissible families of ``D``.

    The rows are read from the bottom up.  A *state* is the set of columns
    in which a path of a partial family, built on the rows read so far, is
    heading up.  In row i a path heading up a column that holds a vertex of
    row i stops there, and row i's own path starts at its pivot; the row's
    vertices are then walked left to right, each path at a vertex going up
    (its column joins the state) or right to the row's next vertex.  A
    branch where two paths meet at one vertex is dropped, and so is a
    branch where a path leaves the row's last vertex to the right.  Paths
    in columns without a vertex in row i pass it unchanged.

    Equal states are merged.  This is sound because paths move only up and
    right: the vertices still to come all lie above row i, so how the family
    can be completed, and which sinks it reaches, depends only on the
    columns heading up and not on the routes taken below.  After row 1 the
    states are exactly the sink sets.  Guarded to ground sets of size 12
    (override with POSITROID_MAX_N).

    >>> from flagpipes.pipedream import construct_fpp, restrict
    >>> bases_of(restrict(construct_fpp((2, 4, 1, 3), (4, 2, 3, 1)), 2)).bases
    ((2, 4),)
    >>> bases_of(restrict(construct_fpp((1, 2, 3), (3, 1, 2)), 1)).bases
    ((1,), (2,), (3,))
    """
    _guard("bases_of", "pathgraph_max_n", D.cols)
    # Bit j - 1 of a state is column j.  While row i is walked, the bits of
    # the columns already passed hold the state above row i and the others
    # the state below it, so one mask carries both.  ``right`` holds the
    # states with a path moving right into the next vertex, ``up`` the
    # others.  The pivot is the row's first vertex, so no path moves right
    # into it.
    states = {0}
    for row, pivot in zip(reversed(D.grid), reversed(D.pivots)):
        bit = 1 << (pivot - 1)
        right = {s for s in states if not s & bit}
        up = {s | bit for s in right}
        for j in range(pivot + 1, D.cols + 1):
            if row[j - 1] != ELBOW:
                continue
            bit = 1 << (j - 1)
            up, right = (up | {s | bit for s in right if not s & bit},
                         {s & ~bit for s in up if s & bit}
                         | {s for s in right if not s & bit})
        states = up
    # Built unchecked by :meth:`~flagpipes.config._Frozen._trusted`: the
    # states are distinct masks, each with one bit per row, and there is at
    # least one, since the family whose paths all go straight up ends in
    # the pivot columns.  Each basis is a tuple of a list, allocated at its
    # exact size (a tuple of a generator keeps its first guess's block).
    cols = range(1, D.cols + 1)
    bases = tuple(sorted(tuple([j for j in cols if s >> (j - 1) & 1])
                         for s in states))
    return BasisSet._trusted(n=D.cols, k=D.rows, offset_zero=False,
                             bases=bases)
