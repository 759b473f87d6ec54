"""Non-intersecting path families on a dream and the basis sets they cut out.

The network of a partial dream (Postnikov's Le-diagram network) has a source
at every pivot elbow, an internal vertex at every elbow tile, and a sink above
the top edge of every column (virtual row 0).  Each pivot or elbow vertex has
two kinds of out-edge: up to the nearest vertex above it in its column (the
sink if none), and right to the next elbow in its row, if one exists.  A
row's pivot lies left of all its elbows, so paths move up and to the right,
from a source to a sink.

An admissible family chooses one path per source such that all paths are
pairwise vertex-disjoint.  The set of sink columns of a family is a basis;
the collection of all bases of a dream is its basis set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .config import _guard
from .exceptions import DomainError
from .pipedream import ELBOW, PIVOT, PipeDream, right_exit_labels

__all__ = [
    "Vertex",
    "Path",
    "BasisSet",
    "basis_set",
    "admissible_collections",
    "bases_of",
    "lex_min_basis",
    "lex_max_basis",
]

Vertex = tuple[int, int]  # (row, column); row 0 is the sink row
Path = tuple[Vertex, ...]


def _successors(D: PipeDream) -> dict[Vertex, tuple[Vertex, ...]]:
    """Each pivot or elbow vertex's out-neighbours, from one row-by-row pass
    over the grid: the nearest vertex above it in its column (the sink if
    none), then the next elbow to its right in its row, if any."""
    above = [0] * (D.cols + 1)  # row of the lowest vertex so far, by column
    succ: dict[Vertex, tuple[Vertex, ...]] = {}
    for i, row in enumerate(D.grid, start=1):
        cols = [j for j, t in enumerate(row, start=1) if t in (PIVOT, ELBOW)]
        for j, right in zip(cols, cols[1:]):
            succ[(i, j)] = ((above[j], j), (i, right))
        if cols:
            succ[(i, cols[-1])] = ((above[cols[-1]], cols[-1]),)
        for j in cols:
            above[j] = i
    return succ


def _paths_from(succ: dict[Vertex, tuple[Vertex, ...]],
                start: Vertex) -> Iterator[Path]:
    """All source-to-sink paths from ``start``, up-moves tried first."""
    stack: list[tuple[Vertex, tuple[Vertex, ...]]] = [(start, (start,))]
    while stack:
        v, walk = stack.pop()
        if v[0] == 0:
            yield walk
            continue
        for w in reversed(succ[v]):
            stack.append((w, walk + (w,)))


def admissible_collections(D: PipeDream) -> list[tuple[Path, ...]]:
    """All vertex-disjoint families, one path per source, in canonical order.

    Families are tuples of paths ordered by source row (top row first) and
    listed sorted by their vertex sequences.  Guarded to ground sets of size
    12 (override with POSITROID_MAX_N).

    >>> from flagpipes.pipedream import construct_fpp, restrict
    >>> D = restrict(construct_fpp((1, 2, 3), (3, 1, 2)), 1)
    >>> [fam[0][-1] for fam in admissible_collections(D)]
    [(0, 1), (0, 2), (0, 3)]
    """
    _guard("admissible_collections", "pathgraph_max_n", D.cols)
    succ = _successors(D)
    sources = enumerate(D.pivots, start=1)  # (row, pivot column)
    per_source = [list(_paths_from(succ, s)) for s in sources]
    families: list[tuple[Path, ...]] = []

    def extend(idx: int, used: set[Vertex], chosen: list[Path]) -> None:
        if idx == len(per_source):
            families.append(tuple(chosen))
            return
        for path in per_source[idx]:
            if used.isdisjoint(path):
                chosen.append(path)
                extend(idx + 1, used | set(path), chosen)
                chosen.pop()

    extend(0, set(), [])
    families.sort()
    return families


@dataclass(frozen=True)
class BasisSet:
    """The bases of a matroid on [1..n], or on [0..n] when ``offset_zero``.

    ``bases`` holds each basis as a sorted tuple, the tuples themselves in
    lexicographic order.  Use :func:`basis_set` to normalize raw data.
    """

    n: int
    k: int
    offset_zero: bool
    bases: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
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

    >>> from flagpipes.pipedream import construct_fpp, restrict
    >>> bases_of(restrict(construct_fpp((2, 4, 1, 3), (4, 2, 3, 1)), 2)).bases
    ((2, 4),)
    """
    sinks = {tuple(sorted(path[-1][1] for path in fam))
             for fam in admissible_collections(D)}
    if not sinks:
        raise DomainError("no admissible family; dream is not gamma-free")
    return basis_set(D.cols, sinks)


def lex_min_basis(D: PipeDream) -> tuple[int, ...]:
    """The lexicographically least basis: the sorted pivot columns.

    >>> from flagpipes.pipedream import construct_fpp, restrict
    >>> lex_min_basis(restrict(construct_fpp((2, 4, 1, 3), (4, 2, 3, 1)), 2))
    (2, 4)
    """
    return tuple(sorted(D.pivots))


def lex_max_basis(D: PipeDream) -> tuple[int, ...]:
    """The lexicographically greatest basis: the sorted right-exit labels.

    >>> from flagpipes.pipedream import construct_fpp, restrict
    >>> lex_max_basis(restrict(construct_fpp((2, 4, 1, 3), (4, 2, 3, 1)), 2))
    (2, 4)
    """
    return tuple(sorted(right_exit_labels(D).values()))
