"""Flags of positroids: row appending and rank-raising covers.

A flag positroid is a chain of positroids on the same ground set, each a
quotient of the next.  Covers of a rank-k positroid are produced by
appending a row to its canonical dream along a nonempty choice of
unblocked columns.
"""

from __future__ import annotations

from .config import _Frozen
from .exceptions import DomainError, SizeMismatchError
from .pipedream import (
    CROSS,
    ELBOW,
    PipeDream,
    _templates,
)
from .positroid import (
    Positroid,
    _choice,
    _each_choice,
    _restriction_positroids,
    is_quotient,
    standardize,
    unblocked_columns,
)

__all__ = [
    "append_row",
    "quotient_covers",
    "FlagPositroid",
    "flag_of_fpp",
]


def append_row(D: PipeDream, C) -> PipeDream:
    """Append row k+1 with pivot at min(C) and elbows at the rest of C.

    C must be a nonempty set of unblocked columns of D; the retained rows
    are untouched.  The result is built unchecked, by
    :meth:`~flagpipes.config._Frozen._trusted`: the new row is its forced
    tiles plus a cross or an elbow on each box, and its pivot column was no
    pivot column before, so every row above keeps its forced tiles.

    >>> d = PipeDream(cols=4, pivots=(4, 2), grid=("VVVP", "VPXH"))
    >>> append_row(d, {1, 3}).grid
    ('VVVP', 'VPXH', 'PHEH')
    """
    return _appended(D, _choice(C, unblocked_columns(D)))


def _appended(D: PipeDream, C) -> PipeDream:
    """:func:`append_row` along a sorted nonempty choice C that the caller
    has already checked against D's unblocked columns."""
    pivots = D.pivots + (C[0],)
    *_, row = _templates(D.cols, pivots)
    chosen = set(C)
    for j, t in enumerate(row, start=1):
        if t is None:
            row[j - 1] = ELBOW if j in chosen else CROSS
    return PipeDream._trusted(cols=D.cols, pivots=pivots,
                              grid=D.grid + ("".join(row),))


def quotient_covers(P: Positroid) -> tuple[Positroid, ...]:
    """All rank-(k+1) positroids covering P: one per nonempty choice of
    unblocked columns of its canonical dream; requires rank < n.

    This is the row-append route.  The poset takes the same covers from the
    cyclic shifts of :func:`~flagpipes.decperm.covers_by_shift`, and
    ``verify quotient-covers`` checks that the two routes agree, and that a
    row appended along unblocked columns keeps the dream gamma-free: so
    each cover is its appended dream standardized, with no gamma-freeness
    sweep, and each is built by :meth:`~flagpipes.config._Frozen._trusted`.

    >>> from flagpipes.pipedream import PipeDream
    >>> bottom = Positroid.from_dream(PipeDream(cols=2, pivots=(), grid=()))
    >>> [q.bases.bases for q in quotient_covers(bottom)]
    [((1,),), ((2,),), ((1,), (2,))]
    """
    from .decperm import decperm_of

    if P.rank >= P.n:
        raise DomainError("a full-rank positroid has no covers")
    return tuple(sorted(
        _each_choice("quotient_covers", P.unblocked,
                     lambda C: Positroid._trusted(
                         dream=standardize(_appended(P.dream, C)))),
        key=lambda Q: decperm_of(Q.dream).to_string()))


class FlagPositroid(_Frozen):
    """A chain of positroids on [n] with strictly increasing ranks, each a
    quotient of the next; partial flags carry an explicit rank list."""

    _fields = ("n", "ranks", "constituents")
    n: int
    ranks: tuple[int, ...]
    constituents: tuple[Positroid, ...]

    def __init__(self, n: int, ranks: tuple[int, ...],
                 constituents: tuple[Positroid, ...]) -> None:
        self._store(n=n, ranks=ranks, constituents=constituents)
        if not self.constituents:
            raise DomainError("a flag needs at least one constituent")
        if any(p.n != self.n for p in self.constituents):
            raise SizeMismatchError("constituents live on different ground sets")
        if self.ranks != tuple(p.rank for p in self.constituents):
            raise DomainError("rank list disagrees with constituent ranks")
        if any(a >= b for a, b in zip(self.ranks, self.ranks[1:])):
            raise DomainError("ranks must strictly increase")
        for p, q in zip(self.constituents, self.constituents[1:]):
            if not is_quotient(p.bases, q.bases):
                raise DomainError(
                    f"rank-{p.rank} constituent is not a quotient of rank-{q.rank}")


def flag_of_fpp(D: PipeDream) -> FlagPositroid:
    """The flag of row-restrictions of a dream, ranks 1 through D.rows.

    >>> from flagpipes.pipedream import construct_fpp
    >>> f = flag_of_fpp(construct_fpp((1, 2, 3), (3, 1, 2)))
    >>> [p.bases.bases for p in f.constituents]
    [((1,), (2,), (3,)), ((1, 2), (1, 3)), ((1, 2, 3),)]
    """
    ranks = tuple(range(1, D.rows + 1))
    return FlagPositroid(n=D.cols, ranks=ranks,
                         constituents=_restriction_positroids(D, ranks))
