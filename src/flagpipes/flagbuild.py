"""Flags of positroids: row appending and rank-raising covers.

A flag positroid is a chain of positroids on the same ground set, each a
quotient of the next.  Covers of a rank-k positroid are produced by
appending a row to its canonical dream along a nonempty choice of
unblocked columns.
"""

from __future__ import annotations

from operator import itemgetter

from .config import _Frozen
from .exceptions import DomainError, SizeMismatchError
from .pipedream import (
    CROSS,
    ELBOW,
    PipeDream,
    Tile,
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
    C = _choice(C, unblocked_columns(D))
    return _appended(D, C, _crossed_row(D, C[0]))


def _crossed_row(D: PipeDream, p: int) -> list[Tile]:
    """The tiles of a row appended to D with its pivot at column p and a
    cross on every box: the last row template of the new pivots (see
    :func:`~flagpipes.pipedream._templates`), its boxes crossed."""
    *_, row = _templates(D.cols, D.pivots + (p,))
    return [CROSS if t is None else t for t in row]


def _appended(D: PipeDream, C, crossed: list[Tile]) -> PipeDream:
    """:func:`append_row` along a sorted nonempty choice C that the caller
    has already checked against D's unblocked columns, given the new row's
    ``_crossed_row(D, C[0])``.  The rest of C lies right of the new pivot
    and off every pivot column, so each of its columns is a box of the new
    row, and takes an elbow."""
    row = crossed.copy()
    for j in C[1:]:
        row[j - 1] = ELBOW
    return PipeDream._trusted(cols=D.cols, pivots=D.pivots + (C[0],),
                              grid=D.grid + ("".join(row),))


def quotient_covers(P: Positroid) -> tuple[Positroid, ...]:
    """All rank-(k+1) positroids covering P: one per nonempty choice of
    unblocked columns of its canonical dream, sorted by the text of their
    decorated permutations; requires rank < n.

    The covers are built by the row-append route: each is its appended
    dream standardized, with no gamma-freeness sweep, built by
    :meth:`~flagpipes.config._Frozen._trusted`, and the appended row's
    tiles are worked out once per pivot column, not once per choice.  They
    are named and ordered by the shift route: the cover along C has the
    decorated permutation :func:`~flagpipes.decperm.right_cyclic_shift` of
    P's along C, so P's dream is swept once per walk and no cover's dream
    is swept.  ``verify quotient-covers`` checks, for n <= 4, that the two
    routes give the same covers in the same order, and that a row appended
    along unblocked columns keeps the dream gamma-free.

    >>> from flagpipes.pipedream import PipeDream
    >>> bottom = Positroid.from_dream(PipeDream(cols=2, pivots=(), grid=()))
    >>> [q.bases.bases for q in quotient_covers(bottom)]
    [((1,),), ((2,),), ((1,), (2,))]
    """
    from .decperm import _shift, decperm_of

    if P.rank >= P.n:
        raise DomainError("a full-rank positroid has no covers")
    D, U = P.dream, P.unblocked
    w = decperm_of(D)
    crossed = {p: _crossed_row(D, p) for p in U}
    keys: list[str] = []

    def cover(C) -> Positroid:
        keys.append(_shift(w, C).to_string())
        return Positroid._trusted(
            dream=standardize(_appended(D, C, crossed[C[0]])))

    covers = _each_choice("quotient_covers", U, cover)
    # _each_choice keeps one result per call, in call order, so keys[i]
    # names covers[i]; the sort reads the keys alone.
    return tuple(Q for _, Q in sorted(zip(keys, covers), key=itemgetter(0)))


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
