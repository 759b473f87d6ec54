"""Flags of positroids: row appending and rank-raising covers.

A flag positroid is a chain of positroids on the same ground set, each a
quotient of the next.  A row appended to a positroid's canonical dream
along a nonempty choice of unblocked columns, then standardized, is a
cover; by the paper's theorem it is the right cyclic shift along that
choice, which is how :func:`quotient_covers` builds it.  A dream's rows
are such choices, one per rank, which is how :func:`flag_of_fpp` reads it.
"""

from __future__ import annotations

from .config import _Frozen, _as_tuple, _check_sizes
from .decperm import _by_text, _row_shifts, _shifts, decperm_of, positroid_of
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
    is_quotient,
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
    are untouched.  The new row is the last row template of the new pivots
    (see :func:`~flagpipes.pipedream._templates`), each of its boxes
    crossed, or an elbow where it is a column of C past min(C).  It is
    built unchecked, by :meth:`~flagpipes.config._Frozen._trusted`: its
    pivot column was no pivot column before, so every row above keeps its
    forced tiles.

    >>> d = PipeDream(cols=4, pivots=(4, 2), grid=("VVVP", "VPXH"))
    >>> append_row(d, {1, 3}).grid
    ('VVVP', 'VPXH', 'PHEH')
    """
    C = _choice(C, unblocked_columns(D))
    *_, template = _templates(D.cols, D.pivots + (C[0],))
    elbows = set(C[1:])
    row = "".join(t if t is not None else ELBOW if j in elbows else CROSS
                  for j, t in enumerate(template, 1))
    return PipeDream._trusted(cols=D.cols, pivots=D.pivots + (C[0],),
                              grid=D.grid + (row,))


def quotient_covers(P: Positroid) -> tuple[Positroid, ...]:
    """All rank-(k+1) positroids covering P: one per nonempty choice of
    unblocked columns of its canonical dream, sorted by the text of their
    decorated permutations; requires rank < n.

    The cover along C is the positroid, by
    :func:`~flagpipes.decperm.positroid_of`, of the right cyclic shift
    along C of P's decorated permutation, listed by the walk of
    :func:`~flagpipes.decperm.covers_by_shift`, so P's decorated
    permutation is read once, and P's dream is swept only if it did not
    come from ``positroid_of``.  ``verify quotient-covers`` checks, for
    n <= 4 and every
    choice, that :func:`append_row` then standardizing gives that dream.

    >>> from flagpipes.pipedream import PipeDream
    >>> bottom = Positroid.from_dream(PipeDream(cols=2, pivots=(), grid=()))
    >>> [q.bases.bases for q in quotient_covers(bottom)]
    [((1,),), ((2,),), ((1,), (2,))]
    """
    if P.rank >= P.n:
        raise DomainError("a full-rank positroid has no covers")
    shifts = _shifts(decperm_of(P.dream).code, "quotient_covers")
    return tuple(map(positroid_of, _by_text(shifts)))


class FlagPositroid(_Frozen):
    """A chain of positroids on [n] with strictly increasing ranks, each a
    quotient of the next; partial flags carry an explicit rank list."""

    _fields = ("n", "ranks", "constituents")
    n: int
    ranks: tuple[int, ...]
    constituents: tuple[Positroid, ...]

    def __init__(self, n: int, ranks: tuple[int, ...],
                 constituents: tuple[Positroid, ...]) -> None:
        self._store(n=n, ranks=_as_tuple("FlagPositroid", "ranks", ranks),
                    constituents=_as_tuple("FlagPositroid", "constituents",
                                           constituents))
        _check_sizes("FlagPositroid", n=n)
        if not self.constituents:
            raise DomainError("a flag needs at least one constituent")
        if any(type(p) is not Positroid for p in self.constituents):
            raise DomainError("every constituent must be a Positroid")
        if any(p.n != self.n for p in self.constituents):
            raise SizeMismatchError("constituents live on different ground sets")
        if any(type(r) is not int for r in self.ranks):
            raise DomainError(f"ranks must be integers: {self.ranks!r}")
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

    Each rank is ``positroid_of`` a row shift, a cover of the rank below,
    so :meth:`~flagpipes.config._Frozen._trusted` builds the flag.

    >>> from flagpipes.pipedream import construct_fpp
    >>> f = flag_of_fpp(construct_fpp((1, 2, 3), (3, 1, 2)))
    >>> [p.bases.bases for p in f.constituents]
    [((1,), (2,), (3,)), ((1, 2), (1, 3)), ((1, 2, 3),)]
    """
    shifts = _row_shifts(D)[1:]
    if not shifts:
        raise DomainError("a flag needs at least one constituent")
    return FlagPositroid._trusted(n=D.cols, ranks=tuple(range(1, D.rows + 1)),
                                  constituents=tuple(map(positroid_of, shifts)))
