"""Positroids as decreasing-pivot dreams: quotients, standardization.

A positroid of rank k on [n] is canonically represented by a k-row partial
dream whose pivot columns strictly decrease; identity, equality and hashing
all key on that canonical grid.  ``standardize`` turns any partial dream into
the canonical one without changing its bases, its unblocked columns, its
pivot-column set, or its right-exit pipe set.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterator

from .config import _Frozen, _check_sizes, _guard
from .exceptions import (
    DomainError,
    EmptyChoiceError,
    NotUnblockedError,
    SizeMismatchError,
)
from .pathgraph import BasisSet, bases_of
from .pipedream import (
    CROSS,
    ELBOW,
    HLINE,
    PIVOT,
    VLINE,
    PipeDream,
    _sweep,
    enumerate_le_dreams,
    is_gamma_free,
    rotate_le,
)

__all__ = [
    "Positroid",
    "rank_increments",
    "is_quotient",
    "unblocked_columns",
    "standardize_step",
    "standardize",
    "is_lpm",
    "enumerate_positroids",
]


@lru_cache(maxsize=None)
def _subset_masks(m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sets of subsets of an m-element ground set, as 2^m-bit integers with
    bit S for the subset whose bitmask is S: ``has[i]``, the subsets that
    contain element i, and ``layer[t]``, the subsets of size t."""
    size = 1 << m
    has = tuple(int(("1" * (1 << i) + "0" * (1 << i)) * (size >> i + 1), 2)
                for i in range(m))
    counts = [S.bit_count() for S in reversed(range(size))]
    layer = tuple(int("".join("1" if c == t else "0" for c in counts), 2)
                  for t in range(m + 1))
    return has, layer


@lru_cache(maxsize=None)
def _schubert(m: int, start: int, I: int) -> int:
    """The subsets S of an m-element ground set, as a set of subsets (see
    :func:`_subset_masks`), with |S & P| <= |I & P| for every proper prefix
    P of the cyclic order start, start + 1, ..., start - 1 of the element
    indices: those of size |I| are the bases of the Schubert matroid
    whose least basis in that order is I.  One pass over the prefixes
    keeps ``slack[d]``, the subsets S whose count in the prefix read so far
    is d below I's."""
    has = _subset_masks(m)[0]
    slack = [(1 << (1 << m)) - 1]
    for j in range(m - 1):
        e = (start + j) % m
        inside, outside = has[e], ~has[e]
        if I >> e & 1:
            slack = [(s & inside) | (t & outside)
                     for s, t in zip(slack + [0], [0] + slack)]
        else:
            slack = [(s & outside) | (t & inside)
                     for s, t in zip(slack, slack[1:] + [0])]
    out = 0
    for s in slack:
        out |= s
    return out


def _basis_bits(B: BasisSet) -> int:
    """The bases of B as a set of subsets: bit S for each basis, read as
    the bitmask S of its elements' indices in the ground set."""
    lo = 0 if B.offset_zero else 1
    bit = [1 << e >> lo for e in range(B.n + 1)]
    bits = 0
    for b in B.bases:
        bits |= 1 << sum(map(bit.__getitem__, b))
    return bits


def rank_increments(B: BasisSet) -> int:
    """One bit per (subset, element) pair, set when the element raises the
    rank of the subset.  With the ground set indexed in order and subsets
    read as bitmasks S of those indices, bit ``i * 2**m + S`` (m the size
    of the ground set) stands for adding element ``i`` to ``S``.  The
    bases become one set of subsets (:func:`_basis_bits`) for the kernel
    :func:`_increments`.

    >>> from flagpipes.pathgraph import basis_set
    >>> bin(rank_increments(basis_set(2, [{1}])))
    '0b101'
    """
    return _increments(_basis_bits(B), len(B.ground), B.k)


def _increments(bases: int, m: int, k: int) -> int:
    """:func:`rank_increments` of the rank-k matroid on m elements whose
    bases are the set of subsets ``bases``.

    The work runs on sets of subsets, each a 2^m-bit integer with bit S for
    subset S, so one integer operation treats every subset at once.  The
    bases' bits, closed downwards by one shift per element, are the
    independent sets.  Those of size t, closed upwards, are the sets R_t of
    rank at least t.  Element i raises the rank of S exactly when S + i is
    in R_t and S is not, for t = rank(S) + 1; shifting ``R_t & has[i]``
    down by 2^i moves each S + i onto S.
    """
    has, layer = _subset_masks(m)
    ind = bases
    for i in range(m):
        ind |= (ind & has[i]) >> (1 << i)
    raised = [0] * m
    for t in range(1, k + 1):
        R = ind & layer[t]
        for i in range(m):
            R |= (R & ~has[i]) << (1 << i)
        for i in range(m):
            raised[i] |= (R & has[i]) >> (1 << i) & ~R
    inc = 0
    for i, sets in enumerate(raised):
        inc |= sets << (i << m)
    return inc


def is_quotient(M: BasisSet, Mp: BasisSet) -> bool:
    """Is M a quotient of Mp?  Every element that raises the rank of a
    subset in M must raise it in Mp as well, so M's rank-increment mask may
    set no bit that Mp's leaves clear.  This is closure domination: on every
    subset the closure in Mp sits inside the closure in M.  It implies (and
    is stronger than) the containment facts that every basis of M lies in a
    basis of Mp and every basis of Mp contains a basis of M.

    >>> from flagpipes.pathgraph import basis_set
    >>> is_quotient(basis_set(3, [{1}, {3}]), basis_set(3, [{1, 2}, {2, 3}]))
    True
    >>> is_quotient(basis_set(3, [{2}, {3}]), basis_set(3, [{1, 3}, {2, 3}]))
    False
    """
    if (M.n, M.offset_zero) != (Mp.n, Mp.offset_zero):
        raise SizeMismatchError("is_quotient: ground sets differ")
    return rank_increments(M) & ~rank_increments(Mp) == 0


def unblocked_columns(D: PipeDream) -> tuple[int, ...]:
    """Columns that may receive the pivot or an elbow of an appended row.

    A column is blocked when it is a pivot column or contains a cross whose
    horizontal pipe exits through the bottom boundary.

    >>> from flagpipes.pipedream import construct_fpp, restrict
    >>> d = restrict(construct_fpp((2, 4, 1, 3), (4, 2, 3, 1)), 2)
    >>> unblocked_columns(d)
    (1, 3)
    """
    blocked = set(D.pivots)
    _, bottom, passes = _sweep(D)
    for label in bottom:
        if label:
            blocked.update(j for (_, j) in passes[label - 1])
    return tuple(j for j in range(1, D.cols + 1) if j not in blocked)


def _choice(C, allowed) -> list[int]:
    """A choice C, sorted, after checking that it is nonempty and lies in
    ``allowed``; the error names the least entry outside it."""
    C = sorted(set(C))
    if not C:
        raise EmptyChoiceError("choice set is empty")
    for j in C:
        if j not in allowed:
            raise NotUnblockedError(j)
    return C


def _exchange_index(top, bottom, b: int) -> int | None:
    """0-based index of the exchange column j* of two rows, the lower one
    with its pivot at column b: the first column >= b with a cross in
    ``top`` over an elbow or pivot elbow in ``bottom``; None if there is
    none."""
    for j in range(b - 1, len(top)):
        if top[j] == CROSS and bottom[j] in (ELBOW, PIVOT):
            return j
    return None


def _exchange(pivots: list[int], rows: list[list[str]], i: int) -> None:
    """The exchange of :func:`standardize_step` at ascending rows i and
    i+1, applied in place to a pivot list and rows of tile lists."""
    a, b = pivots[i - 1], pivots[i]
    top, bottom = rows[i - 1], rows[i]
    x = _exchange_index(top, bottom, b)
    top[a - 1], bottom[a - 1] = VLINE, PIVOT
    top[a:b - 1], bottom[a:b - 1] = bottom[a:b - 1], top[a:b - 1]
    top[b - 1], bottom[b - 1] = PIVOT, HLINE
    if x is not None:  # without one, nothing right of b moves
        if x > b - 1:
            top[x], bottom[x] = bottom[x], ELBOW
        top[x + 1:], bottom[x + 1:] = bottom[x + 1:], top[x + 1:]
    pivots[i - 1], pivots[i] = b, a


def standardize_step(D: PipeDream, i: int) -> PipeDream:
    """Exchange pivot rows i and i+1 when their pivots ascend.

    With pivots a = pivots[i-1] < b = pivots[i], the rewrite moves row i+1's
    pivot up to column a and row i's pivot to column b, swaps the tiles
    strictly between the pivot columns, and handles the exchange column j*:
    the first column >= b carrying a cross over an elbow (or over the pivot
    at b itself).  Tiles between b and j* stay put; at j* the top row adopts
    the bottom tile and the bottom row gets an elbow; past j* the rows swap.
    Without an exchange column nothing right of b moves.  Descending pivots
    are a no-op.

    The result is built by :meth:`~flagpipes.config._Frozen._trusted`,
    since the exchange turns a valid pair of rows into a valid pair.
    Nothing left of a moves.  Between a and b each row takes the other's
    tiles, which are exactly its new forced tiles or boxes; right of b the
    two rows hold tiles of one kind per column (both horizontal or both
    boxes), so swapping them keeps each row valid, and the elbow at j*
    lands on a box.  The rows above and below still see both pivot columns
    on the same side as before.

    >>> d = PipeDream(cols=3, pivots=(1, 2), grid=("PXX", ".PX"))
    >>> standardize_step(d, 1).grid
    ('VPX', 'PHX')
    """
    _check_sizes("standardize_step", i=i)
    if not 1 <= i <= D.rows - 1:
        raise DomainError(f"row index {i} out of range for {D.rows} rows")
    if D.pivots[i - 1] > D.pivots[i]:
        return D
    pivots = list(D.pivots)
    rows = [list(row) for row in D.grid]
    _exchange(pivots, rows, i)
    return PipeDream._trusted(cols=D.cols, pivots=tuple(pivots),
                              grid=tuple("".join(row) for row in rows))


def _least_ascent(pivots: list[int], start: int) -> int | None:
    """The least i >= start with pivots[i-1] < pivots[i], or None."""
    for i in range(start, len(pivots)):
        if pivots[i - 1] < pivots[i]:
            return i
    return None


def standardize(D: PipeDream) -> PipeDream:
    """Apply :func:`standardize_step` at the least ascent until pivots descend.

    The steps run in place on a pivot list and rows of tile lists, and one
    dream is built at the end, unchecked, by
    :meth:`~flagpipes.config._Frozen._trusted`, since each exchange keeps
    the grid valid (see :func:`standardize_step`); a dream whose pivots
    already descend is returned as it is.

    >>> standardize(PipeDream(cols=3, pivots=(1, 2),
    ...                       grid=("PXX", ".PX"))).pivots
    (2, 1)
    """
    pivots = list(D.pivots)
    i = _least_ascent(pivots, 1)
    if i is None:
        return D
    rows = [list(row) for row in D.grid]
    while i is not None:
        _exchange(pivots, rows, i)
        # Rows above i - 1 still descend, so the next least ascent is at
        # i - 1 or later.
        i = _least_ascent(pivots, max(1, i - 1))
    return PipeDream._trusted(cols=D.cols, pivots=tuple(pivots),
                              grid=tuple("".join(row) for row in rows))


class Positroid(_Frozen):
    """A positroid, identified by its canonical decreasing-pivot dream.

    The dream determines the bases, so equality and hashing go by the dream
    alone, and ``bases`` is computed from it on first access and cached.
    The constructor checks that the dream is a Le dream: its pivots strictly
    decrease and it is gamma-free.
    """

    _fields = ("dream",)
    dream: PipeDream

    def __init__(self, dream: PipeDream) -> None:
        self._store(dream=dream)
        pivots = self.dream.pivots
        if any(a <= b for a, b in zip(pivots, pivots[1:])):
            raise DomainError("canonical dream needs strictly decreasing pivots"
                              "; use Positroid.from_dream")
        if not is_gamma_free(self.dream):
            raise DomainError("dream is not gamma-free")

    @classmethod
    def from_dream(cls, D: PipeDream) -> "Positroid":
        """Canonicalize any gamma-free partial dream.  The gamma-free test
        runs on D, not on its standardization: standardizing keeps a
        gamma-free dream gamma-free, but also turns many dreams that are
        not into ones that are.  The standardized dream is a Le dream, so
        :meth:`~flagpipes.config._Frozen._trusted` builds the positroid.

        >>> from flagpipes.pipedream import construct_fpp, restrict
        >>> p = Positroid.from_dream(
        ...     restrict(construct_fpp((2, 4, 1, 3), (4, 2, 3, 1)), 2))
        >>> p.rank, p.bases.bases
        (2, ((2, 4),))
        """
        if not is_gamma_free(D):
            raise DomainError("dream is not gamma-free")
        return cls._trusted(dream=standardize(D))

    @cached_property
    def bases(self) -> BasisSet:
        """The path-family bases of the dream, computed once."""
        return bases_of(self.dream)

    @property
    def n(self) -> int:
        return self.dream.cols

    @property
    def rank(self) -> int:
        return self.dream.rows

    @property
    def key(self) -> tuple:
        """The pivot tuple and grid of the dream.  It identifies a positroid
        only within one ground set: the empty positroids on [2] and [3]
        share a key."""
        return (self.dream.pivots, self.dream.grid)

    @property
    def unblocked(self) -> tuple[int, ...]:
        return unblocked_columns(self.dream)


def is_lpm(P: Positroid) -> bool:
    """Lattice-path matroid test: the basis family is a full componentwise
    interval exactly when, in the rotated dream, every row's elbows form a
    suffix and the cross-prefix lengths weakly decrease down the rows.

    >>> from flagpipes.pipedream import construct_fpp, restrict
    >>> is_lpm(Positroid.from_dream(
    ...     restrict(construct_fpp((2, 1, 3), (3, 2, 1)), 2)))
    True
    """
    le = rotate_le(P.dream)
    mu = []
    for row in le.rows:
        first = row.find(ELBOW)
        if first == -1:
            mu.append(len(row))
        else:
            if CROSS in row[first:]:
                return False
            mu.append(first)
    return all(mu[r] >= mu[r + 1] for r in range(len(mu) - 1))


def enumerate_positroids(n: int) -> Iterator[Positroid]:
    """All positroids on [n], ranks ascending, canonical dreams in grid order.
    Built by :meth:`~flagpipes.config._Frozen._trusted` from Le dreams.

    Guarded to n <= 6 (override with POSITROID_MAX_N).

    >>> sum(1 for _ in enumerate_positroids(3))
    16
    """
    _check_sizes("enumerate_positroids", n=n)
    _guard("enumerate_positroids", "enumerate_max_n", n)
    for k in range(0, n + 1):
        dreams = sorted(enumerate_le_dreams(n, k),
                        key=lambda d: (d.pivots, d.grid))
        for D in dreams:
            yield Positroid._trusted(dream=D)
