"""Exact rational matrices: flag minors, sign rule, zero-column embedding.

Everything here is exact Fraction arithmetic — nonnegativity of a minor is
a sign question, so floating point is refused at the door.  A matrix clears
its denominators row by row once, when it is validated (each row times the
positive lcm of its denominators), and every route works on those integer
rows.  Determinants use fraction-free (Bareiss) elimination; flag minors
are built rank by rank, each rank-r minor by Laplace expansion along row r
over the rank-(r-1) minors, and divided by the product of the row scales
once at the end.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, repeat
from math import lcm, prod

from .config import _Frozen, _as_tuple, _guard
from .exceptions import (
    DomainError,
    NotGeneralizedPermutationError,
    SizeMismatchError,
)

__all__ = [
    "RationalMatrix",
    "rational_matrix",
    "matrix_to_json",
    "det",
    "flag_minors",
    "pivot_columns",
    "check_sign_rule",
    "embed_append",
]


def _exact(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise DomainError("floating point entries are not allowed; "
                          "pass ints, Fractions, or strings like '3/2'")
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        # Fraction expands an exponent exactly: "1e999999999" would be a
        # billion-digit integer.
        if "e" in value.lower():
            raise DomainError(f"cannot read {value!r} as an exact rational: "
                              "exponent notation is not allowed")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise DomainError(f"cannot read {value!r} as an exact rational")


class RationalMatrix(_Frozen):
    """A k-by-n grid of exact rationals; with ``offset_zero`` the columns
    are labeled 0..n-1 instead of 1..n (ground sets through 0).

    >>> rational_matrix([[1, 0], [0, "1/2"]]).entry(2, 2)
    Fraction(1, 2)
    """

    # ``_ints`` and ``_scales`` hold the rows with denominators cleared and
    # the positive row scales (see _integer_row): derived from ``rows``, so
    # not fields, and left out of ==, hash and repr.
    _fields = ("rows", "offset_zero")
    rows: tuple[tuple[Fraction, ...], ...]
    offset_zero: bool
    _ints: tuple[tuple[int, ...], ...]
    _scales: tuple[int, ...]

    def __init__(self, rows: tuple[tuple[Fraction, ...], ...],
                 offset_zero: bool = False) -> None:
        rows = _as_tuple("RationalMatrix", "rows", rows, nested=True)
        if not rows or not rows[0]:
            raise DomainError("matrix dimensions must be positive")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise SizeMismatchError("ragged matrix rows")
            for x in row:
                if not isinstance(x, Fraction):
                    raise DomainError("entries must be Fractions")
        ints, scales = zip(*map(_integer_row, rows))
        self._store(rows=rows, offset_zero=offset_zero, _ints=ints,
                    _scales=scales)

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @property
    def column_labels(self) -> tuple[int, ...]:
        lo = 0 if self.offset_zero else 1
        return tuple(range(lo, lo + self.n))

    def _col_index(self, label: int) -> int:
        """The 0-based index of a column label; a label that is not an
        ``int`` (a boolean among them) labels no column."""
        if type(label) is int:
            idx = label if self.offset_zero else label - 1
            if 0 <= idx < len(self.rows[0]):
                return idx
        raise DomainError(f"no column labeled {label!r}")

    def _check_row(self, i: int) -> None:
        """Refuse a row number outside 1..k (a boolean is no number)."""
        if type(i) is not int or not 1 <= i <= len(self.rows):
            raise DomainError(f"no row {i!r}: rows are 1..{len(self.rows)}")

    def entry(self, i: int, label: int) -> Fraction:
        self._check_row(i)
        return self.rows[i - 1][self._col_index(label)]

    def submatrix(self, row_count: int, labels) -> "RationalMatrix":
        """First ``row_count`` rows restricted to the labeled columns;
        ``row_count`` must lie in 1..k.

        Built without a second validation, by
        :meth:`~flagpipes.config._Frozen._trusted`: the entries and integer
        rows are slices of this matrix's, and the row scales stay those of
        the full rows, which may exceed the lcm of a sliced row's
        denominators; a minor divides by their product all the same, and
        ``Fraction`` reduces the quotient."""
        self._check_row(row_count)
        cols = [self._col_index(l) for l in labels]
        if not cols:
            raise DomainError("matrix dimensions must be positive")
        rows = tuple([tuple([row[c] for c in cols])
                      for row in self.rows[:row_count]])
        return RationalMatrix._trusted(
            rows=rows, offset_zero=False,
            _ints=tuple([tuple([row[c] for c in cols])
                         for row in self._ints[:row_count]]),
            _scales=self._scales[:len(rows)])


def rational_matrix(rows) -> RationalMatrix:
    """Build a matrix from ints, Fractions, or strings such as "-1", "3/2".

    The matrix and each of its rows is a list or a tuple.  A string,
    bytes, a set or a dict is refused: its items would read as entries
    that were never written, or in an order that was not.  One pass reads
    and checks the entries and clears each row's denominators, so the
    matrix is built without a second validation, by
    :meth:`~flagpipes.config._Frozen._trusted`.

    >>> rational_matrix([["-1", "3/2"]]).rows
    ((Fraction(-1, 1), Fraction(3, 2)),)
    """
    if not isinstance(rows, (list, tuple)):
        kind = "the string " if isinstance(rows, str) else ""
        raise DomainError(f"the matrix is {kind}{rows!r}, not a list "
                          "of rows")
    exact, ints, scales = [], [], []
    for i, row in enumerate(rows, 1):
        if not isinstance(row, (list, tuple)):
            kind = "the string " if isinstance(row, str) else ""
            raise DomainError(f"row {i} is {kind}{row!r}, not a list "
                              "of entries")
        entries = tuple([x if type(x) is Fraction else _exact(x)
                         for x in row])
        exact.append(entries)
        cleared, scale = _integer_row(entries)
        ints.append(cleared)
        scales.append(scale)
    if not exact or not exact[0]:
        raise DomainError("matrix dimensions must be positive")
    width = len(exact[0])
    if any(len(entries) != width for entries in exact):
        raise SizeMismatchError("ragged matrix rows")
    return RationalMatrix._trusted(rows=tuple(exact), offset_zero=False,
                                   _ints=tuple(ints), _scales=tuple(scales))


def matrix_to_json(A: RationalMatrix) -> list[list[str]]:
    """String form that parses back exactly.  The form holds only the
    rows, which read back labeled from 1, so a matrix labeled from 0 is
    refused.

    >>> matrix_to_json(rational_matrix([[1, "-1/2"]]))
    [['1', '-1/2']]
    """
    if A.offset_zero:
        raise DomainError("matrix_to_json: a matrix labeled from 0 would "
                          "read back labeled from 1")
    return [[str(x) for x in row] for row in A.rows]


def _integer_row(row) -> tuple[tuple[int, ...], int]:
    """A row of Fractions times the lcm of its denominators: the integer
    row and that (positive) scale.  A minor on rows I is the integer minor
    divided by the product of the scales of I."""
    scale = lcm(*[x.denominator for x in row])
    if scale == 1:
        return tuple([x.numerator for x in row]), scale
    return tuple([x.numerator * (scale // x.denominator) for x in row]), scale


def _bareiss(rows) -> int:
    """Determinant of a nonempty square integer matrix by fraction-free
    elimination on a copy of ``rows``; sizes 1 and 2 by their formulas."""
    size = len(rows)
    if size == 1:
        return rows[0][0]
    if size == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        for r in range(col + 1, size):
            for c in range(col + 1, size):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[size - 1][size - 1]


def det(A: RationalMatrix) -> Fraction:
    """Exact determinant by integer fraction-free elimination.

    >>> det(rational_matrix([[1, 2], [3, 4]]))
    Fraction(-2, 1)
    >>> det(rational_matrix([["1/2", 0], [0, "1/3"]]))
    Fraction(1, 6)
    """
    if A.k != A.n:
        raise SizeMismatchError("determinant needs a square matrix")
    scale = prod(A._scales)
    value = _bareiss(A._ints)
    return Fraction(value) if scale == 1 else Fraction(value, scale)


@lru_cache(maxsize=128)
def _laplace_table(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """For each r-subset S of n column indices, in ``combinations`` order,
    one flat tuple that interleaves each column c of S, first column
    first, with the position among the (r-1)-subsets (same order) of
    S - c."""
    below = {S: i for i, S in enumerate(combinations(range(n), r - 1))}
    return tuple(tuple([x for t in range(r)
                        for x in (S[t], below[S[:t] + S[t + 1:]])])
                 for S in combinations(range(n), r))


def flag_minors(A: RationalMatrix,
                ranks) -> dict[tuple[int, tuple[int, ...]], Fraction]:
    """Exact minors of the first r rows for each r in ranks, keyed by
    (r, column-label subset), ranks ascending and subsets in
    ``combinations`` order.  Ranks are an iterable of ``int``s: a boolean,
    a float or a string is refused, not read as a number, and so is a
    single rank not given in an iterable.

    Every rank up to the largest requested is built from the one below:
    the integer minor on columns S is the Laplace expansion along row r,
    sum over t of (-1)^(r+t) m[r][s_t] M_{r-1}(S - s_t).  The minors of a
    rank sit in a list in ``combinations`` order, and
    :func:`_laplace_table` pairs each s_t with the position of its
    M_{r-1} term.

    >>> mm = flag_minors(rational_matrix([[1, 0], [0, 1]]), (1, 2))
    >>> mm[(1, (1,))], mm[(2, (1, 2))]
    (Fraction(1, 1), Fraction(1, 1))
    """
    try:
        listed = iter(ranks)
    except TypeError:
        raise DomainError(f"ranks must be an iterable of integers, "
                          f"got {ranks!r}") from None
    ranks = tuple(listed)
    for r in ranks:
        if type(r) is not int:
            raise DomainError(f"ranks must be integers, got {r!r}")
    if any(a >= b for a, b in zip(ranks, ranks[1:])):
        raise DomainError("ranks must increase")
    if ranks and not (1 <= ranks[0] and ranks[-1] <= A.k):
        raise DomainError("ranks must lie in 1..k")
    _guard("flag_minors", "minors_max_n", A.n)
    out: dict[tuple[int, tuple[int, ...]], Fraction] = {}
    if not ranks:
        return out
    n, labels = A.n, A.column_labels
    m, scales = A._ints, A._scales
    below = [1]
    scale = 1
    for r in range(1, ranks[-1] + 1):
        row = m[r - 1]
        scale *= scales[r - 1]
        here = []
        for terms in _laplace_table(n, r):
            # After t steps, total is the sum over s <= t of (-1)^(t+s)
            # times term s; at t = r those are the Laplace signs.
            total = 0
            pairs = iter(terms)
            for c in pairs:
                total = row[c] * below[next(pairs)] - total
            here.append(total)
        if r in ranks:
            out.update(zip(zip(repeat(r), combinations(labels, r)),
                           map(Fraction, here, repeat(scale))))
        below = here
    return out


def pivot_columns(A: RationalMatrix) -> tuple[int, ...]:
    """Label of the first nonzero entry in each row.

    >>> pivot_columns(rational_matrix([[0, 1], [1, 0]]))
    (2, 1)
    """
    labels = A.column_labels
    pivots = []
    for i, row in enumerate(A._ints, 1):
        j = next((c for c, x in enumerate(row) if x), None)
        if j is None:
            raise DomainError(f"row {i} is zero and has no pivot")
        pivots.append(labels[j])
    return tuple(pivots)


def _northeast_counts(u: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for j in range(i) if u[j] > u[i])
                 for i in range(len(u)))


def check_sign_rule(A: RationalMatrix) -> bool:
    """For a generalized permutation matrix: do all leading-column minors
    come out nonnegative?  Computed by one route, the pivot-sign rule:
    every pivot sign is (-1) to its northeast-pivot count.  ``verify
    exact-linear-algebra`` compares the rule with the determinants of the
    leading minors on every sign pattern up to 5x5.

    >>> check_sign_rule(rational_matrix([[0, 1], [1, 0]]))
    False
    >>> check_sign_rule(rational_matrix([[0, 1], [-1, 0]]))
    True
    """
    # Row scales are positive, so the integer rows carry the zero pattern
    # and the pivot signs, each the sign of its row's sum.
    m = A._ints
    for i, row in enumerate(m, 1):
        if len(row) - row.count(0) != 1:
            raise NotGeneralizedPermutationError(f"row {i} needs exactly one nonzero")
    for label, column in zip(A.column_labels, zip(*m)):
        if len(column) - column.count(0) != 1:
            raise NotGeneralizedPermutationError(
                f"column {label} needs exactly one nonzero")
    return all((sum(row) > 0) == (e % 2 == 0)
               for row, e in zip(m, _northeast_counts(pivot_columns(A))))


def embed_append(A: RationalMatrix) -> RationalMatrix:
    """Prepend the column (0, ..., 0, (-1)^k) to a (k+1)-row matrix whose
    columns are labeled from 1; the result's columns are labeled from 0.
    Minors avoiding 0 equal those of A; minors through 0 equal the
    first-k-row minors of A.  A matrix already labeled from 0 is refused:
    shifting its labels would break that identity.

    The new column adds no denominator, so each row keeps its scale and
    its integer row gains 0, or (-1)^k times the scale in the last row;
    the result is built by :meth:`~flagpipes.config._Frozen._trusted`.

    >>> B = embed_append(rational_matrix([[1, 0], [0, 1]]))
    >>> B.rows
    ((Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)), (Fraction(-1, 1), Fraction(0, 1), Fraction(1, 1)))
    """
    if A.offset_zero:
        raise DomainError("embed_append needs columns labeled from 1; "
                          "this matrix is labeled from 0")
    sign = -1 if (A.k - 1) % 2 else 1
    zero = Fraction(0)
    return RationalMatrix._trusted(
        rows=tuple([(zero,) + row for row in A.rows[:-1]]
                   + [(Fraction(sign),) + A.rows[-1]]),
        offset_zero=True,
        _ints=tuple([(0,) + row for row in A._ints[:-1]]
                    + [(sign * A._scales[-1],) + A._ints[-1]]),
        _scales=A._scales)
