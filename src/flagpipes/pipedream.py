"""Pipe dreams on a k x n grid: construction, tracing, and rotation.

A (partial) pipe dream is a grid of six tile kinds, one row per chosen pivot
column.  Rows are numbered 1..k from the top, columns 1..n from the left, and
``pivots[i-1]`` is the column of row i's pivot elbow.  Tiles:

    "P"  pivot elbow   quarter arc, top edge -> right edge
    "X"  cross         two pipes, top->bottom and left->right
    "E"  elbow         two arcs, top->right and left->bottom
    "H"  horizontal    one pipe, left->right
    "V"  vertical      one pipe, top->bottom
    "."  empty         no pipe

Which kind may appear where is forced by the pivots (the "structural" tiles),
except on the Rothe boxes — cells right of their row's pivot and above their
column's pivot (or in a pivot-free column) — which carry either a cross or an
elbow.  Pipes enter at the top edge of every column, numbered by column, only
ever move down or right, and leave through the right or bottom edge.

Tracing reads the grid once, row by row, carrying every pipe at the same
time (see ``_sweep``): pipe exits, horizontal crosses, exit labels and the
gamma-freeness test all come from that one sweep, which records the crosses
only for the readers that ask for them.  The Le enumeration
traces no pipe: on strictly decreasing pivots gamma-freeness is the Le
condition, which reads two column masks per rendered row (see
``enumerate_le_dreams``), so it prunes the fillings instead of sweeping
each one.

A dream is a flag positroid pipe dream (FPP) when it avoids the blocking
pattern: a cross at (i, j), an elbow or pivot elbow below it at (r, j), an
elbow to its right in row i, such that the pipe passing horizontally through
the cross exits at a row >= r (bottom exits count as below every row).
"""

from __future__ import annotations

from itertools import combinations, permutations as _raw_permutations, product
from typing import Iterator

from .config import _Frozen, _check_sizes, _guard
from .exceptions import (
    DomainError,
    MalformedDreamError,
    NotComparableError,
    SizeMismatchError,
)
from .perm import (
    Box,
    Permutation,
    Word,
    all_permutations,
    ascents,
    bruhat_leq,
    inverse,
    validate_permutation,
)

__all__ = [
    "PIVOT",
    "CROSS",
    "ELBOW",
    "HLINE",
    "VLINE",
    "EMPTY",
    "TILES",
    "Tile",
    "PipeDream",
    "LeDream",
    "PipeTrace",
    "construct_fpp",
    "trace_pipes",
    "right_exit_labels",
    "is_gamma_free",
    "box_order",
    "word_y_of_crosses",
    "cross_positions",
    "elbow_count",
    "restrict",
    "rotate_le",
    "enumerate_fpps",
    "enumerate_partial_fpps",
    "enumerate_le_dreams",
]

PIVOT = "P"
CROSS = "X"
ELBOW = "E"
HLINE = "H"
VLINE = "V"
EMPTY = "."
TILES = PIVOT + CROSS + ELBOW + HLINE + VLINE + EMPTY

Tile = str  # one of TILES


def _check_pivots(n: int, pivots: tuple[int, ...]) -> None:
    """Raise unless ``pivots`` are at most n distinct columns in 1..n."""
    k = len(pivots)
    if k > n:
        raise MalformedDreamError(f"more rows ({k}) than columns ({n})")
    if len(set(pivots)) != k or not all(isinstance(c, int) and 1 <= c <= n
                                        for c in pivots):
        raise MalformedDreamError(f"pivots must be distinct in 1..{n}: "
                                  f"{pivots!r}")


def _templates(n: int, pivots: tuple[int, ...]) -> Iterator[list[Tile | None]]:
    """Each row's forced tiles, top to bottom, with None on every Rothe box.

    Left of its row's pivot a column is empty under a pivot above and
    vertical otherwise; right of it, horizontal under a pivot above and a
    box otherwise.  ``left`` and ``right`` hold those two tiles per column,
    and a row's pivot changes its own column's entries for the rows below.
    The pivots must already be checked (see :func:`_check_pivots`).
    """
    left: list[Tile | None] = [VLINE] * n
    right: list[Tile | None] = [None] * n
    for p in pivots:
        yield left[:p - 1] + [PIVOT] + right[p:]
        left[p - 1] = EMPTY
        right[p - 1] = HLINE


class PipeDream(_Frozen):
    """A structurally validated tile grid.

    ``grid`` holds one string of tile letters per row.  Construction checks
    every cell against the pivot layout; Rothe boxes must hold "X" or "E".
    Gamma-freeness is *not* enforced here — see :func:`is_gamma_free`.

    >>> d = construct_fpp((1, 2, 3), (3, 1, 2))
    >>> d.grid
    ('PEE', '.PX', '..P')
    >>> d.tile(2, 3)
    'X'
    """

    _fields = ("cols", "pivots", "grid")
    cols: int
    pivots: tuple[int, ...]
    grid: tuple[str, ...]

    def __init__(self, cols: int, pivots: tuple[int, ...],
                 grid: tuple[str, ...]) -> None:
        self._store(cols=cols, pivots=pivots, grid=grid)
        n, k = self.cols, len(self.pivots)
        if len(self.grid) != k:
            raise MalformedDreamError("one grid row per pivot required")
        _check_pivots(n, self.pivots)
        for i, (row, template) in enumerate(
                zip(self.grid, _templates(n, self.pivots)), start=1):
            if len(row) != n:
                raise MalformedDreamError(f"row {i} has length {len(row)}, "
                                          f"expected {n}")
            for j, (actual, forced) in enumerate(zip(row, template), start=1):
                if actual not in TILES:
                    raise MalformedDreamError(f"unknown tile {actual!r} at "
                                              f"({i}, {j})")
                if forced is None:
                    if actual not in (CROSS, ELBOW):
                        raise MalformedDreamError(
                            f"box ({i}, {j}) must be cross or elbow, "
                            f"got {actual!r}")
                elif actual != forced:
                    raise MalformedDreamError(
                        f"tile at ({i}, {j}) must be {forced!r}, got {actual!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.cols, self.pivots, self.grid)
                    == (other.cols, other.pivots, other.grid))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.cols, self.pivots, self.grid))

    @property
    def rows(self) -> int:
        return len(self.pivots)

    @property
    def is_complete(self) -> bool:
        return self.rows == self.cols

    def tile(self, i: int, j: int) -> Tile:
        """Tile at row i, column j (both 1-indexed)."""
        return self.grid[i - 1][j - 1]

    def box_columns(self, i: int) -> tuple[int, ...]:
        """Columns of row i's Rothe boxes, ascending."""
        row = self.grid[i - 1]
        return tuple(j for j in range(1, self.cols + 1)
                     if row[j - 1] in (CROSS, ELBOW))


def construct_fpp(u: Permutation, v: Permutation) -> PipeDream:
    """The canonical FPP of a Bruhat interval u <= v.

    Rows are filled bottom to top, right to left.  The front ``col[j]`` holds
    the pipe label currently at the working edge of column j; the row's own
    pipe starts as v(i).  A box becomes a cross exactly when its two labels
    (x, col[j]) satisfy x < col[j] with x before col[j] in v; otherwise it is
    an elbow and the labels swap.  The number of elbows is length(v) -
    length(u).

    >>> construct_fpp((1, 2, 3), (3, 1, 2)).grid
    ('PEE', '.PX', '..P')
    >>> construct_fpp((2, 4, 1, 3), (4, 2, 3, 1)).grid
    ('VPXE', 'V.VP', 'PHEH', '..PH')
    """
    u = validate_permutation(u)
    v = validate_permutation(v)
    if len(u) != len(v):
        raise SizeMismatchError(f"construct_fpp: sizes {len(u)} != {len(v)}")
    if not bruhat_leq(u, v):
        raise NotComparableError(f"{u!r} is not below {v!r} in Bruhat order")
    return PipeDream(cols=len(u), pivots=u, grid=_front_rows(u, v))


def _front_rows(u: Permutation, v: Permutation) -> tuple[str, ...]:
    """The rows of the canonical FPP of a Bruhat interval u <= v that the
    caller has already checked: the front walk of :func:`construct_fpp`,
    rows bottom to top and each right to left, writes a cross or an elbow
    on every box of the row templates of ``u``."""
    n = len(u)
    vpos = inverse(v)
    rows = list(_templates(n, u))
    col = [0] * (n + 1)
    for i in range(n, 0, -1):
        x = v[i - 1]
        row = rows[i - 1]
        for j in range(n, 0, -1):
            if row[j - 1] is not None:
                continue
            c = col[j]
            if x < c and vpos[x - 1] < vpos[c - 1]:
                row[j - 1] = CROSS
            else:
                row[j - 1] = ELBOW
                x, col[j] = c, x
        col[u[i - 1]] = x
    if col[1:] != list(range(1, n + 1)):
        raise MalformedDreamError("internal: construction front corrupted")
    return tuple("".join(row) for row in rows)


class PipeTrace(_Frozen):
    """The journey of one pipe through a dream, as :func:`trace_pipes`
    reports it.

    ``horizontal_crosses`` are the cross tiles passed left-to-right, in the
    order the pipe meets them.  ``exit_side`` is "right" (then
    ``exit_index`` is a row) or "bottom" (then it is a column).
    """

    _fields = ("label", "horizontal_crosses", "exit_side", "exit_index")
    label: int
    horizontal_crosses: tuple[Box, ...]
    exit_side: str
    exit_index: int

    def __init__(self, label: int, horizontal_crosses: tuple[Box, ...],
                 exit_side: str, exit_index: int) -> None:
        self._store(label=label, horizontal_crosses=horizontal_crosses,
                    exit_side=exit_side, exit_index=exit_index)


def _sweep(D: PipeDream, crosses: bool = False
           ) -> tuple[list[int], list[int], list[list[Box]] | None]:
    """Where every pipe leaves, in one pass over the grid.

    Returns ``(right, bottom, passes)``: entry ``i - 1`` of ``right`` is the
    label of the pipe leaving the right edge of row i, entry ``j - 1`` of
    ``bottom`` that of the pipe leaving the bottom of column j (0 under a
    pivot column, where no pipe leaves).  With ``crosses``, entry
    ``label - 1`` of ``passes`` lists the cross tiles that pipe passes
    left-to-right; without it ``passes`` is None and no cross is recorded.
    Rows are read top to bottom, each from its pivot (only ``V`` and ``.``
    lie left of it) and, without ``crosses``, from elbow to elbow;
    ``down[j]`` holds the pipe entering column j+1 from above and ``h`` the
    pipe moving right.  The pivot turns ``down[j]`` right, an elbow swaps
    the two, a cross lets ``h`` pass, and ``h`` leaves through the right
    edge at the end of the row; whatever is left in ``down`` leaves through
    the bottom.  Pipes move only down or right, so each pipe meets its
    crosses in sweep order.  The structural validation of
    :class:`PipeDream` guarantees that a pipe reaches every cross and elbow
    from both sides.
    """
    n = D.cols
    passes = [[] for _ in range(n)] if crosses else None
    right: list[int] = []
    down = list(range(1, n + 1))
    for i, (p, row) in enumerate(zip(D.pivots, D.grid), start=1):
        h, down[p - 1] = down[p - 1], 0
        if crosses:
            for j in range(p, n):
                t = row[j]
                if t == ELBOW:
                    h, down[j] = down[j], h
                elif t == CROSS:
                    passes[h - 1].append((i, j + 1))
        else:
            j = row.find(ELBOW, p)
            while j >= 0:
                h, down[j] = down[j], h
                j = row.find(ELBOW, j + 1)
        right.append(h)
    return right, down, passes


def trace_pipes(D: PipeDream) -> tuple[PipeTrace, ...]:
    """Trace every pipe; entry r is the pipe entering the top of column r+1.
    All pipes are traced together in one sweep of the grid.

    >>> [t.exit_side for t in trace_pipes(construct_fpp((1, 2, 3), (3, 1, 2)))]
    ['right', 'right', 'right']
    """
    right, bottom, passes = _sweep(D, crosses=True)
    exits: list[tuple[str, int]] = [("bottom", 0)] * D.cols
    for i, label in enumerate(right, start=1):
        exits[label - 1] = ("right", i)
    for j, label in enumerate(bottom, start=1):
        if label:
            exits[label - 1] = ("bottom", j)
    return tuple(PipeTrace(label=label, horizontal_crosses=tuple(cells),
                           exit_side=side, exit_index=index)
                 for label, ((side, index), cells)
                 in enumerate(zip(exits, passes), start=1))


def right_exit_labels(D: PipeDream) -> dict[int, int]:
    """Map each row to the label of the pipe leaving through its right
    edge, in order of label.

    >>> right_exit_labels(construct_fpp((1, 2, 3), (3, 1, 2)))
    {2: 1, 3: 2, 1: 3}
    """
    right, _, _ = _sweep(D)
    return {i: label for label, i in sorted(zip(right, range(1, D.rows + 1)))}


def is_gamma_free(D: PipeDream) -> bool:
    """Blocking-pattern freeness via the subarea criterion.

    For each pipe, look below every cross it passes through horizontally: an
    elbow or pivot elbow in that column, strictly below the cross and weakly
    above the pipe's exit row (bottom exits bound nothing), is a violation.

    >>> is_gamma_free(construct_fpp((1, 2, 3), (3, 1, 2)))
    True
    >>> is_gamma_free(PipeDream(cols=3, pivots=(1, 2, 3),
    ...                         grid=("PXE", ".PE", "..P")))
    False
    """
    k = D.rows
    grid = D.grid
    right, _, passes = _sweep(D, crosses=True)
    cap = [k] * D.cols
    for i, label in enumerate(right, start=1):
        cap[label - 1] = i
    for last, cells in zip(cap, passes):
        for (i, j) in cells:
            for r in range(i, last):
                if grid[r][j - 1] in (ELBOW, PIVOT):
                    return False
    return True


def box_order(D: PipeDream) -> tuple[tuple[Box, int], ...]:
    """Boxes read bottom-to-top, right-to-left, with their word letters.

    The h-th box from the right in row i carries the letter i + h - 1.

    >>> box_order(construct_fpp((1, 2, 3), (3, 1, 2)))
    (((2, 3), 2), ((1, 3), 1), ((1, 2), 2))
    """
    out: list[tuple[Box, int]] = []
    for i in range(D.rows, 0, -1):
        cols = sorted(D.box_columns(i), reverse=True)
        for h, j in enumerate(cols, start=1):
            out.append(((i, j), i + h - 1))
    return tuple(out)


def word_y_of_crosses(D: PipeDream) -> Word:
    """The subword of box letters supported on the cross tiles.

    >>> word_y_of_crosses(construct_fpp((1, 2, 3), (3, 1, 2)))
    (2,)
    """
    return tuple(letter for (box, letter) in box_order(D)
                 if D.tile(*box) == CROSS)


def cross_positions(D: PipeDream) -> tuple[int, ...]:
    """1-based positions of the crosses within the box reading order.

    >>> cross_positions(construct_fpp((1, 2, 3), (3, 1, 2)))
    (1,)
    """
    return tuple(pos for pos, (box, _) in enumerate(box_order(D), start=1)
                 if D.tile(*box) == CROSS)


def elbow_count(D: PipeDream) -> int:
    """Number of elbow tiles (pivot elbows not counted).

    >>> elbow_count(construct_fpp((1, 2, 3), (3, 1, 2)))
    2
    """
    return sum(row.count(ELBOW) for row in D.grid)


def restrict(D: PipeDream, k: int) -> PipeDream:
    """The partial dream of the first k rows (gamma-freeness is inherited).

    Built unchecked by :meth:`~flagpipes.config._Frozen._trusted`: a forced
    tile of row i depends only on the pivots of rows up to i, so the first
    k rows of a valid dream are a valid dream.

    >>> restrict(construct_fpp((1, 2, 3), (3, 1, 2)), 1).grid
    ('PEE',)
    """
    _check_sizes("restrict", k=k)
    if k > D.rows:
        raise DomainError(f"cannot restrict {D.rows} rows to {k}")
    return PipeDream._trusted(cols=D.cols, pivots=D.pivots[:k],
                              grid=D.grid[:k])


class LeDream(_Frozen):
    """A rotated dream: ragged rows of crosses/elbows in partition shape.

    Row r of the rotation lists the boxes of dream row k+1-r from right to
    left, so the shape is a partition (weakly decreasing row lengths) exactly
    because the pivots decrease.  ``cols`` is the ambient ground-set size and
    ``pivots`` the decreasing pivot columns; both are kept, so distinct
    dreams rotate to distinct LeDreams.
    """

    _fields = ("cols", "pivots", "rows")
    cols: int
    pivots: tuple[int, ...]
    rows: tuple[str, ...]

    def __init__(self, cols: int, pivots: tuple[int, ...],
                 rows: tuple[str, ...]) -> None:
        self._store(cols=cols, pivots=pivots, rows=rows)
        k, n = len(self.pivots), self.cols
        if any(a <= b for a, b in zip(self.pivots, self.pivots[1:])):
            raise MalformedDreamError(f"pivots must strictly decrease: "
                                      f"{self.pivots!r}")
        if len(self.rows) != k:
            raise MalformedDreamError("one rotated row per pivot required")
        for r in range(1, k + 1):
            expect = n - self.pivots[k - r] - (k - r)
            row = self.rows[r - 1]
            if len(row) != expect:
                raise MalformedDreamError(
                    f"rotated row {r} has length {len(row)}, expected {expect}")
            if any(c not in (CROSS, ELBOW) for c in row):
                raise MalformedDreamError(f"rotated rows hold only cross/elbow "
                                          f"tiles: {row!r}")


def rotate_le(D: PipeDream) -> LeDream:
    """Rotate a decreasing-pivot dream into partition shape.

    Accepts either a partial dream whose pivots strictly decrease, or a
    complete dream whose pivot permutation has at most one ascent (then the
    rows up to the ascent are rotated; the rest is the trivial completion).
    Other pivots are refused by the :class:`LeDream` constructor.

    >>> rotate_le(construct_fpp((2, 1, 3), (3, 2, 1))).rows
    ('E', 'E')
    """
    if D.is_complete:
        asc = ascents(D.pivots)
        if len(asc) > 1:
            raise DomainError(f"complete dream pivots have {len(asc)} ascents; "
                              "at most one allowed")
        k = asc[0] if asc else D.rows
        D = restrict(D, k)
    k = D.rows
    rows = []
    for r in range(1, k + 1):
        i = k + 1 - r
        cols = sorted(D.box_columns(i), reverse=True)
        rows.append("".join(D.tile(i, j) for j in cols))
    return LeDream(cols=D.cols, pivots=D.pivots, rows=tuple(rows))


def enumerate_fpps(n: int) -> Iterator[PipeDream]:
    """One FPP per Bruhat pair u <= v, pairs in lexicographic (u, v) order.

    Guarded to n <= 6 (override with POSITROID_MAX_N).

    >>> sum(1 for _ in enumerate_fpps(3))
    19
    """
    _check_sizes("enumerate_fpps", n=n)
    _guard("enumerate_fpps", "enumerate_max_n", n)
    for u in all_permutations(n):
        for v in all_permutations(n):
            if bruhat_leq(u, v):
                yield construct_fpp(u, v)


def _renders(n: int,
             pivots: tuple[int, ...]) -> list[list[tuple[str, int, int]]]:
    """Each row's renders, top to bottom: every cross/elbow filling of the
    row's Rothe boxes, in ``product`` order, as ``(text, hits, danger)``.

    The row's forced tiles and box slots are worked out once.  ``hits`` is
    the mask of the render's elbow columns (bit j for column j + 1), and
    ``danger`` that of its crosses with an elbow to their right.
    """
    rows = []
    for template in _templates(n, pivots):
        slots = [j for j, t in enumerate(template) if t is None]
        renders = []
        for choice in product((CROSS, ELBOW), repeat=len(slots)):
            hits = danger = 0
            # Right to left: a cross meets ``hits`` holding the elbows
            # to its right.
            for j, t in zip(slots[::-1], choice[::-1]):
                template[j] = t
                if t == ELBOW:
                    hits |= 1 << j
                elif hits:
                    danger |= 1 << j
            renders.append(("".join(template), hits, danger))
        rows.append(renders)
    return rows


def _fillings(n: int, pivots: tuple[int, ...]) -> Iterator[PipeDream]:
    """Every cross/elbow filling of the Rothe boxes of ``pivots``, as
    ``product`` walks the boxes in reading order.

    A dream is one choice of rendered row (:func:`_renders`) per row.
    Every cell is forced or a box holding a cross or an elbow, so each
    dream is valid by construction and is built with
    :meth:`~flagpipes.config._Frozen._trusted`.
    """
    texts = [[text for text, _, _ in renders]
             for renders in _renders(n, pivots)]
    for grid in product(*texts):
        yield PipeDream._trusted(cols=n, pivots=pivots, grid=grid)


def _le_grids(rows: list[list[tuple[str, int, int]]], i: int = 0,
              blocked: int = 0,
              above: tuple[str, ...] = ()) -> Iterator[tuple[str, ...]]:
    """The grids of :func:`_renders` rows ``rows[i:]`` below ``above`` that
    keep the Le condition, depth-first in ``product`` order.  ``blocked``
    is the OR of the ``danger`` masks above: a row may follow exactly when
    none of its elbows lies below a cross that has an elbow to its right.
    """
    if i == len(rows):
        yield above
        return
    for text, hits, danger in rows[i]:
        if not hits & blocked:
            yield from _le_grids(rows, i + 1, blocked | danger,
                                 above + (text,))


def enumerate_partial_fpps(n: int, k: int) -> Iterator[PipeDream]:
    """All gamma-free k-row dreams on n columns, any pivot order.

    Guarded to n <= 6 (override with POSITROID_MAX_N).

    >>> sum(1 for _ in enumerate_partial_fpps(3, 2))
    19
    """
    _check_sizes("enumerate_partial_fpps", n=n, k=k)
    _guard("enumerate_partial_fpps", "enumerate_max_n", n)
    for pivots in _raw_permutations(range(1, n + 1), k):
        for D in _fillings(n, pivots):
            if is_gamma_free(D):
                yield D


def enumerate_le_dreams(n: int, k: int) -> Iterator[PipeDream]:
    """All gamma-free k-row dreams with strictly decreasing pivots.

    On such pivots gamma-freeness is Postnikov's Le condition
    (arXiv:math/0609764, section 6): no cross has an elbow to its right in
    its row and an elbow below it in its column.  No pivot lies below a box
    when the pivots descend, so only elbows matter, and the condition
    checks row by row (:func:`_le_grids`).  Only the dreams that keep it
    are built, each with :meth:`~flagpipes.config._Frozen._trusted`, in the
    order of filtering :func:`_fillings` by :func:`is_gamma_free`; the two
    agree on every descending-pivot filling with n <= 8 (109601 of 417199
    fillings at n = 8 are gamma-free).

    >>> sum(1 for _ in enumerate_le_dreams(3, 1))
    7
    """
    _check_sizes("enumerate_le_dreams", n=n, k=k)
    _guard("enumerate_le_dreams", "enumerate_max_n", n)
    # combinations yields increasing tuples; reversed, the pivots descend.
    for chosen in combinations(range(1, n + 1), k):
        pivots = chosen[::-1]
        for grid in _le_grids(_renders(n, pivots)):
            yield PipeDream._trusted(cols=n, pivots=pivots, grid=grid)
