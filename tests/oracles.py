"""Slow, independent reference routes used only by the tests.

Every function here recomputes a quantity the library computes elsewhere,
by a deliberately different method: cofactor expansion instead of
fraction-free elimination, flats and closures instead of rank-increment
masks, sorted-prefix scans written out from scratch, and so on.  Nothing under
``src/`` imports this module; agreement between the two routes is what the
comparison tests certify.  Everything is exponential-time and meant for the
tiny sizes the tests use.  A few plain helpers that only the tests and the
routes here need (permutation composition and words, the dual of a basis
family, the basis-exchange matroid test, a dream assembled from a
cross/elbow value per box, the exit permutation and trivial completion of
a dream, the list of every decorated permutation, the
0-embedding of a cover and its dream, the matroid of a matrix and the shape
predicates of a nonnegative witness matrix) live here too, rather than in
the library.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm

from flagpipes.decperm import (
    DecoratedPermutation,
    decperm_of,
    inverse_decperm,
    parse_decperm,
)
from flagpipes.exceptions import (
    DomainError,
    EmptyChoiceError,
    MalformedDreamError,
    NotUnblockedError,
    SizeMismatchError,
)
from flagpipes.flagbuild import append_row
from flagpipes.perm import all_permutations, identity, inverse, right_multiply
from flagpipes.pipedream import (
    CROSS,
    ELBOW,
    EMPTY,
    HLINE,
    PIVOT,
    VLINE,
    PipeDream,
    PipeTrace,
    construct_fpp,
    is_gamma_free,
    restrict,
    right_exit_labels,
)
from flagpipes.pathgraph import basis_set
from flagpipes.poset import QuotientPoset
from flagpipes.positroid import (
    Positroid,
    enumerate_positroids,
    standardize,
)
from flagpipes.ratmat import det, flag_minors, pivot_columns


class NotACoverError(DomainError):
    """A pair of positroids is not an elementary quotient cover."""


class RankDeficientError(DomainError):
    """A matrix whose top rows must be full rank is rank deficient."""


# ---------------------------------------------------------------- determinants

def laplace_det(rows) -> Fraction:
    """Cofactor expansion along the first row."""
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise ValueError("laplace_det needs a square matrix")
    if size == 0:
        return Fraction(1)
    if size == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(size):
        if rows[0][j] == 0:
            continue
        minor = [list(r[:j]) + list(r[j + 1:]) for r in rows[1:]]
        term = Fraction(rows[0][j]) * laplace_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def minor_of(rows, row_count: int, cols) -> Fraction:
    """Determinant of the submatrix on the top rows and the given columns,
    columns numbered from 1."""
    picked = [[Fraction(rows[i][j - 1]) for j in cols] for i in range(row_count)]
    return laplace_det(picked)


def flag_minors_by_det(A, ranks) -> dict:
    """Flag minors one subset at a time: a fresh elimination determinant of
    the top-r submatrix per column subset, keyed and ordered like
    ``flag_minors``."""
    return {(r, S): det(A.submatrix(r, S))
            for r in ranks for S in combinations(A.column_labels, r)}


def flag_minors_by_slicing(A, ranks) -> dict:
    """Flag minors by the Laplace expansion that keys each rank's minors by
    column subset and finds every lower minor by slicing a deleted column
    out of the subset: the route ``flag_minors`` used before its index
    tables, same keys, values and order."""
    ranks = tuple(ranks)
    out: dict = {}
    if not ranks:
        return out
    labels = A.column_labels
    m, scales = [], []
    for row in A.rows[:ranks[-1]]:
        scale = lcm(*(x.denominator for x in row))
        scales.append(scale)
        m.append([x.numerator * (scale // x.denominator) for x in row])
    below = {(): 1}
    scale = 1
    for r in range(1, ranks[-1] + 1):
        row = dict(zip(labels, m[r - 1]))
        scale *= scales[r - 1]
        first_sign = 1 if r % 2 else -1
        here = {}
        for S in combinations(labels, r):
            total = 0
            sign = first_sign
            for t, c in enumerate(S):
                x = row[c]
                if x:
                    total += sign * x * below[S[:t] + S[t + 1:]]
                sign = -sign
            here[S] = total
        if r in ranks:
            for S, v in here.items():
                out[(r, S)] = Fraction(v, scale)
        below = here
    return out


# --------------------------------------------------------- permutation algebra

def longest(n: int):
    """The longest element (n, n-1, ..., 1)."""
    return tuple(range(n, 0, -1))


def compose(a, b):
    """The composite ``i -> a(b(i))``."""
    if len(a) != len(b):
        raise SizeMismatchError(f"compose: sizes {len(a)} != {len(b)}")
    return tuple(a[x - 1] for x in b)


def word_to_perm(n: int, word):
    """Evaluate a word in adjacent transpositions, multiplying left to right."""
    p = identity(n)
    for letter in word:
        p = right_multiply(p, letter)
    return p


def inversions(u) -> frozenset[tuple[int, int]]:
    """Value pairs (a, b) with a < b and a appearing after b in ``u``."""
    pos = inverse(u)
    n = len(u)
    return frozenset(
        (a, b)
        for a, b in combinations(range(1, n + 1), 2)
        if pos[a - 1] > pos[b - 1]
    )


def rothe_reading_word(u):
    """Letters of the Rothe diagram {(i, j) : u(i) < j and u^{-1}(j) > i},
    read bottom to top and each row right to left: the h-th box from the
    right in row i carries the letter i + h - 1."""
    n = len(u)
    pos = inverse(u)
    letters = []
    for i in range(n, 0, -1):
        boxes = sum(1 for j in range(u[i - 1] + 1, n + 1) if pos[j - 1] > i)
        letters.extend(range(i, i + boxes))
    return tuple(letters)


# ------------------------------------------------------------ Bruhat interval

def sorted_prefix_leq(u, v) -> bool:
    """Order two permutations by comparing every sorted prefix entrywise."""
    if len(u) != len(v):
        raise ValueError("lengths differ")
    for i in range(1, len(u)):
        for a, b in zip(sorted(u[:i]), sorted(v[:i])):
            if a > b:
                return False
    return True


def interval_restriction_bases(u, v, k: int) -> tuple[tuple[int, ...], ...]:
    """Sorted sets of the first k values, over all permutations between
    ``u`` and ``v``; empty when the pair is not comparable."""
    n = len(u)
    out = {
        tuple(sorted(w[:k]))
        for w in permutations(range(1, n + 1))
        if sorted_prefix_leq(u, w) and sorted_prefix_leq(w, v)
    }
    return tuple(sorted(out))


# ------------------------------------------------------------------- matroids

def dual(B):
    """Complement every basis within its ground set."""
    ground = set(B.ground)
    return basis_set(B.n, (ground - set(b) for b in B.bases),
                     offset_zero=B.offset_zero)


def rank_increments_by_bases(B) -> int:
    """Rank-increment bits by a max over the bases for each subset: bit
    ``S * m + i`` (m the size of the ground set, S a bitmask of ground
    indices) is set when element ``i`` raises the rank of S."""
    ground = B.ground
    m = len(ground)
    place = {e: i for i, e in enumerate(ground)}
    masks = [sum(1 << place[e] for e in b) for b in B.bases]
    rank = [max((S & b).bit_count() for b in masks) for S in range(1 << m)]
    inc = 0
    for S in range(1 << m):
        for i in range(m):
            if rank[S | 1 << i] > rank[S]:
                inc |= 1 << (S * m + i)
    return inc


def max_overlap_rank(bases, S) -> int:
    S = set(S)
    return max(len(S & set(b)) for b in bases)


def is_matroid(B) -> bool:
    """Basis exchange: for b in B1-B2 some c in B2-B1 re-completes B1."""
    members = set(B.bases)
    for b1 in members:
        s1 = set(b1)
        for b2 in members:
            s2 = set(b2)
            for x in s1 - s2:
                if not any(tuple(sorted((s1 - {x}) | {y})) in members
                           for y in s2 - s1):
                    return False
    return True


def is_matroid_via_rank_axioms(bases, ground) -> bool:
    """Certify a basis family through the rank axioms instead of basis
    exchange: unit increase, submodularity, and agreement between the family
    and the sets the induced rank function declares to be bases."""
    family = {frozenset(b) for b in bases}
    if not family:
        return False
    sizes = {len(b) for b in family}
    if len(sizes) != 1:
        return False
    k = sizes.pop()
    ground = tuple(ground)
    subsets = [
        frozenset(e for i, e in enumerate(ground) if bits >> i & 1)
        for bits in range(2 ** len(ground))
    ]
    rank = {S: max_overlap_rank(family, S) for S in subsets}
    for S in subsets:
        for e in ground:
            if e not in S and not rank[S] <= rank[S | {e}] <= rank[S] + 1:
                return False
    for A in subsets:
        for B in subsets:
            if rank[A | B] + rank[A & B] > rank[A] + rank[B]:
                return False
    derived = {S for S in subsets if len(S) == k and rank[S] == k}
    return derived == family


def flats_of(bases, ground) -> frozenset:
    """All closed sets: adding any outside element raises the rank."""
    ground = tuple(ground)
    out = set()
    for bits in range(2 ** len(ground)):
        S = frozenset(e for i, e in enumerate(ground) if bits >> i & 1)
        r = max_overlap_rank(bases, S)
        if all(max_overlap_rank(bases, S | {e}) > r
               for e in ground if e not in S):
            out.add(S)
    return frozenset(out)


def quotient_via_flats(lower_bases, upper_bases, ground) -> bool:
    """Quotient test by the flats route: every set closed in the lower
    matroid must be closed in the upper one as well."""
    return flats_of(lower_bases, ground) <= flats_of(upper_bases, ground)


def closure_table(bases, ground) -> tuple[frozenset, ...]:
    """The closure of every subset of the ground set, subsets listed in the
    order of their bitmasks over ``ground``: each subset together with every
    element whose addition leaves its rank unchanged."""
    ground = tuple(ground)
    out = []
    for bits in range(2 ** len(ground)):
        S = frozenset(e for i, e in enumerate(ground) if bits >> i & 1)
        r = max_overlap_rank(bases, S)
        out.append(S | {e for e in ground
                        if max_overlap_rank(bases, S | {e}) == r})
    return tuple(out)


def quotient_via_closures(lower_table, upper_table) -> bool:
    """Quotient test by closure domination, on two :func:`closure_table`
    results over one ground set: on every subset the closure in the upper
    matroid must sit inside the closure in the lower one."""
    return all(up <= low for low, up in zip(lower_table, upper_table))


def elementary_quotient_via_extension(lower_bases, upper_bases, n: int) -> bool:
    """Adjacent-rank quotient test via a one-element extension: the lower
    bases with a new element 0 added, together with the upper bases
    unchanged, must form a matroid on {0, 1, ..., n}."""
    family = {frozenset(b) | {0} for b in lower_bases}
    family |= {frozenset(b) for b in upper_bases}
    return is_matroid_via_rank_axioms(family, range(n + 1))


# ------------------------------------------------------------------ fillings

def structural_tile(pivots, i: int, j: int):
    """The forced tile at (i, j), or None when (i, j) is a Rothe box, read
    off the pivots cell by cell: the pivot elbow on row i's pivot; left of
    it vertical unless a row above has its pivot in column j (then empty);
    right of it horizontal under such a pivot and a box otherwise."""
    ui = pivots[i - 1]
    if j == ui:
        return PIVOT
    try:
        pivot_row = pivots.index(j) + 1
    except ValueError:
        pivot_row = None
    below_or_absent = pivot_row is None or pivot_row > i
    if j > ui:
        return None if below_or_absent else HLINE
    return VLINE if below_or_absent else EMPTY


def dream_from_fill(n: int, pivots, fill) -> PipeDream:
    """Assemble a dream from its pivots and a cross/elbow value per box,
    the boxes found by :func:`structural_tile` and the grid validated by
    the public constructor; a missing box or a filled cell that is no box
    raises."""
    pivots = tuple(pivots)
    rows = []
    used = 0
    for i in range(1, len(pivots) + 1):
        row = []
        for j in range(1, n + 1):
            t = structural_tile(pivots, i, j)
            if t is None:
                try:
                    t = fill[(i, j)]
                except KeyError:
                    raise MalformedDreamError(f"no fill for box ({i}, {j})")
                used += 1
            row.append(t)
        rows.append("".join(row))
    if used != len(fill):
        raise MalformedDreamError("fill mentions cells that are not boxes")
    return PipeDream(cols=n, pivots=pivots, grid=tuple(rows))


def front_fill(u, v) -> dict:
    """The cross/elbow value of every box of the canonical FPP of u <= v,
    as a box -> tile dict: the front walk of ``construct_fpp``, rows bottom
    to top and each right to left, over boxes found cell by cell."""
    n = len(u)
    vpos = {x: i for i, x in enumerate(v)}
    fill = {}
    col = [0] * (n + 1)
    for i in range(n, 0, -1):
        x = v[i - 1]
        for j in range(n, 0, -1):
            if structural_tile(u, i, j) is not None:
                continue
            c = col[j]
            if x < c and vpos[x] < vpos[c]:
                fill[(i, j)] = CROSS
            else:
                fill[(i, j)] = ELBOW
                x, col[j] = c, x
        col[u[i - 1]] = x
    return fill


def fpp_by_fill(u, v) -> PipeDream:
    """``construct_fpp`` of a Bruhat interval the caller has checked, by
    the box -> tile route: :func:`front_fill` assembled by
    :func:`dream_from_fill`."""
    return dream_from_fill(len(u), u, front_fill(u, v))


def dle_by_fill(dp) -> PipeDream:
    """``dle_of`` by the box -> tile route: the 2-colored rows of
    :func:`front_fill` on the interval of the pivot order, assembled by
    :func:`dream_from_fill`."""
    over = sorted((j for j, c in enumerate(dp.color, 1) if c == 2),
                  reverse=True)
    under = sorted((j for j, c in enumerate(dp.color, 1) if c == 1),
                   reverse=True)
    u = tuple(over + under)
    v = tuple(dp.perm[j - 1] for j in u)
    if not sorted_prefix_leq(u, v):
        raise DomainError("decorated permutation has no gamma-free dream")
    fill = front_fill(u, v)
    return dream_from_fill(dp.n, over, {box: t for box, t in fill.items()
                                        if box[0] <= len(over)})


def fillings_by_fill(n: int, pivots):
    """Every cross/elbow filling of the Rothe boxes of ``pivots``, the boxes
    listed in reading order and each filling assembled and validated by
    ``dream_from_fill``."""
    boxes = [(i, j)
             for i in range(1, len(pivots) + 1)
             for j in range(1, n + 1)
             if structural_tile(pivots, i, j) is None]
    for choice in product((CROSS, ELBOW), repeat=len(boxes)):
        yield dream_from_fill(n, pivots, dict(zip(boxes, choice)))


def le_dreams_by_fill(n: int, k: int):
    """``enumerate_le_dreams`` on validated fillings."""
    for chosen in combinations(range(1, n + 1), k):
        pivots = tuple(sorted(chosen, reverse=True))
        yield from filter(is_gamma_free, fillings_by_fill(n, pivots))


def partial_fpps_by_fill(n: int, k: int):
    """``enumerate_partial_fpps`` on validated fillings."""
    for pivots in permutations(range(1, n + 1), k):
        yield from filter(is_gamma_free, fillings_by_fill(n, pivots))


# ------------------------------------------------------------------ pipe walks

def _walk_one(D, start_col: int) -> PipeTrace:
    """Follow the pipe entering the top of one column tile by tile, with
    its heading, until it leaves the grid."""
    k, n = D.rows, D.cols
    row, col, heading = 1, start_col, "down"
    horiz = []
    while row <= k and col <= n:
        t = D.tile(row, col)
        if heading == "down":
            if t in (VLINE, CROSS):
                row += 1
            elif t in (ELBOW, PIVOT):
                heading = "right"
                col += 1
            else:
                raise MalformedDreamError(
                    f"pipe {start_col} entered {t!r} at ({row}, {col}) from the top")
        else:
            if t == CROSS:
                horiz.append((row, col))
                col += 1
            elif t == HLINE:
                col += 1
            elif t == ELBOW:
                heading = "down"
                row += 1
            else:
                raise MalformedDreamError(
                    f"pipe {start_col} entered {t!r} at ({row}, {col}) from the left")
    if col > n:
        side, index = "right", row
    else:
        side, index = "bottom", col
    return PipeTrace(label=start_col, horizontal_crosses=tuple(horiz),
                     exit_side=side, exit_index=index)


def trace_pipes_by_walk(D) -> tuple[PipeTrace, ...]:
    """Every pipe walked on its own from its top entry, one at a time."""
    return tuple(_walk_one(D, j) for j in range(1, D.cols + 1))


# --------------------------------------------------------------- path families

def path_families_by_edges(D) -> list[tuple[tuple[tuple[int, int], ...], ...]]:
    """Admissible path families from an explicit edge list: every pivot or
    elbow vertex gets an up-edge to the nearest vertex above it in its
    column (the sink (0, j) if none), and every elbow an in-edge from the
    nearest vertex left of it in its row.  Paths are grown recursively one
    edge at a time; families are every product of one path per source
    (top row first) whose paths share no vertex, sorted."""
    sources = [(i, D.pivots[i - 1]) for i in range(1, D.rows + 1)]
    elbows = [(i, j) for i in range(1, D.rows + 1)
              for j in range(1, D.cols + 1) if D.tile(i, j) == ELBOW]
    vertices = sources + elbows
    edges = []
    for (i, j) in vertices:
        above = [r for (r, c) in vertices if c == j and r < i]
        edges.append(((i, j), (max(above, default=0), j)))
    for (i, j) in elbows:
        left = [c for (r, c) in vertices if r == i and c < j]
        if left:
            edges.append(((i, max(left)), (i, j)))

    def paths(v):
        if v[0] == 0:
            return [(v,)]
        return [(v,) + rest for (t, h) in edges if t == v for rest in paths(h)]

    families = []
    for family in product(*(paths(s) for s in sources)):
        cells = [v for path in family for v in path]
        if len(cells) == len(set(cells)):
            families.append(family)
    return sorted(families)


# ------------------------------------------------------------- standardization

def exchange_rows_by_hand(D, i: int) -> PipeDream:
    """One exchange of ascending pivot rows i and i+1 written tile by tile
    on fresh row copies, with its own scan for the exchange column; a
    validated dream is built from the result.  Descending rows come back
    unchanged."""
    n = D.cols
    a, b = D.pivots[i - 1], D.pivots[i]
    if a > b:
        return D
    top, bottom = D.grid[i - 1], D.grid[i]
    jstar = next((j for j in range(b, n + 1)
                  if top[j - 1] == CROSS and bottom[j - 1] in (ELBOW, PIVOT)),
                 None)
    new_top, new_bottom = list(top), list(bottom)
    for j in range(1, n + 1):
        if j == a:
            new_top[j - 1], new_bottom[j - 1] = VLINE, PIVOT
        elif a < j < b:
            new_top[j - 1], new_bottom[j - 1] = bottom[j - 1], top[j - 1]
        elif j == b:
            new_top[j - 1], new_bottom[j - 1] = PIVOT, HLINE
        elif jstar is not None and j == jstar:
            new_top[j - 1], new_bottom[j - 1] = bottom[j - 1], ELBOW
        elif jstar is not None and j > jstar:
            new_top[j - 1], new_bottom[j - 1] = bottom[j - 1], top[j - 1]
    pivots = list(D.pivots)
    pivots[i - 1], pivots[i] = b, a
    grid = list(D.grid)
    grid[i - 1], grid[i] = "".join(new_top), "".join(new_bottom)
    return PipeDream(cols=n, pivots=tuple(pivots), grid=tuple(grid))


def standardize_by_steps(D) -> PipeDream:
    """Exchange at the least ascent, building and validating a dream after
    every step, until the pivots descend."""
    while True:
        rising = [i for i in range(1, D.rows)
                  if D.pivots[i - 1] < D.pivots[i]]
        if not rising:
            return D
        D = exchange_rows_by_hand(D, rising[0])


# ------------------------------------------------------------------- blocking

def gamma_free_by_pattern_search(D) -> bool:
    """Literal hunt for the blocking pattern: a cross whose horizontal pipe
    has an elbow to its right in the same row and an elbow or pivot below
    it before the pipe leaves the grid."""
    k, n = D.rows, D.cols
    cross_pipe = {}
    for t in trace_pipes_by_walk(D):
        for cell in t.horizontal_crosses:
            cross_pipe[cell] = t
    for (i, j), t in cross_pipe.items():
        # A pivot elbow right of a cross in the same row is impossible
        # (the row pivot sits left of every box), so only "E" can occur.
        if not any(D.tile(i, jp) == ELBOW for jp in range(j + 1, n + 1)):
            continue
        cap = k if t.exit_side == "bottom" else min(t.exit_index, k)
        if any(D.tile(r, j) in (ELBOW, PIVOT) for r in range(i + 1, cap + 1)):
            return False
    return True


def unblocked_le(D) -> tuple[int, ...]:
    """Le-form route, valid when pivots strictly decrease: a non-pivot column
    is blocked iff it contains a cross with an elbow somewhere to its right
    in the same row."""
    if any(a <= b for a, b in zip(D.pivots, D.pivots[1:])):
        raise DomainError("Le-form blocking needs strictly decreasing pivots")
    n = D.cols
    blocked = set(D.pivots)
    for i in range(1, D.rows + 1):
        row = D.grid[i - 1]
        for j in range(1, n + 1):
            if row[j - 1] == CROSS and ELBOW in row[j:]:
                blocked.add(j)
    return tuple(sorted(set(range(1, n + 1)) - blocked))


# --------------------------------------------------------- lattice-path shape

def gale_interval_is_lpm(bases, n: int) -> bool:
    """A basis family is a lattice-path family iff it is the full
    componentwise interval between its entrywise minimum and maximum."""
    members = {tuple(sorted(b)) for b in bases}
    k = len(next(iter(members)))
    low = tuple(min(b[i] for b in members) for i in range(k))
    high = tuple(max(b[i] for b in members) for i in range(k))
    expected = {
        t for t in combinations(range(1, n + 1), k)
        if all(low[i] <= t[i] <= high[i] for i in range(k))
    }
    return members == expected


# ---------------------------------------------------------------- pivot data

def pivot_signs(A) -> tuple[int, ...]:
    """+1 or -1 per row, the sign of its pivot entry."""
    return tuple(1 if A.entry(i, u) > 0 else -1
                 for i, u in enumerate(pivot_columns(A), 1))


def nep_values(A) -> tuple[int, ...]:
    """Per row, how many earlier pivots sit in strictly larger columns."""
    u = pivot_columns(A)
    return tuple(sum(1 for j in range(i) if u[j] > u[i])
                 for i in range(len(u)))


def matroid_of_matrix(A, r: int):
    """Column sets whose first-r-row minor is nonzero."""
    if not 1 <= r <= A.k:
        raise DomainError(f"rank {r} out of range for {A.k} rows")
    bases = [S for (_, S), v in flag_minors(A, (r,)).items() if v]
    if not bases:
        raise RankDeficientError(f"first {r} rows have rank below {r}")
    n = A.n - 1 if A.offset_zero else A.n
    return basis_set(n, bases, offset_zero=A.offset_zero)


def is_lower_reduced(A) -> bool:
    """Below every row's pivot entry, only zeros."""
    for i, u in enumerate(pivot_columns(A), 1):
        if any(A.entry(ip, u) != 0 for ip in range(i + 1, A.k + 1)):
            return False
    return True


def is_reverse_echelon(A, ranks=None) -> bool:
    """Within each rank block, pivot columns move strictly left going down."""
    ranks = tuple(ranks) if ranks is not None else (A.k,)
    if ranks[-1] != A.k:
        raise DomainError("last rank must equal the row count")
    u = pivot_columns(A)
    lo = 0
    for r in ranks:
        block = u[lo:r]
        if any(a <= b for a, b in zip(block, block[1:])):
            return False
        lo = r
    return True


def is_complete_nonneg_representation(A, ranks=None) -> bool:
    """Reduced shape (reverse echelon per rank block, lower reduced) with
    every pivot entry exactly (-1) to its northeast-pivot count."""
    try:
        u = pivot_columns(A)
    except DomainError:
        return False
    if not is_reverse_echelon(A, ranks) or not is_lower_reduced(A):
        return False
    return all(A.entry(i, u[i - 1]) == (-1) ** e
               for i, e in enumerate(nep_values(A), 1))


# ------------------------------------------------------------ boundary data

def exit_permutation(D):
    """The permutation v with v(i) = label of the pipe exiting right at row i.

    Only complete dreams (rows == cols) have one; partial dreams raise.
    """
    if not D.is_complete:
        raise DomainError("exit_permutation needs a complete dream; "
                          "use right_exit_labels for partial ones")
    rights = right_exit_labels(D)
    return tuple(rights[i] for i in range(1, D.rows + 1))


def trivial_completion(D) -> PipeDream:
    """Extend to a complete dream: remaining pivots descend, new boxes cross."""
    if D.is_complete:
        return D
    n = D.cols
    rest = sorted(set(range(1, n + 1)) - set(D.pivots), reverse=True)
    pivots = D.pivots + tuple(rest)
    fill = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if structural_tile(pivots, i, j) is None:
                fill[(i, j)] = D.tile(i, j) if i <= D.rows else CROSS
    return dream_from_fill(n, pivots, fill)


def decperm_text(dp) -> str:
    """``to_string`` formatted value by value, the route it used before
    its token tables."""
    parts = [f"{v}{'o' if c == 2 else 'u'}" for v, c in zip(dp.perm, dp.color)]
    return ",".join(parts) if dp.n > 9 else "".join(parts)


def all_decperms(n: int) -> list[DecoratedPermutation]:
    """Every decorated permutation on [n]: each permutation with each choice
    of fixed-point colors."""
    out = []
    for w in all_permutations(n):
        fixed = [j for j in range(1, n + 1) if w[j - 1] == j]
        for r in range(len(fixed) + 1):
            for two_colored in combinations(fixed, r):
                chosen = set(two_colored)
                color = tuple(
                    2 if v > j or (v == j and j in chosen) else 1
                    for j, v in enumerate(w, 1))
                out.append(DecoratedPermutation(w, color))
    return out


def decperm_via_completion(D) -> DecoratedPermutation:
    """Boundary data through the trivial completion: standardize, complete
    with descending pivots and crossing boxes, then compose the exit
    permutation with the inverse pivot permutation.  Color 2 sits at the
    pivot columns of the retained rows."""
    S = standardize(D)
    T = trivial_completion(S)
    pi = compose(exit_permutation(T), inverse(T.pivots))
    color = tuple(2 if j in S.pivots else 1 for j in range(1, S.cols + 1))
    return DecoratedPermutation(pi, color)


def zero_join(P, Q):
    """The 0-embedding of a cover pair as one basis family on {0} + [n]:
    the bases of P with 0 added, together with the bases of Q."""
    zero_side = [(0,) + b for b in P.bases.bases]
    return basis_set(P.n, zero_side + list(Q.bases.bases), offset_zero=True)


def extended_cover_dream_by_hand(P, C) -> PipeDream:
    """The 0-embedding dream of the cover of P along C, tile by tile: a
    vertical column 1 in front of every row of P's dream, then a last row
    with its pivot at column 1, a horizontal tile under every shifted pivot,
    an elbow under every shifted choice column and a cross elsewhere."""
    D = P.dream
    last = [PIVOT]
    for j in range(1, D.cols + 1):
        if j in D.pivots:
            last.append(HLINE)
        elif j in C:
            last.append(ELBOW)
        else:
            last.append(CROSS)
    return PipeDream(cols=D.cols + 1,
                     pivots=tuple(p + 1 for p in D.pivots) + (1,),
                     grid=tuple(VLINE + row for row in D.grid)
                     + ("".join(last),))


def positroid_by_construct_fpp(dp) -> Positroid:
    """The positroid of a decorated permutation through the validating
    constructors: the canonical FPP of its interval built by
    ``construct_fpp``, cut to the 2-colored rows, then swept for
    gamma-freeness and standardized by ``Positroid.from_dream``."""
    over = sorted((j for j, c in enumerate(dp.color, 1) if c == 2),
                  reverse=True)
    under = sorted((j for j, c in enumerate(dp.color, 1) if c == 1),
                   reverse=True)
    u = tuple(over + under)
    v = tuple(dp.perm[j - 1] for j in u)
    return Positroid.from_dream(restrict(construct_fpp(u, v), len(over)))


def quotient_covers_by_append_row(P) -> tuple[Positroid, ...]:
    """Covers of P through :func:`append_row`, one per nonempty choice of
    unblocked columns, each appended dream rebuilt through the validating
    constructor; sorted by boundary string."""
    U = P.unblocked
    covers = {}
    for r in range(1, len(U) + 1):
        for C in combinations(U, r):
            D = append_row(P.dream, C)
            Q = Positroid.from_dream(PipeDream(D.cols, D.pivots, D.grid))
            covers[decperm_of(Q.dream).to_string()] = Q
    return tuple(covers[key] for key in sorted(covers))


# ------------------------------------------------------ right shifts by hand

def unblocked_by_hand(dp) -> tuple[int, ...]:
    """1-colored positions whose value is below every later 1-colored
    value, each compared with all the later ones."""
    under = [j for j, c in enumerate(dp.color, 1) if c == 1]
    return tuple(j for idx, j in enumerate(under)
                 if all(dp.perm[jp - 1] > dp.perm[j - 1]
                        for jp in under[idx + 1:]))


def tc_by_search(dp, C) -> tuple[int, ...]:
    """The top-completion set of a sorted choice C, each pick searched
    afresh: the least 2-colored position left of min(C), after the last
    pick, whose value tops the value of the last pick (at first, the value
    at max(C))."""
    over = [j for j, c in enumerate(dp.color, 1) if c == 2]
    out: list[int] = []
    z, m = 0, dp.perm[C[-1] - 1]
    while True:
        t = next((t for t in over
                  if z < t < C[0] and dp.perm[t - 1] > m), None)
        if t is None:
            return tuple(out)
        out.append(t)
        z, m = t, dp.perm[t - 1]


def right_shift_by_choice(dp, C) -> DecoratedPermutation:
    """The right cyclic shift on one choice C, checked against
    :func:`unblocked_by_hand`, its top-completion set searched for again,
    the moved positions sorted, and the result passed through the public
    constructor."""
    C = sorted(set(C))
    if not C:
        raise EmptyChoiceError("choice set is empty")
    allowed = unblocked_by_hand(dp)
    for j in C:
        if j not in allowed:
            raise NotUnblockedError(j)
    moved = sorted(set(C) | set(tc_by_search(dp, C)))
    perm, color = list(dp.perm), list(dp.color)
    for before, j in zip(moved[-1:] + moved[:-1], moved):
        v = dp.perm[before - 1]
        perm[j - 1] = v
        color[j - 1] = 1 if v < j else 2
    return DecoratedPermutation(tuple(perm), tuple(color))


def right_shifts_by_choice(dp) -> tuple[DecoratedPermutation, ...]:
    """One :func:`right_shift_by_choice` per nonempty choice of unblocked
    positions, by size and then lexicographically, each computed on its
    own with nothing shared between choices."""
    U = unblocked_by_hand(dp)
    return tuple(right_shift_by_choice(dp, C)
                 for r in range(1, len(U) + 1)
                 for C in combinations(U, r))


# ------------------------------------------------------- left shifts by hand

def left_unblocked_by_hand(dp) -> tuple[int, ...]:
    """2-colored positions whose value is above every earlier 2-colored
    value, scanned directly."""
    over = [j for j, c in enumerate(dp.color, 1) if c == 2]
    return tuple(j for idx, j in enumerate(over)
                 if all(dp.perm[jp - 1] < dp.perm[j - 1] for jp in over[:idx]))


def or_set_by_hand(dp, R) -> tuple[int, ...]:
    """The mirror of ``tc_set`` written out: greedily walk right of max(R)
    picking ever-higher 1-colored positions whose values descend from the
    value at min(R).  Raises the library's choice errors, first bad
    position first."""
    R = sorted(set(R))
    if not R:
        raise EmptyChoiceError("choice set is empty")
    allowed = left_unblocked_by_hand(dp)
    for j in R:
        if j not in allowed:
            raise NotUnblockedError(j)
    under = [j for j, c in enumerate(dp.color, 1) if c == 1]
    out: list[int] = []
    z, m = dp.n + 1, dp.perm[R[0] - 1]
    while True:
        o = next((o for o in reversed(under)
                  if R[-1] < o < z and dp.perm[o - 1] < m), None)
        if o is None:
            return tuple(sorted(out))
        out.append(o)
        z, m = o, dp.perm[o - 1]


def left_cyclic_shift_by_hand(dp, R) -> DecoratedPermutation:
    """Cycle the values on R plus its completion one step toward larger
    positions; fixed points created by the cycle take color 1."""
    moved = sorted(set(R) | set(or_set_by_hand(dp, R)))
    tau = {b: moved[(l + 1) % len(moved)] for l, b in enumerate(moved)}
    perm = tuple(dp.perm[tau.get(j, j) - 1] for j in range(1, dp.n + 1))
    color = tuple(2 if v > j else 1 if v < j or j in moved
                  else dp.color[j - 1]
                  for j, v in enumerate(perm, 1))
    return DecoratedPermutation(perm, color)


def covered_by_shift_by_hand(dp) -> tuple[DecoratedPermutation, ...]:
    """One hand-written left shift per nonempty choice of left-unblocked
    positions, sorted by text form."""
    S = left_unblocked_by_hand(dp)
    out = {}
    for r in range(1, len(S) + 1):
        for R in combinations(S, r):
            q = left_cyclic_shift_by_hand(dp, R)
            out[q.to_string()] = q
    return tuple(out[key] for key in sorted(out))


def cover_choice_by_search(P, Q) -> tuple[int, ...]:
    """The first unblocked choice, by size and then lexicographically,
    whose checked :func:`append_row` canonicalizes to Q."""
    U = P.unblocked
    for r in range(1, len(U) + 1):
        for C in combinations(U, r):
            if Positroid.from_dream(append_row(P.dream, C)).key == Q.key:
                return C
    raise NotACoverError("no unblocked choice produces the given positroid")


# ----------------------------------------------------------------------- poset

def build_poset_by_names(n: int, flavor: str) -> QuotientPoset:
    """The quotient poset with its edges indexed by text form: elements
    sorted by (rank, text), representable edges looked up by the text of
    each :func:`right_shifts_by_choice` result, matroidal edges by the
    rank-increment masks of :func:`rank_increments_by_bases` on every pair
    of adjacent ranks; each decorated permutation passes the public
    constructor again, and ``elements`` holds the positroids of the
    filling sweep of :func:`enumerate_positroids`."""
    named = []
    for p in enumerate_positroids(n):
        w = decperm_of(p.dream)
        named.append((p.rank, w.to_string(), w, p))
    named.sort(key=lambda t: t[:2])
    names = tuple(t[1] for t in named)
    elements = tuple(t[3] for t in named)
    edges = []
    if flavor == "representable":
        index = {name: i for i, name in enumerate(names)}
        for i, (_, _, w, _) in enumerate(named):
            edges.extend((i, index[q.to_string()])
                         for q in right_shifts_by_choice(w))
    else:
        inc = [rank_increments_by_bases(p.bases) for p in elements]
        for i, p in enumerate(elements):
            edges.extend((i, j) for j, q in enumerate(elements)
                         if q.rank == p.rank + 1 and inc[i] & ~inc[j] == 0)
    decperms = tuple(DecoratedPermutation(t[2].perm, t[2].color)
                     for t in named)
    poset = QuotientPoset(n=n, flavor=flavor, decperms=decperms,
                          covers=tuple(sorted(edges)))
    vars(poset)["elements"] = elements  # the cache of the lazy property
    return poset


def self_dual_by_names(poset) -> bool:
    """Self-duality with every element's decorated permutation parsed from
    its name and the inverses looked up by text."""
    lookup = {name: i for i, name in enumerate(poset.names)}
    image = []
    for name in poset.names:
        mirrored = inverse_decperm(parse_decperm(name)).to_string()
        if mirrored not in lookup:
            return False
        image.append(lookup[mirrored])
    edge_set = set(poset.covers)
    return all((image[b], image[a]) in edge_set for a, b in poset.covers)
