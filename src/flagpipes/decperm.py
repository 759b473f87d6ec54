"""Decorated permutations: boundary data of positroids and cyclic-shift covers.

A decorated permutation on [n] is a permutation with every fixed point
colored 1 or 2; non-fixed points carry a forced color (2 when the value
exceeds the position, 1 otherwise).  The number of 2-colored positions is
the rank of the corresponding positroid.  A dream's decorated permutation
is read off where the pipes of its standardization exit.  Rank-increasing
covers are realized by right cyclic shifts on a choice of unblocked
positions plus a forced top-completion set; the left shifts that realize
covered elements are right shifts seen through :func:`inverse_decperm`.
One kernel, :func:`_moves`, walks the shifts on a code (entry j - 1 holds
w(j), or 0 for a 2-colored fixed point) and yields each choice with the
positions it moves; single objects apply the moves to (perm, color), and
the quotient poset, which stores codes, to codes.  The Grassmann necklace
names the positroid's bases (Oh's theorem) with no dream built.
"""

from __future__ import annotations

import re
from functools import lru_cache, partial
from itertools import combinations, product

from .config import _Frozen, _guard
from .exceptions import DomainError, InvariantError
from .perm import (
    Permutation,
    all_permutations,
    inverse,
    validate_permutation,
)
from .pipedream import (
    ELBOW,
    PIVOT,
    PipeDream,
    _front_rows,
    _sweep,
)
from .positroid import (
    Positroid,
    _choice,
    _schubert,
    _subset_masks,
    standardize,
)

__all__ = [
    "DecoratedPermutation",
    "decperm_of",
    "dle_of",
    "positroid_of",
    "unblocked_positions",
    "tc_set",
    "right_cyclic_shift",
    "covers_by_shift",
    "left_unblocked_positions",
    "or_set",
    "left_cyclic_shift",
    "covered_by_shift",
    "inverse_decperm",
    "parse_decperm",
]

OVER = 2   # value sits above its position, or a 2-colored fixed point
UNDER = 1  # value sits below its position, or a 1-colored fixed point


class DecoratedPermutation(_Frozen):
    """A permutation of [n] with a 1/2 color at every position.

    >>> DecoratedPermutation((2, 1), (2, 1)).rank
    1
    >>> DecoratedPermutation((1, 2), (1, 2)).to_string()
    '1u2o'
    """

    _fields = ("perm", "color")
    perm: Permutation
    color: tuple[int, ...]

    def __init__(self, perm: Permutation, color: tuple[int, ...]) -> None:
        self._store(perm=perm, color=color)
        validate_permutation(self.perm)
        n = len(self.perm)
        if len(self.color) != n:
            raise DomainError("color tuple length differs from permutation")
        for j, (v, c) in enumerate(zip(self.perm, self.color), start=1):
            if c not in (UNDER, OVER):
                raise DomainError(f"color at position {j} must be 1 or 2")
            if v > j and c != OVER:
                raise DomainError(f"position {j}: value {v} forces color 2")
            if v < j and c != UNDER:
                raise DomainError(f"position {j}: value {v} forces color 1")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.perm, self.color) == (other.perm, other.color)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.perm, self.color))

    @property
    def n(self) -> int:
        return len(self.perm)

    @property
    def rank(self) -> int:
        return self.color.count(OVER)

    def to_string(self) -> str:
        """Compact text form: each value followed by ``o`` (color 2) or
        ``u`` (color 1); comma-separated beyond single digits.

        >>> DecoratedPermutation((3, 1, 2), (2, 1, 1)).to_string()
        '3o1u2u'
        """
        texts = _tokens(len(self.perm))
        parts = [texts[c][v] for v, c in zip(self.perm, self.color)]
        return ",".join(parts) if len(parts) > 9 else "".join(parts)


@lru_cache(maxsize=32)
def _tokens(n: int) -> tuple:
    """The texts of :meth:`DecoratedPermutation.to_string` on [n]:
    ``_tokens(n)[c][v]`` is value v followed by the mark of color c."""
    return (None, tuple([f"{v}u" for v in range(n + 1)]),
            tuple([f"{v}o" for v in range(n + 1)]))


def parse_decperm(s: str) -> DecoratedPermutation:
    """Inverse of :meth:`DecoratedPermutation.to_string`.  The empty text
    is the decorated permutation on [0]; text made only of separators is
    not.

    >>> parse_decperm("3o1u2u").perm
    (3, 1, 2)
    >>> parse_decperm("1u2o").color
    (1, 2)
    >>> parse_decperm("").n
    0
    """
    if not s.strip():
        return DecoratedPermutation((), ())
    compact = s.replace(",", "").strip()
    if not re.fullmatch(r"(?:\d+[ou])+", compact):
        raise DomainError(f"cannot parse decorated permutation: {s!r}")
    pairs = re.findall(r"(\d+)([ou])", compact)
    perm = tuple(int(v) for v, _ in pairs)
    color = tuple(OVER if m == "o" else UNDER for _, m in pairs)
    return DecoratedPermutation(perm, color)


def decperm_of(D: PipeDream) -> DecoratedPermutation:
    """Boundary data of a partial dream, read off where the pipes of its
    standardization exit: the pipe leaving the right edge of row i ends at
    that row's pivot column, and the pipe leaving the bottom of column c
    ends at c.  (In the trivial completion that pipe runs straight down to
    the row whose pivot is c and leaves to the right there.)  Color 2 sits
    exactly at the pivot columns of the k retained rows.  The sweep's exit
    labels are the permutation as they stand: its bottom labels already sit
    at their columns (0 under a pivot column), and each row's right label
    is written at its pivot column; no cross is recorded.  Each pipe exits
    once, so :meth:`~flagpipes.config._Frozen._trusted` builds the result.

    >>> from flagpipes.pipedream import construct_fpp, restrict
    >>> d = restrict(construct_fpp((2, 4, 1, 3), (4, 2, 3, 1)), 2)
    >>> decperm_of(d).to_string()
    '1u2o3u4o'
    """
    S = standardize(D)
    right, perm, _ = _sweep(S)
    color = [UNDER] * S.cols
    for p, label in zip(S.pivots, right):
        perm[p - 1] = label
        color[p - 1] = OVER
    return DecoratedPermutation._trusted(perm=tuple(perm), color=tuple(color))


def _row_shifts(D: PipeDream) -> tuple[DecoratedPermutation, ...]:
    """``decperm_of(restrict(D, k))`` for k = 0 .. D.rows, as the paper
    builds a flag: from ``1u2u...nu``, row k shifts right (:func:`_shift`)
    along its pivot and elbow columns C_k.  A blocked C_k refuses D; on
    every filling with n <= 6 that is exactly when D is not gamma-free."""
    n = D.cols
    out = [DecoratedPermutation._trusted(perm=tuple(range(1, n + 1)),
                                         color=(UNDER,) * n)]
    for row in D.grid:
        C = tuple([j for j, t in enumerate(row, 1) if t in (PIVOT, ELBOW)])
        code = _code(out[-1])
        if not set(C).issubset(_unblocked(code)):
            raise DomainError("dream is not gamma-free")
        out.append(_shift(out[-1], C, code))
    return tuple(out)


def _code(dp: DecoratedPermutation) -> list[int]:
    """The code the shift walk reads: entry j - 1 holds w(j), or 0 where
    j is a 2-colored fixed point, so j is 1-colored exactly when
    0 < code[j - 1] <= j."""
    code = list(dp.perm)
    for j, v in enumerate(code, 1):
        if v == j and dp.color[j - 1] == OVER:
            code[j - 1] = 0
    return code


def _decoded(code) -> DecoratedPermutation:
    """The decorated permutation of a code, valid, so trusted."""
    return DecoratedPermutation._trusted(
        perm=tuple([b or j for j, b in enumerate(code, 1)]),
        color=tuple([OVER if b > j or not b else UNDER
                     for j, b in enumerate(code, 1)]))


def _all_codes(n: int):
    """Every decorated permutation on [n] as ``(rank, text, code)``, the
    code as bytes, unsorted: each permutation with both colors on every
    fixed point.  The text is :meth:`DecoratedPermutation.to_string`'s,
    so its count of ``o`` is the rank, joined from :func:`_tokens`."""
    texts = _tokens(n)
    tokens = [[texts[OVER if b > j or not b else UNDER][b or j]
               for b in range(n + 1)] for j in range(1, n + 1)]
    sep = "," if n > 9 else ""
    for w in all_permutations(n):
        for code in product(*[(v, 0) if v == j else (v,)
                              for j, v in enumerate(w, 1)]):
            text = sep.join(map(list.__getitem__, tokens, code))
            yield text.count("o"), text, bytes(code)


def _all_decperms(n: int) -> list[DecoratedPermutation]:
    """Every decorated permutation on [n], unsorted."""
    return [_decoded(code) for _, _, code in _all_codes(n)]


def dle_of(dp: DecoratedPermutation) -> PipeDream:
    """The canonical decreasing-pivot dream with the given boundary data:
    pivot rows list the 2-colored positions in decreasing order, the tail of
    the completion lists the 1-colored ones, and the exit permutation is the
    permutation composed with that pivot order.  That pair of permutations
    is a Bruhat interval for every decorated permutation; the front walk of
    :func:`~flagpipes.pipedream._front_rows` is its one comparability test,
    since its end check raises on exactly the pairs that are not.  Past it
    the rows are an FPP's, built by :meth:`~flagpipes.config._Frozen._trusted`.
    The walk starts at row k, as the tail's pivots descend: it has no box.

    >>> dle_of(parse_decperm("2o1u4o3u")).pivots
    (3, 1)
    """
    over = sorted((j for j, c in enumerate(dp.color, 1) if c == OVER),
                  reverse=True)
    under = sorted((j for j, c in enumerate(dp.color, 1) if c == UNDER),
                   reverse=True)
    u = tuple(over + under)
    v = tuple(dp.perm[j - 1] for j in u)
    return PipeDream._trusted(cols=dp.n, pivots=tuple(over),
                              grid=_front_rows(u, v, len(over)))


def positroid_of(dp: DecoratedPermutation) -> Positroid:
    """Positroid with the given boundary data.

    Its canonical dream :func:`dle_of` is a row prefix of an FPP, hence
    gamma-free, and its pivots descend, so it is the positroid's dream as
    it is: no Bruhat test beyond the front walk, no gamma-freeness sweep
    and no standardization.  The positroid is built by
    :meth:`~flagpipes.config._Frozen._trusted`.

    >>> positroid_of(parse_decperm("1u2o")).bases.bases
    ((2,),)
    """
    return Positroid._trusted(dream=dle_of(dp))


def _necklace(code) -> tuple[int, ...]:
    """The Grassmann necklace (I_1, ..., I_n) of a code's positroid, each
    set a bitmask with bit j - 1 for position j.  I_1 holds the 2-colored
    positions (the j with j < w(j), and the 2-colored fixed points); then
    I_{i+1} is I_i with i traded for w^-1(i) when i is in I_i, and I_i
    otherwise.  I_i is the lex-first basis in the order
    i < i + 1 < ... < n < 1 < ... < i - 1 (Oh, arXiv:0803.1018).

    >>> [bin(I) for I in _necklace(_code(parse_decperm("3o1u2u")))]
    ['0b1', '0b10', '0b100']
    """
    inv = [0] * len(code)
    I = 0
    for j, b in enumerate(code, 1):
        inv[(b or j) - 1] = j
        if b > j or not b:
            I |= 1 << j - 1
    out = []
    for i in range(len(code)):
        out.append(I)
        if I >> i & 1:
            I ^= (1 << i) ^ (1 << inv[i] - 1)
    return tuple(out)


def _necklace_bases(code) -> int:
    """The bases of the code's positroid as a set of subsets (see
    :func:`~flagpipes.positroid._subset_masks`), with no positroid built:
    by Oh's theorem they are the rank-k sets that lie in the Schubert
    matroid of every necklace set I_i in the order from i, and each of
    those sets of subsets is cached (see
    :func:`~flagpipes.positroid._schubert`).

    >>> bin(_necklace_bases(_code(parse_decperm("1u2o"))))
    '0b100'
    """
    n = len(code)
    bits = _subset_masks(n)[1][sum(b > j or not b
                                   for j, b in enumerate(code, 1))]
    for i, I in enumerate(_necklace(code)):
        bits &= _schubert(n, i, I)
    return bits


def unblocked_positions(dp: DecoratedPermutation) -> tuple[int, ...]:
    """1-colored positions whose value is below every later 1-colored value.

    Coincides with the unblocked columns of the canonical dream.

    >>> unblocked_positions(parse_decperm("5o1u3u9o2u7o6u4u8u"))
    (2, 5, 8, 9)
    """
    return _unblocked(_code(dp))


def _unblocked(code) -> tuple[int, ...]:
    """:func:`unblocked_positions` of a code: one pass from the right,
    keeping the least 1-colored value seen."""
    out = []
    j = len(code)
    low = j + 1
    for v in reversed(code):
        if 0 < v < low and v <= j:
            out.append(j)
            low = v
        j -= 1
    return tuple(reversed(out))


def tc_set(dp: DecoratedPermutation, C) -> tuple[int, ...]:
    """Top-completion set of a choice C of unblocked positions: greedily walk
    left of min(C) picking ever-lower 2-colored positions whose values climb
    from the value at max(C).  Only min(C) and max(C) matter, and the set
    increases and lies left of min(C).

    >>> pi = parse_decperm("5o1u3u9o2u7o6u4u8u")
    >>> tc_set(pi, {8})
    (1, 4)
    >>> tc_set(pi, {2, 5, 8, 9})
    ()
    """
    code = _code(dp)
    return _top_completion(code, _choice(C, _unblocked(code)))


def _top_completion(code, C) -> tuple[int, ...]:
    """:func:`tc_set` on a code, of a sorted choice C known to be
    unblocked, in one pass over positions ``1 .. C[0]-1``: each pick is the
    first 2-colored position whose value tops the running value, which
    starts at the value of ``C[-1]``.  So ``tc + C`` is increasing."""
    out: list[int] = []
    m = code[C[-1] - 1]
    for t, v in enumerate(code[:C[0] - 1], 1):
        if v > m and v > t:
            out.append(t)
            m = v
        elif not v and t > m:
            out.append(t)
            m = t
    return tuple(out)


def _moves(code, routine: str):
    """The shift kernel: each nonempty choice C of the code's unblocked
    positions, by size then lexicographically, with the positions the right
    shift along C moves (its top-completion set, then C).  The walk is
    2^|U| long: ``covers_max_unblocked`` guards it, naming ``routine``."""
    U = _unblocked(code)
    _guard(routine, "covers_max_unblocked", len(U))
    for r in range(1, len(U) + 1):
        for C in combinations(U, r):
            yield C, _top_completion(code, C) + C


def _shifts(code, routine: str, apply) -> tuple:
    """``apply(moved)`` for each choice of the walk of :func:`_moves` on
    the code, in walk order; two choices with one result break the
    theory's bijection and raise."""
    seen = {}
    for C, moved in _moves(code, routine):
        value = apply(moved)
        if value in seen:
            raise InvariantError(
                f"{routine}: choices {seen[value]} and {C} give one result")
        seen[value] = C
    return tuple(seen)


def right_cyclic_shift(dp: DecoratedPermutation, C) -> DecoratedPermutation:
    """Rank-raising cover move: cycle the values on C plus its top-completion
    set one step toward smaller positions; fixed points created by the cycle
    take color 2.

    >>> right_cyclic_shift(parse_decperm("1u2u"), {2}).to_string()
    '1u2o'
    >>> right_cyclic_shift(parse_decperm("5o1u3u9o2u7o6u4u8u"),
    ...                    {5, 9}).to_string()
    '5o1u3u8o9o7o6u4u2u'
    """
    code = _code(dp)
    return _shift(dp, _choice(C, _unblocked(code)), code)


def _shift(dp: DecoratedPermutation, C, code) -> DecoratedPermutation:
    """:func:`right_cyclic_shift` on a sorted choice already known to be
    unblocked in dp's code.  :func:`_cycle` keeps a decorated permutation
    valid, so :meth:`~flagpipes.config._Frozen._trusted` builds the
    result."""
    moved = _top_completion(code, C) + tuple(C)
    perm, color = _cycle(dp.perm, dp.color, moved)
    return DecoratedPermutation._trusted(perm=perm, color=color)


def _cycle(perm: Permutation, color: tuple[int, ...],
           moved) -> tuple[Permutation, tuple[int, ...]]:
    """The moves of a shift applied to (perm, color): each of the
    increasing positions ``moved`` takes the value of the moved position
    before it, cyclically.  Only moved positions change color: a value
    below its position forces 1, and a value on or above it takes 2."""
    p, c = list(perm), list(color)
    before = moved[-1]
    for j in moved:
        v = perm[before - 1]
        p[j - 1] = v
        c[j - 1] = UNDER if v < j else OVER
        before = j
    return tuple(p), tuple(c)


def _right_shift_walk(dp: DecoratedPermutation, routine: str) -> tuple:
    """The right shift of dp along each choice of :func:`_moves`, as
    ``(perm, color)`` pairs in walk order."""
    return _shifts(_code(dp), routine, partial(_cycle, dp.perm, dp.color))


def covers_by_shift(dp: DecoratedPermutation) -> tuple[DecoratedPermutation, ...]:
    """One shift per nonempty choice of unblocked positions, sorted by text
    form; all results are distinct and valid (see :func:`_shift`).

    >>> len(covers_by_shift(parse_decperm("1u2u3u")))
    7
    """
    return _sorted_shifts(dp, "covers_by_shift")


def _sorted_shifts(dp: DecoratedPermutation,
                   routine: str) -> tuple[DecoratedPermutation, ...]:
    """:func:`covers_by_shift`, its walk guarded in the name of
    ``routine``; :func:`~flagpipes.flagbuild.quotient_covers` shares it."""
    return tuple(sorted(
        (DecoratedPermutation._trusted(perm=perm, color=color)
         for perm, color in _right_shift_walk(dp, routine)),
        key=DecoratedPermutation.to_string))


def left_unblocked_positions(dp: DecoratedPermutation) -> tuple[int, ...]:
    """2-colored positions whose value is above every earlier 2-colored
    value: the unblocked positions of the inverse, carried back.

    >>> left_unblocked_positions(parse_decperm("2o5o3o8o1u7o6u9o4u"))
    (1, 2, 4, 8)
    """
    w = inverse_decperm(dp)
    return tuple(sorted(w.perm[c - 1] for c in unblocked_positions(w)))


def _mirrored(dp: DecoratedPermutation, R):
    """The inverse of dp and the left choice R carried to it through
    ``dp.perm``, sorted; R is checked first, so an error names a position in
    dp's numbering, and the carried choice is unblocked in the inverse."""
    R = _choice(R, left_unblocked_positions(dp))
    return inverse_decperm(dp), sorted(dp.perm[r - 1] for r in R)


def or_set(dp: DecoratedPermutation, R) -> tuple[int, ...]:
    """Mirror of :func:`tc_set`: the 1-colored positions right of max(R),
    ever higher, whose values descend from the value at min(R).  Computed
    as the top-completion set of the inverse, carried back.

    >>> or_set(parse_decperm("2o5o3o8o1u7o6u9o4u"), {2, 8})
    (9,)
    """
    w, C = _mirrored(dp, R)
    return tuple(sorted(w.perm[t - 1]
                        for t in _top_completion(_code(w), C)))


def left_cyclic_shift(dp: DecoratedPermutation, R) -> DecoratedPermutation:
    """Rank-lowering move: cycle the values on R plus its completion one step
    toward larger positions; fixed points created by the cycle take color 1.
    Computed as the right shift of the inverse, inverted back.

    >>> left_cyclic_shift(parse_decperm("2o5o3o8o1u7o6u9o4u"),
    ...                   {2, 8}).to_string()
    '2o9o3o8o1u7o6u4u5u'
    """
    w, C = _mirrored(dp, R)
    return inverse_decperm(_shift(w, C, _code(w)))


def covered_by_shift(dp: DecoratedPermutation) -> tuple[DecoratedPermutation, ...]:
    """One left shift per nonempty choice of left-unblocked positions,
    sorted by text form: the covers of the inverse, inverted back.

    >>> len(covered_by_shift(parse_decperm("1o2o3o")))
    7
    """
    return tuple(sorted(
        (inverse_decperm(DecoratedPermutation._trusted(perm=perm, color=color))
         for perm, color
         in _right_shift_walk(inverse_decperm(dp), "covered_by_shift")),
        key=DecoratedPermutation.to_string))


def inverse_decperm(dp: DecoratedPermutation) -> DecoratedPermutation:
    """Invert the permutation and flip the color across each value's arc,
    which keeps it valid: :meth:`~flagpipes.config._Frozen._trusted` builds it.

    >>> inverse_decperm(parse_decperm("5o1u3u9o2u7o6u4u8u")).to_string()
    '2o5o3o8o1u7o6u9o4u'
    """
    inv = inverse(dp.perm)
    color = dp.color
    return DecoratedPermutation._trusted(
        perm=inv, color=tuple([OVER + UNDER - color[j - 1] for j in inv]))
