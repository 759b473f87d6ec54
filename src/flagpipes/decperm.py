"""Decorated permutations: boundary data of positroids and cyclic-shift covers.

A decorated permutation on [n] is a permutation with every fixed point
colored 1 or 2; non-fixed points carry a forced color (2 when the value
exceeds the position, 1 otherwise).  The number of 2-colored positions is
the rank of the corresponding positroid.  A dream's decorated permutation
is read off where the pipes of its standardization exit.  Rank-increasing
covers are realized by right cyclic shifts on a choice of unblocked
positions plus a forced top-completion set; the left shifts that realize
covered elements are right shifts seen through :func:`inverse_decperm`.
A decorated permutation stores its code (see
:class:`DecoratedPermutation`), as the quotient poset does.  Shifts,
inverses and the canonical dream (:func:`dle_of`) read codes, by one
kernel :func:`_shifts`, one applier :func:`_cycle` and one inverse
:func:`_inverse_code`, and each result is built from its code, with no
decoding.  The Grassmann necklace names the positroid's bases (Oh's
theorem) with no dream built.  A dream built by :func:`dle_of` (so every
positroid of :func:`positroid_of`) keeps the code it was peeled off, and
:func:`decperm_of` reads it back; any other dream is swept.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations, product

from .config import _Frozen, _guard, _keep
from .exceptions import DomainError, InvariantError
from .perm import (
    Permutation,
    all_permutations,
    validate_permutation,
)
from .pipedream import (CROSS, ELBOW, HLINE, PIVOT, VLINE, PipeDream,
                        _sweep)
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
    """A permutation of [n] with a 1/2 color at every position, stored as
    its ``code``: byte j - 1 holds w(j), or 0 where j is a 2-colored fixed
    point, so j is 1-colored exactly when 0 < code[j - 1] <= j (a tuple
    past n = 255).  ``perm``, ``color``, ``n``, ``rank`` and the text form
    are read off the code, and equality and the hash go by it.

    >>> DecoratedPermutation((2, 1), (2, 1)).rank
    1
    >>> DecoratedPermutation((1, 2), (1, 2)).to_string()
    '1u2o'
    >>> list(DecoratedPermutation((1, 2, 3), (2, 1, 2)).code)
    [0, 2, 0]
    """

    _fields = ("perm", "color")
    code: bytes

    def __init__(self, perm: Permutation, color: tuple[int, ...]) -> None:
        perm = validate_permutation(perm)
        if len(color) != len(perm):
            raise DomainError("color tuple length differs from permutation")
        code = []
        for j, (v, c) in enumerate(zip(perm, color), start=1):
            if c not in (UNDER, OVER):
                raise DomainError(f"color at position {j} must be 1 or 2")
            if v > j and c != OVER:
                raise DomainError(f"position {j}: value {v} forces color 2")
            if v < j and c != UNDER:
                raise DomainError(f"position {j}: value {v} forces color 1")
            code.append(0 if v == j and c == OVER else int(v))
        self._store(code=_packed(code))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.code == other.code
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.code)

    @property
    def perm(self) -> Permutation:
        return tuple([b or j for j, b in enumerate(self.code, 1)])

    @property
    def color(self) -> tuple[int, ...]:
        return tuple([OVER if b > j or not b else UNDER
                      for j, b in enumerate(self.code, 1)])

    @property
    def n(self) -> int:
        return len(self.code)

    @property
    def rank(self) -> int:
        return sum([b > j or not b for j, b in enumerate(self.code, 1)])

    def to_string(self) -> str:
        """Compact text form: each value followed by ``o`` (color 2) or
        ``u`` (color 1); comma-separated beyond single digits.

        >>> DecoratedPermutation((3, 1, 2), (2, 1, 1)).to_string()
        '3o1u2u'
        """
        return _text(self.code)


def _packed(values):
    """The code holding ``values``: bytes, or a tuple past n = 255."""
    return bytes(values) if len(values) < 256 else tuple(values)


@lru_cache(maxsize=32)
def _tokens(n: int) -> tuple[list[str], ...]:
    """The texts of :meth:`DecoratedPermutation.to_string` on [n]:
    ``_tokens(n)[j - 1][b]`` is position j's text when its byte is b.  The
    rows share one ``u`` and one ``o`` text per value."""
    under = [f"{v}u" for v in range(n + 1)]
    over = [f"{v}o" for v in range(n + 1)]
    return tuple([[over[j]] + under[1:j + 1] + over[j + 1:]
                  for j in range(1, n + 1)])


def _text(code) -> str:
    """:meth:`DecoratedPermutation.to_string` of a code."""
    sep = "," if len(code) > 9 else ""
    return sep.join(map(list.__getitem__, _tokens(len(code)), code))


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
    exactly at the pivot columns of the k retained rows.  The sweep's
    bottom labels are the code as they stand (0 under a pivot column), and
    each row's right label is written at its pivot column, 0 if it is the
    pivot's own.  Each pipe exits once, so
    :meth:`~flagpipes.config._Frozen._trusted` builds the result.  A dream
    built by :func:`dle_of` keeps the code it was peeled off, which is read
    back with no standardization and no sweep; any other dream is swept.

    >>> from flagpipes.pipedream import construct_fpp, restrict
    >>> d = restrict(construct_fpp((2, 4, 1, 3), (4, 2, 3, 1)), 2)
    >>> decperm_of(d).to_string()
    '1u2o3u4o'
    """
    code = getattr(D, "_code", None)
    if code is None:
        S = standardize(D)
        right, swept, _ = _sweep(S)
        for p, label in zip(S.pivots, right):
            swept[p - 1] = 0 if label == p else label
        code = _packed(swept)
    return DecoratedPermutation._trusted(code=code)


def _row_shifts(D: PipeDream) -> tuple[DecoratedPermutation, ...]:
    """``decperm_of(restrict(D, k))`` for k = 0 .. D.rows, as the paper
    builds a flag: from ``1u2u...nu``, row k shifts right (:func:`_shift`)
    along its pivot and elbow columns C_k.  A blocked C_k refuses D; on
    every filling with n <= 6 that is exactly when D is not gamma-free."""
    codes = [_packed(range(1, D.cols + 1))]
    for row in D.grid:
        C = tuple([j for j, t in enumerate(row, 1) if t in (PIVOT, ELBOW)])
        if not set(C).issubset(_unblocked(codes[-1])):
            raise DomainError("dream is not gamma-free")
        codes.append(_shift(codes[-1], C))
    return tuple([DecoratedPermutation._trusted(code=c) for c in codes])


def _all_codes(n: int):
    """Every decorated permutation on [n] as ``(rank, text, code)``, the
    code as bytes, unsorted: each permutation with both colors on every
    fixed point.  The text is :func:`_text`'s, joined from its tokens, so
    its count of ``o`` is the rank."""
    tokens, sep = _tokens(n), "," if n > 9 else ""
    for w in all_permutations(n):
        for code in product(*[(v, 0) if v == j else (v,)
                              for j, v in enumerate(w, 1)]):
            text = sep.join(map(list.__getitem__, tokens, code))
            yield text.count("o"), text, bytes(code)


def _all_decperms(n: int) -> list[DecoratedPermutation]:
    """Every decorated permutation on [n], unsorted."""
    return [DecoratedPermutation._trusted(code=c) for _, _, c in _all_codes(n)]


def dle_of(dp: DecoratedPermutation) -> PipeDream:
    """The canonical decreasing-pivot dream with the given boundary data,
    its pivots the 2-colored positions, peeled off the code from the bottom
    row up.  A row's pivot p is the least 2-colored position left, and its
    pipe leaves the row as w(p), or p for a 0 byte.  Left of p every tile
    is ``V``.  Right of p, read from column n down, a 2-colored column (a
    pivot above) holds ``H``, a 1-colored column t holds an elbow when w(t)
    is below the running label, which then becomes w(t), and a cross
    otherwise.  Each elbow takes the label it met, which undoes the row's
    cycle: the code of the rows above, right of p.  No front walk runs, and
    the rows are an FPP's row prefix, so
    :meth:`~flagpipes.config._Frozen._trusted` builds the dream.  The dream
    keeps ``dp``'s code (see :func:`~flagpipes.config._keep`) for
    :func:`decperm_of` to read back.

    >>> dle_of(parse_decperm("2o1u4o3u")).grid
    ('VVPE', 'PEHX')

    A 2-colored fixed point (a 0 byte) is a pivot whose pipe is its own:

    >>> dle_of(parse_decperm("1o3o2u")).grid
    ('VPE', 'PHX')

    Past nine values the text is comma-separated:

    >>> D = dle_of(parse_decperm("3o,1u,2u,4u,5u,6u,7u,10o,8u,9u"))
    >>> D.pivots, D.grid
    ((8, 1), ('VVVVVVVPEE', 'PEEXXXXHXX'))
    >>> decperm_of(D).to_string()
    '3o,1u,2u,4u,5u,6u,7u,10o,8u,9u'
    """
    code = list(dp.code)
    n = len(code)
    over, under = [], []
    for j, b in enumerate(code, 1):
        (over if b > j or not b else under).append(j)
    under.reverse()
    right = [CROSS] * n
    for p in over:
        right[p - 1] = HLINE
    rows = []
    for p in over:
        x = code[p - 1] or p
        row = [VLINE] * (p - 1) + [PIVOT] + right[p:]
        for t in under:
            if t < p:
                break
            b = code[t - 1]
            if b < x:
                row[t - 1] = ELBOW
                code[t - 1], x = x, b
        rows.append("".join(row))
    D = PipeDream._trusted(cols=n, pivots=tuple(over[::-1]),
                           grid=tuple(rows[::-1]))
    _keep(D, "_code", dp.code)  # read back by decperm_of
    return D


def positroid_of(dp: DecoratedPermutation) -> Positroid:
    """Positroid with the given boundary data.

    Its canonical dream :func:`dle_of` is a row prefix of an FPP, hence
    gamma-free, and its pivots descend, so it is the positroid's dream as
    it is: no Bruhat test, no gamma-freeness sweep and no
    standardization.  The positroid is built by
    :meth:`~flagpipes.config._Frozen._trusted`, and its dream keeps
    ``dp``'s code, so :func:`decperm_of` of it sweeps nothing.

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

    >>> [bin(I) for I in _necklace(parse_decperm("3o1u2u").code)]
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

    >>> bin(_necklace_bases(parse_decperm("1u2o").code))
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
    return _unblocked(dp.code)


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
    code = dp.code
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


def _shifts(code, routine: str) -> tuple:
    """The shift kernel: the right shift of the code along each nonempty
    choice C of its unblocked positions (:func:`_shift`), by size then
    lexicographically, as codes in walk order.  The walk is 2^|U| long:
    ``covers_max_unblocked`` guards it, naming ``routine``.  Two choices
    with one result break the theory's bijection and raise."""
    U = _unblocked(code)
    _guard(routine, "covers_max_unblocked", len(U))
    seen = {}
    for r in range(1, len(U) + 1):
        for C in combinations(U, r):
            value = _shift(code, C)
            if value in seen:
                raise InvariantError(
                    f"{routine}: choices {seen[value]} and {C} give one result")
            seen[value] = C
    return tuple(seen)


def _shift(code, C):
    """The right shift of a code along a sorted choice C already known to
    be unblocked: :func:`_cycle` on its top-completion set, then C."""
    return _cycle(code, _top_completion(code, C) + tuple(C))


def _cycle(code, moved):
    """The one applier of a shift's moves: each of the increasing positions
    ``moved`` takes the value of the moved position before it, cyclically.
    A moved value on its own position becomes a fixed point of color 2
    (code 0); every other position's color follows from its value, so the
    result is a valid code."""
    out = list(code)
    before = moved[-1]
    for j in moved:
        v = code[before - 1] or before
        out[j - 1] = 0 if v == j else v
        before = j
    return type(code)(out)


def _inverse_code(code):
    """The code of the inverse: position w(j) takes j, and a fixed point
    trades its color (0 for j, j for 0), which keeps the code valid."""
    out = [0] * len(code)
    for j, b in enumerate(code, 1):
        if b != j:
            out[(b or j) - 1] = j
    return type(code)(out)


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
    code = dp.code
    return DecoratedPermutation._trusted(
        code=_shift(code, _choice(C, _unblocked(code))))


def covers_by_shift(dp: DecoratedPermutation) -> tuple[DecoratedPermutation, ...]:
    """One shift per nonempty choice of unblocked positions, sorted by text
    form; all results are distinct and valid (see :func:`_cycle`).

    >>> len(covers_by_shift(parse_decperm("1u2u3u")))
    7
    """
    return _by_text(_shifts(dp.code, "covers_by_shift"))


def _by_text(codes) -> tuple[DecoratedPermutation, ...]:
    """Valid codes as decorated permutations, sorted by text form."""
    build = DecoratedPermutation._trusted
    return tuple([build(code=code) for code in sorted(codes, key=_text)])


def left_unblocked_positions(dp: DecoratedPermutation) -> tuple[int, ...]:
    """2-colored positions whose value is above every earlier 2-colored
    value: the unblocked positions of the inverse, carried back.

    >>> left_unblocked_positions(parse_decperm("2o5o3o8o1u7o6u9o4u"))
    (1, 2, 4, 8)
    """
    inv = _inverse_code(dp.code)
    return tuple(sorted(inv[c - 1] for c in _unblocked(inv)))


def _mirrored(dp: DecoratedPermutation, R):
    """The inverse's code and the left choice R carried to it through
    dp's values, sorted; R is checked first, so an error names a position
    in dp's numbering, and the carried choice is unblocked in the inverse."""
    R = _choice(R, left_unblocked_positions(dp))
    code = dp.code
    return _inverse_code(code), sorted([code[r - 1] or r for r in R])


def or_set(dp: DecoratedPermutation, R) -> tuple[int, ...]:
    """Mirror of :func:`tc_set`: the 1-colored positions right of max(R),
    ever higher, whose values descend from the value at min(R).  Computed
    as the top-completion set of the inverse, carried back.

    >>> or_set(parse_decperm("2o5o3o8o1u7o6u9o4u"), {2, 8})
    (9,)
    """
    inv, C = _mirrored(dp, R)
    return tuple(sorted(inv[t - 1] or t for t in _top_completion(inv, C)))


def left_cyclic_shift(dp: DecoratedPermutation, R) -> DecoratedPermutation:
    """Rank-lowering move: cycle the values on R plus its completion one step
    toward larger positions; fixed points created by the cycle take color 1.
    Computed as the right shift of the inverse, inverted back.

    >>> left_cyclic_shift(parse_decperm("2o5o3o8o1u7o6u9o4u"),
    ...                   {2, 8}).to_string()
    '2o9o3o8o1u7o6u4u5u'
    """
    inv, C = _mirrored(dp, R)
    return DecoratedPermutation._trusted(code=_inverse_code(_shift(inv, C)))


def covered_by_shift(dp: DecoratedPermutation) -> tuple[DecoratedPermutation, ...]:
    """One left shift per nonempty choice of left-unblocked positions,
    sorted by text form: the covers of the inverse, inverted back.

    >>> len(covered_by_shift(parse_decperm("1o2o3o")))
    7
    """
    return _by_text(map(_inverse_code,
                        _shifts(_inverse_code(dp.code), "covered_by_shift")))


def inverse_decperm(dp: DecoratedPermutation) -> DecoratedPermutation:
    """Invert the permutation and flip the color across each value's arc,
    on the code (:func:`_inverse_code`).

    >>> inverse_decperm(parse_decperm("5o1u3u9o2u7o6u4u8u")).to_string()
    '2o5o3o8o1u7o6u9o4u'
    """
    return DecoratedPermutation._trusted(code=_inverse_code(dp.code))
