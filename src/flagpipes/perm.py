"""Permutations in one-line notation, Bruhat order, and Rothe diagrams.

A permutation of [n] = {1, ..., n} is a tuple of the values (u(1), ..., u(n)).
Composition is ``compose(a, b)(i) == a(b(i))``, so multiplying on the right by
the adjacent transposition ``simple(n, i)`` swaps the *values in positions*
i and i+1 of the one-line notation.

The Rothe diagram used throughout is the "dual" one adapted to pipe dreams:

    Rothe(u) = {(i, j) : u(i) < j and u^{-1}(j) > i}

so ``len(rothe_diagram(u)) == comb(n, 2) - length(u)``: the identity has the
full staircase and the longest element has the empty diagram.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations as _raw_permutations
from math import comb
from typing import Iterator

from .config import _guard
from .exceptions import DomainError, SizeMismatchError

__all__ = [
    "Permutation",
    "Word",
    "Box",
    "BoxSet",
    "Key",
    "identity",
    "longest",
    "is_permutation",
    "validate_permutation",
    "all_permutations",
    "compose",
    "inverse",
    "simple",
    "right_multiply",
    "word_to_perm",
    "length",
    "inversions",
    "descents",
    "ascents",
    "fixed_points",
    "key",
    "bruhat_leq",
    "bruhat_leq_subword_oracle",
    "reduced_word",
    "rothe_diagram",
    "word_x_of_rothe",
    "grassmannian_shape",
]

Permutation = tuple[int, ...]
Word = tuple[int, ...]  # letters i stand for adjacent transpositions s_i
Box = tuple[int, int]  # (row, column), 1-indexed, row 1 at the top
BoxSet = frozenset[Box]
# key(u): n-1 columns, column j holds sorted {u(1), ..., u(n-j)}
Key = tuple[tuple[int, ...], ...]


def identity(n: int) -> Permutation:
    """The identity permutation of [n].

    >>> identity(4)
    (1, 2, 3, 4)
    """
    return tuple(range(1, n + 1))


def longest(n: int) -> Permutation:
    """The longest element (n, n-1, ..., 1).

    >>> longest(4)
    (4, 3, 2, 1)
    """
    return tuple(range(n, 0, -1))


def is_permutation(p: tuple[int, ...]) -> bool:
    """True iff ``p`` is a rearrangement of (1, ..., len(p)).

    >>> is_permutation((2, 1, 3))
    True
    >>> is_permutation((1, 1, 3))
    False
    """
    return sorted(p) == list(range(1, len(p) + 1))


def validate_permutation(p: tuple[int, ...]) -> Permutation:
    """Return ``p`` as a tuple, raising :class:`DomainError` if malformed."""
    t = tuple(p)
    if not is_permutation(t):
        raise DomainError(f"not a permutation of [1..{len(t)}]: {t!r}")
    return t


def all_permutations(n: int) -> Iterator[Permutation]:
    """All permutations of [n] in lexicographic order.

    >>> list(all_permutations(2))
    [(1, 2), (2, 1)]
    """
    return _raw_permutations(range(1, n + 1))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """The composite ``i -> a(b(i))``.

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(a) != len(b):
        raise SizeMismatchError(f"compose: sizes {len(a)} != {len(b)}")
    return tuple(a[x - 1] for x in b)


def inverse(u: Permutation) -> Permutation:
    """The inverse permutation.

    >>> inverse((3, 1, 2))
    (2, 3, 1)
    """
    out = [0] * len(u)
    for i, x in enumerate(u, start=1):
        out[x - 1] = i
    return tuple(out)


def simple(n: int, i: int) -> Permutation:
    """The adjacent transposition swapping i and i+1.

    >>> simple(4, 2)
    (1, 3, 2, 4)
    """
    if not 1 <= i <= n - 1:
        raise DomainError(f"simple reflection index {i} out of range for n={n}")
    p = list(range(1, n + 1))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def right_multiply(u: Permutation, i: int) -> Permutation:
    """``u`` times the adjacent transposition s_i: swaps positions i, i+1.

    >>> right_multiply((3, 1, 2), 1)
    (1, 3, 2)
    """
    if not 1 <= i <= len(u) - 1:
        raise DomainError(f"letter {i} out of range for n={len(u)}")
    p = list(u)
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def word_to_perm(n: int, word: Word) -> Permutation:
    """Evaluate a word in adjacent transpositions, multiplying left to right.

    >>> word_to_perm(3, (1, 2))
    (2, 3, 1)
    """
    p = identity(n)
    for letter in word:
        p = right_multiply(p, letter)
    return p


def inversions(u: Permutation) -> frozenset[tuple[int, int]]:
    """Value pairs (a, b) with a < b and a appearing after b in ``u``.

    >>> sorted(inversions((3, 1, 2)))
    [(1, 3), (2, 3)]
    """
    pos = inverse(u)
    n = len(u)
    return frozenset(
        (a, b)
        for a, b in combinations(range(1, n + 1), 2)
        if pos[a - 1] > pos[b - 1]
    )


def length(u: Permutation) -> int:
    """Coxeter length = number of inversions.

    >>> length((4, 3, 2, 1))
    6
    """
    n = len(u)
    return sum(1 for i in range(n) for j in range(i + 1, n) if u[i] > u[j])


def descents(u: Permutation) -> tuple[int, ...]:
    """Positions i with u(i) > u(i+1).

    >>> descents((3, 1, 6, 5, 4, 2))
    (1, 3, 4, 5)
    """
    return tuple(i for i in range(1, len(u)) if u[i - 1] > u[i])


def ascents(u: Permutation) -> tuple[int, ...]:
    """Positions i with u(i) < u(i+1).

    >>> ascents((3, 1, 6, 5, 4, 2))
    (2,)
    """
    return tuple(i for i in range(1, len(u)) if u[i - 1] < u[i])


def fixed_points(u: Permutation) -> tuple[int, ...]:
    """Positions i with u(i) = i.

    >>> fixed_points((1, 3, 2, 4))
    (1, 4)
    """
    return tuple(i for i in range(1, len(u) + 1) if u[i - 1] == i)


def key(u: Permutation) -> Key:
    """The sorted-prefix key: column j is sorted {u(1), ..., u(n-j)}.

    >>> key((3, 1, 2))
    ((1, 3), (3,))
    """
    n = len(u)
    return tuple(tuple(sorted(u[: n - j])) for j in range(1, n))


def bruhat_leq(u: Permutation, v: Permutation) -> bool:
    """Bruhat order: u <= v iff key(u) <= key(v) entry by entry.

    >>> bruhat_leq((2, 1, 3), (1, 3, 2))
    False
    >>> bruhat_leq((1, 3, 2), (3, 2, 1))
    True
    """
    if len(u) != len(v):
        raise SizeMismatchError(f"bruhat_leq: sizes {len(u)} != {len(v)}")
    for cu, cv in zip(key(u), key(v)):
        for a, b in zip(cu, cv):
            if a > b:
                return False
    return True


@lru_cache(maxsize=None)
def reduced_word(u: Permutation) -> Word:
    """One fixed reduced word for ``u`` (peeled off the last descent).

    >>> reduced_word((3, 2, 1))
    (2, 1, 2)
    >>> word_to_perm(3, reduced_word((3, 2, 1)))
    (3, 2, 1)
    """
    word = []
    d = descents(u)
    while d:
        i = d[-1]
        word.append(i)
        u = right_multiply(u, i)
        d = descents(u)
    return tuple(reversed(word))


def bruhat_leq_subword_oracle(u: Permutation, v: Permutation) -> bool:
    """Bruhat order via the subword property, as an independent route.

    u <= v iff one fixed reduced word of v contains a reduced word of u as a
    subword.  Implemented by a forward scan keeping the set of permutations
    reachable as products of length-increasing subwords.  Guarded to n <= 6
    (override with POSITROID_MAX_N).

    >>> bruhat_leq_subword_oracle((1, 3, 2), (3, 2, 1))
    True
    """
    if len(u) != len(v):
        raise SizeMismatchError(f"subword oracle: sizes {len(u)} != {len(v)}")
    n = len(u)
    _guard("bruhat_leq_subword_oracle", "subword_max_n", n)
    if length(u) > length(v):
        return False
    word = reduced_word(v)
    reachable = {identity(n)}
    for letter in word:
        extended = set()
        for z in reachable:
            if z[letter - 1] < z[letter]:  # taking the letter stays reduced
                extended.add(right_multiply(z, letter))
        reachable |= extended
    return u in reachable


def rothe_diagram(u: Permutation) -> BoxSet:
    """Boxes (i, j) with u(i) < j and u^{-1}(j) > i.

    >>> sorted(rothe_diagram((1, 2, 3)))
    [(1, 2), (1, 3), (2, 3)]
    >>> rothe_diagram((3, 2, 1))
    frozenset()
    >>> len(rothe_diagram((3, 1, 2))) == comb(3, 2) - length((3, 1, 2))
    True
    """
    n = len(u)
    uinv = inverse(u)
    return frozenset(
        (i, j)
        for i in range(1, n + 1)
        for j in range(u[i - 1] + 1, n + 1)
        if uinv[j - 1] > i
    )


def word_x_of_rothe(u: Permutation) -> Word:
    """Letters of the Rothe boxes read bottom-to-top, right-to-left.

    The box in row i that is h-th from the right of its row contributes the
    letter i + h - 1.  The resulting word multiplies ``u`` up to the longest
    element and is reduced.

    >>> word_x_of_rothe((5, 3, 1, 6, 2, 7, 4))
    (5, 6, 4, 3, 4, 5, 6, 2, 3, 4, 1, 2)
    >>> word_to_perm(7, word_x_of_rothe((5, 3, 1, 6, 2, 7, 4))) == \\
    ...     compose(inverse((5, 3, 1, 6, 2, 7, 4)), longest(7))
    True
    """
    n = len(u)
    boxes = rothe_diagram(u)
    letters: list[int] = []
    for i in range(n, 0, -1):
        row = sorted((j for (r, j) in boxes if r == i), reverse=True)
        for h, _ in enumerate(row, start=1):
            letters.append(i + h - 1)
    return tuple(letters)


def grassmannian_shape(w: Permutation, k: int | None = None) -> tuple[int, ...]:
    """Partition attached to a permutation with at most one descent.

    With the descent at position k, part i counts the inversions whose larger
    entry is w(k - i + 1).

    >>> grassmannian_shape((4, 6, 1, 2, 3, 5))
    (4, 3)
    """
    d = descents(w)
    if len(d) > 1:
        raise DomainError(f"more than one descent: {w!r}")
    if k is None:
        k = d[0] if d else 0
    elif d and d[0] != k:
        raise DomainError(f"descent of {w!r} is not at {k}")
    n = len(w)
    shape = []
    for i in range(1, k + 1):
        pos = k - i + 1
        shape.append(sum(1 for j in range(pos + 1, n + 1) if w[pos - 1] > w[j - 1]))
    return tuple(shape)
