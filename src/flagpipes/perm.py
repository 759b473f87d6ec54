"""Permutations in one-line notation, Bruhat order, and reduced words.

A permutation of [n] = {1, ..., n} is a tuple of the values (u(1), ..., u(n)).
Multiplying on the right by the adjacent transposition s_i
(:func:`right_multiply`) swaps the *values in positions* i and i+1 of the
one-line notation, and a word in adjacent transpositions is multiplied left
to right.  Bruhat order compares sorted prefixes (:func:`key`); the subword
property gives the independent route :func:`bruhat_leq_subword_oracle`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations as _raw_permutations
from operator import le
from typing import Iterator

from .config import _guard
from .exceptions import DomainError, SizeMismatchError

__all__ = [
    "Permutation",
    "Word",
    "Box",
    "Key",
    "identity",
    "is_permutation",
    "validate_permutation",
    "all_permutations",
    "inverse",
    "right_multiply",
    "length",
    "descents",
    "ascents",
    "key",
    "bruhat_leq",
    "bruhat_leq_subword_oracle",
    "reduced_word",
]

Permutation = tuple[int, ...]
Word = tuple[int, ...]  # letters i stand for adjacent transpositions s_i
Box = tuple[int, int]  # (row, column), 1-indexed, row 1 at the top
# key(u): n-1 columns, column j holds sorted {u(1), ..., u(n-j)}
Key = tuple[tuple[int, ...], ...]


def identity(n: int) -> Permutation:
    """The identity permutation of [n].

    >>> identity(4)
    (1, 2, 3, 4)
    """
    return tuple(range(1, n + 1))


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


def inverse(u: Permutation) -> Permutation:
    """The inverse permutation.

    >>> inverse((3, 1, 2))
    (2, 3, 1)
    """
    out = [0] * len(u)
    for i, x in enumerate(u, start=1):
        out[x - 1] = i
    return tuple(out)


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
    return _key_leq(key(u), key(v))


def _key_leq(ku: Key, kv: Key) -> bool:
    """Bruhat order on two sorted-prefix keys of one size, for callers that
    key each permutation once and compare every pair."""
    for cu, cv in zip(ku, kv):
        if not all(map(le, cu, cv)):
            return False
    return True


@lru_cache(maxsize=None)
def reduced_word(u: Permutation) -> Word:
    """One fixed reduced word for ``u`` (peeled off the last descent).

    >>> reduced_word((3, 2, 1))
    (2, 1, 2)
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
