"""Enumeration guards and their environment override.

Exhaustive routines (full pipe-dream enumeration, poset construction, minor
tables) are guarded by size limits so a typo cannot start a week-long loop.
Setting the environment variable ``POSITROID_MAX_N`` to an integer raises every
guard to at least that value.  Most guards cap a ground-set size;
``covers_max_unblocked`` caps the number of unblocked positions whose
nonempty subsets a cover listing walks.
"""

from __future__ import annotations

import os

from .exceptions import DomainError, GuardExceededError

__all__ = ["Limits", "ENV_MAX_N", "current_limits"]

ENV_MAX_N = "POSITROID_MAX_N"


class _Frozen:
    """Base of the library's immutable value classes.

    A subclass lists its field names in ``_fields`` and stores them in its
    own ``__init__`` with ``object.__setattr__``; after that no attribute
    can be assigned or deleted.  Two values are equal when they have the
    same class and equal fields, the hash is that of the field tuple, and
    ``repr`` reads ``Class(field=value, ...)``.  Instances keep a
    ``__dict__``, so ``cached_property`` and pickling work as for any
    object.  A class whose values are compared and hashed in hot loops
    spells out ``__eq__`` and ``__hash__`` over its own fields.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Limits(_Frozen):
    """Per-routine ground-set size caps.  The class attributes are the
    defaults.

    >>> current_limits().enumerate_max_n >= 6
    True
    """

    _fields = ("subword_max_n", "enumerate_max_n", "pathgraph_max_n",
               "poset_representable_max_n", "poset_matroidal_max_n",
               "minors_max_n", "covers_max_unblocked")
    subword_max_n: int = 6
    enumerate_max_n: int = 6
    pathgraph_max_n: int = 12
    poset_representable_max_n: int = 5
    poset_matroidal_max_n: int = 4
    minors_max_n: int = 12
    covers_max_unblocked: int = 12

    def __init__(self, subword_max_n: int = subword_max_n,
                 enumerate_max_n: int = enumerate_max_n,
                 pathgraph_max_n: int = pathgraph_max_n,
                 poset_representable_max_n: int = poset_representable_max_n,
                 poset_matroidal_max_n: int = poset_matroidal_max_n,
                 minors_max_n: int = minors_max_n,
                 covers_max_unblocked: int = covers_max_unblocked) -> None:
        object.__setattr__(self, "subword_max_n", subword_max_n)
        object.__setattr__(self, "enumerate_max_n", enumerate_max_n)
        object.__setattr__(self, "pathgraph_max_n", pathgraph_max_n)
        object.__setattr__(self, "poset_representable_max_n",
                           poset_representable_max_n)
        object.__setattr__(self, "poset_matroidal_max_n",
                           poset_matroidal_max_n)
        object.__setattr__(self, "minors_max_n", minors_max_n)
        object.__setattr__(self, "covers_max_unblocked", covers_max_unblocked)


def current_limits() -> Limits:
    """Return the active limits, honouring ``POSITROID_MAX_N``.

    A non-integer value in the environment is ignored.  The environment is
    read on every call, so a new value takes effect at once.
    """
    try:
        override = int(os.environ[ENV_MAX_N])
    except (KeyError, ValueError):
        return Limits()
    return Limits(**{name: max(getattr(Limits, name), override)
                     for name in Limits._fields})


def _guard(routine: str, field: str, value: int) -> None:
    """Refuse a size ``value`` above the limit ``field``, naming the
    routine, the value, the limit and its override.  An override only
    raises a limit, so a size within the default needs no environment
    read."""
    if value <= getattr(Limits, field):
        return
    cap = getattr(current_limits(), field)
    if value > cap:
        raise GuardExceededError(
            f"{routine}: {value} exceeds {field} = {cap} "
            f"(guarded; {ENV_MAX_N} raises it)")


def _check_sizes(routine: str, **sizes: int) -> None:
    """Refuse a negative size, naming the routine and the size."""
    for name, value in sizes.items():
        if value < 0:
            raise DomainError(f"{routine}: {name} must be at least 0, "
                              f"got {value}")
