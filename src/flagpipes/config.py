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


def _compile_stores(cls) -> None:
    """Put the class's own ``_store`` and ``_trusted`` on it, each taking
    a keyword per name the class annotates and storing it with
    ``object.__setattr__``: every instance keeps the compact attribute
    storage, and no call takes a dict."""
    names = list(cls.__annotations__)
    keywords = ", ".join(names)
    stores = "".join(f"    store(obj, {n!r}, {n})\n" for n in names)
    scope = {"new": object.__new__, "store": object.__setattr__}
    exec(f"def _store(obj, *, {keywords}):\n{stores}"
         f"def _trusted(cls, *, {keywords}):\n    obj = new(cls)\n{stores}"
         "    return obj\n", scope)
    cls._store = scope["_store"]
    cls._trusted = classmethod(scope["_trusted"])


class _Frozen:
    """Base of the library's immutable value classes.

    A subclass annotates the names its instances store and lists its
    fields in ``_fields``.  Its ``__init__`` validates the arguments and
    stores them with one ``self._store(...)``, past the ``__setattr__``
    that refuses any later assignment or deletion.
    :meth:`_Frozen._trusted` is the one unchecked builder, for derived
    values valid by construction, each caller stating why: validation runs
    once, where values enter from outside.  Values are equal when class
    and fields are, the hash is that of the field tuple, and ``repr`` reads
    ``Class(field=value, ...)``.  A class whose values are compared and
    hashed in hot loops spells out ``__eq__`` and ``__hash__``.
    """

    _fields: tuple[str, ...] = ()

    @classmethod
    def _trusted(cls, **fields):
        """An instance holding ``fields``, a keyword per annotated name,
        unchecked.  The first call compiles the class's own builder (see
        :func:`_compile_stores`)."""
        _compile_stores(cls)
        return cls._trusted(**fields)

    def _store(self, **fields) -> None:
        """Store ``fields``, a keyword per annotated name, on a new
        instance.  The first call compiles the class's own store (see
        :func:`_compile_stores`)."""
        _compile_stores(self.__class__)
        self._store(**fields)

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
        self._store(
            subword_max_n=subword_max_n, enumerate_max_n=enumerate_max_n,
            pathgraph_max_n=pathgraph_max_n, minors_max_n=minors_max_n,
            poset_representable_max_n=poset_representable_max_n,
            poset_matroidal_max_n=poset_matroidal_max_n,
            covers_max_unblocked=covers_max_unblocked)


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
    """Refuse a size that is not a non-negative ``int``, naming the routine."""
    for name, value in sizes.items():
        if type(value) is not int:
            raise DomainError(f"{routine}: {name} must be an integer, "
                              f"got {value!r}")
        if value < 0:
            raise DomainError(f"{routine}: {name} must be at least 0, "
                              f"got {value}")
