"""Size guards with their environment override, and the frozen base of
the library's value classes.

Exhaustive routines (pipe-dream enumeration, poset construction, minor
tables) refuse a size above a cap, so a typo cannot start a week-long loop.
The default caps are one private table; setting ``POSITROID_MAX_N`` to an
integer raises each to at least that value.  Most caps bound a ground-set
size; ``covers_max_unblocked`` bounds the unblocked positions whose
nonempty subsets a cover listing walks.
"""

from __future__ import annotations

import os

from .exceptions import DomainError, GuardExceededError

__all__ = ["ENV_MAX_N"]

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
    that refuses any later assignment or deletion; a sequence field is
    stored as a tuple (see :func:`_as_tuple`).
    :meth:`_Frozen._trusted` is the one unchecked builder, for derived
    values valid by construction, each caller stating why: validation runs
    once, where values enter from outside.  Values are equal when class
    and fields are, the hash is that of the field tuple, and ``repr`` reads
    ``Class(field=value, ...)``.  Derived state outside the fields, which
    none of these read, is kept with :func:`_keep`.
    :class:`~flagpipes.decperm.DecoratedPermutation` is the one exception
    to the hash rule: it stores its code, not its fields, and hashes that.
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


def _keep(obj: _Frozen, name: str, value) -> None:
    """Keep ``value`` as ``obj.name``, derived state beside the fields of a
    frozen value (a cache or a seed that equality, the hash and ``repr``
    never read), in the instance's compact attribute storage."""
    object.__setattr__(obj, name, value)


# The default cap of each guard.  ``POSITROID_MAX_N`` only raises a cap.
_LIMITS = {
    "subword_max_n": 6,
    "enumerate_max_n": 6,
    "pathgraph_max_n": 12,
    "poset_representable_max_n": 5,
    "poset_matroidal_max_n": 4,
    "minors_max_n": 12,
    "covers_max_unblocked": 12,
}


def _guard(routine: str, field: str, value: int) -> None:
    """Refuse a size ``value`` above the cap ``field``, naming the routine,
    the value, the cap and its override.  An override only raises a cap,
    so a size within the default reads no environment; above it,
    ``POSITROID_MAX_N`` is read once, and a non-integer value is ignored."""
    cap = _LIMITS[field]
    if value <= cap:
        return
    try:
        cap = max(cap, int(os.environ[ENV_MAX_N]))
    except (KeyError, ValueError):
        pass
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


def _as_tuple(owner: str, name: str, value, nested: bool = False) -> tuple:
    """A sequence field of a validating constructor as a tuple: a tuple as
    it is, a list or a tuple subclass copied, and with ``nested`` each item
    the same way; anything else is refused, naming the class and the
    field.  So a validated value holds nothing its caller can still
    change, and it hashes and compares as its twin built from tuples."""
    if type(value) is not tuple:
        if not isinstance(value, (tuple, list)):
            raise DomainError(f"{owner}: {name} must be a tuple or a list, "
                              f"got {value!r}")
        value = tuple(value)
    if nested and not all([type(item) is tuple for item in value]):
        value = tuple([_as_tuple(owner, name, item) for item in value])
    return value
