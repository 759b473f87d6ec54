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
from dataclasses import dataclass, fields

from .exceptions import DomainError, GuardExceededError

__all__ = ["Limits", "ENV_MAX_N", "current_limits"]

ENV_MAX_N = "POSITROID_MAX_N"


@dataclass(frozen=True)
class Limits:
    """Per-routine ground-set size caps.

    >>> current_limits().enumerate_max_n >= 6
    True
    """

    subword_max_n: int = 6
    enumerate_max_n: int = 6
    pathgraph_max_n: int = 12
    poset_representable_max_n: int = 5
    poset_matroidal_max_n: int = 4
    minors_max_n: int = 12
    covers_max_unblocked: int = 12


def current_limits() -> Limits:
    """Return the active limits, honouring ``POSITROID_MAX_N``.

    A non-integer value in the environment is ignored.  The environment is
    read on every call, so a new value takes effect at once.
    """
    try:
        override = int(os.environ[ENV_MAX_N])
    except (KeyError, ValueError):
        return Limits()
    return Limits(**{f.name: max(f.default, override) for f in fields(Limits)})


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
