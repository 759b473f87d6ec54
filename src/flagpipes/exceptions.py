"""Error taxonomy for the flagpipes library.

Every anticipated failure raises a subclass of :class:`DomainError`, which is
itself a ``ValueError`` so generic callers need no special handling.  The CLI
maps any ``DomainError`` to exit code 1 (usage errors exit 2).
"""

from __future__ import annotations

__all__ = [
    "DomainError",
    "SizeMismatchError",
    "NotComparableError",
    "MalformedDreamError",
    "GuardExceededError",
    "EmptyChoiceError",
    "NotUnblockedError",
    "NotGeneralizedPermutationError",
    "InvariantError",
]


class DomainError(ValueError):
    """Base class for all domain failures raised by flagpipes."""


class SizeMismatchError(DomainError):
    """Two objects that must share a ground-set size do not."""


class NotComparableError(DomainError):
    """A pair (u, v) is not below/above in Bruhat order as required."""


class MalformedDreamError(DomainError):
    """A tile grid violates the structural pipe-dream invariants."""


class GuardExceededError(DomainError):
    """An enumeration guard was hit; see POSITROID_MAX_N to override."""


class EmptyChoiceError(DomainError):
    """A choice set that must be nonempty is empty."""


class NotUnblockedError(DomainError):
    """A requested column is not unblocked; carries the offending column."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} is not unblocked")


class NotGeneralizedPermutationError(DomainError):
    """A matrix is not a generalized permutation matrix as required."""


class InvariantError(DomainError):
    """A computed result broke an invariant the theory guarantees: a defect
    in the library, not in its input.  Raised explicitly, so the check also
    holds under ``python -O``."""
