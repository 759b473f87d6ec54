"""Hypothesis strategies and assertions shared by the test modules.

They live here, not in ``conftest.py``: a test module that imports from
``conftest`` gets whichever conftest pytest loaded last, and the harness
tests under ``perfbench/tests`` have their own.
"""

from hypothesis import strategies as st

from flagpipes.pipedream import PipeDream


def permutations_of(n: int):
    """Strategy: a permutation of [n] as a tuple."""
    return st.permutations(tuple(range(1, n + 1))).map(tuple)


def sized_permutations(max_n: int = 6):
    """Strategy: a permutation of [n] for some 1 <= n <= max_n."""
    return st.integers(min_value=1, max_value=max_n).flatmap(permutations_of)


def permutation_pairs(max_n: int = 5):
    """Strategy: two permutations of a common size."""
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(permutations_of(n), permutations_of(n))
    )


def assert_rebuilds(D) -> None:
    """A dream the library built unchecked passes the public constructor's
    checks and comes back equal."""
    assert PipeDream(D.cols, D.pivots, D.grid) == D
