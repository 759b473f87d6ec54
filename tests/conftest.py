"""Shared fixtures and hypothesis settings for the suite."""

import os
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from flagpipes.decperm import parse_decperm, positroid_of
from flagpipes.pipedream import enumerate_partial_fpps
from flagpipes.ratmat import rational_matrix

# pytest puts src/ on this process's path (pythonpath in pyproject.toml);
# the CLI and script tests start child processes, which find the package
# through PYTHONPATH instead.
SRC = str(Path(__file__).resolve().parent.parent / "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in map(os.path.abspath, _paths):
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + _paths)

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def running_example():
    """The rank-3 positroid on [9] used across many worked examples."""
    return positroid_of(parse_decperm("5o1u3u9o2u7o6u4u8u"))


@pytest.fixture(scope="session")
def golden_matrix():
    """The 4x7 complete nonnegative representation used by the exact
    linear-algebra checks (flag ranks 3 and 4)."""
    return rational_matrix(
        [
            [0, 0, 0, 0, 1, 1, 0],
            [0, 0, -1, -1, 0, 1, 1],
            [1, 1, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 1, 2],
        ]
    )


@pytest.fixture(scope="session")
def half():
    return Fraction(1, 2)


@pytest.fixture(scope="session")
def gamma_free_dreams_n5():
    """Every gamma-free partial dream on 5 columns, any rank and pivot
    order (9430 of them)."""
    return [D for k in range(6) for D in enumerate_partial_fpps(5, k)]
