"""Enumeration guards: every one names its routine, size, limit and override."""

import pytest

from flagpipes import config
from flagpipes.config import ENV_MAX_N, _guard
from flagpipes.decperm import covered_by_shift, covers_by_shift, parse_decperm
from flagpipes.exceptions import DomainError, GuardExceededError
from flagpipes.flagbuild import quotient_covers
from flagpipes.pathgraph import bases_of
from flagpipes.perm import bruhat_leq_subword_oracle
from flagpipes.pipedream import (
    PipeDream,
    construct_fpp,
    enumerate_fpps,
    enumerate_le_dreams,
    enumerate_partial_fpps,
    restrict,
)
from flagpipes.poset import build_poset
from flagpipes.positroid import (
    Positroid,
    enumerate_positroids,
    standardize_step,
)
from flagpipes.ratmat import flag_minors, rational_matrix


def identity(n: int, mark: str):
    return parse_decperm(",".join(f"{j}{mark}" for j in range(1, n + 1)))


# (routine as named in the error, call one size above the default limit,
# limit field, its default, the size passed)
GUARDED = [
    ("enumerate_fpps", lambda: next(enumerate_fpps(7)), "enumerate_max_n", 6, 7),
    ("enumerate_partial_fpps", lambda: next(enumerate_partial_fpps(7, 1)),
     "enumerate_max_n", 6, 7),
    ("enumerate_le_dreams", lambda: next(enumerate_le_dreams(7, 1)),
     "enumerate_max_n", 6, 7),
    ("enumerate_positroids", lambda: next(enumerate_positroids(7)),
     "enumerate_max_n", 6, 7),
    ("bruhat_leq_subword_oracle",
     lambda: bruhat_leq_subword_oracle(tuple(range(1, 8)), tuple(range(1, 8))),
     "subword_max_n", 6, 7),
    ("build_poset", lambda: build_poset(6), "poset_representable_max_n", 5, 6),
    ("build_poset", lambda: build_poset(5, "matroidal"),
     "poset_matroidal_max_n", 4, 5),
    ("bases_of",
     lambda: bases_of(PipeDream(cols=13, pivots=(1,), grid=("P" + "E" * 12,))),
     "pathgraph_max_n", 12, 13),
    ("flag_minors", lambda: flag_minors(rational_matrix([[1] * 13]), (1,)),
     "minors_max_n", 12, 13),
    ("covers_by_shift", lambda: covers_by_shift(identity(13, "u")),
     "covers_max_unblocked", 12, 13),
    ("covered_by_shift", lambda: covered_by_shift(identity(13, "o")),
     "covers_max_unblocked", 12, 13),
    ("quotient_covers",
     lambda: quotient_covers(
         Positroid.from_dream(PipeDream(cols=13, pivots=(), grid=()))),
     "covers_max_unblocked", 12, 13),
]


@pytest.mark.parametrize("routine, call, field, cap, size", GUARDED,
                         ids=[g[2] + ":" + g[0] for g in GUARDED])
def test_guard_error_names_routine_size_limit_and_override(
        routine, call, field, cap, size):
    with pytest.raises(GuardExceededError) as info:
        call()
    message = str(info.value)
    assert message.startswith(f"{routine}: {size} ")
    assert f"{field} = {cap}" in message
    assert ENV_MAX_N in message


# (routine, call with a bad value of one size, the size named in the error)
BAD_SIZES = [
    ("enumerate_fpps", lambda v: next(enumerate_fpps(v)), "n"),
    ("enumerate_partial_fpps", lambda v: next(enumerate_partial_fpps(v, 0)),
     "n"),
    ("enumerate_partial_fpps", lambda v: next(enumerate_partial_fpps(3, v)),
     "k"),
    ("enumerate_le_dreams", lambda v: next(enumerate_le_dreams(v, 0)), "n"),
    ("enumerate_le_dreams", lambda v: next(enumerate_le_dreams(3, v)), "k"),
    ("enumerate_positroids", lambda v: next(enumerate_positroids(v)), "n"),
    ("build_poset", lambda v: build_poset(v), "n"),
    ("restrict", lambda v: restrict(construct_fpp((1, 2), (2, 1)), v), "k"),
    ("standardize_step",
     lambda v: standardize_step(construct_fpp((1, 2, 3), (3, 1, 2)), v), "i"),
]
BAD_SIZE_IDS = [f"{b[0]}:{b[2]}" for b in BAD_SIZES]
# Sizes of another type: a float, even a whole one, a bool and a string.
NOT_INTEGERS = [2.5, 2.0, True, "3"]


@pytest.mark.parametrize("routine, call, size", BAD_SIZES, ids=BAD_SIZE_IDS)
def test_a_negative_size_is_a_domain_error_naming_the_routine(
        routine, call, size):
    with pytest.raises(DomainError) as info:
        call(-1)
    assert not isinstance(info.value, GuardExceededError)
    assert str(info.value) == f"{routine}: {size} must be at least 0, got -1"


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("routine, call, size", BAD_SIZES, ids=BAD_SIZE_IDS)
def test_a_size_that_is_not_an_int_is_a_domain_error_naming_the_routine(
        routine, call, size, value):
    with pytest.raises(DomainError) as info:
        call(value)
    assert not isinstance(info.value, GuardExceededError)
    assert str(info.value) == (f"{routine}: {size} must be an integer, "
                               f"got {value!r}")


def test_more_rows_than_columns_list_nothing():
    assert list(enumerate_partial_fpps(3, 4)) == []
    assert list(enumerate_le_dreams(3, 4)) == []


def test_a_changed_override_takes_effect_at_once(monkeypatch):
    monkeypatch.setenv(ENV_MAX_N, "7")
    _guard("routine", "enumerate_max_n", 7)
    assert next(enumerate_le_dreams(7, 1)).cols == 7
    monkeypatch.setenv(ENV_MAX_N, "9")
    _guard("routine", "enumerate_max_n", 9)
    with pytest.raises(GuardExceededError, match="enumerate_max_n = 9 "):
        _guard("routine", "enumerate_max_n", 10)
    for ignored in ("seven", "3"):  # not an integer; below the default
        monkeypatch.setenv(ENV_MAX_N, ignored)
        with pytest.raises(GuardExceededError, match="enumerate_max_n = 6 "):
            _guard("routine", "enumerate_max_n", 7)
    monkeypatch.delenv(ENV_MAX_N)
    with pytest.raises(GuardExceededError):
        next(enumerate_le_dreams(7, 1))


def test_a_size_within_the_default_reads_no_environment(monkeypatch):
    """An override only raises a cap, so a size at or below a cap's
    default passes without reading the environment."""
    class Unread:
        @property
        def environ(self):
            raise AssertionError("environment read")

    monkeypatch.setattr(config, "os", Unread())
    assert len(config._LIMITS) == 7
    for name, cap in config._LIMITS.items():
        _guard("routine", name, cap)
    with pytest.raises(AssertionError, match="environment read"):
        _guard("routine", "enumerate_max_n",
               config._LIMITS["enumerate_max_n"] + 1)
