"""Value semantics of the library's ten immutable classes: the text of
``repr``, equality and hashing over the fields, keyword construction and
defaults, no assignment or deletion, and pickling."""

import copy
import pickle
import sys
from fractions import Fraction

import pytest

from flagpipes.decperm import DecoratedPermutation
from flagpipes.exceptions import DomainError
from flagpipes.flagbuild import FlagPositroid, flag_of_fpp
from flagpipes.pathgraph import BasisSet, basis_set
from flagpipes.pipedream import (LeDream, PipeDream, PipeTrace, construct_fpp,
                                 rotate_le, trace_pipes)
from flagpipes.poset import build_poset
from flagpipes.positroid import Positroid
from flagpipes.ratmat import RationalMatrix, rational_matrix
from flagpipes.verify import CheckResult

D = construct_fpp((1, 2), (2, 1))

# (value, its field names in order, its repr)
SAMPLES = [
    (DecoratedPermutation((2, 1), (2, 1)), ("perm", "color"),
     "DecoratedPermutation(perm=(2, 1), color=(2, 1))"),
    (flag_of_fpp(D), ("n", "ranks", "constituents"),
     "FlagPositroid(n=2, ranks=(1, 2), constituents=(Positroid(dream="
     "PipeDream(cols=2, pivots=(1,), grid=('PE',))), Positroid(dream="
     "PipeDream(cols=2, pivots=(2, 1), grid=('VP', 'PH')))))"),
    (basis_set(3, [{1}, {2}]), ("n", "k", "offset_zero", "bases"),
     "BasisSet(n=3, k=1, offset_zero=False, bases=((1,), (2,)))"),
    (D, ("cols", "pivots", "grid"),
     "PipeDream(cols=2, pivots=(1, 2), grid=('PE', '.P'))"),
    (trace_pipes(construct_fpp((1, 2, 3), (3, 1, 2)))[0],
     ("label", "horizontal_crosses", "exit_side", "exit_index"),
     "PipeTrace(label=1, horizontal_crosses=((2, 3),), exit_side='right', "
     "exit_index=2)"),
    (rotate_le(construct_fpp((2, 1, 3), (3, 2, 1))), ("cols", "pivots", "rows"),
     "LeDream(cols=3, pivots=(2, 1), rows=('E', 'E'))"),
    (build_poset(1), ("n", "flavor", "decperms", "covers"),
     "QuotientPoset(n=1, flavor='representable', decperms=("
     "DecoratedPermutation(perm=(1,), color=(1,)), "
     "DecoratedPermutation(perm=(1,), color=(2,))), covers=((0, 1),))"),
    (Positroid.from_dream(D), ("dream",),
     "Positroid(dream=PipeDream(cols=2, pivots=(2, 1), grid=('VP', 'PH')))"),
    (rational_matrix([[1, "1/2"]]), ("rows", "offset_zero"),
     "RationalMatrix(rows=((Fraction(1, 1), Fraction(1, 2)),), "
     "offset_zero=False)"),
    (CheckResult("golden-grids", True, "3 grids", 0.25),
     ("name", "ok", "detail", "seconds"),
     "CheckResult(name='golden-grids', ok=True, detail='3 grids', "
     "seconds=0.25)"),
]
IDS = [type(x).__name__ for x, _, _ in SAMPLES]


def field_tuple(x, names):
    return tuple(getattr(x, name) for name in names)


def test_every_value_class_has_a_sample():
    assert len(set(IDS)) == len(IDS) == 10


@pytest.mark.parametrize("x, names, text", SAMPLES, ids=IDS)
def test_repr(x, names, text):
    assert repr(x) == text


@pytest.mark.parametrize("x, names, text", SAMPLES, ids=IDS)
def test_equality_and_hash_go_by_the_fields(x, names, text):
    rebuilt = type(x)(**{name: getattr(x, name) for name in names})
    assert rebuilt is not x
    assert rebuilt == x and not rebuilt != x
    assert hash(rebuilt) == hash(x) and repr(rebuilt) == text
    if type(x) is not DecoratedPermutation:  # it hashes its stored code
        assert hash(x) == hash(field_tuple(x, names))
    assert {x: 1}[rebuilt] == 1


@pytest.mark.parametrize("x, names, text", SAMPLES, ids=IDS)
def test_another_class_is_never_equal(x, names, text):
    """Not even the tuple of the value's own fields."""
    fields = field_tuple(x, names)
    assert x != fields and fields != x
    assert x.__eq__(fields) is NotImplemented
    assert x.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("x, names, text", SAMPLES, ids=IDS)
def test_no_attribute_can_be_assigned_or_deleted(x, names, text):
    for name in (*names, "unknown"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert repr(x) == text


def test_keyword_construction_and_defaults():
    rows = ((Fraction(3), Fraction(1, 2)),)
    plain = RationalMatrix(rows)
    assert plain.offset_zero is False
    assert plain == RationalMatrix(rows=rows, offset_zero=False)
    assert plain != RationalMatrix(rows, offset_zero=True)
    assert repr(RationalMatrix(rows, True)) == (
        "RationalMatrix(rows=((Fraction(3, 1), Fraction(1, 2)),), "
        "offset_zero=True)")
    assert PipeDream(cols=2, pivots=(1, 2), grid=("PE", ".P")) == D


def test_a_positroid_with_cached_bases_pickles():
    P = Positroid.from_dream(construct_fpp((1, 3, 2), (3, 2, 1)))
    bases = P.bases
    assert "bases" in vars(P)
    Q = pickle.loads(pickle.dumps(P))
    assert Q == P and Q is not P and hash(Q) == hash(P)
    assert "bases" in vars(Q) and Q.bases == bases
    with pytest.raises(AttributeError):
        Q.dream = D


def test_a_check_result_pickles():
    r = CheckResult("golden-grids", True, "3 grids", 0.25)
    s = pickle.loads(pickle.dumps(r))
    assert s == r and s.line == r.line


def test_cached_properties_fill_once():
    poset = build_poset(2)
    assert poset.names is poset.names
    P = Positroid.from_dream(D)
    assert P.bases is P.bases


@pytest.mark.parametrize("x, names, text", SAMPLES, ids=IDS)
def test_a_trusted_build_has_value_semantics(x, names, text):
    """``_trusted`` stores what the class annotates, its fields and any
    derived state, without the constructor's checks; a field it does not
    store (QuotientPoset's ``decperms`` and ``covers``) is a property that
    derives it from the stored compact form.  The value built compares,
    hashes, prints, refuses changes and pickles as the constructor's
    does."""
    stored = type(x).__annotations__
    derived = [name for name in names if name not in stored]
    assert all(isinstance(vars(type(x)).get(name), property)
               for name in derived)
    built = type(x)._trusted(**{name: getattr(x, name) for name in stored})
    assert type(built) is type(x) and built is not x
    assert built == x and hash(built) == hash(x)
    assert repr(built) == text
    for name in (*names, "unknown"):
        with pytest.raises(AttributeError):
            setattr(built, name, None)
        with pytest.raises(AttributeError):
            delattr(built, name)
    copy = pickle.loads(pickle.dumps(built))
    assert copy == x and hash(copy) == hash(x) and repr(copy) == text


@pytest.mark.parametrize("x, names, text", SAMPLES, ids=IDS)
def test_a_validated_build_is_as_compact_as_a_trusted_one(x, names, text):
    """Both builds store the fields past the instance dict, so the dict
    that ``vars`` makes has the same size for each."""
    validated = type(x)(**{name: getattr(x, name) for name in names})
    trusted = type(x)._trusted(**{name: getattr(x, name)
                                  for name in type(x).__annotations__})
    assert sys.getsizeof(vars(validated)) == sys.getsizeof(vars(trusted))


P1, P2 = flag_of_fpp(D).constituents
# (class, its arguments with list sequences, the same with tuples)
LISTED = [
    (PipeDream, (2, [2, 1], ["VP", "PH"]), (2, (2, 1), ("VP", "PH"))),
    (LeDream, (3, [2, 1], ["E", "E"]), (3, (2, 1), ("E", "E"))),
    (PipeTrace, (1, [[2, 3]], "right", 2), (1, ((2, 3),), "right", 2)),
    (RationalMatrix, ([[Fraction(1), Fraction(1, 2)]],),
     (((Fraction(1), Fraction(1, 2)),),)),
    (BasisSet, (3, 1, False, [[1], [2]]), (3, 1, False, ((1,), (2,)))),
    (FlagPositroid, (2, [1, 2], [P1, P2]), (2, (1, 2), (P1, P2))),
]


@pytest.mark.parametrize("cls, listed, tupled", LISTED,
                         ids=[c.__name__ for c, _, _ in LISTED])
def test_a_value_built_from_lists_is_its_tuple_twin(cls, listed, tupled):
    """The validating constructor stores each sequence it is given as a
    tuple, so the value hashes and equals its twin built from tuples, and
    changing the caller's lists afterwards changes nothing."""
    listed = copy.deepcopy(listed)
    x, twin = cls(*listed), cls(*tupled)
    assert x == twin and hash(x) == hash(twin) and repr(x) == repr(twin)
    for arg in listed:
        if isinstance(arg, list):
            arg.append(arg[0])
            if isinstance(arg[0], list):
                arg[0].append(0)
    assert x == twin and hash(x) == hash(twin)


@pytest.mark.parametrize("build", [
    lambda: PipeDream(2, {2, 1}, ("VP", "PH")),
    lambda: PipeDream(2, (2, 1), "VPPH"),
    lambda: PipeDream(2, (2, 1), (["V", "P"], "PH")),
    lambda: LeDream(3, (2, 1), (["E"], "E")),
    lambda: PipeTrace(1, {(2, 3)}, "right", 2),
    lambda: RationalMatrix(rows=({Fraction(1)},)),
    lambda: BasisSet(3, 1, False, (1, 2)),
    lambda: FlagPositroid(2, range(1, 3), (P1, P2)),
], ids=["pivot-set", "grid-text", "list-row", "list-rotated-row",
        "cross-set", "row-set", "bare-bases", "rank-range"])
def test_a_sequence_field_that_is_no_tuple_or_list_is_refused(build):
    with pytest.raises(DomainError):
        build()


@pytest.mark.parametrize("build", [
    lambda: PipeDream(1, (True,), ("P",)),
    lambda: construct_fpp((True, 2), (2, 1)),
    lambda: PipeDream(True, (1,), ("P",)),
    lambda: PipeDream("2", (), ()),
    lambda: BasisSet(2.5, 1, False, ((1,),)),
    lambda: BasisSet(3, True, False, ((1,),)),
    lambda: BasisSet(3, 1, "no", ((1,),)),
    lambda: FlagPositroid(2, (1,), ("x",)),
    lambda: FlagPositroid(2.0, (1, 2), (P1, P2)),
    lambda: FlagPositroid(2, (True, 2), (P1, P2)),
], ids=["bool-pivot", "bool-pivot-pair", "bool-cols", "text-cols",
        "float-n", "bool-k", "text-offset", "text-constituent", "float-flag-n",
        "bool-rank"])
def test_a_scalar_field_of_the_wrong_type_is_refused(build):
    """A bool is no column, size or rank, so no value prints one field and
    equals the value holding another."""
    with pytest.raises(DomainError):
        build()
