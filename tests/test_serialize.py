"""JSON forms: value <-> document round trips and document sniffing."""

import json

import pytest
from hypothesis import assume, given, settings, strategies as st

import flagpipes.serialize as ser
from flagpipes.decperm import parse_decperm, positroid_of
from flagpipes.exceptions import DomainError
from flagpipes.flagbuild import flag_of_fpp
from flagpipes.pathgraph import bases_of, basis_set
from flagpipes.perm import bruhat_leq
from flagpipes.pipedream import construct_fpp
from flagpipes.ratmat import rational_matrix

from conftest import permutation_pairs


class TestRoundTrips:
    @given(permutation_pairs(max_n=4))
    def test_dream(self, uv):
        u, v = uv
        assume(bruhat_leq(u, v))
        D = construct_fpp(u, v)
        doc = ser.dream_to_json(D)
        assert json.loads(json.dumps(doc)) == doc
        assert ser.dream_from_json(doc) == D

    def test_dream_golden_document(self):
        doc = ser.dream_to_json(construct_fpp((1, 2), (2, 1)))
        assert doc == {"rows": 2, "cols": 2, "pivots": [1, 2],
                       "tiles": [["P", "E"], [".", "P"]]}

    @given(permutation_pairs(max_n=4))
    def test_basis_set(self, uv):
        u, v = uv
        assume(bruhat_leq(u, v))
        B = bases_of(construct_fpp(u, v))
        assert ser.basis_set_from_json(ser.basis_set_to_json(B)) == B

    def test_positroid(self, running_example):
        doc = ser.positroid_to_json(running_example)
        assert doc["rank"] == running_example.rank
        assert ser.positroid_from_json(doc) == running_example

    def test_decperm(self, running_example):
        w = parse_decperm("5o1u3u9o2u7o6u4u8u")
        assert ser.decperm_from_json(ser.decperm_to_json(w)) == w

    @given(permutation_pairs(max_n=4))
    def test_flag(self, uv):
        u, v = uv
        assume(bruhat_leq(u, v))
        F = flag_of_fpp(construct_fpp(u, v))
        assert ser.flag_from_json(ser.flag_to_json(F)) == F

    def test_offset_basis_set_keeps_flag(self):
        B = basis_set(2, [(0, 1), (0, 2), (1, 2)], offset_zero=True)
        doc = ser.basis_set_to_json(B)
        assert doc["offsetZero"] is True
        assert ser.basis_set_from_json(doc) == B


class TestConsistencyChecks:
    def test_dream_row_count_checked(self):
        doc = ser.dream_to_json(construct_fpp((1, 2), (2, 1)))
        doc["rows"] = 3
        with pytest.raises(DomainError):
            ser.dream_from_json(doc)

    def test_basis_rank_checked(self):
        doc = ser.basis_set_to_json(basis_set(2, [(1,), (2,)]))
        doc["k"] = 2
        with pytest.raises(DomainError):
            ser.basis_set_from_json(doc)

    def test_positroid_rank_checked(self, running_example):
        doc = ser.positroid_to_json(running_example)
        doc["rank"] += 1
        with pytest.raises(DomainError):
            ser.positroid_from_json(doc)

    def test_positroid_document_is_canonicalized(self):
        # an ascending-pivot dream document is standardized on parse
        D = construct_fpp((1, 2), (2, 1))
        doc = ser.dream_to_json(D)
        doc["rank"] = 2
        P = ser.positroid_from_json(doc)
        assert P.dream != D
        assert P.dream.pivots == (2, 1)
        assert P.bases.bases == ((1, 2),)


class TestParseAny:
    def test_each_dict_kind(self, running_example):
        cases = [
            ("flag", ser.flag_to_json(flag_of_fpp(construct_fpp(
                (1, 2, 3), (3, 1, 2))))),
            ("positroid", ser.positroid_to_json(running_example)),
            ("dream", ser.dream_to_json(construct_fpp((1, 2), (2, 1)))),
            ("basis-set", ser.basis_set_to_json(basis_set(2, [(1,), (2,)]))),
            ("decperm", {"perm": [2, 1], "color": [2, 1]}),
            ("poset", {"nodes": [], "covers": []}),
            ("stats", {"elements": 16, "maxChains": 19}),
        ]
        for kind, doc in cases:
            got_kind, value = ser.parse_any(doc)
            assert got_kind == kind
            if kind in ("poset", "stats"):
                assert value == doc
            else:
                assert ser.to_json(value) == doc or kind == "decperm"

    def test_string_is_decperm(self):
        kind, w = ser.parse_any("2o1u")
        assert kind == "decperm"
        assert w == parse_decperm("2o1u")

    def test_list_kinds(self):
        kind, ws = ser.parse_any([{"perm": [1], "color": [2]},
                                  {"perm": [1], "color": [1]}])
        assert kind == "decperm-list"
        assert [w.to_string() for w in ws] == ["1o", "1u"]

        kind, rep = ser.parse_any([{"name": "x", "ok": True}])
        assert kind == "report"
        assert rep == [{"name": "x", "ok": True}]

        kind, A = ser.parse_any([["1", "-1/2"], ["0", "3"]])
        assert kind == "matrix"
        assert A == rational_matrix([["1", "-1/2"], ["0", "3"]])

        kind, p = ser.parse_any([2, 1, 3])
        assert kind == "permutation"
        assert p == (2, 1, 3)

    def test_rejects_unknown_shapes(self):
        for bad in ({"x": 1}, [{"a": 1}, 3], 7, None):
            with pytest.raises(DomainError):
                ser.parse_any(bad)

    @pytest.mark.parametrize("doc", [
        {"tiles": [["P"]], "pivots": [1]},
        {"tiles": [["P"]], "pivots": [1], "cols": "x"},
        {"tiles": 5, "pivots": [1], "cols": 1},
        {"bases": [[1]]},
        {"perm": [1], "color": ["o"]},
        {"constituents": [{}], "n": 1, "ranks": [1]},
        [["1", "x"]],
        [["1/0"]],
        {"tiles": [], "pivots": [], "cols": float("inf")},
    ])
    def test_malformed_fields_are_domain_errors(self, doc):
        with pytest.raises(DomainError):
            ser.parse_any(doc)

    def test_permutation_is_validated(self):
        assert ser.parse_any([]) == ("permutation", ())
        for bad in ([1, 1], [0], [2, 3], [True], [1, False]):
            with pytest.raises(DomainError):
                ser.parse_any(bad)


# Every field name the sniffer reads, so random documents reach each branch.
FIELDS = ("constituents", "tiles", "rank", "rows", "cols", "pivots", "bases",
          "n", "k", "offsetZero", "perm", "color", "nodes", "covers",
          "elements", "maxChains", "ok", "ranks")
# Small leaves only: sizes stay far below every guard and no route that is
# exponential in the size is reached.
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-1, max_value=4),
    st.sampled_from([0.5, float("inf"), float("nan")]),
    st.sampled_from(["P", "X", "E", "H", "V", ".", "1/2", "-3", "1/0", "x",
                     "", "1o", "2o1u"]))
DOCUMENTS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(FIELDS), inner, max_size=5)),
    max_leaves=16)
# One valid document of each kind on at most three points; a fuzzed copy
# replaces one node, so the readers behind the sniffer are reached too.
SEEDS = (
    ser.flag_to_json(flag_of_fpp(construct_fpp((1, 2, 3), (3, 1, 2)))),
    ser.positroid_to_json(positroid_of(parse_decperm("2o1u3o"))),
    ser.dream_to_json(construct_fpp((2, 1, 3), (3, 2, 1))),
    ser.basis_set_to_json(basis_set(3, [(1, 2), (1, 3)])),
    {"perm": [2, 1, 3], "color": [2, 1, 2]},
    [{"perm": [1], "color": [2]}],
    [["1", "-1/2"], ["0", "3"]],
    [2, 1, 3],
)


def _replace_one(doc, data):
    if isinstance(doc, (list, dict)) and doc and data.draw(st.integers(0, 3)):
        key = data.draw(st.sampled_from(
            range(len(doc)) if isinstance(doc, list) else sorted(doc)))
        copy = list(doc) if isinstance(doc, list) else dict(doc)
        copy[key] = _replace_one(doc[key], data)
        return copy
    return data.draw(st.one_of(LEAVES, DOCUMENTS))


class TestFuzzedBoundary:
    """Any JSON document is read or refused with a DomainError."""

    @settings(max_examples=300)
    @given(DOCUMENTS)
    def test_random_documents(self, doc):
        try:
            ser.parse_any(doc)
        except DomainError:
            pass

    @settings(max_examples=300)
    @given(st.sampled_from(SEEDS), st.data())
    def test_fuzzed_copies_of_valid_documents(self, seed, data):
        try:
            ser.parse_any(_replace_one(seed, data))
        except DomainError:
            pass


class TestToJson:
    def test_dispatch(self, running_example):
        w = parse_decperm("2o1u")
        assert ser.to_json(positroid_of(w)) == ser.positroid_to_json(
            positroid_of(w))
        assert ser.to_json(w) == {"perm": [2, 1], "color": [2, 1]}
        A = rational_matrix([[1, "1/2"]])
        assert ser.to_json(A) == [["1", "1/2"]]
        assert ser.to_json({"free": "form"}) == {"free": "form"}

    def test_matrix(self):
        A = rational_matrix([["-3/4", 0], [2, "1/5"]])
        assert ser.to_json(A) == [["-3/4", "0"], ["2", "1/5"]]
        assert ser.to_json((A, A)) == [ser.to_json(A)] * 2
        assert ser.parse_any(json.loads(json.dumps(ser.to_json(A)))) == \
            ("matrix", A)

    def test_sequences_recurse(self):
        ws = (parse_decperm("1o"), parse_decperm("1u"))
        assert ser.to_json(ws) == [{"perm": [1], "color": [2]},
                                   {"perm": [1], "color": [1]}]

    def test_unserializable(self):
        with pytest.raises(DomainError):
            ser.to_json(object())

    @given(permutation_pairs(max_n=4))
    def test_parse_any_inverts_to_json(self, uv):
        u, v = uv
        assume(bruhat_leq(u, v))
        D = construct_fpp(u, v)
        for value in (D, bases_of(D), flag_of_fpp(D)):
            kind, back = ser.parse_any(json.loads(json.dumps(
                ser.to_json(value))))
            assert back == value
