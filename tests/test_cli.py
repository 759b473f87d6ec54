"""Command-line front end: verbs, output forms, exit codes."""

import contextlib
import io
import json
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import flagpipes.poset as poset_module
import flagpipes.serialize as ser
from flagpipes.cli import main
from flagpipes.decperm import decperm_of, parse_decperm
from flagpipes.flagbuild import quotient_covers
from flagpipes.pathgraph import bases_of
from flagpipes.pipedream import (
    TILES,
    PipeDream,
    construct_fpp,
    restrict,
)
from flagpipes.render import ascii_grid, svg_grid
from flagpipes.verify import CHECK_NAMES

RUNNING = "5o1u3u9o2u7o6u4u8u"
FLAG_DOC = ('{"n": 1, "ranks": [1], "constituents": '
            '[{"cols": 1, "pivots": [1], "tiles": [["P"]], "rank": 1}]}')

# Modules a plain ``fpp`` run has no use for; the CLI must not import them.
HEAVY = ("flagpipes.verify", "flagpipes.poset", "flagpipes.ratmat",
         "concurrent.futures", "flagpipes.render")
# Layers a grid built from a permutation pair never reaches.
UNUSED_BY_GRIDS = ("flagpipes.decperm", "flagpipes.positroid",
                   "flagpipes.pathgraph", "flagpipes.flagbuild")
# The modules a check that reads only permutations and grids may load.
GRID_CHECK_LAYERS = ("cli", "config", "exceptions", "perm", "pipedream",
                     "verify")
# Standard modules no flagpipes process imports: ``dataclasses`` brings in
# ``inspect``, and with it ``ast``, ``dis`` and ``tokenize``.
UNUSED_STDLIB = ("dataclasses", "inspect")


def outside(*allowed):
    """Every module of the package but the named ones."""
    package = Path(__file__).resolve().parent.parent / "src" / "flagpipes"
    return tuple(f"flagpipes.{p.stem}" for p in sorted(package.glob("*.py"))
                 if p.stem != "__init__" and p.stem not in allowed)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFpp:
    def test_json_default(self, capsys):
        code, out, err = run(capsys, "fpp", "123", "312")
        assert code == 0 and err == ""
        assert json.loads(out) == ser.dream_to_json(
            construct_fpp((1, 2, 3), (3, 1, 2)))

    def test_ascii_golden(self, capsys):
        code, out, _ = run(capsys, "fpp", "5316274", "6735142", "--ascii")
        D = construct_fpp((5, 3, 1, 6, 2, 7, 4), (6, 7, 3, 5, 1, 4, 2))
        assert code == 0
        assert out == ascii_grid(D) + "\n"
        assert out.count("E") == 7

    def test_svg(self, capsys):
        code, out, _ = run(capsys, "fpp", "12", "21", "--svg")
        assert code == 0
        assert out.strip() == svg_grid(construct_fpp((1, 2), (2, 1)))

    def test_comma_notation(self, capsys):
        code, out, _ = run(capsys, "fpp", "1,2,3,4,5,6,7,8,9,10",
                           "2,1,3,4,5,6,7,8,9,10")
        assert code == 0
        assert json.loads(out)["cols"] == 10

    def test_not_comparable_is_domain_error(self, capsys):
        code, out, err = run(capsys, "fpp", "21", "12")
        assert code == 1 and out == ""
        assert err.startswith("error:")

    def test_bad_permutation_text(self, capsys):
        code, _, err = run(capsys, "fpp", "11", "12")
        assert code == 1 and err.startswith("error:")

    def test_missing_argument_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fpp", "123"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("verb", ["fpp", "render"])
    def test_ascii_and_svg_together_are_a_usage_error(self, capsys, verb):
        with pytest.raises(SystemExit) as exc:
            main([verb, "123", "312", "--ascii", "--svg"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed" in captured.err


class TestGridSources:
    def test_render_default_ascii(self, capsys):
        code, out, _ = run(capsys, "render", "123", "321")
        assert code == 0
        assert out == ascii_grid(construct_fpp((1, 2, 3), (3, 2, 1))) + "\n"

    def test_render_from_dream_file(self, capsys, tmp_path):
        D = construct_fpp((2, 1, 3), (3, 1, 2))
        path = tmp_path / "dream.json"
        path.write_text(json.dumps(ser.dream_to_json(D)))
        code, out, _ = run(capsys, "render", "--dream", str(path))
        assert code == 0 and out == ascii_grid(D) + "\n"

    def test_render_from_positroid_file(self, capsys, tmp_path, running_example):
        path = tmp_path / "pos.json"
        path.write_text(json.dumps(ser.positroid_to_json(running_example)))
        code, out, _ = run(capsys, "render", "--dream", str(path), "--svg")
        assert code == 0
        assert out.strip() == svg_grid(running_example.dream)

    def test_render_rejects_other_kinds(self, capsys, tmp_path):
        path = tmp_path / "bases.json"
        path.write_text(json.dumps(
            {"n": 2, "k": 1, "offsetZero": False, "bases": [[1], [2]]}))
        code, _, err = run(capsys, "render", "--dream", str(path))
        assert code == 1
        assert "basis-set" in err

    def test_render_needs_a_source(self, capsys):
        code, _, err = run(capsys, "render")
        assert code == 1 and "no grid given" in err

    @pytest.mark.parametrize("verb", ["render", "bases", "decperm", "covers",
                                      "covered-by"])
    @pytest.mark.parametrize("sources, named", [
        (["--decperm", "3o1u2u", "--dream", "g.json"], "--dream and --decperm"),
        (["123", "321", "--decperm", "3o1u2u"], "U V and --decperm"),
        (["123", "321", "--dream", "g.json"], "U V and --dream"),
        (["123", "321", "--dream", "g.json", "--decperm", "3o1u2u"],
         "U V, --dream and --decperm"),
    ], ids=["dream-decperm", "pair-decperm", "pair-dream", "all-three"])
    def test_two_sources_are_a_usage_error(self, capsys, tmp_path,
                                           monkeypatch, verb, sources, named):
        """The refusal comes before any source is read: the dream file
        does not exist."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([verb, *sources])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: flagpipes {verb}")
        assert f"one grid source allowed, got {named}\n" in captured.err

    def test_one_source_of_each_kind_is_accepted(self, capsys, tmp_path):
        D = construct_fpp((1, 2, 3), (3, 2, 1))
        path = tmp_path / "dream.json"
        path.write_text(json.dumps(ser.dream_to_json(D)))
        outs = [run(capsys, "bases", *source)
                for source in (["123", "321"], ["--dream", str(path)])]
        assert outs[0] == outs[1] and outs[0][0] == 0

    def test_dream_from_stdin(self, capsys, monkeypatch):
        import io
        D = construct_fpp((1, 2), (2, 1))
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(json.dumps(ser.dream_to_json(D))))
        code, out, _ = run(capsys, "render", "--dream", "-")
        assert code == 0 and out == ascii_grid(D) + "\n"


class TestBasesAndDecperm:
    def test_bases_of_decperm(self, capsys, running_example):
        code, out, _ = run(capsys, "bases", "--decperm", RUNNING)
        assert code == 0
        assert json.loads(out) == ser.basis_set_to_json(running_example.bases)

    def test_bases_restricted(self, capsys):
        code, out, _ = run(capsys, "bases", "123", "321", "--k", "2")
        D = restrict(construct_fpp((1, 2, 3), (3, 2, 1)), 2)
        assert code == 0
        assert json.loads(out) == ser.basis_set_to_json(bases_of(D))

    def test_decperm_roundtrip(self, capsys):
        code, out, _ = run(capsys, "decperm", "--decperm", RUNNING)
        assert code == 0
        w = ser.decperm_from_json(json.loads(out))
        assert w.to_string() == RUNNING

    def test_decperm_of_interval(self, capsys):
        code, out, _ = run(capsys, "decperm", "123", "312")
        assert code == 0
        want = decperm_of(construct_fpp((1, 2, 3), (3, 1, 2)))
        assert json.loads(out) == ser.decperm_to_json(want)

    @pytest.mark.parametrize("verb", ["decperm", "covers"])
    def test_a_grid_that_is_not_gamma_free_has_no_boundary_data(
            self, capsys, tmp_path, verb):
        """Its bases {12, 14, 23, 34} form no positroid, so neither verb
        reads a decorated permutation off it."""
        D = PipeDream(cols=4, pivots=(2, 1), grid=("VPXE", "PHEX"))
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(ser.dream_to_json(D)))
        code, out, err = run(capsys, verb, "--dream", str(path))
        assert (code, out) == (1, "")
        assert err == "error: dream is not gamma-free\n"

    @pytest.mark.parametrize("argv", [
        ["decperm"], ["decperm", "--k", "2"], ["covers"], ["covered-by"]])
    def test_a_positroid_document_is_swept_once(
            self, capsys, tmp_path, monkeypatch, running_example, argv):
        """Reading the document checks its grid; the verb, and a --k cut of
        the grid, add no second gamma-freeness sweep."""
        import flagpipes.positroid as positroid_module

        path = tmp_path / "pos.json"
        path.write_text(json.dumps(ser.positroid_to_json(running_example)))
        sweeps = []
        real = positroid_module.is_gamma_free

        def counting(D):
            sweeps.append(D)
            return real(D)

        monkeypatch.setattr(positroid_module, "is_gamma_free", counting)
        code, out, _ = run(capsys, *argv, "--dream", str(path))
        assert code == 0 and out
        assert sweeps == [running_example.dream]

    @pytest.mark.parametrize("verb", ["decperm", "covers", "covered-by"])
    def test_a_permutation_pair_is_not_swept(self, capsys, monkeypatch, verb):
        """The grid of a U V pair is an FPP, so gamma-free, and so is each
        of its row prefixes: on every Bruhat pair with n <= 4 (and every
        --k of ``decperm``) the verb prints what the route through
        ``Positroid.from_dream`` gives, with no gamma-freeness sweep."""
        import flagpipes.positroid as positroid_module
        from flagpipes.decperm import covered_by_shift, covers_by_shift
        from flagpipes.perm import all_permutations, bruhat_leq
        from flagpipes.positroid import Positroid

        def swept(u, v, k):
            D = construct_fpp(u, v)
            if k is not None:
                D = restrict(D, k)
            w = decperm_of(Positroid.from_dream(D).dream)
            if verb == "decperm":
                return 0, ser.decperm_to_json(w)
            if verb == "covers" and w.rank >= w.n:
                return 1, None
            shifts = covers_by_shift if verb == "covers" else covered_by_shift
            return 0, [ser.decperm_to_json(x) for x in shifts(w)]

        cases = [(u, v, k) for n in range(5)
                 for u in all_permutations(n) for v in all_permutations(n)
                 if bruhat_leq(u, v)
                 for k in ([None, *range(n + 1)] if verb == "decperm"
                           else [None])]
        expected = [swept(*case) for case in cases]
        sweeps = []
        monkeypatch.setattr(positroid_module, "is_gamma_free",
                            lambda D: sweeps.append(D))
        for (u, v, k), (want_code, want) in zip(cases, expected):
            argv = [verb, "".join(map(str, u)), "".join(map(str, v))]
            if k is not None:
                argv += ["--k", str(k)]
            code, out, err = run(capsys, *argv)
            assert code == want_code, argv
            if code:
                assert (out, err) == (
                    "", "error: a full-rank positroid has no covers\n")
            else:
                assert json.loads(out) == want, argv
        assert len(cases) == (1390 if verb == "decperm" else 237)
        assert sweeps == []


class TestEmptyInput:
    """The n = 0 grid is a grid: an empty --decperm or U V pair selects it
    rather than reading as a missing source."""

    @pytest.mark.parametrize("verb", ["decperm", "bases", "render"])
    @pytest.mark.parametrize("source", [("--decperm", ""), ("", "")])
    def test_grid_verbs_accept_it(self, capsys, verb, source):
        code, out, err = run(capsys, verb, *source)
        assert code == 0 and err == ""
        if verb == "render":
            assert out == "\n"

    def test_covers_of_it_is_a_domain_error(self, capsys):
        code, _, err = run(capsys, "covers", "--decperm", "")
        assert code == 1 and "no covers" in err


class TestCoversAndShift:
    def test_covers_count(self, capsys, running_example):
        code, out, _ = run(capsys, "covers", "--decperm", RUNNING)
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 15
        want = [decperm_of(Q.dream) for Q in quotient_covers(running_example)]
        assert docs == [ser.decperm_to_json(w) for w in want]

    def test_covers_of_full_rank_fails(self, capsys):
        code, _, err = run(capsys, "covers", "--decperm", "1o2o3o")
        assert code == 1 and "no covers" in err

    def test_covered_by(self, capsys):
        code, out, _ = run(capsys, "covered-by", "--decperm", "1o2o3o")
        assert code == 0
        docs = json.loads(out)
        assert docs and all(set(d) == {"perm", "color"} for d in docs)

    def test_covers_walks_the_given_decperm_without_a_dream(
            self, capsys, monkeypatch):
        def refuse(dp):
            raise AssertionError("covers built a positroid from --decperm")

        monkeypatch.setattr("flagpipes.decperm.positroid_of", refuse)
        code, out, _ = run(capsys, "covers", "--decperm", RUNNING)
        assert code == 0 and len(json.loads(out)) == 15

    def test_shift_right(self, capsys):
        code, out, _ = run(capsys, "shift", "--decperm", "1u2u", "--set", "2")
        assert code == 0
        assert ser.decperm_from_json(json.loads(out)).to_string() == "1u2o"

    def test_shift_left_golden(self, capsys):
        code, out, _ = run(capsys, "shift", "--decperm", "2o5o3o8o1u7o6u9o4u",
                           "--set", "2,8", "--left")
        assert code == 0
        got = ser.decperm_from_json(json.loads(out))
        assert got.to_string() == "2o9o3o8o1u7o6u4u5u"


class TestLargeChoiceSets:
    """Cover listings with more than 12 unblocked positions end at once
    with a guard error instead of walking 2^25 - 1 choices."""

    @pytest.mark.parametrize("argv, stdin", [
        (["covers", "--decperm", "".join(f"{j}u" for j in range(1, 26))], ""),
        (["covered-by", "--decperm", "".join(f"{j}o" for j in range(1, 26))],
         ""),
        (["covers", "--dream", "-"],
         json.dumps(ser.dream_to_json(PipeDream(cols=30, pivots=(),
                                                grid=())))),
    ])
    def test_guard_error_within_seconds(self, argv, stdin):
        proc = subprocess.run(
            [sys.executable, "-m", "flagpipes.cli", *argv],
            input=stdin, capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "covers_max_unblocked = 12" in proc.stderr
        assert "Traceback" not in proc.stderr


# Field names the sniffer reads; a fuzzed grid document may carry any of
# them, so some documents are routed to another kind or miss a field.
SNIFFED_FIELDS = ("constituents", "tiles", "rank", "rows", "cols", "pivots",
                  "bases", "n", "k", "perm", "color", "nodes", "covers")
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2, max_value=7),
    st.sampled_from([0.5, float("inf"), float("nan"), "", "P", "PX", "3"]),
    st.lists(st.integers(min_value=0, max_value=7), max_size=3),
    st.lists(st.lists(st.sampled_from(TILES), max_size=3), max_size=2))


@st.composite
def grid_documents(draw):
    """A dream or positroid document on at most 6 columns: pivots and tiles
    that are structurally valid, random letters, or a mix, with a few
    fields dropped or replaced."""
    n = draw(st.integers(min_value=0, max_value=6))
    k = draw(st.integers(min_value=0, max_value=n))
    pivots = draw(st.permutations(range(1, n + 1)))[:k]
    structural = draw(st.booleans())
    tiles = []
    for i in range(1, k + 1):
        row = []
        for j in range(1, n + 1):
            forced = oracles.structural_tile(tuple(pivots), i, j)
            if structural and forced is not None:
                row.append(forced)
            elif structural:
                row.append(draw(st.sampled_from("XE")))
            else:
                row.append(draw(st.sampled_from(TILES)))
        tiles.append(row)
    doc = {"rows": k, "cols": n, "pivots": list(pivots), "tiles": tiles}
    if draw(st.booleans()):
        doc["rank"] = draw(st.one_of(st.just(k), JUNK))
    for field in draw(st.sets(st.sampled_from(SNIFFED_FIELDS), max_size=2)):
        if draw(st.booleans()):
            doc.pop(field, None)
        else:
            doc[field] = draw(JUNK)
    return doc


class TestFuzzedGridSources:
    """Every grid document sent to a grid verb ends in exit 0, 1 or 2."""

    @pytest.mark.parametrize("verb", [["render", "--ascii"], ["bases"],
                                      ["decperm"], ["covers"]],
                             ids=["render", "bases", "decperm", "covers"])
    @settings(max_examples=100)
    @given(doc=grid_documents())
    def test_exit_status(self, verb, doc):
        stdin = io.StringIO(json.dumps(doc))
        with mock.patch.object(sys, "stdin", stdin), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = main([verb[0], "--dream", "-", *verb[1:]])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)
        if code:
            assert err.getvalue().startswith(("error:", "usage:"))


class TestPoset:
    def test_stats_golden(self, capsys):
        code, out, _ = run(capsys, "poset", "3", "--flavor", "representable",
                           "--stats")
        assert code == 0
        assert json.loads(out) == {"elements": 16, "maxChains": 19}

    def test_default_json(self, capsys):
        code, out, _ = run(capsys, "poset", "2")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["nodes"]) == 5
        assert doc["flavor"] == "representable"

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "poset", "3", "--flavor", "matroidal",
                           "--dot")
        assert code == 0
        assert out.splitlines()[0] == "digraph quotient_poset {"
        assert out.count("style=dashed") == 3
        code, out, _ = run(capsys, "poset", "3", "--dot")
        assert code == 0
        assert out.count("style=dashed") == 0

    def test_matroidal_dot_builds_each_poset_once(self, capsys, monkeypatch):
        built = []
        real = poset_module.build_poset

        def counting(n, flavor="representable"):
            built.append((n, flavor))
            return real(n, flavor)

        monkeypatch.setattr(poset_module, "build_poset", counting)
        code, out, _ = run(capsys, "poset", "4", "--flavor", "matroidal",
                           "--dot")
        assert code == 0 and "style=dashed" in out
        assert sorted(built) == [(4, "matroidal"), (4, "representable")]

    @pytest.mark.parametrize("form", [("--stats",), ("--dot",), ()])
    def test_representable_output_builds_no_positroid(self, capsys,
                                                      monkeypatch, form):
        built = []
        real = poset_module.build_poset

        def keeping(n, flavor="representable"):
            built.append(real(n, flavor))
            return built[-1]

        monkeypatch.setattr(poset_module, "build_poset", keeping)
        code, _, _ = run(capsys, "poset", "4", *form)
        assert code == 0 and len(built) == 1
        assert "elements" not in vars(built[0])

    def test_stats_and_dot_together_are_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["poset", "3", "--stats", "--dot"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed" in captured.err

    def test_guard(self, capsys):
        code, _, err = run(capsys, "poset", "5", "--flavor", "matroidal")
        assert code == 1 and err.startswith("error:")

    def test_negative_size_is_domain_error(self, capsys):
        code, out, err = run(capsys, "poset", "-1")
        assert code == 1 and out == ""
        assert err.startswith("error:")
        code, out, _ = run(capsys, "poset", "0")
        assert code == 0
        assert json.loads(out)["nodes"] == [{"decperm": "", "rank": 0}]

    def test_bad_flavor_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["poset", "3", "--flavor", "fancy"])
        assert exc.value.code == 2


class TestVerify:
    def test_single_check(self, capsys):
        code, out, err = run(capsys, "verify", "golden-grids")
        assert code == 0
        report = json.loads(out)
        assert [r["name"] for r in report] == ["golden-grids"]
        assert report[0]["ok"] is True
        assert err.startswith("PASS golden-grids:")

    def test_unknown_check_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "golden-grids", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown check 'bogus'" in err
        assert all(name in err for name in CHECK_NAMES)

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_jobs_below_one_is_usage_error(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "golden-grids", "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_report_is_sniffable(self, capsys):
        code, out, _ = run(capsys, "verify", "decperm-table")
        assert code == 0
        kind, rep = ser.parse_any(json.loads(out))
        assert kind == "report" and rep[0]["ok"]


class TestConvert:
    def test_roundtrips_every_kind(self, capsys, tmp_path, running_example):
        docs = [
            ser.dream_to_json(construct_fpp((1, 2, 3), (3, 1, 2))),
            ser.positroid_to_json(running_example),
            ser.basis_set_to_json(running_example.bases),
            ser.decperm_to_json(parse_decperm(RUNNING)),
        ]
        for i, doc in enumerate(docs):
            path = tmp_path / f"doc{i}.json"
            path.write_text(json.dumps(doc))
            code, out, _ = run(capsys, "convert", str(path))
            assert code == 0
            assert json.loads(out) == doc

    def test_decperm_string_document(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(RUNNING))
        code, out, _ = run(capsys, "convert", str(path))
        assert code == 0
        assert ser.decperm_from_json(json.loads(out)).to_string() == RUNNING

    def test_unknown_shape(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"what": "ever"}))
        code, _, err = run(capsys, "convert", str(path))
        assert code == 1 and err.startswith("error:")

    @pytest.mark.parametrize("text, want", [
        ('[2, 1]', 0),
        ('[]', 0),
        ('"2o1u"', 0),
        ('""', 0),
        ('","', 1),
        ('{"perm": [2, 1], "color": [2, 1]}', 0),
        ('[1, 1]', 1),
        ('[true]', 1),
        ('[["1/0"]]', 1),
        ('[["1", "x"]]', 1),
        ('[["1e999999999"]]', 1),
        ('[[true]]', 1),
        ('[["1", "-1/2"], [0, 3]]', 0),
        ('["12", "34"]', 1),
        ('[["12"], "34"]', 1),
        ('{"tiles": [], "pivots": [], "cols": Infinity}', 1),
        ('{"perm": [1], "color": [NaN]}', 1),
        ('null', 1),
        ('{"rows": 1, "cols": 1.9, "pivots": [1], "tiles": [["P"]]}', 1),
        ('{"rows": 1, "cols": true, "pivots": [true], "tiles": [["P"]]}', 1),
        ('{"rows": true, "cols": 1, "pivots": [1], "tiles": [["P"]]}', 1),
        ('{"cols": 1, "pivots": ["1"], "tiles": [["P"]]}', 1),
        ('{"cols": 1, "pivots": [1], "tiles": [["P"]], "rank": true}', 1),
        ('{"perm": [true], "color": [2]}', 1),
        ('{"perm": [1], "color": [2.0]}', 1),
        ('{"n": true, "bases": [[true]]}', 1),
        ('{"n": 1, "bases": [[1]], "offsetZero": 1}', 1),
        ('{"n": 1, "bases": [[1]], "k": true}', 1),
        (FLAG_DOC, 0),
        (FLAG_DOC.replace('"n": 1', '"n": 1.0'), 1),
        (FLAG_DOC.replace('"ranks": [1]', '"ranks": [true]'), 1),
    ])
    def test_documents_on_stdin(self, capsys, monkeypatch, text, want):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "convert", "-")
        assert code == want
        if code:
            assert err.startswith("error:") and out == ""

    @pytest.mark.parametrize("n", [0, 3])
    def test_poset_node_names_parse_back(self, capsys, n):
        code, out, _ = run(capsys, "poset", str(n))
        assert code == 0
        nodes = json.loads(out)["nodes"]
        assert len(nodes) == {0: 1, 3: 16}[n]
        for node in nodes:
            w = parse_decperm(node["decperm"])
            assert w.to_string() == node["decperm"]
            assert (w.n, w.rank) == (n, node["rank"])

    def test_zero_denominator_exits_without_a_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flagpipes.cli", "convert", "-"],
            input='[["1/0"]]', capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("text", ['[["1e999999999"]]', '[[true]]'])
    def test_exponents_and_booleans_exit_without_a_traceback(self, text):
        proc = subprocess.run(
            [sys.executable, "-m", "flagpipes.cli", "convert", "-"],
            input=text, capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr


class TestBadJsonInput:
    """Unreadable or malformed JSON is a domain error, never a traceback."""

    def check(self, capsys, path, *fragments):
        for argv in (["render", "--dream", str(path)], ["convert", str(path)]):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            assert all(f in err for f in fragments)

    def test_missing_file(self, capsys, tmp_path):
        self.check(capsys, tmp_path / "absent.json", "cannot read")

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"tiles": [["P"]], ')
        self.check(capsys, path, "not valid JSON")

    def test_missing_field(self, capsys, tmp_path):
        path = tmp_path / "nocols.json"
        path.write_text(json.dumps({"tiles": [["P"]], "pivots": [1]}))
        self.check(capsys, path, "'cols'")

    def test_non_integer_field(self, capsys, tmp_path):
        path = tmp_path / "badcols.json"
        path.write_text(json.dumps(
            {"tiles": [["P"]], "pivots": [1], "cols": "x"}))
        self.check(capsys, path, "'x'")


class TestGuardsAndEnv:
    def test_wide_grid_guard(self, capsys, tmp_path):
        wide = PipeDream(cols=13, pivots=(1,), grid=("P" + "E" * 12,))
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(ser.dream_to_json(wide)))
        code, _, err = run(capsys, "bases", "--dream", str(path))
        assert code == 1 and "guarded" in err

    def test_env_raises_guard(self, capsys, tmp_path, monkeypatch):
        wide = PipeDream(cols=13, pivots=(1,), grid=("P" + "E" * 12,))
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(ser.dream_to_json(wide)))
        monkeypatch.setenv("POSITROID_MAX_N", "13")
        code, out, _ = run(capsys, "bases", "--dream", str(path))
        assert code == 0
        assert json.loads(out)["bases"] == [[c] for c in range(1, 14)]


class TestInstalledEntryPoint:
    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flagpipes.cli", "poset", "2", "--stats"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"elements": 5, "maxChains": 3}

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flagpipes.cli", "no-such-verb"],
            capture_output=True, text=True)
        assert proc.returncode == 2

    @pytest.mark.parametrize("argv, unused", [
        (["fpp", "2413", "4231"], HEAVY + UNUSED_BY_GRIDS),
        (["fpp", "2413", "4231", "--ascii"],
         tuple(m for m in HEAVY if m != "flagpipes.render")),
        (["verify", "golden-grids"],
         ("concurrent.futures",) + outside(*GRID_CHECK_LAYERS)),
        (["verify", "interval-fpp-count"], outside(*GRID_CHECK_LAYERS)),
        (["verify", "elbow-length-law"], outside(*GRID_CHECK_LAYERS)),
        (["verify", "exact-linear-algebra"],
         outside("cli", "config", "exceptions", "perm", "ratmat", "verify")),
        (["render", "2413", "4231", "--svg"],
         tuple(m for m in HEAVY if m != "flagpipes.render") + UNUSED_BY_GRIDS),
        (["covers", "--decperm", RUNNING], HEAVY + ("flagpipes.flagbuild",)),
        (["decperm", "2413", "4231"],
         ("concurrent.futures",) + outside(
             "cli", "config", "decperm", "exceptions", "pathgraph", "perm",
             "pipedream", "positroid", "serialize")),
        (["poset", "4", "--dot"],
         ("concurrent.futures",) + outside(
             "cli", "config", "decperm", "exceptions", "pathgraph", "perm",
             "pipedream", "poset", "positroid")),
    ])
    def test_verbs_load_only_their_layers(self, argv, unused):
        unused += UNUSED_STDLIB
        script = (
            "import json, sys\n"
            "import flagpipes.cli\n"
            f"unused = {unused!r}\n"
            "loaded = [[m for m in unused if m in sys.modules]]\n"
            f"code = flagpipes.cli.main({argv!r})\n"
            "loaded.append([m for m in unused if m in sys.modules])\n"
            "print(json.dumps([code, loaded]), file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert json.loads(proc.stderr.splitlines()[-1]) == [0, [[], []]]

    def test_no_module_imports_dataclasses_or_inspect(self):
        modules = ("flagpipes",) + outside()
        script = (
            "import importlib, json, sys\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module(name)\n"
            f"print(json.dumps([len({modules!r}), "
            f"[m for m in {UNUSED_STDLIB!r} if m in sys.modules]]))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [15, []]

    def test_optimized_mode_prints_the_same(self):
        argv = ["-m", "flagpipes.cli", "poset", "4", "--flavor", "matroidal"]
        plain, optimized = (
            subprocess.run([sys.executable, *flags, *argv],
                           capture_output=True, text=True)
            for flags in ([], ["-O"]))
        assert plain.returncode == optimized.returncode == 0
        assert plain.stdout == optimized.stdout
        assert json.loads(plain.stdout)["flavor"] == "matroidal"

    @pytest.mark.parametrize("verb", ["covers", "bases"])
    def test_optimized_mode_prints_the_same_on_the_trusted_routes(self, verb):
        """covers and bases run positroid_of's unchecked canonical dream and
        the unchecked results of the shift walk; neither leans on an
        assert."""
        argv = ["-m", "flagpipes.cli", verb, "--decperm", "5o1u3u9o2u7o6u4u8u"]
        plain, optimized = (
            subprocess.run([sys.executable, *flags, *argv],
                           capture_output=True)
            for flags in ([], ["-O"]))
        assert plain.returncode == optimized.returncode == 0
        assert plain.stdout == optimized.stdout
        assert plain.stdout.strip()


def readme_commands():
    """The ``flagpipes`` lines of the README's "Command line" example block,
    as argument lists with any ``> file`` redirect cut off.  Left out: the
    lines that read an input file, and the bare ``flagpipes verify`` that
    the acceptance suite runs already."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        argv = shlex.split(line)
        if argv[:1] != ["flagpipes"] or argv == ["flagpipes", "verify"]:
            continue
        if "--dream grid.json" in line or "convert stored.json" in line:
            continue
        out.append(argv[1:argv.index(">")] if ">" in argv else argv[1:])
    return out


README_COMMANDS = readme_commands()


def test_the_readme_lists_its_command_examples():
    assert len(README_COMMANDS) >= 10


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_example_runs(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.strip()
