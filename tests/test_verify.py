"""The published-fact check runner: results, budgets, parallel mode."""

import concurrent.futures
import inspect
import itertools
import re
import subprocess
import sys
import time

import pytest

import flagpipes.decperm as decperm
import flagpipes.pipedream as pipedream
import flagpipes.poset as poset_module
import flagpipes.ratmat as ratmat
import flagpipes.verify as verify
from flagpipes.exceptions import DomainError
from flagpipes.verify import CHECK_NAMES, CheckResult, run_all, run_check

CHEAP = ("golden-grids", "bases-engine", "decperm-table")


class TestCheckResult:
    def test_line_format(self):
        r = CheckResult("demo", True, "all good", 1.234)
        assert r.line == "PASS demo: all good (1.23s)"
        r = CheckResult("demo", False, "broke", 0.5)
        assert r.line.startswith("FAIL demo: broke")

    def test_line_regex(self):
        for name in CHEAP:
            r = run_check(name)
            assert re.fullmatch(
                r"(PASS|FAIL) [a-z-]+: .+ \(\d+\.\d\ds\)", r.line)


class TestRunCheck:
    def test_registry_is_complete(self):
        assert set(CHECK_NAMES) == set(verify._CHECKS)
        assert len(CHECK_NAMES) == 10

    @pytest.mark.parametrize("name", CHEAP)
    def test_cheap_checks_pass(self, name):
        r = run_check(name)
        assert r.ok, r.detail
        assert r.name == name
        assert r.seconds >= 0

    def test_poset_facts_builds_each_poset_once(self, monkeypatch):
        built = []
        real = poset_module.build_poset

        def counting(n, flavor="representable"):
            built.append((n, flavor))
            return real(n, flavor)

        monkeypatch.setattr(poset_module, "build_poset", counting)
        ok, detail = verify.check_poset_facts()
        assert ok, detail
        assert sorted(built) == sorted(set(built))
        assert len(built) == 6

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_each_check_passes_alone_in_a_fresh_interpreter(self, name):
        """Each check imports its own layers: run alone, it finds every
        name it uses without the imports of any other check.  Its declared
        layers are loaded when it is entered, and it loads no module of the
        package beyond those, so its timing holds no import."""
        script = (
            "import sys\n"
            "import flagpipes.cli\n"
            "import flagpipes.verify as verify\n"
            f"name = {name!r}\n"
            "func, budget, layers = verify._CHECKS[name]\n"
            "loaded = {}\n"
            "def package():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.startswith('flagpipes.'))\n"
            "def probe(*args):\n"
            "    loaded['entry'] = package()\n"
            "    try:\n"
            "        return func(*args)\n"
            "    finally:\n"
            "        loaded['exit'] = package()\n"
            "verify._CHECKS[name] = (probe, budget, layers)\n"
            "code = flagpipes.cli.main(['verify', name, '--jobs', '1'])\n"
            "missing = [m for m in layers\n"
            "           if f'flagpipes.{m}' not in loaded['entry']]\n"
            "extra = sorted(set(loaded['exit']) - set(loaded['entry']))\n"
            "print(repr((code, missing, extra)), file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.startswith(f"PASS {name}: ")
        assert proc.stderr.splitlines()[-1] == "(0, [], [])"

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_declared_layers_are_the_checks_own_imports(self, name):
        func, _, layers = verify._CHECKS[name]
        source = inspect.getsource(func)
        assert layers == tuple(sorted(set(
            re.findall(r"^\s+from \.(\w+) import", source, re.M))))

    def test_layers_load_before_the_clock_starts(self, monkeypatch):
        events = []

        class Clock:
            @staticmethod
            def perf_counter():
                events.append("clock")
                return 0.0

        def probe():
            events.append("check")
            return True, "probed"

        monkeypatch.setattr(verify, "time", Clock)
        monkeypatch.setattr(verify, "import_module",
                            lambda module: events.append(module))
        monkeypatch.setitem(verify._CHECKS, "probe",
                            (probe, None, ("perm", "pipedream")))
        assert run_check("probe").ok
        assert events == ["flagpipes.perm", "flagpipes.pipedream", "clock",
                          "check", "clock"]

    def test_a_wrong_sign_rule_fails_exact_linear_algebra(self, monkeypatch):
        """The check is the sign rule's one cross-check: a rule whose verdict
        disagrees with the leading minors fails it."""
        rule = ratmat.check_sign_rule
        monkeypatch.setattr(ratmat, "check_sign_rule", lambda A: not rule(A))
        ok, detail = verify.check_exact_linear_algebra()
        assert ok is False
        assert detail.startswith("sign rule disagreement")

    def test_an_unpruned_le_walk_fails_quotient_covers(self, monkeypatch):
        """The check compares the Le walk with the swept fillings: a walk
        that keeps every filling fails it."""
        def unpruned(n, k):
            for chosen in itertools.combinations(range(1, n + 1), k):
                yield from pipedream._fillings(n, chosen[::-1])

        monkeypatch.setattr(pipedream, "enumerate_le_dreams", unpruned)
        ok, detail = verify.check_quotient_covers()
        assert ok is False
        assert detail == "Le dreams differ from the swept fillings at n=4, k=2"

    def test_a_wrong_shift_fails_quotient_covers(self, monkeypatch):
        """quotient_covers lists the right cyclic shifts; the check compares
        each shift with the appended and standardized dream of its choice,
        so a shift that drops all but the last column of the choice fails
        it."""
        real = decperm.right_cyclic_shift
        monkeypatch.setattr(decperm, "right_cyclic_shift",
                            lambda w, C: real(w, C[-1:]))
        ok, detail = verify.check_quotient_covers()
        assert ok is False
        assert detail == "append along (1, 2) above 1u2u is not the shift"

    def test_quotient_covers_detail(self):
        ok, detail = verify.check_quotient_covers()
        assert ok is True
        assert ("236 appended dreams gamma-free and standardized to their "
                "shifts") in detail

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            run_check("no-such-check")

    def test_budget_overrun_flips_ok(self, monkeypatch):
        def sleepy():
            time.sleep(0.05)
            return True, "slept"
        monkeypatch.setitem(verify._CHECKS, "sleepy", (sleepy, 0.01, ()))
        r = run_check("sleepy")
        assert not r.ok
        assert "budget" in r.detail

    def test_no_budget_means_no_overrun(self, monkeypatch):
        def sleepy():
            time.sleep(0.02)
            return True, "slept"
        monkeypatch.setitem(verify._CHECKS, "sleepy", (sleepy, None, ()))
        assert run_check("sleepy").ok


class TestRunAll:
    def test_defaults_to_every_check_name(self):
        results = run_all(["golden-grids", "decperm-table"])
        assert [r.name for r in results] == ["golden-grids", "decperm-table"]
        assert all(r.ok for r in results)

    def test_parallel_matches_serial(self):
        serial = run_all(list(CHEAP), jobs=1)
        parallel = run_all(list(CHEAP), jobs=2)
        assert [(r.name, r.ok, r.detail) for r in serial] == \
               [(r.name, r.ok, r.detail) for r in parallel]

    def test_seed_changes_only_seeded_checks(self):
        a = run_check("decperm-table", seed=1)
        b = run_check("decperm-table", seed=2)
        assert (a.ok, a.detail) == (b.ok, b.detail)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_are_refused(self, jobs):
        with pytest.raises(DomainError):
            run_all(["golden-grids"], jobs=jobs)

    def test_pool_is_capped_at_the_number_of_checks(self, monkeypatch):
        # A stand-in pool that records its size and runs in this process;
        # a real pool of the uncapped size is never started.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        results = run_all(list(CHEAP), jobs=100_000)
        assert sizes == [len(CHEAP)]
        assert [r.name for r in results] == list(CHEAP)
        assert all(r.ok for r in results)
        assert run_all(["golden-grids"], jobs=100_000)[0].ok
        assert run_all([], jobs=100_000) == []
        assert sizes == [len(CHEAP)]
