"""The experiment scripts stay importable and runnable."""

import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def readme_script_commands():
    """The lines of the README's "Experiment scripts" example block, as
    argument lists."""
    section = (ROOT / "README.md").read_text().split(
        "\n## Experiment scripts\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


README_SCRIPTS = readme_script_commands()


def test_scripts_exist():
    names = {p.name for p in SCRIPTS}
    assert {"build_poset.py", "survey_covers.py",
            "render_gallery.py"} <= names


def test_the_readme_runs_every_script():
    assert sorted(argv[1] for argv in README_SCRIPTS) == \
        [f"scripts/{p.name}" for p in SCRIPTS]


@pytest.mark.parametrize("argv", README_SCRIPTS, ids=lambda a: Path(a[1]).name)
def test_readme_script_example_runs(tmp_path, argv):
    """Each documented invocation, its output paths moved under tmp_path."""
    argv = [sys.executable] + [str(tmp_path / a) if a.startswith("build/")
                               else a for a in argv[1:]]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_help_exits_zero(path):
    proc = subprocess.run([sys.executable, str(path), "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()


def test_build_poset_writes_files(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS[0].parent / "build_poset.py"),
         "--max-n", "2", "--flavor", "representable",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads((tmp_path / "representable_2.json").read_text())
    assert len(doc["nodes"]) == 5
    dot = (tmp_path / "representable_2.dot").read_text()
    assert dot.startswith("digraph quotient_poset {")


def test_build_poset_reports_seconds_and_peak_rss():
    """Every row ends in the build's seconds and the peak RSS in MB, with
    no flag asked; the counts are those of the posets."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS[0].parent / "build_poset.py"),
         "--max-n", "3"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    header, _, *rows = proc.stdout.splitlines()
    assert header.split()[-2:] == ["build_s", "rss_mb"]
    assert len(rows) == 6
    for row in rows:
        *_, seconds, rss_mb = row.split()
        assert 0 <= float(seconds) < 60 and float(rss_mb) > 0
    assert rows[-2].split()[:7] == ["3", "representable", "16", "33", "19",
                                    "True", "0"]
    assert rows[-1].split()[:7] == ["3", "matroidal", "16", "36", "22",
                                    "True", "3"]


@pytest.mark.parametrize("args, message", [
    (("--min-n", "6", "--max-n", "6"), "error: build_poset: 6 exceeds"),
    (("--min-n", "-1", "--max-n", "0"),
     "error: build_poset: n must be at least 0"),
])
def test_build_poset_reports_a_domain_error(monkeypatch, args, message):
    monkeypatch.delenv("POSITROID_MAX_N", raising=False)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS[0].parent / "build_poset.py"), *args],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith(message)
    assert "Traceback" not in proc.stderr


def test_survey_reports_a_domain_error(monkeypatch):
    monkeypatch.delenv("POSITROID_MAX_N", raising=False)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS[0].parent / "survey_covers.py"),
         "--min-n", "7", "--max-n", "7"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: enumerate_positroids: 7 exceeds")
    assert proc.stdout == ""


def test_survey_cross_check_clean():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS[0].parent / "survey_covers.py"),
         "--max-n", "3", "--cross-check"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "agree everywhere" in proc.stdout


def test_gallery_writes_html(tmp_path):
    out = tmp_path / "g.html"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS[0].parent / "render_gallery.py"),
         "--n", "2", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    html = out.read_text()
    assert html.count("<figure>") == 3
    assert "<svg" in html


def test_gallery_captions_name_the_flag(tmp_path):
    """A card names its dream's ranks 1..n-1, not the top element: the row
    shifts of [123, 312] are 3o1u2u and 1o3o2u."""
    out = tmp_path / "g.html"
    subprocess.run(
        [sys.executable, str(SCRIPTS[0].parent / "render_gallery.py"),
         "--n", "3", "--out", str(out)],
        capture_output=True, text=True, check=True)
    captions = [part.split("</figcaption>")[0]
                for part in out.read_text().split("<figcaption>")[1:]]
    assert len(captions) == 19
    card = [c for c in captions if c.startswith("[123, 312]")]
    assert card == ["[123, 312], 2 elbows, flag 3\u03041\u03322\u0332 \u2192 "
                    "1\u03043\u03042\u0332"]
    assert not any("1\u03042\u03043\u0304" in c for c in captions)


def test_gallery_refuses_past_the_enumeration_guard(tmp_path, monkeypatch):
    monkeypatch.delenv("POSITROID_MAX_N", raising=False)
    out = tmp_path / "g.html"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS[0].parent / "render_gallery.py"),
         "--n", "7", "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: enumerate_fpps: 7 exceeds")
    assert proc.stdout == ""
    assert not out.exists()
