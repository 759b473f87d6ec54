"""The experiment scripts stay importable and runnable."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted(
    (Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_scripts_exist():
    names = {p.name for p in SCRIPTS}
    assert {"build_poset.py", "survey_covers.py",
            "render_gallery.py"} <= names


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
