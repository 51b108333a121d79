"""The runnable scripts under scripts/."""

import importlib.util
import os
import subprocess
import sys

import defocone
import defocone.polytope

SRC = os.path.dirname(os.path.dirname(os.path.abspath(defocone.__file__)))
CENSUS = os.path.join(os.path.dirname(SRC), "scripts", "family_census.py")


def _member_rows(text):
    return [line for line in text.splitlines() if line[:1] in ("P", "Q")]


def test_family_census_smoke():
    out = subprocess.run(
        [sys.executable, CENSUS, "--max-total", "4"],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    expected = [
        ("P_1, 1", "()"),
        ("P_1, 2", "(3, 3)"),
        ("P_1, 3", "(7, 12, 7)"),
        ("Q_1, 3", "(6, 12, 8)"),
        ("P_2, 2", "(13, 24, 13)"),
        ("Q_2, 2", "(12, 24, 14)"),
    ]
    rows = _member_rows(out.stdout)
    assert [r[:29] for r in rows] == [f"{member} {fv:>22}" for member, fv in expected]

def test_family_census_prints_guard_rows(monkeypatch, capsys):
    """A member past the vertex guard gets a guard row; the census goes on."""
    spec = importlib.util.spec_from_file_location("family_census", CENSUS)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    monkeypatch.setattr(defocone.polytope, "MAX_VERTICES", 12)
    for cached in (defocone.polytope.edges, defocone.polytope.facets):
        cached.cache_clear()  # a cached answer would skip the guard
    census.main(["--max-total", "4"])
    rows = _member_rows(capsys.readouterr().out)
    assert len(rows) == 6
    assert rows[4].startswith("P_2, 2 guard: polytope guard: 13 vertices")
    assert rows[5].startswith("Q_2, 2 ") and "guard" not in rows[5]
