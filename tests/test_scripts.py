"""The runnable scripts under scripts/."""

import dataclasses
import importlib.util
import os
import subprocess
import sys

import pytest

import defocone
import defocone.framework
import defocone.polytope
from defocone.constructions import bipartite_truncation
from defocone.errors import ResourceLimitError

SRC = os.path.dirname(os.path.dirname(os.path.abspath(defocone.__file__)))
CENSUS = os.path.join(os.path.dirname(SRC), "scripts", "family_census.py")
BENCH = os.path.join(os.path.dirname(SRC), "scripts", "bench.py")


def _script(name, path):
    """The module of a script, loaded from its file."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _member_rows(text):
    return [line for line in text.splitlines() if line[:1] in ("P", "Q")]


def test_family_census_smoke():
    """The members up to N = 5, and after each N the count of indecomposable
    members with n < m that are not matroid polytopes up to homothety,
    beside the abstract's 2*floor((N-1)/2): P_1,2 and Q_1,3 are matroid
    polytopes and Q_1,2 does not exist, so N = 3 and 4 fall short."""
    out = subprocess.run(
        [sys.executable, CENSUS, "--max-total", "5"],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    expected = [
        ("P_1, 1", "()", "-"),
        ("P_1, 2", "(3, 3)", "True"),
        ("P_1, 3", "(7, 12, 7)", "False"),
        ("Q_1, 3", "(6, 12, 8)", "True"),
        ("P_2, 2", "(13, 24, 13)", "False"),
        ("Q_2, 2", "(12, 24, 14)", "-"),
        ("P_1, 4", "(15, 34, 28, 9)", "False"),
        ("Q_1, 4", "(14, 36, 32, 10)", "False"),
        ("P_2, 3", "(45, 111, 89, 23)", "False"),
        ("Q_2, 3", "(44, 114, 94, 24)", "False"),
    ]
    rows = _member_rows(out.stdout)
    assert [r[:47] for r in rows] == [f"{member} {fv:>22}     True {m:>8}" for member, fv, m in expected]
    counts = [line for line in out.stdout.splitlines() if line.startswith("N = ")]
    assert counts == [
        f"N = {n}: indecomposable, n < m, not a matroid polytope up to homothety: {c}; 2*floor((N-1)/2) = {f}"
        for n, c, f in ((2, 0, 0), (3, 0, 2), (4, 1, 2), (5, 4, 4))
    ]


def test_family_census_prints_guard_rows(monkeypatch, capsys):
    """A member past the vertex guard gets a guard row, the census goes on,
    and the count line of its N names it."""
    census = _script("family_census", CENSUS)
    monkeypatch.setattr(defocone.polytope, "MAX_VERTICES", 12)
    census.main(["--max-total", "4"])
    text = capsys.readouterr().out
    rows = _member_rows(text)
    assert len(rows) == 6
    assert rows[4].startswith("P_2, 2 guard: polytope guard: 13 vertices")
    assert rows[5].startswith("Q_2, 2 ") and "guard" not in rows[5]
    assert text.splitlines()[-1].endswith("2*floor((N-1)/2) = 2 (guarded, not counted: P_2,2)")


def test_polytope_guard_holds_on_a_cached_answer(monkeypatch):
    """The guard is checked before the cache lookup of `edges` and `facets`."""
    p = bipartite_truncation(2, 2, "P").polytope  # 13 vertices
    assert len(defocone.polytope.edges(p)) == 24
    monkeypatch.setattr(defocone.polytope, "MAX_VERTICES", 12)
    for cached in (defocone.polytope.edges, defocone.polytope.facets):
        with pytest.raises(ResourceLimitError, match="13 vertices"):
            cached(p)


def test_bench_gain_rule_bound_and_spread():
    """bench.py claims a gain only when the head wins nine tenths of the
    pairs by more than the base's interquartile range, and calls a metric
    unresolved when that range is wider than the bound allows and the runs
    of the two sides overlap."""
    bench = _script("bench", BENCH)
    metric = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.24}
    base = [10, 11, 12, 13, 14, 10, 11, 12, 13, 14]
    faster = bench.compare(base, [20] * 9 + [9], metric)
    assert (faster["head_wins"], faster["head_losses"]) == (9, 1)
    assert faster["gain_rule_met"] and faster["within_bound"] and not faster["unresolved"]
    assert faster["base"]["median"] == 12 and faster["head"]["median"] == 20
    within_spread = bench.compare(base, [14] * 10, metric)
    assert not within_spread["gain_rule_met"] and within_spread["within_bound"]
    slower = bench.compare(base, [8] * 10, metric)
    assert slower["head_losses"] == 10 and not slower["within_bound"]
    tight = bench.compare(base, base, {**metric, "bound": 0.05})
    assert tight["unresolved"] and tight["within_bound"]
    assert not bench.compare(base, [15] * 10, {**metric, "bound": 0.05})["unresolved"]
    unbounded = bench.compare(base, base, {**metric, "bound": None})
    assert unbounded["unresolved"] is None and unbounded["within_bound"] is None


def test_bench_compares_the_traced_counts():
    """bench.py calls the traced runs identical only when both carry the same
    exact-counts digest, and names each counter whose values differ."""
    bench = _script("bench", BENCH)

    def traced(digest, **metrics):
        return {"run": {"exact_counts_digest": digest} if digest else {}, "metrics": metrics}

    counters = ["exact.calls", "io.cert_bytes"]
    same = bench.traced_counts({"base": traced("ab", **{"exact.calls": 3, "io.cert_bytes": 9, "dd.self_s": 1.0}),
                                "head": traced("ab", **{"exact.calls": 3, "io.cert_bytes": 9, "dd.self_s": 0.5})},
                               counters)
    assert same == {"traced_counts_identical": True, "traced_counters_differing": {}}
    moved = bench.traced_counts({"base": traced("ab", **{"exact.calls": 3, "io.cert_bytes": 9}),
                                 "head": traced("cd", **{"exact.calls": 4, "io.cert_bytes": 9})}, counters)
    assert moved == {"traced_counts_identical": False, "traced_counters_differing": {"exact.calls": [3, 4]}}
    assert not bench.traced_counts({"base": traced(None), "head": traced(None)}, counters)["traced_counts_identical"]


def test_bench_summarizes_the_ops_each_run_completed():
    """bench.py records passes x ops per pass for each run, in run order,
    and their median and quartiles."""
    bench = _script("bench", BENCH)
    runs = [{"run": {"passes": p, "ops_per_pass": 29}} for p in (4, 2, 5, 3, 6)]
    assert bench.ops_per_run(runs) == [116, 58, 145, 87, 174]
    assert bench.ops_completed(runs) == {"median": 116, "q1": 87, "q3": 145}


def test_bench_digests_the_deformation_bases(monkeypatch):
    """bench.py hashes every corpus basis (and, per seeded variant, every
    workload input's), so a changed basis entry changes the digest."""
    bench = _script("bench", BENCH)
    root = os.path.dirname(SRC)
    first = bench.bases_digest(root, variants=())
    assert first == bench.bases_digest(root, variants=())
    assert first["frameworks"] == 23
    real = defocone.framework.deformation_space

    def shifted(fw):
        ds = real(fw)
        return dataclasses.replace(ds, basis=tuple(tuple(x + (i == 0) for i, x in enumerate(v)) for v in ds.basis))

    monkeypatch.setattr(defocone.framework, "deformation_space", shifted)
    assert bench.bases_digest(root, variants=())["digest"] != first["digest"]


def test_bench_counts_the_python_lines_of_src_and_tests(tmp_path):
    """bench.py counts the lines of every .py file under a tree's src/ and
    tests/, nested ones too, and nothing else."""
    bench = _script("bench", BENCH)
    files = {"src/pkg/a.py": "x = 1\ny = 2\n", "src/pkg/sub/b.py": "z = 3\n", "src/pkg/notes.txt": "a\nb\n",
             "tests/test_a.py": "def test():\n    pass\n", "scripts/c.py": "w = 4\n"}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert bench.line_counts(str(tmp_path)) == {"src_lines": 3, "tests_lines": 2}
