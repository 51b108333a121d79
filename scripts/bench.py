#!/usr/bin/env python3
"""Compare two commits on the defocone benchmark and write a BENCH JSON file.

    python3 scripts/bench.py --base <rev> [--head <rev>] --out BENCH_<tag>.json
    python3 scripts/bench.py --bases-digest

Run it from inside the git checkout.  Both revisions are exported with
`git archive` into a temporary directory (no network, no install), so
each side runs from its own committed sources with cold caches.  For each
workload of BENCHMARK.json the script runs `perfbench/run.py --trace 0`
for BENCHMARK.json's run length in PAIRS base/head pairs, alternating
which side runs first and giving pair i the seed FIRST_SEED + i; then one
pair at the held-out seed FIRST_SEED + PAIRS, recorded apart (`held_out`)
and left out of the gain and bound verdicts; then one `--trace 1` run per
side for the per-layer numbers, and checks that the
two traced runs agree on their exact counts (`exact_counts_digest`),
naming every per-layer counter that differs.  Last it times
`defocone report paper --json` on each side in PAIRS alternating pairs
and checks that the rows, apart from `seconds`, are the same on both
sides, and that both sides give the same `DeformationSpace.basis`, Fraction
for Fraction, on the corpus and on every workload input under the seeded
variants 41-43 (`bases_identical`).  `--bases-digest` prints that digest
for the checkout in the current directory.

The file holds every run's metrics, each side's median and quartiles per
metric and of the ops each run completed (the ops `op_tail_ms` is
estimated from, and whose samples weigh on `peak_rss_mb`, so each run's
count also stands beside that metric's runs as `ops_per_run`), the pairs
the head won and the verdict of the gain rule (head better in at least nine
tenths of the pairs, by more than the base's interquartile range) and of
the bound of BENCHMARK.json, plus the machine (nproc, CPU, Python
version), both commits and each side's `src_lines` and `tests_lines`
(`lines`).  A metric is `unresolved` when the base's interquartile range
is wider than its bound times its median, unless every head run is better
than every base run: its runs spread too widely to tell a move within the
bound.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
FIRST_SEED = 41
BASIS_VARIANTS = (41, 42, 43)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: str) -> str:
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return dest


def perfbench(tree: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {out.returncode}:\n{out.stderr}")
    *_, run_line, result_line = out.stdout.strip().splitlines()
    result = json.loads(result_line)
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "run": json.loads(run_line)["run"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }


def report(tree: str) -> tuple[float, list]:
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "defocone", "report", "paper", "--json"],
                         cwd=tree, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if out.returncode != 0:
        raise RuntimeError(f"defocone report paper in {tree} exited {out.returncode}:\n{out.stderr}")
    return seconds, [{k: v for k, v in row.items() if k != "seconds"} for row in json.loads(out.stdout)]


def bases_digest(root: str, variants=BASIS_VARIANTS) -> dict:
    """sha256 of the edges and `DeformationSpace.basis` of every corpus
    framework and every workload input under the seeded variants, with the
    package and perfbench's workloads imported from the checkout at root.
    A guard's message stands in for a refused basis."""
    for sub in ("perfbench", "src"):
        if os.path.join(root, sub) not in sys.path:
            sys.path.insert(0, os.path.join(root, sub))
    workloads = importlib.import_module("workloads")
    pkg = types.SimpleNamespace(**{m: importlib.import_module(f"defocone.{m}") for m in
                                   ("constructions", "corpus", "errors", "framework", "io", "polytope", "report")})
    fws = [e.framework for _, e in sorted(pkg.corpus.corpus().items())]
    for name in workloads.WORKLOADS:
        base = workloads.build(pkg, name)
        for variant in variants:
            for _, obj in workloads.serialize(pkg, name, base, variant):
                if name == "faces":
                    fws.append(pkg.polytope.framework_of(pkg.io.polytope_from_obj(obj)))
                else:
                    fws.append(pkg.io.framework_from_obj(obj if name == "oracle" else obj["framework"]))
    h = hashlib.sha256()
    for fw in fws:
        try:
            basis = [[str(x) for x in v] for v in pkg.framework.deformation_space(fw).basis]
        except pkg.errors.ResourceLimitError as exc:
            basis = str(exc)
        h.update(json.dumps([fw.edges, basis]).encode())
    return {"frameworks": len(fws), "digest": h.hexdigest()}


def tree_bases_digest(tree: str) -> dict:
    """`bases_digest` of an exported tree, in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--bases-digest"],
                         cwd=tree, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"--bases-digest in {tree} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout)


def line_counts(tree: str) -> dict:
    """Lines of the Python files under the tree's src/ and tests/, the size
    the ROADMAP's north star tracks."""
    counts = {}
    for sub in ("src", "tests"):
        counts[f"{sub}_lines"] = 0
        for path in glob.glob(os.path.join(tree, sub, "**", "*.py"), recursive=True):
            with open(path, "rb") as fh:
                counts[f"{sub}_lines"] += fh.read().count(b"\n")
    return counts


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def compare(b: list[float], h: list[float], metric: dict) -> dict:
    """Per-metric sides, pair wins, and the gain rule and bound verdicts
    (None without a bound)."""
    higher, bound = metric["better"] == "higher", metric["bound"]
    wins = sum((y > x) if higher else (y < x) for x, y in zip(b, h))
    losses = sum((y < x) if higher else (y > x) for x, y in zip(b, h))
    sb, sh = summary(b), summary(h)
    gain = sh["median"] - sb["median"] if higher else sb["median"] - sh["median"]
    worse = -gain / abs(sb["median"]) if sb["median"] else 0.0
    separated = min(h) > max(b) if higher else max(h) < min(b)
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": bound,
        "base": {**sb, "runs": b}, "head": {**sh, "runs": h},
        "head_wins": wins, "head_losses": losses, "pairs": len(b),
        "median_change": (sh["median"] - sb["median"]) / sb["median"] if sb["median"] else None,
        "gain_rule_met": wins >= 0.9 * len(b) and gain > sb["q3"] - sb["q1"],
        "within_bound": None if bound is None else worse <= bound,
        "unresolved": None if bound is None else sb["q3"] - sb["q1"] > bound * abs(sb["median"]) and not separated,
    }


def ops_per_run(runs: list[dict]) -> list[int]:
    """The ops each run completed, passes times ops per pass from its run
    record."""
    return [r["run"]["passes"] * r["run"]["ops_per_pass"] for r in runs]


def ops_completed(runs: list[dict]) -> dict:
    """Median and quartiles of the ops the runs completed."""
    return summary(ops_per_run(runs))


def traced_counts(traced: dict, counters: list[str]) -> dict:
    """Do the traced runs of the two sides make the same exact counts, and
    which counters differ (name -> [base, head])?"""
    base, head = traced["base"], traced["head"]
    digests = [side["run"].get("exact_counts_digest") for side in (base, head)]
    return {
        "traced_counts_identical": None not in digests and digests[0] == digests[1],
        "traced_counters_differing": {
            k: [base["metrics"].get(k), head["metrics"].get(k)]
            for k in counters if base["metrics"].get(k) != head["metrics"].get(k)
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="parent revision (required)")
    ap.add_argument("--head", default="HEAD", help="changed revision (default HEAD)")
    ap.add_argument("--out", help="path of the BENCH JSON file to write (required)")
    ap.add_argument("--bases-digest", action="store_true",
                    help="print the deformation-basis digest of the checkout in the current directory and exit")
    args = ap.parse_args(argv)
    if args.bases_digest:
        print(json.dumps(bases_digest(os.getcwd())))
        return 0
    if args.base is None or args.out is None:
        ap.error("--base and --out are required")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    counters = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "B")]
    commits = {side: git("rev-parse", rev) for side, rev in (("base", args.base), ("head", args.head))}

    doc = {
        "machine": {"nproc": len(os.sched_getaffinity(0)), "cpu": None, "python": platform.python_version()},
        "commits": commits,
        "settings": {"pairs": PAIRS, "first_seed": FIRST_SEED, "seconds": seconds},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="defocone-bench-") as tmp:
        trees = {side: export(rev, os.path.join(tmp, side)) for side, rev in commits.items()}
        doc["lines"] = {side: line_counts(tree) for side, tree in trees.items()}
        bases = {side: tree_bases_digest(tree) for side, tree in trees.items()}
        doc["bases"] = bases
        doc["bases_identical"] = bases["base"] == bases["head"]
        print(f"bases identical: {doc['bases_identical']}", file=sys.stderr)
        for name in (w["name"] for w in bench["workloads"]):
            runs = {"base": [], "head": []}
            for i in range(PAIRS):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    runs[side].append(perfbench(trees[side], name, FIRST_SEED + i, seconds, 0))
                    r = runs[side][-1]["metrics"]
                    print(f"{name} pair {i} {side}: ops_per_s {r['ops_per_s']:.2f}", file=sys.stderr)
            held_out = {side: perfbench(trees[side], name, FIRST_SEED + PAIRS, seconds, 0) for side in trees}
            traced = {side: perfbench(trees[side], name, FIRST_SEED, seconds, 1) for side in trees}

            def values(side: str, metric: str) -> list[float]:
                return [r["metrics"][metric] for r in runs[side]]

            doc["machine"]["cpu"] = runs["base"][0]["run"]["cpu"]
            end_to_end = {m["name"]: compare(values("base", m["name"]), values("head", m["name"]), m)
                          for m in bench["end_to_end"]}
            if "peak_rss_mb" in end_to_end:
                end_to_end["peak_rss_mb"]["ops_per_run"] = {side: ops_per_run(runs[side]) for side in runs}
            doc["workloads"][name] = {
                "correct": all(r["correct"] for r in
                               [*runs["base"], *runs["head"], *held_out.values(), *traced.values()]),
                "end_to_end": end_to_end,
                "ops_completed": {side: ops_completed(runs[side]) for side in runs},
                "held_out": {side: {**run, "ops_completed": ops_per_run([run])[0]} for side, run in held_out.items()},
                **traced_counts(traced, counters),
                "runs": runs,
                "traced": traced,
            }
        timings, rows = {"base": [], "head": []}, {}
        for i in range(PAIRS):
            for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                seconds_taken, rows[side] = report(trees[side])
                timings[side].append(seconds_taken)
                print(f"report pair {i} {side}: {seconds_taken:.2f} s", file=sys.stderr)
        digest = {side: hashlib.sha256(json.dumps(r).encode()).hexdigest()[:16] for side, r in rows.items()}
        doc["report_paper"] = {
            "wall_s": compare(timings["base"], timings["head"], {"unit": "s", "better": "lower", "bound": None}),
            "rows": len(rows["head"]),
            "rows_digest": digest,
            "rows_identical_apart_from_seconds": rows["base"] == rows["head"],
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
