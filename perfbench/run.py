#!/usr/bin/env python3
"""defocone benchmark: one workload per run, one caller in a closed loop.

    python3 perfbench/run.py --workload faces --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; the package is imported from
./src and nothing is installed or built.  Every op starts from cold
package caches, the way one CLI invocation does.  A run makes whole passes
over the workload's fixed input list until the time is up, and at least
workloads.MIN_PASSES of them; pass k uses the k-th seeded variant of every
input, so a run averages over several variants.  Every op's verdicts are
checked against expected values.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes over the seed's first variant and prints the per-layer
metrics (see layers.py), the tracing overhead, and fails if a wrapped
layer function records no calls where it must or if the exact counts
differ between traced passes.  The last line of standard output is the
JSON result; NOTES.md says what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import types
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import layers  # noqa: E402
import workloads  # noqa: E402

MODULES = ("io", "polytope", "framework", "cones", "deduction", "corpus", "constructions", "report", "exact", "simplex", "ddcore")
SETUPS = 5  # set-ups per run; setup_s is their median
TAIL_ABOVE = 10  # the tail percentile leaves this many samples above it in the shortest run


def import_package():
    """A fresh import of the package from ./src, as a namespace of its modules."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "defocone" or n.startswith("defocone.")]:
        del sys.modules[name]
    pkg = types.SimpleNamespace(**{m: importlib.import_module(f"defocone.{m}") for m in MODULES})
    if not os.path.abspath(pkg.io.__file__).startswith(SRC + os.sep):
        raise ImportError(f"defocone imported from {pkg.io.__file__}, not from {SRC}")
    return pkg


def package_caches():
    """(lru_cache objects, clear_caches functions) of every package module."""
    caches, clearers = {}, {}
    for name, mod in list(sys.modules.items()):
        if name != "defocone" and not name.startswith("defocone."):
            continue
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)) and getattr(value, "__module__", "").startswith("defocone"):
                caches[id(value)] = value
        fn = getattr(mod, "clear_caches", None)
        if callable(fn):
            clearers[id(fn)] = fn
    return list(caches.values()), list(clearers.values())


def clear_all(caches, clearers):
    for c in caches:
        c.cache_clear()
    for fn in clearers:
        fn()


def cache_totals(caches):
    infos = [c.cache_info() for c in caches if callable(getattr(c, "cache_info", None))]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


# The host's speed drifts by up to 1.8x within seconds (see NOTES.md), so
# every timed interval is bracketed by two runs of a fixed exact-arithmetic
# kernel and scaled to a host on which that kernel takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.004
_KERNEL = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) for j in range(9)] for i in range(8)]


def calibrate() -> float:
    """Seconds for two rational row reductions of a fixed 8x9 matrix."""
    t0 = time.perf_counter()
    for _ in range(2):
        m = [list(row) for row in _KERNEL]
        r = 0
        for c in range(len(m[0])):
            p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
            if p is None:
                continue
            m[r], m[p] = m[p], m[r]
            inv = 1 / m[r][c]
            m[r] = [inv * x for x in m[r]]
            for i in range(len(m)):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            r += 1
            if r == len(m):
                break
    return time.perf_counter() - t0


def scaled(seconds, cal_before, cal_after) -> float:
    return seconds * CALIBRATION_REF_S * 2 / (cal_before + cal_after)


def set_up(workload, seed):
    gc.collect()
    cal = calibrate()
    t0 = time.perf_counter()
    pkg = import_package()
    base = workloads.build(pkg, workload)
    inputs = workloads.serialize(pkg, workload, base, f"{seed}:0")
    raw = time.perf_counter() - t0
    return scaled(raw, cal, calibrate()), raw, pkg, base, inputs


def run_pass(pkg, workload, inputs, expected, caches, clearers, tracer=None):
    """Scaled and raw latencies (s) of the ops that returned, and (name,
    reason) per failed op."""
    op = workloads.OPS[workload]
    latencies, raw, failures = [], [], []
    cal = calibrate()
    for name, item in inputs:
        clear_all(caches, clearers)
        gc.collect()  # each op starts from a collected heap, as in a fresh process
        t0 = time.perf_counter()
        try:
            result = op(pkg, item)
        except Exception as exc:  # a raising op is a failed op, not a crash
            failures.append((name, "".join(traceback.format_exception_only(exc)).strip()))
            cal = calibrate()
            continue
        dt = time.perf_counter() - t0
        cal_after = calibrate()
        latencies.append(scaled(dt, cal, cal_after))
        raw.append(dt)
        cal = cal_after
        problem = workloads.check(workload, workloads.verdicts(workload, result), expected[name])
        if problem:
            failures.append((name, problem))
        if tracer is not None:
            hits, misses = cache_totals(caches)
            tracer.counts["cache.hits"] += hits
            tracer.counts["cache.misses"] += misses
            if workload == "certify":
                tracer.counts["io.cert_bytes"] += result[4]
        del result  # freed here, not inside the next op's timer
    return latencies, raw, failures


def tail(latencies, level):
    """Harrell-Davis estimate of the `level` quantile.

    A Beta((n+1)level, (n+1)(1-level))-weighted mean of the order
    statistics: the inputs' latencies form a ladder with gaps, and a single
    order statistic jumps across a gap when one op's cost moves.
    """
    s = sorted(latencies)
    n = len(s)
    a, b = level * (n + 1), (1 - level) * (n + 1)
    steps = 64  # midpoint-rule points per order statistic
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t) for t in ((j + 0.5) / (steps * n) for j in range(steps * n))]
    top = max(logs)
    dens = [math.exp(x - top) for x in logs]
    return sum(x * sum(dens[i * steps : (i + 1) * steps]) for i, x in enumerate(s)) / sum(dens)


def _read(path):
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return fh.read().strip()


def machine(seed):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = _read(os.path.join(ROOT, ".git", "HEAD"))  # None in an exported checkout
    if commit and commit.startswith("ref: "):
        commit = _read(os.path.join(ROOT, ".git", commit[5:]))
    src = hashlib.sha256()
    pkg_dir = os.path.join(SRC, "defocone")
    for fname in sorted(os.listdir(pkg_dir)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg_dir, fname), "rb") as fh:
                src.update(fname.encode() + b"\0" + fh.read())
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "defocone", "__init__.py")):
        print(f"perfbench: no defocone sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)

    setups, raw_setups = [], []
    for _ in range(SETUPS):
        seconds, raw, pkg, base, inputs = set_up(args.workload, args.seed)
        setups.append(seconds)
        raw_setups.append(raw)
    expected = workloads.expected_values(pkg, args.workload, base, recorded)
    caches, clearers = package_caches()

    passes = []  # (tracer or None, scaled latencies, raw latencies, failures)
    start = time.perf_counter()
    while True:
        k = len(passes)
        tracer = layers.Tracer() if args.trace and k % 2 == 1 else None
        if k > 0 and not args.trace:
            inputs = workloads.serialize(pkg, args.workload, base, f"{args.seed}:{k}")
        if tracer is not None:
            tracer.install()
        try:
            passes.append((tracer, *run_pass(pkg, args.workload, inputs, expected, caches, clearers, tracer)))
        finally:
            if tracer is not None:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        min_passes = workloads.MIN_PASSES[args.workload]
        enough = len(passes) >= (max(min_passes, 4) if args.trace else min_passes)  # two traced passes
        if enough and elapsed + elapsed / len(passes) / 2 >= args.seconds:
            break

    attempted = len(passes) * len(inputs)
    failures = [f for *_, fs in passes for f in fs]
    for name, reason in sorted(set(failures)):
        print(f"FAILED {args.workload}/{name}: {reason}", file=sys.stderr)
    problems = []
    lat = [x for _, ls, _, _ in passes for x in ls]
    raw = [x for _, _, rs, _ in passes for x in rs]
    info = machine(args.seed)
    info.update(
        workload=args.workload,
        passes=len(passes),
        ops_per_pass=len(inputs),
        measured_s=elapsed,
        host_slowdown=sum(raw) / sum(lat),
        raw_setup_s=statistics.median(raw_setups),
        raw_ops_per_s=len(raw) / sum(raw),
        raw_op_p50_ms=1000 * statistics.median(raw),
    )

    if not args.trace:
        level = 1 - TAIL_ABOVE / (workloads.MIN_PASSES[args.workload] * len(inputs))
        tail_s = tail(lat, level)
        above = sum(1 for x in lat if x > tail_s)
        info.update(tail_percentile=100 * level, tail_samples=len(lat), tail_above=above)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "op_p50_ms": (1000 * statistics.median(lat), "ms"),
            "op_tail_ms": (1000 * tail_s, "ms"),
            "ok_ops_frac": ((attempted - len(failures)) / attempted, "frac"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        notes = {"op_tail_ms": f"p{100 * level:.1f} of {len(lat)} ops, {above} above"}
    else:
        traced = [(t, ls, rs) for t, ls, rs, _ in passes if t is not None]
        plain = [x for t, ls, _, _ in passes if t is None for x in ls]
        counts = [t.exact_counts() for t, _, _ in traced]
        if any(c != counts[0] for c in counts):
            problems.append("exact counts differ between traced passes of the same inputs")
        missing = sorted({key for t, _, _ in traced for key in t.missing_calls(args.workload)})
        problems += [f"wrapped layer function {key} recorded no calls" for key in missing]
        metrics = {k: (v, "count") for k, v in counts[0].items()}
        metrics["io.cert_bytes"] = (counts[0]["io.cert_bytes"], "B")
        # layer times scaled by their pass's host speed, like the latencies
        times = [{k: v * sum(ls) / sum(rs) for k, v in t.layer_times().items()} for t, ls, rs in traced]
        metrics.update({k: (statistics.median(tm[k] for tm in times), "s") for k in times[0]})
        pairs = counts[0]["faces.pairs_tested"]
        metrics["faces.edge_yield"] = (counts[0]["faces.edges_found"] / pairs if pairs else 0.0, "edge/pair")
        traced_lat = [x for _, ls, _ in traced for x in ls]
        traced_rate = len(traced_lat) / sum(traced_lat)
        metrics["trace.ops_per_s"] = (traced_rate, "1/s")
        metrics["trace.overhead_ops_per_s"] = (len(plain) / sum(plain) - traced_rate, "1/s")
        info.update(exact_counts_digest=workloads.digest(counts[0]))
        notes = {}
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:34s} {value:14.6g} {unit:10s} {notes.get(name, '')}")
    print(json.dumps({"run": info}))
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # Deduction iterates sets of vertex labels, so the exact counts of
    # `certify` follow the string-hash order; pin it so they repeat.
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    sys.exit(main())
