"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each layer module and rebinds the
wrapper in every ``defocone`` module namespace that holds the original
object, because callers bind layer functions with ``from .exact import
rref``.  Each call into a layer from another layer opens a span; a call
from inside the same layer (``rank`` calling ``rref``) is counted but opens
none.  A layer's self time is its spans' time minus the time of the spans
they caused.  Counts are taken from the arguments and results of the
wrapped calls, so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# Saturation step kinds, as ``saturate`` logs them.
SATURATE_KINDS = ("Triangle", "RigidCycle", "ProjectionLift", "DegenerateContraction", "ImplicitFromPath")


def _rref(c, caller, args, kwargs, result):
    rows = args[0]
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    cells = len(rows) * ncols
    c["exact.calls"] += 1
    c["exact.cells"] += cells
    c["exact.max_cells"] = max(c["exact.max_cells"], cells)


def _solve(c, caller, args, kwargs, result):
    lp = args[0]
    nle = len(lp.le)
    m = len(lp.eq) + nle
    width = (lp.n if lp.nonneg else 2 * lp.n) + nle
    c["simplex.lps"] += 1
    c["simplex.tableau_cells"] += m * (width + m)  # phase-one tableau with artificials


def _dd(c, caller, args, kwargs, result):
    c["dd.calls"] += 1
    c["dd.rows_in"] += len(args[0])
    c["dd.rays_out"] += len(result)


def _edges(c, caller, args, kwargs, result):
    n = len(args[0].vertex_ids)
    c["faces.pairs_tested"] += n * (n - 1) // 2
    c["faces.edges_found"] += len(result)


def _dspace(c, caller, args, kwargs, result):
    fw = result.framework
    c["dspace.calls"] += 1
    c["dspace.eq_rows"] += len(result.cycles) * fw.dim + len(result.degenerate)
    c["dspace.eq_cols"] += len(fw.edges)


def _rays(c, caller, args, kwargs, result):
    c["cones.rays_out"] += len(result.rays)


def _saturate(c, caller, args, kwargs, result):
    c["saturate.steps"] += len(result.log)
    for step in result.log:
        c[f"saturate.steps.{step.kind}"] += 1


def _conclude(c, caller, args, kwargs, result):
    c["conclude.proved"] += bool(result[0])


def _pins(c, caller, args, kwargs, result):
    if caller == "conclude":
        c["conclude.pin_checks"] += 1


def _replay(c, caller, args, kwargs, result):
    c["replay.steps"] += len(args[1])
    c["replay.accepted"] += bool(result[0])


ALL = ("faces", "oracle", "certify")

# (module, function, layer, counter, workloads that must call it).  Layer
# None means a counter without a span.  Zero calls on a listed workload
# means the function was renamed or bypassed, and its metrics would
# silently read 0, so the run fails instead.
WRAPPED = (
    ("exact", "rref", "exact", _rref, ALL),
    ("exact", "rank", "exact", None, ALL),
    ("exact", "nullspace", "exact", None, ALL),
    ("exact", "in_span", "exact", None, ("certify",)),
    ("exact", "affine_rank", "exact", None, ("certify",)),
    ("simplex", "solve", "simplex", _solve, ("faces",)),
    ("simplex", "feasible", "simplex", None, ("faces",)),
    ("ddcore", "dd_rays", "dd", _dd, ALL),
    ("polytope", "polytope", "faces.vertex_check", None, ("faces", "certify")),
    ("polytope", "edges", "faces.edges", _edges, ("faces",)),
    ("polytope", "facets", "faces.facets", None, ("faces", "certify")),
    ("framework", "deformation_space", "dspace", _dspace, ("faces", "oracle")),
    ("cones", "enumerate_rays", "cones", _rays, ("oracle",)),
    ("deduction", "saturate", "saturate", _saturate, ("certify",)),
    ("deduction", "conclude_indecomposable", "conclude", _conclude, ("certify",)),
    ("deduction", "dim_upper_bound", "conclude", None, ("certify",)),
    ("deduction", "covering_pins_all", None, _pins, ("certify",)),
    ("deduction", "verify_certificate", "replay", _replay, ("certify",)),
    ("io", "polytope_from_obj", "io", None, ("faces", "certify")),
    ("io", "framework_from_obj", "io", None, ("oracle", "certify")),
    ("io", "certificate_to_obj", "io", None, ("certify",)),
    ("io", "certificate_from_obj", "io", None, ("certify",)),
)

SELF_TIMES = ("exact", "simplex", "dd", "dspace", "cones", "saturate", "conclude", "replay", "io")
INCLUSIVE_TIMES = {"faces.vertex_check": "faces.vertex_check_s", "faces.edges": "faces.edges_s", "faces.facets": "faces.facets_s"}
COUNTS = (
    "exact.calls", "exact.cells", "exact.max_cells",
    "simplex.lps", "simplex.tableau_cells",
    "dd.calls", "dd.rows_in", "dd.rays_out",
    "faces.pairs_tested", "faces.edges_found",
    "dspace.calls", "dspace.eq_rows", "dspace.eq_cols",
    "cones.rays_out",
    "saturate.steps", *(f"saturate.steps.{k}" for k in SATURATE_KINDS),
    "conclude.proved", "conclude.pin_checks",
    "replay.steps", "replay.accepted",
    "io.cert_bytes",
    "cache.hits", "cache.misses",
)


class Tracer:
    """Spans and counters for one traced pass; install() before, uninstall() after."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self._stack: list[list] = []
        self._bound: list[tuple] = []

    def _wrap(self, key, orig, layer, count):
        stack, calls, counts = self._stack, self.calls, self.counts
        self_s, incl_s = self.self_s, self.incl_s
        cache_info = getattr(orig, "cache_info", None)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[key] += 1
            caller = stack[-1][0] if stack else None
            misses = cache_info().misses if cache_info else None
            opens = layer is not None and caller != layer
            if opens:
                frame = [layer, clock(), 0.0]
                stack.append(frame)
            try:
                result = orig(*args, **kwargs)
            finally:
                if opens:
                    stack.pop()
                    dur = clock() - frame[1]
                    self_s[layer] += dur - frame[2]
                    incl_s[layer] += dur
                    if stack:
                        stack[-1][2] += dur
            if count is not None and (misses is None or cache_info().misses != misses):
                count(counts, caller, args, kwargs, result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def install(self):
        mods = [m for name, m in list(sys.modules.items()) if name == "defocone" or name.startswith("defocone.")]
        for modname, fname, layer, count, _ in WRAPPED:
            orig = getattr(sys.modules[f"defocone.{modname}"], fname)
            wrapper = self._wrap(f"{modname}.{fname}", orig, layer, count)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._bound.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._bound):
            setattr(mod, attr, orig)
        self._bound.clear()

    def missing_calls(self, workload: str) -> list[str]:
        keys = [f"{m}.{f}" for m, f, _, _, where in WRAPPED if workload in where]
        return [k for k in keys if self.calls[k] == 0]

    def exact_counts(self) -> dict:
        return {k: self.counts[k] for k in COUNTS}

    def layer_times(self) -> dict:
        out = {f"{layer}.self_s": self.self_s[layer] for layer in SELF_TIMES}
        out.update({name: self.incl_s[layer] for layer, name in INCLUSIVE_TIMES.items()})
        return out
