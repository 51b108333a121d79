"""Saturating rule engine for edge dependencies, with replayable proofs.

`DeductionState` is a proof kernel: it holds the known non-degenerate
edges (base edges plus discovered implicit ones) in a union-find of
classes, and `DeductionState.apply` is the one place that checks a step's
literal geometric side conditions, makes its merges and logs it.  The
rules search for steps and hand each one to `apply`:

  triangles on affinely independent points; quadrilaterals with a parallel
  opposite pair (a projection lift along that direction); general rigid
  cycles; transfer across degenerate edges; implicit edges created by
  paths inside one class; projection lifts along one-dimensional class
  directions.

Conclusions (indecomposability via a covering collection of flats,
dimension upper bounds) are steps too.  Replaying a certificate applies
its steps to a fresh state, so the engine cannot log a step the replay
rejects, and `DeductionState.conclusion` says what the replay established.
No step consults the deformation-space nullspace; the covering test takes
only the annihilators of the flats, once per state.  A rank of one or two
edge directions is read off their memoized primitive keys, not eliminated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import graphs
from .errors import InputError
from .exact import Vec, affine_rank, in_span, is_zero_vec, nullspace, parse_rat, primitive, rank, rref, vec_sub
from .framework import Edge, Framework, adjacency, components, edge_key

TRIANGLE = "Triangle"
RIGID_CYCLE = "RigidCycle"
PROJECTION_LIFT = "ProjectionLift"
DEGENERATE_CONTRACTION = "DegenerateContraction"
IMPLICIT_FROM_PATH = "ImplicitFromPath"
COVERING_CONCLUSION = "CoveringConclusion"
DIM_BOUND = "DimBound"

STEP_KINDS = (
    TRIANGLE,
    RIGID_CYCLE,
    PROJECTION_LIFT,
    DEGENERATE_CONTRACTION,
    IMPLICIT_FROM_PATH,
    COVERING_CONCLUSION,
    DIM_BOUND,
)


@dataclass(frozen=True)
class Step:
    kind: str
    payload: dict


# Budgets of the rigid-cycle search, which only runs when the cheap rules
# stall.  The search strategy is a policy choice; soundness never depends
# on it.
MAX_CYCLE_LEN = 6
MAX_SKIP = 2
MAX_CYCLES_SCANNED = 200_000


class DeductionState:
    """The proof kernel: known edges, classes of the non-degenerate known
    edges, and the log of accepted steps.  `apply` is the only way to
    change any of them, so the rules and the replay share one semantics."""

    def __init__(self, fw: Framework):
        self.base = fw
        self.known: set[Edge] = set(fw.edges)
        self._classes = graphs.UnionFind(fw.nondegenerate_edges)
        self.log: list[Step] = []
        self._pins: dict[frozenset, bool] = {}
        self._vecs: dict[tuple[str, str], Vec] = {}
        self._keys: dict[Edge, tuple[int, ...] | None] = {}

    # union-find over the non-degenerate known edges ------------------------
    def find(self, e: Edge) -> Edge:
        return self._classes.find(e)

    def tracked(self, e: Edge) -> bool:
        return e in self._classes

    def classes(self) -> dict[Edge, set[Edge]]:
        return self._classes.classes()

    def same_class(self, e: Edge, f: Edge) -> bool:
        return self.tracked(e) and self.tracked(f) and self.find(e) == self.find(f)

    # the kernel ------------------------------------------------------------
    def apply(self, step: Step) -> str | None:
        """Check a step against this state.  An accepted step makes its
        merges, joins the log and gives None; a rejected one changes
        nothing and gives the reason."""
        try:
            if step.kind not in _CHECKS:
                return f"unknown step kind {step.kind!r}"
            check, lists, nested = _CHECKS[step.kind]
            for key in lists:
                value = step.payload[key] if key in step.payload else None
                for x in () if value is None else [value, *(value if key in nested else ())]:
                    if not isinstance(x, (list, tuple)):
                        raise TypeError(f"{key} must be a list")
            merged = check(self, step.payload)
        except (KeyError, ValueError, TypeError) as exc:
            return f"malformed payload: {exc}"
        if isinstance(merged, str):
            return merged
        for e in merged:
            self.known.add(e)
            self._classes.add(e)
        for e in merged[1:]:
            self._classes.union(merged[0], e)
        self.log.append(step)
        return None

    def replay(self, steps):
        """Apply the steps in order: (True, None, None), or (False, index,
        reason) at the first rejected one."""
        for i, step in enumerate(steps):
            reason = self.apply(step)
            if reason is not None:
                return False, i, reason
        return True, None, None

    def conclusion(self) -> dict:
        """What the accepted steps establish."""
        return {
            "indecomposable_proved": any(s.kind == COVERING_CONCLUSION for s in self.log),
            "classes": len(self.classes()),
        }

    def pins_all(self, flats) -> bool:
        """`covering_pins_all`, computed once per set of flats."""
        key = frozenset(flats)
        if key not in self._pins:
            self._pins[key] = covering_pins_all(self.base, flats)
        return self._pins[key]

    # geometry helpers ----------------------------------------------------
    def direction(self, e: tuple[str, str]) -> Vec:
        """p(e[1]) - p(e[0]), computed once per ordered pair."""
        d = self._vecs.get(e)
        if d is None:
            d = self._vecs[e] = self.base.edge_vector(e)
        return d

    def direction_key(self, e: tuple[str, str]) -> tuple[int, ...] | None:
        """The pair's difference as the primitive integer vector whose first
        nonzero entry is positive, or None when it is zero: two nonzero
        differences are parallel exactly when their keys are equal.
        Computed once per unordered pair."""
        e = edge_key(*e)
        if e not in self._keys:
            d = self.direction(e)
            lead = next((x for x in d if x != 0), None)
            self._keys[e] = None if lead is None else primitive(d if lead > 0 else [-x for x in d])
        return self._keys[e]

    def small_rank(self, pairs) -> int:
        """Rank of the pairs' differences: up to two of them, the number of
        distinct nonzero keys; more, by `rank`."""
        if len(pairs) > 2:
            return rank([self.direction(e) for e in pairs], self.base.dim)
        return len({self.direction_key(e) for e in pairs} - {None})

    def known_adjacency(self) -> dict[str, tuple[str, ...]]:
        return graphs.adjacency(self.base.vertex_ids, self.known)

    def class_components(self):
        """For each class, the vertex sets of the connected pieces of its
        edge subgraph, largest first."""
        out = []
        for rep, es in sorted(self.classes().items()):
            adj = graphs.adjacency((), es)
            out.extend((rep, frozenset(c)) for c in graphs.components(sorted(adj), adj))
        return sorted(out, key=lambda t: (-len(t[1]), sorted(t[1]), t[0]))


# ---------------------------------------------------------------------------
# rules: each searches for steps that would merge something and hands them
# to `apply`, which alone decides whether they hold


def _run_triangles(state: DeductionState) -> bool:
    fw = state.base
    adj = state.known_adjacency()
    progress = False
    for a in fw.vertex_ids:
        for b, c in itertools.combinations(sorted(adj[a]), 2):
            if not (a < b):
                continue
            e_bc = edge_key(b, c)
            if e_bc not in state.known:
                continue
            es = [edge_key(a, b), edge_key(a, c), e_bc]
            if not all(state.tracked(e) for e in es) or len({state.find(e) for e in es}) == 1:
                continue
            progress |= state.apply(Step(TRIANGLE, {"vertices": [a, b, c]})) is None
    return progress


def _run_parallel_quads(state: DeductionState) -> bool:
    """Quadrilaterals with one parallel opposite pair: the other pair maps
    to a single edge after projecting along the parallel direction."""
    adj = state.known_adjacency()
    progress = False
    for e in sorted(state.known):
        u1, u2 = e
        k12 = state.direction_key(e)
        if k12 is None:
            continue
        for u3 in sorted(adj[u2]):
            if u3 in (u1, u2):
                continue
            k23 = state.direction_key((u2, u3))
            if k23 is None or k23 == k12:
                continue
            for u4 in sorted(adj[u3]):
                if u4 in (u1, u2, u3) or edge_key(u4, u1) not in state.known:
                    continue
                if state.direction_key((u3, u4)) != k12:
                    continue
                ea, fb = edge_key(u2, u3), edge_key(u1, u4)
                if state.same_class(ea, fb) or not (state.tracked(ea) and state.tracked(fb)):
                    continue
                step = Step(
                    PROJECTION_LIFT,
                    {
                        "kernel": [[str(x) for x in state.direction(e)]],
                        "edge_a": [u2, u3],
                        "edge_b": [u1, u4],
                        "path_a": [u2, u1],
                        "path_b": [u3, u4],
                    },
                )
                progress |= state.apply(step) is None
    return progress


def _run_degenerate_transfer(state: DeductionState) -> bool:
    progress = False
    for e in sorted(state.known):
        if not is_zero_vec(state.direction(e)):
            continue
        u, v = e
        for a, b in ((u, v), (v, u)):
            for f in sorted(state.known):
                if a not in f:
                    continue
                w = f[0] if f[1] == a else f[1]
                if w == b or is_zero_vec(state.direction(f)):
                    continue
                g = edge_key(b, w)
                if g in state.known and state.same_class(g, f):
                    continue
                step = Step(DEGENERATE_CONTRACTION, {"degenerate": [a, b], "pivot": [a, w], "new": [b, w]})
                progress |= state.apply(step) is None
    return progress


def _run_implicit_from_paths(state: DeductionState) -> bool:
    progress = False
    for _, es in sorted(state.classes().items()):
        adj = graphs.adjacency((), es)
        for comp in graphs.components(sorted(adj), adj):
            for u, v in itertools.combinations(comp, 2):
                if edge_key(u, v) in state.known:
                    continue
                step = Step(IMPLICIT_FROM_PATH, {"path": graphs.bfs_path(adj, u, v)})
                progress |= state.apply(step) is None
    return progress


def _run_rigid_cycles(state: DeductionState) -> bool:
    """Cycles whose length exceeds the codimension drop by exactly one
    after skipping a small subset: the remaining edges merge."""
    fw = state.base
    adj = state.known_adjacency()
    progress = False
    budget = MAX_CYCLES_SCANNED

    def handle(cycle: tuple[str, ...]) -> bool:
        k = len(cycle)
        pairs = [(cycle[i], cycle[(i + 1) % k]) for i in range(k)]
        es = [edge_key(*e) for e in pairs]
        if not all(state.tracked(e) for e in es):
            return False
        full_rank = state.small_rank(pairs)
        for skip_size in range(0, MAX_SKIP + 1):
            for skip in itertools.combinations(range(k), skip_size):
                keep = [i for i in range(k) if i not in skip]
                if len(keep) < 2:
                    continue
                if len({state.find(es[i]) for i in keep}) == 1:
                    continue
                if k - skip_size != full_rank - state.small_rank([pairs[i] for i in skip]) + 1:
                    continue
                step = Step(RIGID_CYCLE, {"cycle": list(cycle), "skip": [list(es[i]) for i in skip]})
                if state.apply(step) is None:
                    return True
        return False

    for start in fw.vertex_ids:
        if budget <= 0:
            break
        stack = [(start, (start,))]
        while stack and budget > 0:
            x, path = stack.pop()
            budget -= 1
            for y in sorted(adj[x]):
                if y == start and len(path) >= 3:
                    if path[1] < path[-1]:  # one orientation per cycle
                        if handle(path):
                            progress = True
                elif y not in path and len(path) < MAX_CYCLE_LEN and y > start:
                    stack.append((y, path + (y,)))
    return progress


def _run_projection_lifts(state: DeductionState) -> bool:
    """Project along a class direction: known edges with identified
    endpoints and direction off the kernel merge."""
    fw = state.base
    directions: list[Edge] = []
    for rep, es in sorted(state.classes().items()):
        nz = [e for e in sorted(es) if state.direction_key(e) is not None]
        if nz and all(state.direction_key(e) == state.direction_key(nz[0]) for e in nz):
            directions.append(nz[0])
    progress = False
    for lead_edge in directions:
        w, k = state.direction(lead_edge), state.direction_key(lead_edge)
        along_w = [e for e in state.known if state.direction_key(e) in (None, k)]
        adj_w = graphs.adjacency(fw.vertex_ids, along_w)
        rep_of = {x: c[0] for c in graphs.components(fw.vertex_ids, adj_w) for x in c}
        buckets: dict[tuple, list[Edge]] = {}
        for e in sorted(state.known):
            if state.direction_key(e) in (None, k):
                continue
            key = tuple(sorted((rep_of[e[0]], rep_of[e[1]])))
            buckets.setdefault(key, []).append(e)
        for key, group in sorted(buckets.items()):
            lead = group[0]
            for other in group[1:]:
                if state.same_class(lead, other):
                    continue
                a, b = lead
                c, d = other
                if rep_of[a] != rep_of[c]:
                    c, d = d, c
                step = Step(
                    PROJECTION_LIFT,
                    {
                        "kernel": [[str(x) for x in w]],
                        "edge_a": list(lead),
                        "edge_b": list(other),
                        "path_a": graphs.bfs_path(adj_w, a, c),
                        "path_b": graphs.bfs_path(adj_w, b, d),
                    },
                )
                progress |= state.apply(step) is None
    return progress


def _has_spanning_class(state: DeductionState) -> bool:
    fw = state.base
    for rep, comp in state.class_components():
        if comp == frozenset(fw.vertex_ids):
            if affine_rank([fw.point(v) for v in comp]) >= 2:
                return True
    return False


def saturate(fw: Framework) -> DeductionState:
    """Run all rules to a fixpoint (cheap rules first, budgeted searches on
    stall).  Classes only merge and known edges only grow, so this ends."""
    state = DeductionState(fw)
    while True:
        progress = _run_degenerate_transfer(state)
        progress = _run_triangles(state) or progress
        progress = _run_parallel_quads(state) or progress
        if _has_spanning_class(state):
            break
        if progress:
            continue
        if _run_implicit_from_paths(state):
            continue
        if _run_rigid_cycles(state):
            continue
        if _run_projection_lifts(state):
            continue
        break
    return state


# ---------------------------------------------------------------------------
# flats, conclusions, bounds


def flat_direction(fw: Framework, flat) -> list[Vec]:
    """Differences from the point of the smallest label to the other points
    of the flat; any object with `point(label)`, a polytope too, will do."""
    pts = [fw.point(v) for v in sorted(flat)]
    return [vec_sub(p, pts[0]) for p in pts[1:]]


def _disconnected_flat(fw: Framework, flats):
    """The first flat that is not a connected vertex set, or None."""
    adj = adjacency(fw)
    return next((f for f in flats if len(graphs.components(sorted(f), adj)) != 1), None)


def _as_flats(fw: Framework, flats) -> list[frozenset]:
    """The flats as vertex sets; InputError on one that is not connected."""
    flats = [frozenset(f) for f in flats]
    bad = _disconnected_flat(fw, flats)
    if bad is not None:
        raise InputError(f"flat is not connected: {sorted(bad)}")
    return flats


def covering_pins_all(fw: Framework, flats) -> bool:
    """Does every vertex lie on a flat, with the direction spaces of its
    flats meeting only in 0?  Over Q, (∩ Uᵢ)^⊥ = Σ Uᵢ^⊥, so that is one
    rank per vertex on the stacked annihilators of its flats."""
    annihilators = {f: nullspace(flat_direction(fw, f), fw.dim) for f in dict.fromkeys(flats)}
    for v in fw.vertex_ids:
        through = [ann for f, ann in annihilators.items() if v in f]
        if not through or rank([a for ann in through for a in ann], fw.dim) != fw.dim:
            return False
    return True


def singleton_flats(fw: Framework):
    return [frozenset([v]) for v in fw.vertex_ids]


def conclude_indecomposable(state: DeductionState, flats=None):
    """Try to certify indecomposability from the saturated classes.

    A dependent vertex set is one connected piece of one class; success
    needs a covering collection of flats each meeting that set.  Returns
    (flag, step); on success the step is in the log.
    """
    fw = state.base
    if len(fw.vertex_ids) <= 2:
        step = Step(COVERING_CONCLUSION, {"trivial": True, "S": sorted(fw.vertex_ids), "flats": []})
        if state.apply(step) is None:
            return True, step
    flats = _as_flats(fw, flats) if flats is not None else singleton_flats(fw)
    if not state.pins_all(flats):
        return False, None
    for rep, comp in state.class_components():
        if all(f & comp for f in flats):
            step = Step(
                COVERING_CONCLUSION,
                {"S": sorted(comp), "witness_edge": list(rep), "flats": [sorted(f) for f in flats]},
            )
            if state.apply(step) is None:
                return True, step
    return False, None


def dim_upper_bound(state: DeductionState, flats=None) -> int | None:
    """Smallest certified bound on the deformation-cone dimension.

    Either r classes whose union connects every pair of vertices, or, when
    the flats pin every vertex, a vertex set drawn from one connected piece
    of the union that meets every flat.  None when neither applies.
    """
    fw = state.base
    vertices = sorted(fw.vertex_ids)
    classes = sorted(state.classes().items())
    reps = [rep for rep, _ in classes]
    flats = _as_flats(fw, flats) if flats else None
    pinned = flats is not None and state.pins_all(flats)
    for r in range(1, min(4, len(reps)) + 1):
        for combo in itertools.combinations(range(len(reps)), r):
            union_edges = set().union(*(classes[i][1] for i in combo))
            comps = graphs.components(vertices, graphs.adjacency(vertices, union_edges))
            if len(comps) == 1:
                s = vertices
            else:
                s = next((list(c) for c in comps if pinned and all(f & set(c) for f in flats)), None)
            if s is None:
                continue
            step = Step(
                DIM_BOUND,
                {
                    "bound": r,
                    "classes": [list(reps[i]) for i in combo],
                    "S": s,
                    "flats": [sorted(f) for f in flats] if pinned else None,
                },
            )
            if state.apply(step) is None:
                return r
    return None


# ---------------------------------------------------------------------------
# step checks: each reads its step's literal geometric side conditions
# against the state, and gives the reason it fails or the edges that become
# known and merge into one class.  The deformation-space nullspace is never
# consulted, only the annihilators of the flats.


def _one_piece(fw: Framework, edges, s) -> bool:
    """Does the vertex set s lie in one connected piece of the edges?"""
    adj = graphs.adjacency(fw.vertex_ids, edges)
    lead = {x: c[0] for c in graphs.components(fw.vertex_ids, adj) for x in c}
    return len({lead[v] for v in s}) == 1


def _check_triangle(state: DeductionState, p):
    a, b, c = p["vertices"]
    es = [edge_key(a, b), edge_key(a, c), edge_key(b, c)]
    if any(e not in state.known for e in es):
        return "triangle edge not known"
    if state.small_rank([(a, b), (a, c)]) != 2:
        return "triangle vertices not affinely independent"
    return es


def _check_rigid_cycle(state: DeductionState, p):
    cycle = p["cycle"]
    skip_edges = {edge_key(*e) for e in p["skip"]}
    k = len(cycle)
    pairs = [(cycle[j], cycle[(j + 1) % k]) for j in range(k)]
    es = [edge_key(*e) for e in pairs]
    if any(e not in state.known for e in es):
        return "cycle edge not known"
    if not skip_edges <= set(es):
        return "skip set is not part of the cycle"
    skip = [pairs[j] for j in range(k) if es[j] in skip_edges]
    if k - len(skip) != state.small_rank(pairs) - state.small_rank(skip) + 1:
        return "cycle rank condition fails"
    return [e for e in es if e not in skip_edges]


def _check_projection_lift(state: DeductionState, p):
    w = [tuple(parse_rat(x) for x in row) for row in p["kernel"]]
    if len(w) > 1:  # a basis of the same span, at most dim rows, for every check below to rank
        w = rref(w, state.base.dim)[0]
    ea, eb = edge_key(*p["edge_a"]), edge_key(*p["edge_b"])
    if ea not in state.known or eb not in state.known:
        return "lifted edge not known"
    for path in (p["path_a"], p["path_b"]):
        if not path:
            return "identification path is empty"
        for x, y in zip(path, path[1:]):
            if edge_key(x, y) not in state.known:
                return "identification path edge not known"
            if not in_span(w, state.direction((x, y))):
                return "identification path not parallel to kernel"
    if set(p["edge_a"]) != {p["path_a"][0], p["path_b"][0]}:
        return "paths do not start at the first edge"
    if set(p["edge_b"]) != {p["path_a"][-1], p["path_b"][-1]}:
        return "paths do not end at the second edge"
    if in_span(w, state.direction(ea)) or in_span(w, state.direction(eb)):
        return "lifted edge is parallel to the kernel"
    return [ea, eb]


def _check_degenerate_contraction(state: DeductionState, p):
    fw = state.base
    a, b = p["degenerate"]
    a2, w = p["pivot"]
    b2, w2 = p["new"]
    if a2 != a or b2 != b or w != w2:
        return "inconsistent vertices in degenerate transfer"
    if edge_key(a, b) not in state.known:
        return "degenerate edge not known"
    if fw.point(a) != fw.point(b):
        return "edge is not degenerate"
    if edge_key(a, w) not in state.known:
        return "pivot edge not known"
    if fw.point(w) == fw.point(a):
        return "pivot edge is degenerate"
    return [edge_key(b, w), edge_key(a, w)]


def _check_implicit_from_path(state: DeductionState, p):
    fw = state.base
    path = p["path"]
    es = [edge_key(x, y) for x, y in zip(path, path[1:])]
    if any(e not in state.known for e in es):
        return "path edge not known"
    if len({state.find(e) for e in es}) != 1:
        return "path edges are not in one class"
    u, v = path[0], path[-1]
    if fw.point(u) == fw.point(v):
        return "path endpoints coincide"
    return [edge_key(u, v), es[0]]


def _flats_reason(state: DeductionState, payload_flats, s) -> str | None:
    """Why a conclusion's flats do not cover: one must be disconnected,
    miss S, or the flats must leave a vertex unpinned."""
    flats = [frozenset(f) for f in payload_flats]
    if _disconnected_flat(state.base, flats) is not None:
        return "flat is not connected"
    if not all(f & s for f in flats):
        return "flat misses S"
    if not state.pins_all(flats):
        return "flats do not pin every vertex"
    return None


def _check_covering_conclusion(state: DeductionState, p):
    fw = state.base
    if p.get("trivial"):
        if len(fw.vertex_ids) > 2:
            return "trivial conclusion on a large framework"
        if len(components(fw)) != 1:
            return "trivial conclusion on a disconnected framework"
        return []
    s = set(p["S"])
    witness = edge_key(*p["witness_edge"])
    if witness not in state.known:
        return "witness edge not known"
    if not _one_piece(fw, state.classes()[state.find(witness)], s):
        return "S is not connected inside the witness class"
    if affine_rank([fw.point(v) for v in s]) < 2:
        return "S spans less than two dimensions"
    return _flats_reason(state, p["flats"], s) or []


def _check_dim_bound(state: DeductionState, p):
    fw = state.base
    witness_edges = [edge_key(*e) for e in p["classes"]]
    if any(e not in state.known for e in witness_edges):
        return "class witness edge not known"
    reps = [state.find(e) for e in witness_edges]
    if len(set(reps)) != len(reps):
        return "bound classes are not distinct"
    if p["S"] is None:
        return "missing vertex set"
    s = set(p["S"])
    by_root = state.classes()
    if not _one_piece(fw, [e for r in reps for e in by_root[r]], s):
        return "bound vertex set is not connected by the classes"
    if p.get("flats"):
        reason = _flats_reason(state, p["flats"], s)
        if reason is not None:
            return reason
    elif s != set(fw.vertex_ids):
        return "without flats the vertex set must be everything"
    if p["bound"] != len(witness_edges):
        return "bound does not match the class count"
    return []


# Each step kind's check, its payload's list fields and those of them whose
# entries are lists; `apply` refuses a string there, "AB" read as edge A-B.
_CHECKS = {
    TRIANGLE: (_check_triangle, ("vertices",), ()),
    RIGID_CYCLE: (_check_rigid_cycle, ("cycle", "skip"), ("skip",)),
    PROJECTION_LIFT: (_check_projection_lift, ("kernel", "edge_a", "edge_b", "path_a", "path_b"), ("kernel",)),
    DEGENERATE_CONTRACTION: (_check_degenerate_contraction, ("degenerate", "pivot", "new"), ()),
    IMPLICIT_FROM_PATH: (_check_implicit_from_path, ("path",), ()),
    COVERING_CONCLUSION: (_check_covering_conclusion, ("S", "witness_edge", "flats"), ("flats",)),
    DIM_BOUND: (_check_dim_bound, ("classes", "S", "flats"), ("classes", "flats")),
}


def verify_certificate(fw: Framework, steps):
    """Replay the steps through a fresh state: (True, None, None), or
    (False, index, reason) at the first rejected step.  A step may only
    rely on edges and merges established before it."""
    return DeductionState(fw).replay(steps)
