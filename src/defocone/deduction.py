"""Saturating rule engine for edge dependencies, with replayable proofs.

The engine maintains a union-find over known non-degenerate edges (base
edges plus discovered implicit ones) and grows it by sound rules:

  triangles on affinely independent points; quadrilaterals with a parallel
  opposite pair (a projection lift along that direction); general rigid
  cycles; transfer across degenerate edges; implicit edges created by
  paths inside one class; projection lifts along one-dimensional class
  directions.

Every merge is logged as a step whose payload carries enough data for an
independent verifier to re-check the geometric side conditions without
computing the deformation space.  Conclusions (indecomposability via a
covering collection of flats, dimension upper bounds) are logged the same
way; their covering test takes only the annihilators of the flats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import graphs
from .errors import InputError
from .exact import Vec, affine_rank, in_span, is_zero_vec, nullspace, rank, vec_sub
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
    def __init__(self, fw: Framework):
        self.base = fw
        self.known: set[Edge] = set(fw.edges)
        self._classes = graphs.UnionFind(e for e in fw.edges if not fw.is_degenerate(e))
        self.log: list[Step] = []

    # union-find over the non-degenerate known edges ------------------------
    def find(self, e: Edge) -> Edge:
        return self._classes.find(e)

    def tracked(self, e: Edge) -> bool:
        return e in self._classes

    def add_edge(self, e: Edge):
        self.known.add(e)
        self._classes.add(e)

    def union(self, e: Edge, f: Edge) -> bool:
        return self._classes.union(e, f)

    def classes(self) -> dict[Edge, set[Edge]]:
        return self._classes.classes()

    def same_class(self, e: Edge, f: Edge) -> bool:
        return self.tracked(e) and self.tracked(f) and self.find(e) == self.find(f)

    # geometry helpers ----------------------------------------------------
    def direction(self, e: Edge) -> Vec:
        return vec_sub(self.base.point(e[1]), self.base.point(e[0]))

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
# rules


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
            tri = (a, b, c)
            es = [edge_key(a, b), edge_key(a, c), e_bc]
            if not all(state.tracked(e) for e in es):
                continue
            reps = {state.find(e) for e in es}
            if len(reps) == 1:
                continue
            if affine_rank([fw.point(v) for v in tri]) != 2:
                continue
            state.log.append(Step(TRIANGLE, {"vertices": list(tri)}))
            state.union(es[0], es[1])
            state.union(es[0], es[2])
            progress = True
    return progress


def _run_parallel_quads(state: DeductionState) -> bool:
    """Quadrilaterals with one parallel opposite pair: the other pair maps
    to a single edge after projecting along the parallel direction."""
    fw = state.base
    adj = state.known_adjacency()
    progress = False
    for e in sorted(state.known):
        u1, u2 = e
        d12 = state.direction(e)
        if is_zero_vec(d12):
            continue
        for u3 in sorted(adj[u2]):
            if u3 in (u1, u2):
                continue
            d23 = vec_sub(fw.point(u3), fw.point(u2))
            if in_span([d12], d23):
                continue
            for u4 in sorted(adj[u3]):
                if u4 in (u1, u2, u3) or edge_key(u4, u1) not in state.known:
                    continue
                d34 = vec_sub(fw.point(u4), fw.point(u3))
                if not in_span([d12], d34) or is_zero_vec(d34):
                    continue
                ea, fb = edge_key(u2, u3), edge_key(u1, u4)
                if state.same_class(ea, fb) or not (state.tracked(ea) and state.tracked(fb)):
                    continue
                state.log.append(
                    Step(
                        PROJECTION_LIFT,
                        {
                            "kernel": [[str(x) for x in d12]],
                            "edge_a": [u2, u3],
                            "edge_b": [u1, u4],
                            "path_a": [u2, u1],
                            "path_b": [u3, u4],
                        },
                    )
                )
                state.union(ea, fb)
                progress = True
    return progress


def _run_degenerate_transfer(state: DeductionState) -> bool:
    fw = state.base
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
                state.log.append(
                    Step(
                        DEGENERATE_CONTRACTION,
                        {"degenerate": [a, b], "pivot": [a, w], "new": [b, w]},
                    )
                )
                state.add_edge(g)
                state.union(g, f)
                progress = True
    return progress


def _run_implicit_from_paths(state: DeductionState) -> bool:
    fw = state.base
    progress = False
    for rep, es in sorted(state.classes().items()):
        adj = graphs.adjacency((), es)
        for comp in graphs.components(sorted(adj), adj):
            for u, v in itertools.combinations(comp, 2):
                e = edge_key(u, v)
                if e in state.known:
                    continue
                if fw.point(u) == fw.point(v):
                    continue
                path = graphs.bfs_path(adj, u, v)
                state.log.append(Step(IMPLICIT_FROM_PATH, {"path": path}))
                state.add_edge(e)
                state.union(e, rep)
                progress = True
    return progress


def _run_rigid_cycles(state: DeductionState) -> bool:
    """Cycles whose length exceeds the codimension drop by exactly one
    after skipping a small subset: the remaining edges merge."""
    fw = state.base
    adj = state.known_adjacency()
    d = fw.dim
    progress = False
    budget = MAX_CYCLES_SCANNED

    def handle(cycle: tuple[str, ...]) -> bool:
        k = len(cycle)
        es = [edge_key(cycle[i], cycle[(i + 1) % k]) for i in range(k)]
        if not all(state.tracked(e) for e in es):
            return False
        dirs = [state.direction(e) for e in es]
        signed = [
            vec_sub(fw.point(cycle[(i + 1) % k]), fw.point(cycle[i])) for i in range(k)
        ]
        full_rank = rank(signed, d)
        for skip_size in range(0, MAX_SKIP + 1):
            for skip in itertools.combinations(range(k), skip_size):
                keep = [i for i in range(k) if i not in skip]
                if len(keep) < 2:
                    continue
                if len({state.find(es[i]) for i in keep}) == 1:
                    continue
                sub_rank = rank([signed[i] for i in skip], d) if skip else 0
                if k - skip_size != full_rank - sub_rank + 1:
                    continue
                state.log.append(
                    Step(
                        RIGID_CYCLE,
                        {"cycle": list(cycle), "skip": [list(es[i]) for i in skip]},
                    )
                )
                for i in keep[1:]:
                    state.union(es[keep[0]], es[i])
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
    directions: list[Vec] = []
    for rep, es in sorted(state.classes().items()):
        vecs = [state.direction(e) for e in sorted(es)]
        nz = [v for v in vecs if not is_zero_vec(v)]
        if nz and all(in_span([nz[0]], v) for v in nz):
            directions.append(nz[0])
    progress = False
    for w in directions:
        along_w = [e for e in state.known if in_span([w], state.direction(e))]
        adj_w = graphs.adjacency(fw.vertex_ids, along_w)
        rep_of = {x: c[0] for c in graphs.components(fw.vertex_ids, adj_w) for x in c}
        buckets: dict[tuple, list[Edge]] = {}
        for e in sorted(state.known):
            if in_span([w], state.direction(e)):
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
                pa, pb = graphs.bfs_path(adj_w, a, c), graphs.bfs_path(adj_w, b, d)
                state.log.append(
                    Step(
                        PROJECTION_LIFT,
                        {
                            "kernel": [[str(x) for x in w]],
                            "edge_a": list(lead),
                            "edge_b": list(other),
                            "path_a": pa,
                            "path_b": pb,
                        },
                    )
                )
                state.union(lead, other)
                progress = True
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
    pts = [fw.point(v) for v in sorted(flat)]
    basis = [vec_sub(p, pts[0]) for p in pts[1:]]
    return basis


def _flat_connected(fw: Framework, flat) -> bool:
    return len(graphs.components(sorted(flat), adjacency(fw))) == 1


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
    (flag, step); on success the step is appended to the log.
    """
    fw = state.base
    if len(fw.vertex_ids) <= 2 and len(components(fw)) == 1:
        step = Step(
            COVERING_CONCLUSION,
            {"trivial": True, "S": sorted(fw.vertex_ids), "flats": []},
        )
        state.log.append(step)
        return True, step
    flats = [frozenset(f) for f in flats] if flats is not None else singleton_flats(fw)
    for f in flats:
        if not _flat_connected(fw, f):
            raise InputError(f"flat is not connected: {sorted(f)}")
    if not covering_pins_all(fw, flats):
        return False, None
    for rep, comp in state.class_components():
        if affine_rank([fw.point(v) for v in comp]) < 2:
            continue
        if all(f & comp for f in flats):
            step = Step(
                COVERING_CONCLUSION,
                {
                    "S": sorted(comp),
                    "witness_edge": list(rep),
                    "flats": [sorted(f) for f in flats],
                },
            )
            state.log.append(step)
            return True, step
    return False, None


def dim_upper_bound(state: DeductionState, flats=None) -> int | None:
    """Smallest certified bound on the deformation-cone dimension.

    Either r classes whose union connects every pair of vertices, or the
    covering-flats refinement with a vertex set drawn from one connected
    piece of the union.  None when neither applies.
    """
    fw = state.base
    vertices = sorted(fw.vertex_ids)
    classes = sorted(state.classes().items())
    reps = [rep for rep, _ in classes]
    best = None
    max_r = min(4, len(reps))
    flats = [frozenset(f) for f in flats] if flats is not None else None
    pinned = covering_pins_all(fw, flats) if flats else False
    for r in range(1, max_r + 1):
        if best is not None:
            break
        for combo in itertools.combinations(range(len(reps)), r):
            union_edges = set()
            for i in combo:
                union_edges |= classes[i][1]
            comps = graphs.components(vertices, graphs.adjacency(vertices, union_edges))
            spanning = len(comps) == 1
            ok = spanning
            witness_s = vertices if spanning else None
            if not ok and pinned:
                for s in comps:
                    if all(f & set(s) for f in flats):
                        ok = True
                        witness_s = list(s)
                        break
            if ok:
                best = r
                state.log.append(
                    Step(
                        DIM_BOUND,
                        {
                            "bound": r,
                            "classes": [list(reps[i]) for i in combo],
                            "S": witness_s,
                            "flats": [sorted(f) for f in flats] if flats else None,
                        },
                    )
                )
                break
    return best


def _one_piece(fw: Framework, edges, s) -> bool:
    """Does the vertex set s lie in one connected piece of the edges?"""
    adj = graphs.adjacency(fw.vertex_ids, edges)
    lead = {x: c[0] for c in graphs.components(fw.vertex_ids, adj) for x in c}
    return len({lead[v] for v in s}) == 1


# ---------------------------------------------------------------------------
# certificate verification (independent replay: the deformation-space
# nullspace is never consulted, only the annihilators of the flats)


def verify_certificate(fw: Framework, steps):
    """Replay each step against its literal geometric side conditions.

    Returns (True, None, None) or (False, index, reason).  Maintains its
    own known-edge set and union-find; a step may only rely on edges and
    merges established before it.
    """
    known: set[Edge] = set(fw.edges)
    classes = graphs.UnionFind(e for e in fw.edges if not fw.is_degenerate(e))
    ensure, find, union = classes.add, classes.find, classes.union

    def fail(i, reason):
        return False, i, reason

    for i, step in enumerate(steps):
        k, p = step.kind, step.payload
        try:
            if k == TRIANGLE:
                a, b, c = p["vertices"]
                es = [edge_key(a, b), edge_key(a, c), edge_key(b, c)]
                if any(e not in known for e in es):
                    return fail(i, "triangle edge not known")
                if affine_rank([fw.point(v) for v in (a, b, c)]) != 2:
                    return fail(i, "triangle vertices not affinely independent")
                union(es[0], es[1])
                union(es[0], es[2])
            elif k == RIGID_CYCLE:
                cycle = p["cycle"]
                skip_edges = {edge_key(*e) for e in p["skip"]}
                kk = len(cycle)
                es = [edge_key(cycle[j], cycle[(j + 1) % kk]) for j in range(kk)]
                if any(e not in known for e in es):
                    return fail(i, "cycle edge not known")
                if not skip_edges <= set(es):
                    return fail(i, "skip set is not part of the cycle")
                signed = [
                    vec_sub(fw.point(cycle[(j + 1) % kk]), fw.point(cycle[j]))
                    for j in range(kk)
                ]
                keep = [j for j in range(kk) if es[j] not in skip_edges]
                skip = [j for j in range(kk) if es[j] in skip_edges]
                full_rank = rank(signed, fw.dim)
                sub_rank = rank([signed[j] for j in skip], fw.dim) if skip else 0
                if kk - len(skip) != full_rank - sub_rank + 1:
                    return fail(i, "cycle rank condition fails")
                for j in keep:
                    ensure(es[j])
                for j in keep[1:]:
                    union(es[keep[0]], es[j])
            elif k == PROJECTION_LIFT:
                w = [tuple(Fraction(x) for x in row) for row in p["kernel"]]
                ea, eb = edge_key(*p["edge_a"]), edge_key(*p["edge_b"])
                if ea not in known or eb not in known:
                    return fail(i, "lifted edge not known")
                for path in (p["path_a"], p["path_b"]):
                    for x, y in zip(path, path[1:]):
                        e = edge_key(x, y)
                        if e not in known:
                            return fail(i, "identification path edge not known")
                        if not in_span(w, vec_sub(fw.point(y), fw.point(x))):
                            return fail(i, "identification path not parallel to kernel")
                if set(p["edge_a"]) != {p["path_a"][0], p["path_b"][0]}:
                    return fail(i, "paths do not start at the first edge")
                if set(p["edge_b"]) != {p["path_a"][-1], p["path_b"][-1]}:
                    return fail(i, "paths do not end at the second edge")
                da = vec_sub(fw.point(ea[1]), fw.point(ea[0]))
                db = vec_sub(fw.point(eb[1]), fw.point(eb[0]))
                if in_span(w, da) or in_span(w, db):
                    return fail(i, "lifted edge is parallel to the kernel")
                ensure(ea)
                ensure(eb)
                union(ea, eb)
            elif k == DEGENERATE_CONTRACTION:
                a, b = p["degenerate"]
                a2, w_ = p["pivot"]
                b2, w2 = p["new"]
                if a2 != a or b2 != b or w_ != w2:
                    return fail(i, "inconsistent vertices in degenerate transfer")
                if edge_key(a, b) not in known:
                    return fail(i, "degenerate edge not known")
                if fw.point(a) != fw.point(b):
                    return fail(i, "edge is not degenerate")
                piv = edge_key(a, w_)
                if piv not in known:
                    return fail(i, "pivot edge not known")
                if fw.point(w_) == fw.point(a):
                    return fail(i, "pivot edge is degenerate")
                new = edge_key(b, w_)
                known.add(new)
                ensure(piv)
                ensure(new)
                union(new, piv)
            elif k == IMPLICIT_FROM_PATH:
                path = p["path"]
                es = [edge_key(x, y) for x, y in zip(path, path[1:])]
                if any(e not in known for e in es):
                    return fail(i, "path edge not known")
                if len({find(e) for e in es}) != 1:
                    return fail(i, "path edges are not in one class")
                u, v = path[0], path[-1]
                if fw.point(u) == fw.point(v):
                    return fail(i, "path endpoints coincide")
                new = edge_key(u, v)
                known.add(new)
                ensure(new)
                union(new, es[0])
            elif k == COVERING_CONCLUSION:
                if p.get("trivial"):
                    if len(fw.vertex_ids) > 2:
                        return fail(i, "trivial conclusion on a large framework")
                    if len(components(fw)) != 1:
                        return fail(i, "trivial conclusion on a disconnected framework")
                    continue
                s = set(p["S"])
                witness = edge_key(*p["witness_edge"])
                if witness not in known:
                    return fail(i, "witness edge not known")
                if not _one_piece(fw, classes.classes()[find(witness)], s):
                    return fail(i, "S is not connected inside the witness class")
                if affine_rank([fw.point(v) for v in s]) < 2:
                    return fail(i, "S spans less than two dimensions")
                flats = [frozenset(f) for f in p["flats"]]
                for f in flats:
                    if not _flat_connected(fw, f):
                        return fail(i, "flat is not connected")
                    if not (f & s):
                        return fail(i, "flat misses S")
                if not covering_pins_all(fw, flats):
                    return fail(i, "flats do not pin every vertex")
            elif k == DIM_BOUND:
                witness_edges = [edge_key(*e) for e in p["classes"]]
                if any(e not in known for e in witness_edges):
                    return fail(i, "class witness edge not known")
                reps_ = [find(e) for e in witness_edges]
                if len(set(reps_)) != len(reps_):
                    return fail(i, "bound classes are not distinct")
                if p["S"] is None:
                    return fail(i, "missing vertex set")
                s = set(p["S"])
                by_root = classes.classes()
                if not _one_piece(fw, [e for r in reps_ for e in by_root[r]], s):
                    return fail(i, "bound vertex set is not connected by the classes")
                if p.get("flats"):
                    flats = [frozenset(f) for f in p["flats"]]
                    for f in flats:
                        if not _flat_connected(fw, f):
                            return fail(i, "flat is not connected")
                        if not (f & s):
                            return fail(i, "flat misses S")
                    if not covering_pins_all(fw, flats):
                        return fail(i, "flats do not pin every vertex")
                elif s != set(fw.vertex_ids):
                    return fail(i, "without flats the vertex set must be everything")
                if p["bound"] != len(witness_edges):
                    return fail(i, "bound does not match the class count")
            else:
                return fail(i, f"unknown step kind {k!r}")
        except (KeyError, ValueError, TypeError) as exc:
            return fail(i, f"malformed payload: {exc}")
    return True, None, None
