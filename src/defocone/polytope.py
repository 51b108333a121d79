"""Vertex-described polytopes with exact face detection.

Facets come from ray enumeration of the dual of the homogenization cone,
computed inside the affine hull so lower-dimensional inputs (zonotopes on
hyperplanes) work unchanged; their outward normals are taken inside the
span of the hull, so each one is a true supporting functional.  The hull
is the one frame every point set carries, `Points.hull_frame`.

Edges are read off the facet incidences by the combinatorial adjacency
test of double description: two vertices span an edge exactly when the
facets containing both meet in those two vertices only.  The test is exact
and uses no linear programming; LPs remain only in `hull_vertices`, the
vertex check that `polytope` runs at the input trust boundary, one
phase-one LP per point with h + 1 rows in the hull coordinates.  Every
other face, and so the f-vector, is an intersection of facets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps

from .ddcore import dd_rays
from .errors import InputError, ResourceLimitError
from .exact import Vec, affine_rank, rref, vec_dot
from .framework import Framework, Points, edge_key, labelled_points
from .simplex import LinearProgram, feasible

MAX_VERTICES = 200
MAX_DIM = 8


@dataclass(frozen=True)
class PolytopeV(Points):
    """A labelled point set read as the vertices of its convex hull."""


def _check_guard(n: int, d: int):
    if n > 1 and (n > MAX_VERTICES or d > MAX_DIM):
        raise ResourceLimitError(
            f"polytope guard: {n} vertices in dimension {d} exceeds {MAX_VERTICES}/{MAX_DIM}"
        )


def _guarded(fn):
    """`fn` memoized by `lru_cache`, with the polytope guard checked before
    the cache lookup, so that a cached answer cannot skip it."""
    cached = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def guarded(p: PolytopeV):
        _check_guard(len(p.vertex_ids), p.dim)
        return cached(p)

    guarded.cache_info, guarded.cache_clear = cached.cache_info, cached.cache_clear
    return guarded


def polytope(points, check: bool = True) -> PolytopeV:
    """Build from labelled points, as `labelled_points` takes them; rejects
    points that are not vertices."""
    p = PolytopeV(*labelled_points(points))
    if check and len(p.vertex_ids) > 1:
        _check_guard(len(p.vertex_ids), p.dim)
        for v, vertex in zip(p.vertex_ids, hull_vertices(p.hull_frame[2])):
            if not vertex:
                raise InputError(f"point {v!r} is not a vertex (inside the hull of the others)")
    return p


def hull_vertices(points):
    """Yield, point by point, whether it lies outside the convex hull of the
    other points: one LP each, solved only when the next answer is asked
    for, so a caller that stops at the first False solves no more.  An
    affine bijection changes no answer, so `polytope` passes its hull
    coordinates, and each LP has h + 1 rows for a hull of dimension h."""
    points = list(points)
    for i, x in enumerate(points):
        others = points[:i] + points[i + 1 :]
        if not others:
            yield True
            continue
        eq = [(tuple(p[k] for p in others), x[k]) for k in range(len(x))]
        eq.append(((Fraction(1),) * len(others), Fraction(1)))
        yield not feasible(LinearProgram(n=len(others), eq=eq, nonneg=True))


@_guarded
def edges(p: PolytopeV) -> tuple[tuple[str, str], ...]:
    """All 1-faces, as sorted label pairs.

    u and v span an edge exactly when the facets containing both meet in
    {u, v} alone; the meet of no facets is every vertex, so a segment has
    its edge.  A pair on fewer than h - 1 common facets (h the hull
    dimension) is skipped, since every edge lies on at least that many.
    """
    n = len(p.vertex_ids)
    if n < 2:
        return ()
    h = p.hull_dim
    index = {v: i for i, v in enumerate(p.vertex_ids)}
    masks = [sum(1 << index[v] for v in f.vertex_ids) for f in facets(p)]
    on = [{k for k, m in enumerate(masks) if m >> i & 1} for i in range(n)]
    everything = (1 << n) - 1
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            common = on[i] & on[j]
            if len(common) < h - 1:
                continue
            meet = everything
            for k in common:
                meet &= masks[k]
            if meet == (1 << i) | (1 << j):
                out.append(edge_key(p.vertex_ids[i], p.vertex_ids[j]))
    return tuple(sorted(out))


@dataclass(frozen=True)
class Facet:
    vertex_ids: frozenset[str]
    normal: Vec  # outward, ambient coordinates, in the span of the hull basis
    offset: Fraction  # normal . x <= offset, equality exactly on the facet


@_guarded
def facets(p: PolytopeV) -> tuple[Facet, ...]:
    """Irredundant facet list within the affine hull.

    A ray (beta, a') of the homogenized dual cone in hull coordinates gives
    the facet -a'.y <= beta.  Its ambient normal n = sum c_j b_j lies in the
    span of the hull basis and meets n.b_i = -a'_i, so G c = -a' with G the
    Gram matrix of the basis; one elimination of [G | every -a'] solves all
    facets at once.
    """
    if len(p.vertex_ids) < 2:
        return ()
    base, hbasis, ys = p.hull_frame
    h = len(hbasis)
    rays = dd_rays([(Fraction(1),) + y for y in ys], h + 1)
    gram = [[vec_dot(a, b) for b in hbasis] for a in hbasis]
    aug = [gram[i] + [-ray[1 + i] for ray, _ in rays] for i in range(h)]
    solved, pivots = rref(aug, h + len(rays))
    assert pivots == list(range(h))  # the Gram matrix of a basis is invertible
    out = []
    for k, (ray, tight) in enumerate(rays):
        c = [solved[j][h + k] for j in range(h)]
        normal = tuple(sum(c[j] * hbasis[j][t] for j in range(h)) for t in range(p.dim))
        out.append(Facet(frozenset(p.vertex_ids[i] for i in tight), normal, vec_dot(normal, base) + ray[0]))
    return tuple(sorted(out, key=lambda f: sorted(f.vertex_ids)))


def faces(p: PolytopeV) -> tuple[frozenset[str], ...]:
    """Vertex sets of all nonempty faces, sorted by their sorted labels.

    Every nonempty proper face is the intersection of the facets that
    contain it, so the newest faces are cut by every facet until no new
    face appears; p itself is the meet of no facets.
    """
    cuts = {f.vertex_ids for f in facets(p)}
    found, new = set(cuts), cuts
    while new:
        new = {a & b for a in new for b in cuts} - found - {frozenset()}
        found |= new
    found.add(frozenset(p.vertex_ids))
    return tuple(sorted(found, key=sorted))


def f_vector(p: PolytopeV) -> tuple[int, ...]:
    """Face counts by dimension, from the vertices up to the facets."""
    h = p.hull_dim
    counts = [0] * h
    for face in faces(p):
        d = affine_rank([p.point(v) for v in face])
        if d < h:
            counts[d] += 1
    return tuple(counts)


def framework_of(p: PolytopeV) -> Framework:
    """Identity realization on the vertex set with the polytope's edges.  The
    same points have the same frame, so it shares p's cached `hull_frame`."""
    fw = Framework(p.vertex_ids, p.coords, edges(p))
    fw.__dict__["hull_frame"] = p.hull_frame
    return fw


def is_deformed_permutahedron(p: PolytopeV) -> bool:
    """Is every edge direction parallel to a difference of two coordinate
    directions?"""
    for e in edges(p):
        support = [x for x in p.edge_vector(e) if x != 0]
        if len(support) != 2 or support[0] + support[1] != 0:
            return False
    return True


def matroid_homothet(p: PolytopeV) -> bool:
    """Whether p = s·Q + t for a matroid polytope Q, a ratio s > 0 and a
    translation t: p is a deformed permutahedron, every coordinate takes
    at most two values, and every coordinate that takes two takes them the
    same gap s apart.

    The 0/1 polytopes whose edges are all parallel to some e_i − e_j are
    exactly the matroid polytopes (Gelfand, Goresky, MacPherson &
    Serganova 1987).  If p = s·Q + t, each coordinate of p takes t_i, or
    t_i + s, or both, and p's edges are Q's, scaled.  Conversely, with t_i
    the least value of coordinate i, (p − t)/s is a 0/1 polytope with p's
    edge directions.  A polytope normally equivalent to p lies in p's
    deformation cone, which for an indecomposable p holds only p's
    homothets; so on indecomposable inputs this decides normal equivalence
    to a matroid polytope.
    """
    values = [{c[i] for c in p.coords} for i in range(p.dim)]
    if any(len(v) > 2 for v in values):
        return False
    gaps = {max(v) - min(v) for v in values if len(v) == 2}
    return len(gaps) <= 1 and is_deformed_permutahedron(p)
