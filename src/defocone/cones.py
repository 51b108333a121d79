"""Cone geometry of deformation spaces.

Every question here is answered from the cone's extreme rays or from a
provenance map: ray enumeration for the pointed cone (linear span
intersect nonnegative orthant), autonomous edge sets (their
characteristic vector placed by `framework.realize`), the rays of
autonomous dependency blocks, implicit edges and the closure, and the
factorization law for products and Minkowski sums.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .ddcore import canonical_ray, dd_rays
from .errors import InputError, ResourceLimitError
from .exact import Vec, is_zero_vec, parallel, vec_dot, vec_sub
from .framework import (
    DeformationSpace,
    Edge,
    Framework,
    Points,
    components,
    dc_dimension,
    deformation_space,
    dependency_partition,
    edge_key,
    labelled_points,
    realize,
)

MAX_EDGES = 80
MAX_SPAN_DIM = 12


@dataclass(frozen=True)
class Cone:
    """Rays of span(basis) intersected with the nonnegative orthant.

    Rays are indexed like the framework's edge tuple and scaled so the
    first nonzero coordinate is 1.
    """

    rays: tuple[Vec, ...]


def enumerate_rays(ds: DeformationSpace) -> Cone:
    fw = ds.framework
    ne = len(fw.edges)
    if ne > MAX_EDGES:
        raise ResourceLimitError(
            f"ray enumeration guard: {ne} edges exceeds limit {MAX_EDGES}"
        )
    if ds.dim > MAX_SPAN_DIM:
        raise ResourceLimitError(
            f"ray enumeration guard: span dimension {ds.dim} exceeds limit {MAX_SPAN_DIM}"
        )
    if ds.dim == 0:
        return Cone(())
    rows = [tuple(b[i] for b in ds.basis) for i in range(ne)]
    rays = []
    for t, _ in dd_rays(rows, ds.dim):
        lam = tuple(
            sum((t[i] * b[j] for i, b in enumerate(ds.basis)), Fraction(0))
            for j in range(ne)
        )
        assert all(x >= 0 for x in lam)
        rays.append(canonical_ray(lam))
    return Cone(tuple(sorted(rays)))


def characteristic_vector(fw: Framework, edge_set) -> Vec:
    chosen = {edge_key(u, v) for u, v in edge_set}
    unknown = chosen - set(fw.edges)
    if unknown:
        raise InputError(f"not edges of the framework: {sorted(unknown)}")
    return tuple(Fraction(1 if e in chosen else 0) for e in fw.edges)


def is_autonomous(fw: Framework, edge_set) -> bool:
    """Is the 0/1 vector of the set a valid deformation (collapsing the
    complement keeps every cycle closed)?"""
    return realize(fw, characteristic_vector(fw, edge_set)) is not None


def block_rays(fw: Framework) -> list[Vec | None]:
    """The characteristic vector of each dependency block, in
    `dependency_partition` order, or None for a block that is not
    autonomous.

    Each vector given is an extreme ray of the cone.  It lies in the cone,
    the block being autonomous.  The cone's points supported inside the
    block form a face, cut out by the valid x_e >= 0 of the edges outside
    it, and the factors of a block agree on the whole cone, so that face is
    the vector's ray.  With no None the cone is simplicial with exactly
    these rays: each of its points is constant on every block, so it is a
    nonnegative combination of the vectors.
    """
    return [
        characteristic_vector(fw, b) if is_autonomous(fw, b) else None
        for b in dependency_partition(fw)
    ]


def is_implicit_edge(fw: Framework, u: str, v: str) -> bool:
    """Does the pair u, v behave like an edge in every deformation?

    An edge does, and a pair in two components never does (each component
    translates freely).  Otherwise the pair is implicit when every
    deformation lam in the cone places v - u at c(v - u) with c >= 0, and
    places coincident u and v together.  Testing the rays of
    `enumerate_rays` is exact: u and v share the anchor `realize` keeps
    fixed, so the placed difference is linear in lam; the lam that send it
    into the line of v - u form a subspace, on which c is linear; and the
    rays generate the cone and span its linear hull (the unit vector is
    relatively interior).  So the subspace holds the hull, and c >= 0 on
    the cone, as soon as both hold on every ray.  Above the ray guard this
    raises `ResourceLimitError`.
    """
    if u == v:
        raise InputError("implicit edge needs two distinct vertices")
    if u not in fw.vertex_ids or v not in fw.vertex_ids:
        raise InputError("unknown vertex label")
    if edge_key(u, v) in fw.edges:
        return True
    if not any({u, v} <= set(c) for c in components(fw)):
        return False
    base = fw.edge_vector((u, v))
    for pos in _placed_rays(fw):
        moved = vec_sub(pos[v], pos[u])
        if is_zero_vec(base):
            if not is_zero_vec(moved):
                return False
        elif not parallel(base, moved) or vec_dot(base, moved) < 0:
            return False
    return True


@lru_cache(maxsize=1)
def _placed_rays(fw: Framework) -> tuple[dict, ...]:
    """The placement `realize` gives each ray of the cone; the last
    framework's is kept, so the pairs of one `closure` share one enumeration."""
    return tuple(realize(fw, r) for r in enumerate_rays(deformation_space(fw)).rays)


def closure(fw: Framework) -> Framework:
    """Add every implicit pair as an edge; the cone is unchanged up to a
    linear isomorphism, so downstream dimensions are preserved."""
    pairs = itertools.combinations(fw.vertex_ids, 2)
    extra = {edge_key(u, v) for u, v in pairs if is_implicit_edge(fw, u, v)}
    return Framework(fw.vertex_ids, fw.coords, tuple(sorted(set(fw.edges) | extra)))


def factor_edges(edges, provenance: dict, side: int) -> list[Edge | None]:
    """For each edge of a product or Minkowski sum, the edge of factor
    `side` (0 left, 1 right) it translates, or None.

    `provenance` maps each vertex of the sum to its (left, right) pair of
    factor vertices; an edge translates a factor edge when its endpoints
    share the other factor's vertex.
    """
    out = []
    for u, v in edges:
        pu, pv = provenance[u], provenance[v]
        out.append(edge_key(pu[side], pv[side]) if pu[1 - side] == pv[1 - side] else None)
    return out


def factorization(fw: Framework, provenance: dict, left: Framework, right: Framework):
    """((dc left, dc right, dc fw), whether the dependency blocks of fw are
    exactly the factors' blocks lifted to the edges that translate them).

    fw is the product or Minkowski sum of left and right, and `provenance`
    gives each of its vertices as a (left, right) pair: in
    `itertools.product` order for `product_framework`, and
    `minkowski_sum_labeled(...).provenance` for a sum.  The law (the
    dimensions add up and the blocks are lifts) holds for every product and
    for sums in parallelogramic position.
    """
    lifts = set()
    for side, factor in enumerate((left, right)):
        source = factor_edges(fw.edges, provenance, side)
        for block in dependency_partition(factor):
            lifts.add(frozenset(e for e, f in zip(fw.edges, source) if f in block))
    dims = (dc_dimension(left), dc_dimension(right), dc_dimension(fw))
    return dims, set(dependency_partition(fw)) == lifts


def lift_ray(fw: Framework, provenance: dict, factor: Framework, side: int, ray: Vec) -> Vec:
    """A ray of the factor on `side`, on the edges of fw (provenance as for
    `factorization`): an edge takes the factor of the edge it translates,
    and 0 where it translates an edge of the other factor."""
    eidx = {e: i for i, e in enumerate(factor.edges)}
    lift = factor_edges(fw.edges, provenance, side)
    return tuple(Fraction(0) if f is None else ray[eidx[f]] for f in lift)


def product_points(a: Points, b: Points):
    """(vertex_ids, coords) of a Cartesian product: vertex "u|w" is the pair
    (u, w) at u's coordinates followed by w's, in the order of
    `itertools.product(a.vertex_ids, b.vertex_ids)`.  Two pairs whose
    labels coincide are refused, never merged."""
    pairs = itertools.product(zip(a.vertex_ids, a.coords), zip(b.vertex_ids, b.coords))
    return labelled_points((f"{u}|{w}", cu + cw) for (u, cu), (w, cw) in pairs)


def product_framework(a: Framework, b: Framework) -> Framework:
    """Cartesian product, on `product_points`; edges are factor edges
    times opposite vertices."""
    edges = []
    for u, v in a.edges:
        for w in b.vertex_ids:
            edges.append(edge_key(f"{u}|{w}", f"{v}|{w}"))
    for u, v in b.edges:
        for w in a.vertex_ids:
            edges.append(edge_key(f"{w}|{u}", f"{w}|{v}"))
    return Framework(*product_points(a, b), tuple(sorted(edges)))
