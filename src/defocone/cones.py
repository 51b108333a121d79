"""Cone geometry of deformation spaces.

Ray enumeration for the pointed cone (linear span intersect nonnegative
orthant), autonomous edge sets (their characteristic vector placed by
`framework.realize`), characteristic-vector rays, simpliciality by
dependency blocks, and the product law for deformation cones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .ddcore import canonical_ray, dd_rays
from .errors import InputError, ResourceLimitError
from .exact import Vec
from .framework import (
    DeformationSpace,
    Edge,
    Framework,
    Points,
    dc_dimension,
    dependency_partition,
    edge_key,
    labelled_points,
    realize,
)

MAX_EDGES = 60
MAX_SPAN_DIM = 12


@dataclass(frozen=True)
class Cone:
    """Rays of span(basis) intersected with the nonnegative orthant.

    Rays are indexed like the framework's edge tuple and scaled so the
    first nonzero coordinate is 1.
    """

    rays: tuple[Vec, ...]


def enumerate_rays(ds: DeformationSpace, max_edges: int = MAX_EDGES) -> Cone:
    fw = ds.framework
    ne = len(fw.edges)
    if ne > max_edges:
        raise ResourceLimitError(
            f"ray enumeration guard: {ne} edges exceeds limit {max_edges}"
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


def characteristic_ray(fw: Framework, edge_set):
    """(ray, reason) with ray None on refusal.

    The characteristic vector is a certified ray exactly when the set is
    autonomous and is a full dependency block.
    """
    chosen = frozenset(edge_key(u, v) for u, v in edge_set)
    if not chosen:
        raise InputError("empty edge set")
    if not is_autonomous(fw, chosen):
        return None, "set is not autonomous (a cycle equation fails)"
    blocks = dependency_partition(fw)
    block = next((b for b in blocks if b & chosen), None)
    if block is None or block != chosen:
        return None, "set is not a single full dependency block"
    return characteristic_vector(fw, chosen), "certified ray"


def is_simplicial_by_partition(fw: Framework):
    """(flag, rays): simplicial with one ray per block when every
    dependency block is autonomous."""
    blocks = dependency_partition(fw)
    if not blocks:
        return False, []
    rays = []
    for b in blocks:
        if not is_autonomous(fw, b):
            return False, []
        rays.append(characteristic_vector(fw, b))
    return True, sorted(rays)


def factor_edges(edges, provenance: dict, side: int) -> list[Edge | None]:
    """The product law's lift: for each edge of a product or Minkowski sum,
    the edge of factor `side` (0 left, 1 right) it translates, or None.

    `provenance` maps each vertex of the sum to its (left, right) pair of
    factor vertices; an edge translates a factor edge when its endpoints
    share the other factor's vertex.
    """
    out = []
    for u, v in edges:
        pu, pv = provenance[u], provenance[v]
        out.append(edge_key(pu[side], pv[side]) if pu[1 - side] == pv[1 - side] else None)
    return out


def lifted_blocks(fw: Framework, provenance: dict, left: Framework, right: Framework):
    """Each dependency block of both factors, lifted to the edges of fw
    that translate its edges; fw is their product or sum."""
    out = []
    for side, factor in enumerate((left, right)):
        source = factor_edges(fw.edges, provenance, side)
        for block in dependency_partition(factor):
            out.append(frozenset(e for e, f in zip(fw.edges, source) if f in block))
    return out


def embed_product_ray(product: Framework, factor: Framework, ray: Vec, side: str) -> Vec:
    """Lift a factor ray to the product framework's edge coordinates.

    The product's vertices come in `product_framework` order, one per pair
    of factor vertices with the left one outer; an edge of the left factor
    shows up once per right vertex, and symmetrically.
    """
    others = range(len(product.vertex_ids) // len(factor.vertex_ids))
    if side == "left":
        k, pairs = 0, itertools.product(factor.vertex_ids, others)
    elif side == "right":
        k, pairs = 1, itertools.product(others, factor.vertex_ids)
    else:
        raise InputError("side must be 'left' or 'right'")
    eidx = {e: i for i, e in enumerate(factor.edges)}
    lift = factor_edges(product.edges, dict(zip(product.vertex_ids, pairs)), k)
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


@dataclass
class ProductReport:
    dim_left: int
    dim_right: int
    dim_product: int
    dims_add_up: bool
    partition_is_lift: bool


def product_report(a: Framework, b: Framework) -> ProductReport:
    """Check that deformations of a product are products of deformations.

    Verifies the dimension law and that the dependency blocks of the
    product are exactly the lifted factor blocks matched through the edge
    classes.
    """
    prod = product_framework(a, b)
    da, db, dp = dc_dimension(a), dc_dimension(b), dc_dimension(prod)
    provenance = dict(zip(prod.vertex_ids, itertools.product(a.vertex_ids, b.vertex_ids)))
    lifted = set(lifted_blocks(prod, provenance, a, b))
    return ProductReport(da, db, dp, dp == da + db, set(dependency_partition(prod)) == lifted)
