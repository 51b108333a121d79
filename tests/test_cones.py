"""Ray enumeration, autonomous sets, simpliciality, product laws."""

import itertools
from fractions import Fraction

import pytest

from defocone.cones import (
    characteristic_ray,
    characteristic_vector,
    embed_product_ray,
    enumerate_rays,
    is_autonomous,
    is_simplicial_by_partition,
    product_framework,
    product_report,
)
from defocone.corpus import corpus
from defocone.errors import ResourceLimitError
from defocone.framework import dc_dimension, deformation_space, dependency_partition, framework
from defocone.simplex import OPTIMAL, LinearProgram, solve


@pytest.fixture(scope="module")
def cp():
    return corpus()


def test_hexagon_rays(cp):
    ds = deformation_space(cp["hexagon"].framework)
    cone = enumerate_rays(ds)
    assert ds.dim == 4
    assert len(cone.rays) == 5
    assert sorted(sum(1 for x in r if x != 0) for r in cone.rays) == [2, 2, 2, 3, 3]


def test_triangle_single_ray(cp):
    cone = enumerate_rays(deformation_space(cp["triangle"].framework))
    assert len(cone.rays) == 1
    assert set(cone.rays[0]) == {Fraction(1)}


def test_prism_two_rays(cp):
    cone = enumerate_rays(deformation_space(cp["prism"].framework))
    assert len(cone.rays) == 2


def test_ray_support_minimality(cp):
    for name in ("hexagon", "cube", "q_2_2", "trapezoid"):
        cone = enumerate_rays(deformation_space(cp[name].framework))
        supports = [frozenset(i for i, x in enumerate(r) if x != 0) for r in cone.rays]
        for s, t in itertools.permutations(supports, 2):
            assert not s < t


def test_unit_vector_is_nonnegative_ray_combination(cp):
    for name in ("hexagon", "cube", "trapezoid"):
        ds = deformation_space(cp[name].framework)
        cone = enumerate_rays(ds)
        unit = ds.unit_vector()
        n = len(cone.rays)
        lp = LinearProgram(
            n=n,
            eq=[
                (tuple(r[i] for r in cone.rays), unit[i])
                for i in range(len(unit))
            ],
            nonneg=True,
        )
        assert solve(lp).status == OPTIMAL


def test_ray_count_versus_dimension(cp):
    for name in ("hexagon", "cube", "prism", "q_2_2"):
        ds = deformation_space(cp[name].framework)
        cone = enumerate_rays(ds)
        assert len(cone.rays) >= ds.dim
        simplicial, rays = is_simplicial_by_partition(cp[name].framework)
        if simplicial:
            assert len(cone.rays) == ds.dim
            assert sorted(rays) == sorted(cone.rays)


def test_resource_guard(cp):
    # a path deforms edge by edge: 13 edges give dc = 13 > MAX_SPAN_DIM
    points = {f"v{i}": (i, i * i) for i in range(14)}
    path = framework(points, [(f"v{i}", f"v{i + 1}") for i in range(13)])
    assert dc_dimension(path) == 13
    with pytest.raises(ResourceLimitError, match="span dimension 13"):
        enumerate_rays(deformation_space(path))
    ds = deformation_space(cp["hexagon"].framework)
    with pytest.raises(ResourceLimitError):
        enumerate_rays(ds, max_edges=3)


def test_autonomous_examples(cp):
    hexa = cp["hexagon"].framework
    assert is_autonomous(hexa, hexa.edges)
    assert not is_autonomous(hexa, [hexa.edges[0]])
    triples = [
        s
        for s in itertools.combinations(hexa.edges, 3)
        if is_autonomous(hexa, s)
    ]
    assert len(triples) == 2  # the two alternating triples


def test_characteristic_ray(cp):
    cube = cp["cube"].framework
    block = max(dependency_partition(cube), key=len)
    ray, reason = characteristic_ray(cube, block)
    assert ray == characteristic_vector(cube, block)
    hexa = cp["hexagon"].framework
    ray, reason = characteristic_ray(hexa, list(hexa.edges[:2]))
    assert ray is None and "block" in reason or "autonomous" in reason
    prism = cp["prism"].framework
    tri_block = next(b for b in dependency_partition(prism) if len(b) == 3)
    ray, _ = characteristic_ray(prism, tri_block)
    assert ray is not None


def test_simpliciality(cp):
    ok, rays = is_simplicial_by_partition(cp["hexagon"].framework)
    assert not ok
    ok, rays = is_simplicial_by_partition(cp["cube"].framework)
    assert ok and len(rays) == 3
    tri = cp["triangle"].framework
    prod = product_framework(tri, tri)
    ok, rays = is_simplicial_by_partition(prod)
    assert ok and len(rays) == 2


def test_parallelogramic_zonotope_simplicial():
    from defocone.constructions import zonotope
    from defocone.polytope import framework_of

    z = zonotope([(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 2, 3)])
    ok, rays = is_simplicial_by_partition(framework_of(z.polytope))
    assert ok and len(rays) == 4


def test_autonomous_complement(cp):
    """Removing an autonomous dependent block drops the dimension by one."""
    from defocone.framework import (
        Framework,
        dc_dimension,
        deformation_space as dsf,
        quotient_degenerate,
        realize,
    )

    for name in ("cube", "prism"):
        fw = cp[name].framework
        ds = dsf(fw)
        block = max(dependency_partition(fw), key=len)
        if not is_autonomous(fw, block):
            continue
        ell = characteristic_vector(fw, block)
        unit = ds.unit_vector()
        rest = tuple(u - x for u, x in zip(unit, ell))
        assert all(x >= 0 for x in rest)
        pos = realize(fw, rest)
        shrunk = Framework(fw.vertex_ids, tuple(pos[v] for v in fw.vertex_ids), fw.edges)
        contracted, _ = quotient_degenerate(shrunk)
        assert dc_dimension(fw) == dc_dimension(contracted) + 1


def test_product_reports(cp):
    tri = cp["triangle"].framework
    seg = framework({"x": (0,), "y": (1,)}, [("x", "y")])
    rep = product_report(tri, seg)
    assert rep.dims_add_up and rep.partition_is_lift
    assert (rep.dim_left, rep.dim_right, rep.dim_product) == (1, 1, 2)
    # factor labels that themselves contain "|"
    prism = product_framework(tri, seg)
    for a, b in ((prism, seg), (seg, prism)):
        rep = product_report(a, b)
        assert rep.dims_add_up and rep.partition_is_lift and rep.dim_product == 3


def test_product_ray_union(cp):
    tri = cp["triangle"].framework
    sq = cp["square"].framework
    prod = product_framework(tri, sq)
    cone = enumerate_rays(deformation_space(prod))
    ra = enumerate_rays(deformation_space(tri)).rays
    rb = enumerate_rays(deformation_space(sq)).rays
    embedded = {embed_product_ray(prod, tri, r, "left") for r in ra}
    embedded |= {embed_product_ray(prod, sq, r, "right") for r in rb}
    assert set(cone.rays) == embedded
    # a left factor whose labels contain "|"
    left = product_framework(tri, framework({"x": (0,), "y": (1,)}, [("x", "y")]))
    nested = product_framework(left, sq)
    cone = enumerate_rays(deformation_space(nested))
    ra = enumerate_rays(deformation_space(left)).rays
    embedded = {embed_product_ray(nested, left, r, "left") for r in ra}
    embedded |= {embed_product_ray(nested, sq, r, "right") for r in rb}
    assert set(cone.rays) == embedded
