"""Ray enumeration, autonomous sets, block rays, implicit edges, the
factorization law."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defocone import cones
from defocone.cones import (
    block_rays,
    characteristic_vector,
    closure,
    enumerate_rays,
    factorization,
    is_autonomous,
    is_implicit_edge,
    lift_ray,
    product_framework,
)
from defocone.corpus import corpus
from defocone.ddcore import dd_rays
from defocone.errors import ResourceLimitError
from defocone.exact import is_zero_vec, parallel, vec_sub
from defocone.framework import (
    components,
    dc_dimension,
    deformation_space,
    dependency_partition,
    edge_key,
    framework,
    realize,
)
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
        vectors = block_rays(cp[name].framework)
        if None not in vectors:
            assert len(cone.rays) == ds.dim
            assert sorted(vectors) == sorted(cone.rays)


def test_resource_guard(cp, monkeypatch):
    # a path deforms edge by edge: 13 edges give dc = 13 > MAX_SPAN_DIM
    points = {f"v{i}": (i, i * i) for i in range(14)}
    path = framework(points, [(f"v{i}", f"v{i + 1}") for i in range(13)])
    assert dc_dimension(path) == 13
    with pytest.raises(ResourceLimitError, match="span dimension 13"):
        enumerate_rays(deformation_space(path))
    monkeypatch.setattr(cones, "MAX_EDGES", 3)
    with pytest.raises(ResourceLimitError, match="6 edges exceeds limit 3"):
        enumerate_rays(deformation_space(cp["hexagon"].framework))


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
    """An autonomous block gives its characteristic vector, an extreme ray;
    a block that is not autonomous gives None."""
    cube = cp["cube"].framework
    assert block_rays(cube) == [characteristic_vector(cube, b) for b in dependency_partition(cube)]
    hexa = cp["hexagon"].framework
    assert block_rays(hexa) == [None] * 6  # no lone edge closes the hexagon
    prism = cp["prism"].framework
    rays = set(enumerate_rays(deformation_space(prism)).rays)
    blocks = dependency_partition(prism)
    tri = next(i for i, b in enumerate(blocks) if len(b) == 3)
    assert block_rays(prism)[tri] in rays


def test_simpliciality(cp):
    assert None in block_rays(cp["hexagon"].framework)
    rays = block_rays(cp["cube"].framework)
    assert None not in rays and len(rays) == 3
    tri = cp["triangle"].framework
    rays = block_rays(product_framework(tri, tri))
    assert None not in rays and len(rays) == 2


def test_parallelogramic_zonotope_simplicial():
    from defocone.constructions import zonotope
    from defocone.polytope import framework_of

    z = zonotope([(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 2, 3)])
    rays = block_rays(framework_of(z.polytope))
    assert None not in rays and len(rays) == 4


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


def _product(a, b):
    """The product framework and its provenance map."""
    prod = product_framework(a, b)
    return prod, dict(zip(prod.vertex_ids, itertools.product(a.vertex_ids, b.vertex_ids)))


def test_product_reports(cp):
    tri = cp["triangle"].framework
    seg = framework({"x": (0,), "y": (1,)}, [("x", "y")])
    prod, provenance = _product(tri, seg)
    assert factorization(prod, provenance, tri, seg) == ((1, 1, 2), True)
    # factor labels that themselves contain "|"
    for a, b in ((prod, seg), (seg, prod)):
        nested, provenance = _product(a, b)
        (da, db, dn), lifts = factorization(nested, provenance, a, b)
        assert lifts and da + db == dn == 3


def _lifted_rays(fw, provenance, left, right):
    return {
        lift_ray(fw, provenance, f, side, r)
        for side, f in enumerate((left, right))
        for r in enumerate_rays(deformation_space(f)).rays
    }


def test_product_ray_union(cp):
    tri = cp["triangle"].framework
    sq = cp["square"].framework
    prod, provenance = _product(tri, sq)
    cone = enumerate_rays(deformation_space(prod))
    assert set(cone.rays) == _lifted_rays(prod, provenance, tri, sq)
    # a left factor whose labels contain "|"
    left = product_framework(tri, framework({"x": (0,), "y": (1,)}, [("x", "y")]))
    nested, provenance = _product(left, sq)
    cone = enumerate_rays(deformation_space(nested))
    assert set(cone.rays) == _lifted_rays(nested, provenance, left, sq)


def lp_implicit_edge(fw, u, v) -> bool:
    """Reference oracle for `is_implicit_edge`, by one LP.

    An edge is implicit and a pair in two components is not.  Otherwise
    every vector of the span basis must move v - u along its base
    direction (coincident u and v not at all), and the factor this induces,
    a linear form on the span, must have a nonnegative minimum over the
    slice of the cone where the nondegenerate factors sum to 1.
    """
    if edge_key(u, v) in fw.edges:
        return True
    if not any({u, v} <= set(c) for c in components(fw)):
        return False
    direction = vec_sub(fw.point(v), fw.point(u))
    j = next((i for i, x in enumerate(direction) if x != 0), None)
    ds = deformation_space(fw)
    coeffs = []
    for b in ds.basis:
        pos = realize(fw, b)
        disp = vec_sub(pos[v], pos[u])
        if not parallel(direction, disp) or (j is None and not is_zero_vec(disp)):
            return False
        coeffs.append(Fraction(0) if j is None else disp[j] / direction[j])
    nd = [i for i, e in enumerate(fw.edges) if e not in ds.degenerate]
    if not nd or all(c == 0 for c in coeffs):
        return True
    lp = LinearProgram(
        n=ds.dim,
        objective=coeffs,
        eq=[([sum(b[i] for i in nd) for b in ds.basis], Fraction(1))],
        le=[([-b[i] for b in ds.basis], Fraction(0)) for i in nd],
    )
    res = solve(lp)
    assert res.status == OPTIMAL  # the slice is a nonempty polytope
    return res.value >= 0


def _agrees_with_lp(fw):
    pairs = list(itertools.combinations(fw.vertex_ids, 2))
    for u, v in pairs:
        assert is_implicit_edge(fw, u, v) == lp_implicit_edge(fw, u, v), (u, v)
    return len(pairs)


def test_implicit_edge_matches_lp_oracle_on_corpus(cp):
    assert sum(_agrees_with_lp(entry.framework) for entry in cp.values()) == 604


def test_closure_is_the_set_of_implicit_pairs(cp):
    for entry in cp.values():
        fw = entry.framework
        pairs = itertools.combinations(fw.vertex_ids, 2)
        implicit = {edge_key(u, v) for u, v in pairs if is_implicit_edge(fw, u, v)}
        assert closure(fw).edges == tuple(sorted(set(fw.edges) | implicit))


def test_closure_enumerates_the_rays_at_most_once(cp, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return dd_rays(*args)

    monkeypatch.setattr(cones, "dd_rays", counting)
    for name, runs in (("p_2_2", 1), ("kallay_skew", 1), ("triangle", 0), ("two_disjoint_triangles", 0)):
        calls.clear()
        cones._placed_rays.cache_clear()
        closure(cp[name].framework)
        assert len(calls) == runs, name


def test_implicit_edge_on_a_bare_collinear_framework():
    """On a bare framework the induced factor can be negative: v - u is
    2 lam_uw - lam_wv times its base, so the pair is not implicit."""
    fw = framework({"u": (0, 0), "w": (2, 0), "v": (1, 0)}, [("u", "w"), ("w", "v")])
    assert dc_dimension(fw) == 2
    assert not is_implicit_edge(fw, "u", "v")
    assert not lp_implicit_edge(fw, "u", "v")
    assert closure(fw).edges == fw.edges


@st.composite
def small_frameworks(draw):
    """Up to six points on a small grid, coincident points included, and a
    random edge set: far inside the ray guard."""
    n = draw(st.integers(2, 6))
    coord = st.integers(-2, 2).map(lambda x: Fraction(x, 2))
    points = {f"p{i}": draw(st.tuples(coord, coord)) for i in range(n)}
    pairs = list(itertools.combinations(points, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return framework(points, edges)


@settings(max_examples=150, deadline=None)
@given(small_frameworks())
def test_implicit_edge_matches_lp_oracle_on_small_frameworks(fw):
    _agrees_with_lp(fw)


def test_implicit_edge_above_the_ray_guard():
    # a path deforms edge by edge: 13 edges give dc = 13 > MAX_SPAN_DIM
    path = framework({f"v{i}": (i, i * i) for i in range(14)}, [(f"v{i}", f"v{i + 1}") for i in range(13)])
    assert is_implicit_edge(path, "v0", "v1")  # an edge needs no rays
    with pytest.raises(ResourceLimitError, match="span dimension 13"):
        is_implicit_edge(path, "v0", "v2")
    with pytest.raises(ResourceLimitError, match="span dimension 13"):
        closure(path)
