"""Every fixture's shipped verdict table holds."""

import itertools

import pytest

from defocone.cones import enumerate_rays
from defocone.corpus import corpus, facet_flats
from defocone.deduction import conclude_indecomposable, dim_upper_bound, saturate
from defocone.exact import nullspace
from defocone.framework import (
    dc_dimension,
    deformation_space,
    dependency_partition,
    is_connected,
    is_indecomposable,
)
from defocone.polytope import edges, f_vector, facets, framework_of

CP = corpus()


@pytest.mark.parametrize("name", sorted(CP))
def test_fixture_expectations(name):
    entry = CP[name]
    fw = entry.framework
    exp = entry.expected
    if "dc_dimension" in exp:
        assert dc_dimension(fw) == exp["dc_dimension"]
    if "indecomposable" in exp:
        assert is_indecomposable(fw) == exp["indecomposable"]
    if "connected" in exp:
        assert is_connected(fw) == exp["connected"]
    if "blocks" in exp:
        assert len(dependency_partition(fw)) == exp["blocks"]
    if "dependent_pairs" in exp:
        pairs = sum(1 for b in dependency_partition(fw) if len(b) == 2)
        assert pairs == exp["dependent_pairs"]
    if "rays" in exp:
        cone = enumerate_rays(deformation_space(fw))
        assert len(cone.rays) == exp["rays"]
    if "f_vector" in exp:
        p = entry.polytope
        assert (len(p.vertex_ids), len(edges(p)), len(facets(p))) == exp["f_vector"]
        assert f_vector(p) == exp["f_vector"]
    if "deduction_proves" in exp:
        st = saturate(fw)
        flats = facet_flats(entry.polytope) if entry.polytope is not None else None
        got, _ = conclude_indecomposable(st, flats)
        assert got == exp["deduction_proves"]
    if "dim_bound" in exp:
        st = saturate(fw)
        flats = facet_flats(entry.polytope) if entry.polytope is not None else None
        assert dim_upper_bound(st, flats) == exp["dim_bound"]


@pytest.mark.parametrize("name", sorted(CP))
def test_polytope_framework_agreement(name):
    """Where a fixture carries both views, the combinatorial edge list is
    exactly the LP-detected edge list."""
    entry = CP[name]
    if entry.polytope is None or len(entry.polytope.vertex_ids) < 2:
        return
    assert set(entry.framework.edges) == set(edges(entry.polytope)), name


def _ray_adjacency(ds, cone):
    """Pairs of ray indices spanning a two-dimensional face: a face is cut
    out by forcing coordinates to zero inside the linear span, and two rays
    are adjacent exactly when zeroing everything outside their joint
    support leaves a plane."""
    ne = len(ds.framework.edges)
    out = set()
    for i, j in itertools.combinations(range(len(cone.rays)), 2):
        support = {k for k in range(ne) if cone.rays[i][k] != 0 or cone.rays[j][k] != 0}
        rows = [[b[k] for b in ds.basis] for k in range(ne) if k not in support]
        if (len(nullspace(rows, ds.dim)) if rows else ds.dim) == 2:
            out.add((i, j))
    return out


def test_hexagon_cone_is_a_bipyramid():
    """Five rays; the two full-support rays (the triangle pair) are apexes
    adjacent to all three partial-support rays (the segment pair classes)
    but not to each other, and the segment rays are pairwise adjacent:
    exactly the edge graph of a bipyramid over a triangle."""
    fw = CP["hexagon"].framework
    ds = deformation_space(fw)
    cone = enumerate_rays(ds)
    adj = _ray_adjacency(ds, cone)
    apexes = {i for i, r in enumerate(cone.rays) if sum(1 for x in r if x != 0) == 3}
    base = set(range(5)) - apexes
    assert len(apexes) == 2 and len(base) == 3
    expected = {tuple(sorted((a, b))) for a in apexes for b in base}
    expected |= {tuple(sorted(p)) for p in itertools.combinations(base, 2)}
    assert adj == expected
