"""Framework semantics: cycle equations, placement, oracle, partitions."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defocone.cones import characteristic_vector, closure, is_implicit_edge
from defocone.constructions import (
    bipartite_truncation,
    complete_bipartite,
    complete_graph,
    graphic_matroid,
    graphical_zonotope,
    matroid_polytope,
    uniform_matroid,
)
from defocone.corpus import corpus
from defocone.errors import InputError
from defocone.exact import in_span, nullspace, rank, rref, vec_scale, vec_sub
from defocone.framework import (
    Framework,
    _hull_pivots,
    cycle_basis,
    cycle_equation_rows,
    dc_dimension,
    deformation_space,
    dependency_partition,
    edge_key,
    framework,
    is_indecomposable,
    quotient_degenerate,
    realize,
    walk_edges,
)


@pytest.fixture(scope="module")
def cp():
    return corpus()


def tri():
    return framework({"a": (0, 0), "b": (1, 0), "c": (0, 1)}, [("a", "b"), ("b", "c"), ("a", "c")])


def test_framework_rejects_bad_input():
    assert framework([("a", (0, 0)), ("b", (1, 0))], [("b", "a"), ("a", "b")]).edges == (("a", "b"),)
    with pytest.raises(InputError, match=r"^unknown vertex in edge \('a', 'x'\)$"):
        framework({"a": (0,), "b": (1,)}, [("a", "x")])
    with pytest.raises(InputError, match="self-loop"):
        framework({"a": (0, 0), "b": (1, 0)}, [("a", "a")])
    with pytest.raises(InputError, match="^duplicate vertex label$"):
        framework([("a", (0,)), ("b", (1,)), ("a", (2,))], [("a", "b")])
    with pytest.raises(InputError, match="^duplicate vertex label$"):
        framework({1: (0,), "1": (1,)}, [])
    with pytest.raises(InputError, match="^mixed coordinate dimensions$"):
        framework({"a": (0, 0), "b": (1,)}, [("a", "b")])


def test_cycle_basis_counts():
    tree = framework({"a": (0, 0), "b": (1, 0), "c": (2, 0)}, [("a", "b"), ("b", "c")])
    assert cycle_basis(tree) == ()
    assert len(cycle_basis(tri())) == 1
    assert len(cycle_basis(tri())[0]) == 3
    cube = corpus()["cube"].framework
    assert len(cycle_basis(cube)) == 12 - 8 + 1


def test_deformation_space_examples(cp):
    assert dc_dimension(cp["triangle"].framework) == 1
    assert dc_dimension(cp["parallelogram"].framework) == 2
    assert dc_dimension(cp["hexagon"].framework) == 4
    assert dc_dimension(cp["cube"].framework) == 3
    assert dc_dimension(cp["prism"].framework) == 2
    assert dc_dimension(cp["q_2_2"].framework) == 2


def test_quadrilateral_dimension_is_two(cp):
    # any planar 4-cycle has one cycle and two independent scalar equations
    for name in ("trapezoid", "scalene_quadrilateral", "parallelogram", "square"):
        assert dc_dimension(cp[name].framework) == 2


def test_oracle_examples(cp):
    assert is_indecomposable(cp["triangle"].framework)
    assert not is_indecomposable(cp["square"].framework)
    assert is_indecomposable(cp["hexagonal_pyramid"].framework)
    assert not is_indecomposable(cp["two_disjoint_triangles"].framework)
    point = framework({"p": (0, 0)}, [])
    assert is_indecomposable(point)
    # connected all-degenerate framework: only dilates exist
    squashed = framework({"a": (1, 1), "b": (1, 1)}, [("a", "b")])
    assert dc_dimension(squashed) == 0 and is_indecomposable(squashed)


def _moves_every_edge(fw, pos, lam):
    """Every edge, between the placed points, is its base vector scaled by
    its factor."""
    return all(
        vec_sub(pos[v], pos[u]) == vec_scale(t, fw.edge_vector((u, v)))
        for t, (u, v) in zip(lam, fw.edges)
    )


def test_apply_deformation_identity_and_collapse():
    fw = tri()
    same = realize(fw, deformation_space(fw).unit_vector())
    assert tuple(same[v] for v in fw.vertex_ids) == fw.coords
    collapsed = realize(fw, (0, 0, 0))
    anchor = fw.point("a")
    assert all(c == anchor for c in collapsed.values())


def test_hexagon_alternating_deformation(cp):
    hexa = cp["hexagon"].framework
    ds = deformation_space(hexa)
    # characteristic vector of one alternating edge triple is a deformation
    from defocone.cones import is_autonomous

    triples = [
        s
        for s in itertools.combinations(hexa.edges, 3)
        if is_autonomous(hexa, s) and not set(s[0]) & set(s[1]) & set(s[2])
    ]
    assert triples
    lam = tuple(Fraction(1 if e in triples[0] else 0) for e in hexa.edges)
    pos = realize(hexa, lam)
    assert pos is not None and _moves_every_edge(hexa, pos, lam)
    # the image is a triangle: exactly three distinct points
    assert len(set(pos.values())) == 3


def test_roundtrip_on_interior_vector(cp):
    fw = cp["trapezoid"].framework
    ds = deformation_space(fw)
    lam = tuple(
        a + Fraction(1, 7) * b for a, b in zip(ds.unit_vector(), ds.basis[-1])
    )
    if all(x >= 0 for x in lam):
        pos = realize(fw, lam)
        assert pos is not None and _moves_every_edge(fw, pos, lam)


def _cycle_rows_vanish(fw, lam):
    rows = cycle_equation_rows(fw, cycle_basis(fw))
    return all(sum(a * x for a, x in zip(row, lam)) == 0 for row in rows)


def _probe_vectors(fw):
    """Basis vectors, the unit vector, every block's characteristic vector,
    and the first basis vector with each coordinate in turn raised by 1."""
    ds = deformation_space(fw)
    out = [*ds.basis, ds.unit_vector()]
    out += [characteristic_vector(fw, b) for b in dependency_partition(fw)]
    for b in ds.basis[:1]:
        out += [tuple(x + (i == j) for j, x in enumerate(b)) for i in range(len(fw.edges))]
    return out


def _collapsed_cube():
    """The cube squashed onto a square: its third parallel class of four
    edges becomes degenerate."""
    cube = corpus()["cube"].framework
    blocks = dependency_partition(cube)
    pos = realize(cube, characteristic_vector(cube, blocks[0] | blocks[1]))
    return Framework(cube.vertex_ids, tuple(pos[v] for v in cube.vertex_ids), cube.edges)


def test_realize_agrees_with_cycle_equations(cp):
    outcomes = set()
    for fw in [e.framework for e in cp.values()] + [_collapsed_cube()]:
        for lam in _probe_vectors(fw):
            closes = _cycle_rows_vanish(fw, lam)
            assert (realize(fw, lam) is not None) == closes, lam
            outcomes.add(closes)
    assert outcomes == {True, False}


def test_realize_rejects_factors_on_degenerate_edges():
    fw = _collapsed_cube()
    assert len(fw.degenerate_edges) == 4
    unit = deformation_space(fw).unit_vector()
    pos = realize(fw, unit)
    assert pos is not None and tuple(pos[v] for v in fw.vertex_ids) == fw.coords
    for e in fw.degenerate_edges:
        i = fw.edges.index(e)
        lam = tuple(x + (j == i) for j, x in enumerate(unit))
        assert realize(fw, lam) is None
        assert not _cycle_rows_vanish(fw, lam)


def test_dependency_partition_examples(cp):
    cube_blocks = dependency_partition(cp["cube"].framework)
    assert sorted(len(b) for b in cube_blocks) == [4, 4, 4]
    hex_blocks = dependency_partition(cp["hexagon"].framework)
    assert sorted(len(b) for b in hex_blocks) == [1] * 6
    trap_blocks = dependency_partition(cp["trapezoid"].framework)
    assert sorted(len(b) for b in trap_blocks) == [1, 1, 2]
    legs = next(b for b in trap_blocks if len(b) == 2)
    assert legs == {edge_key("A", "D"), edge_key("B", "C")}


def test_partition_separation(cp):
    for name in ("cube", "hexagon", "trapezoid", "q_2_2"):
        fw = cp[name].framework
        ds = deformation_space(fw)
        eidx = {e: i for i, e in enumerate(fw.edges)}
        blocks = dependency_partition(fw)
        for b in blocks:
            for e, f in itertools.combinations(sorted(b), 2):
                assert all(v[eidx[e]] == v[eidx[f]] for v in ds.basis)
        for b1, b2 in itertools.combinations(blocks, 2):
            e, f = min(b1), min(b2)
            assert any(v[eidx[e]] != v[eidx[f]] for v in ds.basis)


def test_implicit_edges(cp):
    sq = cp["square"].framework
    assert is_implicit_edge(sq, "A", "B")  # existing edge
    assert not is_implicit_edge(sq, "A", "C")  # diagonal stretches freely
    with pytest.raises(InputError):
        is_implicit_edge(sq, "A", "A")
    with pytest.raises(InputError):
        is_implicit_edge(sq, "A", "nope")
    two = cp["two_disjoint_triangles"].framework
    assert not is_implicit_edge(two, "A", "D")  # cross-component pair
    # in the skew twice-stacked cube the square-face diagonals are implicit
    ks = cp["kallay_skew"].framework
    assert is_implicit_edge(ks, "l1", "l3")


def test_closure_examples(cp):
    fw = tri()
    assert closure(fw).edges == fw.edges
    pyr = cp["hexagonal_pyramid"].framework
    cl = closure(pyr)
    n = len(pyr.vertex_ids)
    assert len(cl.edges) == n * (n - 1) // 2  # complete graph
    assert dc_dimension(cl) == dc_dimension(pyr)
    two = cp["two_disjoint_triangles"].framework
    assert closure(two).edges == two.edges


def test_closure_preserves_dimension(cp):
    for name in ("square", "trapezoid", "prism", "q_2_2"):
        fw = cp[name].framework
        assert dc_dimension(closure(fw)) == dc_dimension(fw)


def test_quotient_examples():
    x, y, z = (0, 0), (4, 0), (0, 4)
    fw = framework(
        {"1": x, "2": x, "3": y, "4": y, "5": z, "6": z},
        [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "6"), ("1", "6")],
    )
    q, mapping = quotient_degenerate(fw)
    assert len(q.vertex_ids) == 3 and len(q.edges) == 3
    assert dc_dimension(q) == dc_dimension(fw) == 1
    assert mapping["2"] == mapping["1"]
    plain = tri()
    q2, _ = quotient_degenerate(plain)
    assert q2.edges == plain.edges
    pair = framework({"a": (1, 2), "b": (1, 2)}, [("a", "b")])
    q3, _ = quotient_degenerate(pair)
    assert len(q3.vertex_ids) == 1 and q3.edges == ()


def test_quotient_preserves_dimension(cp):
    for name in ("cube", "hexagon", "kallay_skew"):
        fw = cp[name].framework
        q, _ = quotient_degenerate(fw)
        assert dc_dimension(q) == dc_dimension(fw)


def test_unit_membership_and_cone_span(cp):
    for name in ("triangle", "trapezoid", "hexagon", "cube", "kallay_coplanar"):
        fw = cp[name].framework
        ds = deformation_space(fw)
        unit = ds.unit_vector()
        assert in_span(list(ds.basis), unit)
        # the unit vector is relatively interior: a small step along any
        # basis vector stays nonnegative
        for b in ds.basis:
            eps = Fraction(1)
            while any(u + eps * x < 0 for u, x in zip(unit, b)):
                eps /= 2
            assert all(u + eps * x >= 0 for u, x in zip(unit, b))


def test_extra_cycles_do_not_change_rank(cp):
    for name in ("cube", "hexagon", "q_2_2"):
        fw = cp[name].framework
        base_rows = cycle_equation_rows(fw, cycle_basis(fw))
        base_rank = rank(base_rows, len(fw.edges))
        # stitch extra closed walks from pairs of fundamental cycles
        cycles = list(cycle_basis(fw))
        extra = []
        for c in cycles[:3]:
            extra.append(tuple(reversed(c)))
        rows = cycle_equation_rows(fw, cycles + extra)
        assert rank(rows, len(fw.edges)) == base_rank


def _all_coordinate_rows(fw, cycles):
    """The reference system: one row per cycle per ambient coordinate, in
    cycle order, then a forced-zero row per degenerate edge."""
    eidx = {e: i for i, e in enumerate(fw.edges)}
    rows = []
    for walk in cycles:
        acc = [[Fraction(0)] * fw.dim for _ in fw.edges]
        for u, v in walk_edges(walk):
            i = eidx[edge_key(u, v)]
            acc[i] = [a + s for a, s in zip(acc[i], vec_sub(fw.point(v), fw.point(u)))]
        rows += [[acc[i][k] for i in range(len(fw.edges))] for k in range(fw.dim)]
    for e in sorted(fw.degenerate_edges):
        rows.append([Fraction(e == f) for f in fw.edges])
    return rows


def _assert_hull_rows_agree(fw):
    """The hull coordinates are the pivot columns of the reduced point
    differences, the hull-coordinate rows keep the reference rank, and the
    basis is the reference nullspace, Fraction for Fraction."""
    diffs = [vec_sub(c, fw.coords[0]) for c in fw.coords[1:]]
    assert _hull_pivots(fw) == rref(diffs, fw.dim)[1]
    cycles = cycle_basis(fw)
    reference = _all_coordinate_rows(fw, cycles)
    n = len(fw.edges)
    assert rank(cycle_equation_rows(fw, cycles), n) == rank(reference, n)
    assert deformation_space(fw).basis == tuple(nullspace(reference, n))


def _family_frameworks():
    out = [bipartite_truncation(n, m, kind).framework
           for kind in "PQ" for n in (1, 2) for m in (1, 2, 3) if kind == "P" or n * m > 2]
    out += [graphical_zonotope(g).framework() for g in (complete_graph(4), complete_bipartite(2, 3))]
    out += [matroid_polytope(mb).framework for mb in (uniform_matroid(2, 5), graphic_matroid(complete_graph(4)))]
    return out


def test_hull_rows_agree_with_all_coordinate_rows(cp):
    fws = [e.framework for e in cp.values()] + [_collapsed_cube()] + _family_frameworks()
    for fw in fws:
        _assert_hull_rows_agree(fw)
    # the families lie in hyperplanes, so rows were left out on them
    assert any(len(cycle_equation_rows(fw, cycle_basis(fw))) < len(_all_coordinate_rows(fw, cycle_basis(fw)))
               for fw in fws)


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _subspace_frameworks(draw):
    """Up to 8 rational points in a random affine subspace of R^d (d <= 5),
    at small integer parameters so points coincide, with random edges, some
    of them between coincident points."""
    d = draw(st.integers(1, 5))
    k = draw(st.integers(0, d))
    base = draw(st.lists(_small, min_size=d, max_size=d))
    dirs = draw(st.lists(st.lists(_small, min_size=d, max_size=d), min_size=k, max_size=k))
    params = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k), min_size=1, max_size=6))
    params += [params[i] for i in draw(st.lists(st.integers(0, len(params) - 1), max_size=2))]
    points = {
        f"v{i}": tuple(b + sum((t * w[j] for t, w in zip(p, dirs)), Fraction(0)) for j, b in enumerate(base))
        for i, p in enumerate(params)
    }
    pairs = list(itertools.combinations(points, 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    return framework(points, edges)


@given(_subspace_frameworks())
@settings(max_examples=200, deadline=None)
def test_hull_rows_agree_on_frameworks_in_subspaces(fw):
    _assert_hull_rows_agree(fw)


@given(st.integers(0, 400))
@settings(max_examples=25, deadline=None)
def test_subframework_monotonicity(seed):
    """Dependent pairs of a random induced subframework stay dependent."""
    import random

    rng = random.Random(seed)
    cp_local = corpus()
    name = rng.choice(["cube", "prism", "hexagon", "q_2_2", "trapezoid"])
    fw = cp_local[name].framework
    keep = sorted(rng.sample(fw.vertex_ids, k=max(3, len(fw.vertex_ids) * 2 // 3)))
    edges = [e for e in fw.edges if e[0] in keep and e[1] in keep]
    if not edges:
        return
    sub = framework({v: fw.point(v) for v in keep}, edges)
    sub_blocks = dependency_partition(sub)
    whole_blocks = dependency_partition(fw)
    for block in sub_blocks:
        for e, f in itertools.combinations(sorted(block), 2):
            owner_e = next(b for b in whole_blocks if e in b)
            assert f in owner_e
