"""Polytope face detection and the framework bridge."""

import itertools
import random
from fractions import Fraction

import pytest

from defocone import polytope as polytope_module
from defocone.constructions import (
    bipartite_truncation,
    complete_bipartite,
    complete_graph,
    graphic_matroid,
    graphical_zonotope,
    matroid_direct_sum,
    matroid_polytope,
    uniform_matroid,
)
from defocone.corpus import corpus
from defocone.errors import InputError
from defocone.exact import rref, vec_dot, vec_sub
from defocone.framework import Framework, deformation_space, edge_key, framework, labelled_points
from defocone.polytope import (
    PolytopeV,
    edges,
    facets,
    framework_of,
    hull_vertices,
    is_deformed_permutahedron,
    matroid_homothet,
    polytope,
)
from defocone.simplex import LinearProgram, feasible


# ---------------------------------------------------------------------------
# an independent LP edge oracle, to cross-check the incidence test


def midpoint_is_edge(p, u, v):
    """u, v span an edge exactly when their midpoint m draws no weight from
    any other vertex in a convex representation.

    It draws weight from them exactly when {lambda >= 0, s >= 0 :
    sum_w lambda_w p_w = s m, sum_w lambda_w = s, sum_{w not u, v} lambda_w
    = 1} is feasible: a representation mu with weight tau > 0 on the others
    gives lambda = mu / tau and s = 1 / tau; conversely s = 0 would force
    lambda = 0 against the last row, so s > 0 and lambda / s represents m
    with weight 1 / s on the others."""
    others = [w for w in p.vertex_ids if w not in (u, v)]
    if not others:
        return True
    order = [u, v] + others
    m = tuple((a + b) / 2 for a, b in zip(p.point(u), p.point(v)))
    eq = [(tuple(p.point(w)[t] for w in order) + (-m[t],), 0) for t in range(p.dim)]
    eq.append(((1,) * len(order) + (-1,), 0))
    eq.append(((0, 0) + (1,) * len(others) + (0,), 1))
    return not feasible(LinearProgram(n=len(order) + 1, eq=eq, nonneg=True))


def supporting_functional_is_edge(p, u, v):
    """Edge test via an exact supporting functional: c.u = c.v > c.w for
    every other vertex, strictness as a gap of one after rescaling."""
    cu, cv = p.point(u), p.point(v)
    eq = [(tuple(cu) + (Fraction(-1),), Fraction(0)), (tuple(cv) + (Fraction(-1),), Fraction(0))]
    le = [(tuple(p.point(w)) + (Fraction(-1),), Fraction(-1)) for w in p.vertex_ids if w not in (u, v)]
    return feasible(LinearProgram(n=p.dim + 1, eq=eq, le=le))


def lp_edges(p):
    pairs = itertools.combinations(p.vertex_ids, 2)
    return tuple(sorted(edge_key(u, v) for u, v in pairs if midpoint_is_edge(p, u, v)))


@pytest.fixture(scope="module")
def families():
    """Named polytopes beyond the corpus: truncations, matroid polytopes and
    graphical zonotopes, several of which do not span their ambient space."""
    return {
        "P_1,4": bipartite_truncation(1, 4, "P").polytope,
        "Q_1,4": bipartite_truncation(1, 4, "Q").polytope,
        "U(2,5)": matroid_polytope(uniform_matroid(2, 5)).polytope,
        "U(3,6)": matroid_polytope(uniform_matroid(3, 6)).polytope,
        "M(K4)": matroid_polytope(graphic_matroid(complete_graph(4))).polytope,
        "Z(K4)": graphical_zonotope(complete_graph(4)).polytope,
        "Z(K1,3)": graphical_zonotope(complete_bipartite(1, 3)).polytope,
        "Z(K2,2)": graphical_zonotope(complete_bipartite(2, 2)).polytope,
    }


DEGENERATE = {
    "two points": {"a": (0, 0), "b": (1, 2)},
    "segment in R^3": {"a": (1, 0, 2), "b": (3, 1, -1)},
    # the pentagon (0,0) (2,0) (3,2) (1,3) (-1,1) on the plane z = x + y - 2
    "polygon in R^3": {"a": (1, 1, 0), "b": (3, 1, 2), "c": (4, 3, 5), "d": (2, 4, 4), "e": (0, 2, 0)},
}


@pytest.fixture(scope="module")
def cp():
    return corpus()


def test_square_edges_exclude_diagonals(cp):
    sq = cp["square"].polytope
    assert edges(sq) == (("A", "B"), ("A", "D"), ("B", "C"), ("C", "D"))


def test_simplex_has_all_pairs():
    simp = polytope({"a": (0, 0, 0), "b": (1, 0, 0), "c": (0, 1, 0), "d": (0, 0, 1)})
    assert len(edges(simp)) == 6
    assert len(facets(simp)) == 4


def test_cuboctahedron_edge_count():
    q22 = bipartite_truncation(2, 2, "Q")
    assert len(edges(q22.polytope)) == 24
    assert set(edges(q22.polytope)) == set(q22.framework.edges)


def test_facet_counts(cp):
    assert len(facets(cp["cube"].polytope)) == 6
    p31 = bipartite_truncation(3, 1, "P")
    assert len(facets(p31.polytope)) == 7
    p22 = bipartite_truncation(2, 2, "P")
    assert len(facets(p22.polytope)) == 13


def test_facet_flats_are_connected(cp):
    for name in ("cube", "hexagonal_pyramid", "triangular_cupola", "p_2_2"):
        p = cp[name].polytope
        fw = framework_of(p)
        es = set(fw.edges)
        for f in facets(p):
            vs = sorted(f.vertex_ids)
            seen = {vs[0]}
            queue = [vs[0]]
            while queue:
                x = queue.pop()
                for y in vs:
                    if y not in seen and edge_key(x, y) in es:
                        seen.add(y)
                        queue.append(y)
            assert seen == set(vs)


def test_every_edge_in_enough_facets(cp):
    for name in ("cube", "hexagonal_pyramid", "q_2_2"):
        p = cp[name].polytope
        h = p.hull_dim
        fs = facets(p)
        for e in edges(p):
            count = sum(1 for f in fs if set(e) <= f.vertex_ids)
            assert count >= h - 1


def test_vertex_validation(monkeypatch):
    with pytest.raises(InputError):
        polytope({"a": (0, 0), "b": (2, 0), "mid": (1, 0)})
    with pytest.raises(InputError):
        polytope({"a": (0, 0), "b": (0, 0)})
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    centre = (Fraction(1, 2), Fraction(1, 2))
    assert list(hull_vertices(square + [centre])) == [True] * 4 + [False]
    assert list(hull_vertices([(0, 0), (0, 0), (1, 0)])) == [False, False, True]
    assert list(hull_vertices([(3, 1)])) == [True]
    # one LP per answer asked for, so `polytope` stops at the first non-vertex
    lps = []
    solve = polytope_module.feasible
    monkeypatch.setattr(polytope_module, "feasible", lambda lp: lps.append(lp) or solve(lp))
    with pytest.raises(InputError, match="'m' is not a vertex"):
        polytope([("m", centre)] + [(f"s{i}", c) for i, c in enumerate(square)])
    assert len(lps) == 1


# point sets that a vertex check meets besides vertex lists, in ambient
# spaces their hulls do not span, with the verdict of each point
NON_VERTEX_INPUTS = {
    # a square on the plane z = x + y, and its centre
    "interior point": ([(0, 0, 0), (1, 0, 1), (1, 1, 2), (0, 1, 1), (Fraction(1, 2), Fraction(1, 2), 1)],
                       [True] * 4 + [False]),
    # the unit cube on the hyperplane w = x + 2y - z, and the centre of its
    # face z = 0
    "facet-interior point": ([(x, y, z, x + 2 * y - z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
                             + [(Fraction(1, 2), Fraction(1, 2), 0, Fraction(3, 2))], [True] * 8 + [False]),
    "repeated point": ([(1, 0, 1), (0, 1, 1), (1, 0, 1), (0, 0, 0)], [False, True, False, True]),
    "all points equal": ([(2, -1, 3)] * 3, [False] * 3),
    "single point": ([(2, -1, 3)], [True]),
}


def test_hull_frame_vertex_checks_match_the_ambient_lp(cp, families):
    """The vertex check in hull coordinates, as `polytope` runs it with
    h + 1 rows per LP, gives the verdicts of the LP on the ambient
    coordinates, which has d + 1 rows."""
    points = {name: e.polytope for name, e in cp.items() if e.polytope is not None}
    points.update((name, families[name]) for name in ("P_1,4", "Q_1,4", "U(2,5)", "M(K4)", "Z(K4)"))
    for name, (coords, verdicts) in NON_VERTEX_INPUTS.items():
        points[name] = PolytopeV(*labelled_points((f"x{i}", c) for i, c in enumerate(coords)))
        assert list(hull_vertices(points[name].coords)) == verdicts, name
    assert any(p.hull_dim < p.dim for p in points.values())
    for name, p in points.items():
        ambient = list(hull_vertices(p.coords))
        assert list(hull_vertices(p.hull_frame[2])) == ambient, name
        assert ambient == [True] * len(p.vertex_ids) or name in NON_VERTEX_INPUTS, name


def test_polytope_checks_vertices_with_hull_rows(families, monkeypatch):
    """Each LP of `polytope`'s vertex check has one row per hull coordinate
    and the row of weights summing to 1."""
    lps = []
    check = polytope_module.feasible
    monkeypatch.setattr(polytope_module, "feasible", lambda lp: lps.append(lp) or check(lp))
    for name in ("Z(K4)", "U(2,5)"):
        p = families[name]
        lps.clear()
        assert polytope(zip(p.vertex_ids, p.coords)) == p
        assert p.hull_dim < p.dim and len(lps) == len(p.vertex_ids), name
        assert all(len(lp.eq) == p.hull_dim + 1 and not lp.le for lp in lps), name


def test_supporting_functional_agrees_with_midpoint_route(cp):
    for name in ("square", "triangle", "hexagon", "triangular_cupola"):
        p = cp[name].polytope
        es = set(edges(p))
        for u, v in itertools.combinations(p.vertex_ids, 2):
            on_edge = edge_key(u, v) in es
            assert supporting_functional_is_edge(p, u, v) == on_edge
            assert midpoint_is_edge(p, u, v) == on_edge


def test_edges_match_lp_oracle_on_corpus(cp):
    for name, e in cp.items():
        if e.polytope is not None:
            assert edges(e.polytope) == lp_edges(e.polytope), name


@pytest.mark.parametrize("name", ["P_1,4", "Q_1,4", "U(2,5)", "M(K4)", "Z(K4)"])
def test_edges_match_lp_oracle_on_families(families, name):
    p = families[name]
    assert edges(p) == lp_edges(p)


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_edges_match_lp_oracle_on_degenerate_inputs(name):
    p = polytope(DEGENERATE[name])
    assert edges(p) == lp_edges(p)
    n = len(p.vertex_ids)
    assert len(edges(p)) == (1 if n == 2 else n)  # a segment, or a 5-gon


def test_facet_normals_support_exactly_their_facets(cp, families):
    polys = {name: e.polytope for name, e in cp.items() if e.polytope is not None}
    polys.update(families)
    polys.update({name: polytope(pts) for name, pts in DEGENERATE.items()})
    for name, p in polys.items():
        for f in facets(p):
            for v, x in zip(p.vertex_ids, p.coords):
                value = vec_dot(f.normal, x)
                assert value <= f.offset, (name, sorted(f.vertex_ids), v)
                assert (value == f.offset) == (v in f.vertex_ids), (name, sorted(f.vertex_ids), v)


def test_hull_frame_coordinates_solve_the_basis_system(cp):
    """Each vertex's hull coordinates are the unique solution of
    B^T y = x - base, solved here one vertex at a time."""
    for name, e in cp.items():
        p = e.polytope
        if p is None:
            continue
        base, basis, ys = p.hull_frame
        h = p.hull_dim
        assert h == len(basis), name
        for x, y in zip(p.coords, ys):
            target = vec_sub(x, base)
            aug = [[b[i] for b in basis] + [target[i]] for i in range(p.dim)]
            reduced, pivots = rref(aug, h + 1)
            assert pivots == list(range(h)), name
            assert y == tuple(reduced[i][h] for i in range(h)), name


def test_hull_frame_of_no_points_and_of_one_point():
    empty = Framework((), (), ())
    assert empty.hull_frame == ((), (), ()) and empty.hull_dim == 0
    assert deformation_space(empty).basis == ()
    one = (Fraction(1), Fraction(-2))
    for p in (framework({"a": one}, []), polytope({"a": one})):
        assert p.hull_frame == (one, (), ((),)) and p.hull_dim == 0
    assert deformation_space(framework({"a": one}, [])).basis == ()


def test_framework_and_polytope_on_the_same_points_share_the_frame(cp, families):
    """`framework_of` hands its framework the polytope's frame itself, and
    that frame is the one the framework would compute on its own."""
    polys = [e.polytope for e in cp.values() if e.polytope is not None] + list(families.values())
    for p in polys:
        fw = framework_of(p)
        assert fw.hull_frame is p.hull_frame and fw.hull_dim == p.hull_dim
        assert Framework(fw.vertex_ids, fw.coords, fw.edges).hull_frame == p.hull_frame


def test_cached_facts_leave_identity_alone(cp):
    """Reading a point set's cached facts stores nothing that equality or
    hashing sees, so a fresh copy still meets the caches keyed by it."""
    p = cp["hexagon"].polytope
    read = PolytopeV(p.vertex_ids, p.coords)
    assert read.points is read.points
    assert read.hull_dim == 2
    fw = Framework(read.vertex_ids, read.coords, edges(read))
    assert fw.points == read.points and fw.hull_frame == read.hull_frame
    for cached, old, fresh in (
        (edges, read, PolytopeV(p.vertex_ids, p.coords)),
        (facets, read, PolytopeV(p.vertex_ids, p.coords)),
        (deformation_space, fw, Framework(fw.vertex_ids, fw.coords, fw.edges)),
    ):
        assert old == fresh and hash(old) == hash(fresh)
        want = cached(old)
        hits = cached.cache_info().hits
        assert cached(fresh) is want
        assert cached.cache_info().hits == hits + 1


def test_deformed_permutahedron_checks(cp):
    assert is_deformed_permutahedron(cp["hexagon"].polytope)
    cube = cp["cube"].polytope
    assert not is_deformed_permutahedron(cube)
    # the witness: a cube edge runs along one coordinate axis, no e_i - e_j
    witness = [e for e in edges(cube) if sum(x != 0 for x in cube.edge_vector(e)) != 2]
    assert len(witness) == 12
    for kind, n, m in (("P", 3, 1), ("Q", 2, 2)):
        tr = bipartite_truncation(n, m, kind)
        assert is_deformed_permutahedron(tr.polytope)


def test_matroid_homothet_examples(cp):
    # persimmon: some coordinate takes in-degrees 0, 1, 2
    p22 = bipartite_truncation(2, 2, "P")
    assert matroid_homothet(p22.polytope) is False
    # the octahedron member is the matroid polytope of U(2,4)
    q31 = bipartite_truncation(3, 1, "Q")
    assert matroid_homothet(q31.polytope) is True
    # 0/1 coordinates, but the cube's edges are the unit vectors
    assert matroid_homothet(cp["cube"].polytope) is False


def test_pq_verdict_table():
    """The small-member table: indecomposability and the matroid decision."""
    from defocone.framework import is_indecomposable

    expectations = {
        ("P", 1, 1): (True, True),
        ("P", 1, 2): (True, True),
        ("P", 1, 3): (True, False),
        ("P", 2, 2): (True, False),
        ("Q", 1, 3): (True, True),
        ("Q", 2, 2): (False, False),
    }
    for (kind, n, m), (indec, matroid) in expectations.items():
        tr = bipartite_truncation(n, m, kind)
        assert is_indecomposable(tr.framework) == indec, (kind, n, m)
        assert matroid_homothet(tr.polytope) == matroid, (kind, n, m)


def homothet_of_a_matroid_polytope(p) -> bool:
    """Brute-force reference for `matroid_homothet`: is p = s·Q + t for a
    0/1 polytope Q whose edges are all parallel to some e_i − e_j?

    t may be the least value of each coordinate, since a coordinate of Q
    that is 1 throughout may as well be 0 throughout; then s is one of the
    positive gaps, and each is tried.  Q is an affine image of p, so its
    points are its vertices, and its edges are found afresh."""
    low = [min(c[i] for c in p.coords) for i in range(p.dim)]
    for s in {c[i] - low[i] for c in p.coords for i in range(p.dim)} - {0} or {1}:
        q = PolytopeV(*labelled_points({v: [(x - t) / s for x, t in zip(p.point(v), low)] for v in p.vertex_ids}))
        if all(x in (0, 1) for c in q.coords for x in c) and all(
            sorted(x for x in vec_sub(q.point(u), q.point(v)) if x) == [-1, 1] for u, v in edges(q)
        ):
            return True
    return False


def _moved(p, point_map) -> PolytopeV:
    return PolytopeV(*labelled_points({v: point_map(p.point(v)) for v in p.vertex_ids}))


def matroid_inputs():
    """(name, polytope, the known decision or None) as pytest params for the
    corpus polytopes, the P/Q members with N <= 5, matroid polytopes under
    seeded dilations and translations, each of those with the upper value
    of one coordinate moved, and a product of two segments of different
    lengths: a deformed permutahedron with two gaps."""
    out = [(name, e.polytope, None) for name, e in sorted(corpus().items()) if e.polytope is not None]
    known = {"P_1,2": True, "Q_1,3": True, "P_1,3": False, "P_2,2": False, "P_1,4": False,
             "Q_1,4": False, "P_2,3": False, "Q_2,3": False, "triangle": False}
    for total in range(2, 6):
        for n in range(1, total // 2 + 1):
            for kind in ("P", "Q") if n * (total - n) > 2 else ("P",):
                out.append((f"{kind}_{n},{total - n}", bipartite_truncation(n, total - n, kind).polytope, None))
    u12 = uniform_matroid(1, 2)
    matroids = {"U(2,4)": uniform_matroid(2, 4), "U(2,5)": uniform_matroid(2, 5),
                "M(K4)": graphic_matroid(complete_graph(4)),
                **{f"U(1,2)^{r}": matroid_direct_sum(*[u12] * r) for r in (1, 2, 3)}}
    rng = random.Random(30)
    for name, mb in matroids.items():
        p = matroid_polytope(mb).polytope
        s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        t = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(p.dim)]
        image = _moved(p, lambda c: [s * x + ti for x, ti in zip(c, t)])
        out.append((f"{name} dilated", image, True))
        i = rng.choice([i for i in range(p.dim) if len({c[i] for c in p.coords}) == 2])
        hi = max(c[i] for c in image.coords)
        out.append((f"{name} dilated, coordinate {i} moved", _moved(image, lambda c: [
            x + s / 2 if k == i and x == hi else x for k, x in enumerate(c)]), False))
    two = matroid_polytope(matroid_direct_sum(u12, u12)).polytope
    out.append(("U(1,2) x 2U(1,2)", _moved(two, lambda c: [c[0], c[1], 2 * c[2], 2 * c[3]]), False))
    return [pytest.param(p, known.get(name, want), id=name) for name, p, want in out]


@pytest.mark.parametrize("p, want", matroid_inputs())
def test_matroid_homothet_matches_the_brute_force_reference(p, want):
    got = matroid_homothet(p)
    assert got == homothet_of_a_matroid_polytope(p)
    if want is not None:
        assert got is want
