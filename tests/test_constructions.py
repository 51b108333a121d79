"""Family generators: zonotopes, truncations, wedges, matroids, sums."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from defocone import constructions, graphs
from defocone.constructions import (
    MatroidBases,
    SimpleGraph,
    _bits_label,
    acyclic_orientations,
    bipartite_truncation,
    bipartite_zonotope_facet_count,
    complete_bipartite,
    complete_graph,
    deep_truncate,
    graph,
    graphic_matroid,
    graphical_zonotope,
    hyperorder_polytope,
    matroid_direct_sum,
    matroid_polytope,
    minkowski_sum_labeled,
    parallelogramic_position,
    permutahedral_wedge,
    product_polytope,
    stack_vertex,
    uniform_matroid,
    verify_exchange,
    zonotope,
)
from defocone.cones import block_rays, factorization, is_implicit_edge
from defocone.corpus import corpus
from defocone.ddcore import canonical_ray
from defocone.errors import InputError, ResourceLimitError
from defocone.exact import is_zero_vec, parallel, vec_sub
from defocone.framework import (
    components,
    dc_dimension,
    deformation_space,
    edge_key,
    is_indecomposable,
    realize,
)
from defocone.polytope import edges, f_vector, faces, facets, framework_of, polytope


def test_acyclic_orientation_counts():
    assert len(acyclic_orientations(complete_graph(3))) == 6
    c4 = graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert len(acyclic_orientations(c4)) == 14
    assert len(acyclic_orientations(complete_bipartite(2, 2))) == 14


def _no_graph(*args):
    raise AssertionError("a graph was built")


@pytest.mark.parametrize("family, sizes", [
    (complete_graph, (14,)),
    (complete_graph, (3000,)),
    (complete_bipartite, (7, 7)),
    (complete_bipartite, (1, 2999)),
], ids=["K14", "K3000", "K7,7", "K1,2999"])
def test_oversized_graph_families_are_refused_before_any_arc(monkeypatch, family, sizes):
    """A connected graph on V nodes has at least 2^(V - 1) acyclic
    orientations, so past MAX_ORIENTATIONS = 5000 (V >= 14) the family is
    refused before `graph` lists an arc."""
    monkeypatch.setattr(constructions, "graph", _no_graph)
    with pytest.raises(ResourceLimitError, match="too many acyclic orientations"):
        family(*sizes)


def test_graph_families_at_the_orientation_bound():
    # 13 nodes: 2^12 = 4096 <= 5000, so the families are still built
    assert len(complete_graph(13).arcs) == 78
    assert len(complete_bipartite(6, 7).arcs) == 42


def _brute_force_orientations(g):
    """The direction bits, in lexicographic order, of every one of the 2^E
    orientations under which Kahn's algorithm removes every node."""
    out = []
    for bits in itertools.product((False, True), repeat=len(g.arcs)):
        succ = {x: [] for x in g.nodes}
        indeg = Counter()
        for (u, v), forward in zip(g.arcs, bits):
            a, b = (u, v) if forward else (v, u)
            succ[a].append(b)
            indeg[b] += 1
        ready = [x for x in g.nodes if indeg[x] == 0]
        for x in ready:
            for y in succ[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    ready.append(y)
        if len(ready) == len(g.nodes):
            out.append(bits)
    return out


ORIENTATION_GRAPHS = {
    **{f"K{n}": complete_graph(n) for n in range(1, 7)},
    **{f"K{n},{m}": complete_bipartite(n, m) for n in range(1, 4) for m in range(1, 6)},
    "C4": graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]),
}


@pytest.mark.parametrize("name", ORIENTATION_GRAPHS)
def test_acyclic_orientations_match_brute_force_within_the_bound(monkeypatch, name):
    """The search lists exactly the acyclic orientations, and its bound is at
    most their number: with the limit set to that number, it still runs."""
    g = ORIENTATION_GRAPHS[name]
    want = _brute_force_orientations(g)
    monkeypatch.setattr(constructions, "MAX_ORIENTATIONS", len(want))
    assert acyclic_orientations(g) == want


def _count_searches(monkeypatch) -> list:
    calls = []
    search = graphs.bfs_parents

    def counted(adj, roots):
        calls.append(tuple(roots))
        return search(adj, roots)

    monkeypatch.setattr(graphs, "bfs_parents", counted)
    return calls


@pytest.mark.parametrize("g", [complete_graph(7), complete_graph(13), complete_bipartite(6, 7)],
                         ids=["K7", "K13", "K6,7"])
def test_orientation_bound_refuses_before_the_search(monkeypatch, g):
    """7! = 5040 and 2^7 * 8^5 exceed 5000: the one breadth-first search
    that orders the nodes runs, and no reachability test after it."""
    calls = _count_searches(monkeypatch)
    with pytest.raises(ResourceLimitError, match="too many acyclic orientations"):
        acyclic_orientations(g)
    assert calls == [g.nodes]


def test_orientation_bound_is_n_factorial_on_complete_graphs(monkeypatch):
    for n in range(1, 7):
        g = ORIENTATION_GRAPHS[f"K{n}"]
        monkeypatch.setattr(constructions, "MAX_ORIENTATIONS", math.factorial(n) - 1)
        calls = _count_searches(monkeypatch)
        with pytest.raises(ResourceLimitError):
            acyclic_orientations(g)
        assert calls == [g.nodes], n


def test_graphical_zonotopes():
    star = graphical_zonotope(complete_bipartite(1, 3))
    assert len(star.polytope.vertex_ids) == 8  # a 3-cube
    assert dc_dimension(star.framework()) == 3
    hexa = graphical_zonotope(complete_graph(3))
    assert len(hexa.polytope.vertex_ids) == 6
    k22 = graphical_zonotope(complete_bipartite(2, 2))
    assert len(k22.polytope.vertex_ids) == 14
    # combinatorial skeleton agrees with LP edge detection
    assert set(star.skeleton) == set(edges(star.polytope))
    assert set(hexa.skeleton) == set(edges(hexa.polytope))


def test_bipartite_truncations():
    p31 = bipartite_truncation(3, 1, "P")
    assert len(p31.polytope.vertex_ids) == 7
    q31 = bipartite_truncation(3, 1, "Q")
    assert len(q31.polytope.vertex_ids) == 6
    q22 = bipartite_truncation(2, 2, "Q")
    assert len(q22.polytope.vertex_ids) == 12
    for tr in (p31, q31, q22):
        assert set(tr.framework.edges) == set(edges(tr.polytope))
    with pytest.raises(InputError):
        bipartite_truncation(1, 2, "Q")  # needs n*m > 2


def _truncation_f_vector(n, m, kind):
    return f_vector(bipartite_truncation(n, m, kind).polytope)


def test_truncation_f_vectors():
    assert _truncation_f_vector(3, 1, "P") == (7, 12, 7)
    assert _truncation_f_vector(2, 2, "P") == (13, 24, 13)
    assert _truncation_f_vector(1, 4, "P") == (15, 34, 28, 9)
    assert _truncation_f_vector(2, 3, "P") == (45, 111, 89, 23)


def test_euler_relation_on_f_vectors():
    for n, m, kind in ((3, 1, "P"), (2, 2, "P"), (1, 4, "P"), (2, 3, "P"), (2, 2, "Q")):
        f = _truncation_f_vector(n, m, kind)
        assert sum((-1) ** i * c for i, c in enumerate(f)) == 1 - (-1) ** len(f)


# ---------------------------------------------------------------------------
# reference face enumeration of the truncated bipartite zonotopes: ordered
# connected partitions with acyclic orientations, independent of the facets


def _connected_partitions(g: SimpleGraph):
    """All partitions of the node set into connected parts."""
    adj = graphs.adjacency(g.nodes, g.arcs)

    def split(rest):
        if not rest:
            yield []
            return
        first, others = rest[0], rest[1:]
        for r in range(len(others) + 1):
            for extra in itertools.combinations(others, r):
                part = {first, *extra}
                if len(graphs.components(part, adj)) != 1:
                    continue
                remaining = tuple(x for x in others if x not in part)
                for tail in split(remaining):
                    yield [frozenset(part)] + tail

    yield from split(tuple(g.nodes))


def _acyclic_sub_orientations(arcs):
    """Orientation maps arc -> bool over the given arcs, acyclic within."""
    if not arcs:
        return [{}]
    sub = graph({n for a in arcs for n in a}, arcs)
    return [dict(zip(sub.arcs, bits)) for bits in acyclic_orientations(sub)]


def zonotope_faces(g: SimpleGraph) -> set[frozenset[str]]:
    """Vertex sets of all nonempty faces, via ordered partitions: connected
    node partitions with an acyclic orientation of the contraction."""
    arc_index = {a: i for i, a in enumerate(g.arcs)}
    out = set()
    for parts in _connected_partitions(g):
        part_of = {n: i for i, part in enumerate(parts) for n in part}
        q = graph(
            [str(i) for i in range(len(parts))],
            {edge_key(str(part_of[u]), str(part_of[v])) for u, v in g.arcs if part_of[u] != part_of[v]},
        )
        inner = [a for a in g.arcs if part_of[a[0]] == part_of[a[1]]]
        inner_orients = _acyclic_sub_orientations(inner)
        for qbits in acyclic_orientations(q):
            qdir = dict(zip(q.arcs, qbits))
            members = set()
            for sub in inner_orients:
                bits = [None] * len(g.arcs)
                for a, forward in sub.items():
                    bits[arc_index[a]] = forward
                for a in g.arcs:
                    if bits[arc_index[a]] is None:
                        pu, pv = str(part_of[a[0]]), str(part_of[a[1]])
                        forward_q = qdir[edge_key(pu, pv)]
                        bits[arc_index[a]] = forward_q if pu < pv else not forward_q
                members.add(_bits_label(tuple(bits)))
            out.add(frozenset(members))
    return out


def _simplex_product_faces(n: int, m: int, reversed_label) -> set[frozenset[str]]:
    """Faces of the fresh simplex-product facet: nonempty A x B blocks."""
    out = set()
    for ra in range(1, n + 1):
        for rb in range(1, m + 1):
            for A in itertools.combinations(range(n), ra):
                for B in itertools.combinations(range(m), rb):
                    out.add(frozenset(reversed_label(i, j) for i in A for j in B))
    return out


def reference_truncation_faces(n: int, m: int, kind: str) -> set[frozenset[str]]:
    """Zonotope faces with the truncated vertices deleted, plus the faces of
    the fresh simplex-product facets."""
    g = complete_bipartite(n, m)
    arc_index = {a: i for i, a in enumerate(g.arcs)}
    specials = [tuple(True for _ in g.arcs)] + ([tuple(False for _ in g.arcs)] if kind == "Q" else [])
    removed = {_bits_label(special) for special in specials}
    out = {f - removed for f in zonotope_faces(g)} - {frozenset()}
    for special in specials:

        def rev_label(i, j, special=special):
            k = arc_index[edge_key(f"a{i + 1}", f"b{j + 1}")]
            return _bits_label(special[:k] + (not special[k],) + special[k + 1 :])

        out |= _simplex_product_faces(n, m, rev_label)
    return out


SMALL_MEMBERS = [
    (n, m, kind)
    for n in range(1, 5)
    for m in range(1, 6 - n)
    for kind in ("P", "Q")
    if kind == "P" or n * m > 2
]


def test_faces_match_ordered_partition_reference():
    """Facet intersections give exactly the faces of the ordered-partition
    enumeration, set for set, on every member with n + m <= 5."""
    assert len(SMALL_MEMBERS) == 17
    for n, m, kind in SMALL_MEMBERS:
        tr = bipartite_truncation(n, m, kind)
        assert set(faces(tr.polytope)) == reference_truncation_faces(n, m, kind), (kind, n, m)


def test_f_vector_small_cases_and_euler_on_corpus():
    assert f_vector(polytope({"a": (1, 2, 3)})) == ()
    assert f_vector(polytope({"a": (0, 0, 0), "b": (1, 2, 3)})) == (2,)
    square = polytope({"a": (0, 0, 1), "b": (1, 0, 1), "c": (1, 1, 1), "d": (0, 1, 1)})
    assert f_vector(square) == (4, 4)
    for name, entry in sorted(corpus().items()):
        if entry.polytope is None:
            continue
        f = f_vector(entry.polytope)
        assert sum((-1) ** i * c for i, c in enumerate(f)) == 1 - (-1) ** len(f), name


def test_facet_count_two_ways():
    """Complement-connected subgraph count equals the working facet count
    (checked against the face machinery on the small members)."""
    for n, m in ((1, 1), (1, 2), (2, 2), (1, 3)):
        enum = bipartite_zonotope_facet_count(n, m)
        z = graphical_zonotope(complete_bipartite(n, m))
        if len(z.polytope.vertex_ids) > 1:
            assert enum == len(facets(z.polytope))


def test_corrected_facet_count_closed_form():
    """facets = 2^N + 2N + 2 - 2(2^n + 2^m) + 2 [n >= 2][m >= 2]."""
    for n in range(1, 4):
        for m in range(n, 7 - n):
            big = n + m
            closed = 2**big + 2 * big + 2 - 2 * (2**n + 2**m)
            if n >= 2 and m >= 2:
                closed += 2
            assert closed == bipartite_zonotope_facet_count(n, m), (n, m)


def test_wedge_vertices_and_preservation():
    point = polytope({"p": (3,)})
    w = permutahedral_wedge(point, 1)
    assert len(w.vertex_ids) == 1  # the lifted copy of the extreme vertex
    sq = polytope({"a": (0, 0), "b": (1, 0), "c": (1, 1), "d": (0, 1)})
    w = permutahedral_wedge(sq, 1, "min")
    assert len(w.vertex_ids) == 6  # a triangular prism
    assert not is_indecomposable(framework_of(w))
    p13 = bipartite_truncation(1, 3, "P")
    w1 = permutahedral_wedge(p13.polytope, 1, "min")
    low = min(c[0] for c in p13.polytope.coords)
    dupes = sum(1 for c in p13.polytope.coords if c[0] == low)
    assert len(w1.vertex_ids) == 2 * 7 - dupes
    assert is_indecomposable(framework_of(w1))


def test_matroid_polytopes():
    u24 = matroid_polytope(uniform_matroid(2, 4))
    assert len(u24.polytope.vertex_ids) == 6  # octahedron
    assert len(u24.components) == 1
    assert is_indecomposable(u24.framework)
    assert set(u24.framework.edges) == set(edges(u24.polytope))
    two_segments = matroid_polytope(matroid_direct_sum(uniform_matroid(1, 2), uniform_matroid(1, 2)))
    assert len(two_segments.polytope.vertex_ids) == 4  # a square
    assert len(two_segments.components) == 2
    assert dc_dimension(two_segments.framework) == 2
    k4 = matroid_polytope(graphic_matroid(complete_graph(4)))
    assert len(k4.polytope.vertex_ids) == 16  # one vertex per spanning tree
    assert len(k4.components) == 1 and is_indecomposable(k4.framework)
    with pytest.raises(InputError, match="connected graph"):
        graphic_matroid(graph("abcd", [("a", "b"), ("c", "d")]))  # no spanning tree


def test_matroid_ground_set_guard():
    """One coordinate per element: a ground set past the polytope guard's
    dimension is refused before any basis is listed."""
    assert len(uniform_matroid(4, 8).bases) == 70
    for k, n in ((0, 9), (1, 100000), (0, 100000)):
        with pytest.raises(ResourceLimitError, match=f"{n} elements"):
            uniform_matroid(k, n)
    with pytest.raises(ResourceLimitError, match="10 elements"):
        graphic_matroid(complete_graph(5))
    with pytest.raises(ResourceLimitError, match="9 elements"):
        matroid_direct_sum(uniform_matroid(2, 4), uniform_matroid(2, 5))


def test_exchange_axiom_rejection():
    bad = MatroidBases(
        ("a", "b", "c", "d"),
        frozenset({frozenset({"a", "b"}), frozenset({"c", "d"})}),
    )
    assert not verify_exchange(bad)
    with pytest.raises(InputError):
        matroid_polytope(bad)


def test_loops_and_coloops_are_isolated_components():
    # a coloop: appears in every basis, forming its own component
    mb = MatroidBases(
        ("a", "b", "x"),
        frozenset({frozenset({"a", "x"}), frozenset({"b", "x"})}),
    )
    mp = matroid_polytope(mb)
    assert frozenset({"x"}) in mp.components
    assert len(mp.components) == 2
    assert dc_dimension(mp.framework) == 1  # the polytope is a segment


def test_deep_truncation():
    # truncating a cube corner gives the (7, 12, 7) polytope
    cube = polytope({f"c{x}{y}{z}": (x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)})
    dt = deep_truncate(cube, ["c000"])
    assert len(dt.vertex_ids) == 7
    assert len(edges(dt)) == 12 and len(facets(dt)) == 7
    # all three edge classes meet at the corner, so Omega = 1 bounds dc by 1
    z = zonotope([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert z.class_components([[e for e in edges(z.polytope) if "z000" in e]]) == 1
    assert is_indecomposable(framework_of(deep_truncate(z.polytope, ["z000"])))
    assert z.class_components([]) == 3
    # a vertex with one incident edge too long has non-coplanar neighbors
    lopsided = zonotope([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -2, 2)])
    with pytest.raises(InputError):
        deep_truncate(lopsided.polytope, ["z0000"])
    z13 = graphical_zonotope(complete_bipartite(1, 3))
    with pytest.raises(InputError):
        deep_truncate(z13.polytope, ["o111", "o110"])  # adjacent pair


def test_stacking():
    cube = zonotope([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    fs = facets(cube.polytope)
    top = next(f for f in fs if all(cube.polytope.point(v)[2] == 1 for v in f.vertex_ids))
    es = edges(cube.polytope)

    def gamma(stacked):
        return cube.class_components([e for e in es if set(e) <= f.vertex_ids] for f in stacked)

    stk = stack_vertex(cube.polytope, [top.vertex_ids])
    assert gamma([top]) == 2
    assert not is_indecomposable(framework_of(stk))  # a vertical segment survives
    x1 = next(f for f in fs if all(cube.polytope.point(v)[0] == 1 for v in f.vertex_ids))
    y1 = next(f for f in fs if all(cube.polytope.point(v)[1] == 1 for v in f.vertex_ids))
    stk2 = stack_vertex(cube.polytope, [x1.vertex_ids, y1.vertex_ids])
    assert gamma([x1, y1]) == 1
    assert is_indecomposable(framework_of(stk2))


def test_stacked_points_are_reproducible():
    cube = zonotope([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    fs = facets(cube.polytope)
    top = next(f for f in fs if all(cube.polytope.point(v)[2] == 1 for v in f.vertex_ids))
    a = stack_vertex(cube.polytope, [top.vertex_ids])
    b = stack_vertex(cube.polytope, [top.vertex_ids])
    assert a == b


def test_hyperorder():
    seg = hyperorder_polytope(2, 1)
    assert len(seg.vertex_ids) == 2
    assert is_indecomposable(framework_of(seg))
    p42 = hyperorder_polytope(4, 2)
    assert is_indecomposable(framework_of(p42))
    apexish = hyperorder_polytope(3, 3)
    assert len(apexish.vertex_ids) == 1
    # the extreme vertex is adjacent to every other vertex
    apex = (Fraction(0),) * 2 + (Fraction(1),) * 2
    label = next(v for v in p42.vertex_ids if p42.point(v) == apex)
    incident = sum(1 for e in edges(p42) if label in e)
    assert incident == len(p42.vertex_ids) - 1


def _no_fraction(*args):
    raise AssertionError("a point was listed")


@pytest.mark.parametrize("n, k", [(9, 9), (100000, 1)])
def test_hyperorder_is_refused_above_the_dimension_guard(monkeypatch, n, k):
    """The points lie in R^n, so n > MAX_DIM is refused before any is listed."""
    monkeypatch.setattr(constructions, "Fraction", _no_fraction)
    with pytest.raises(ResourceLimitError, match=f"dimension {n} exceeds 8"):
        hyperorder_polytope(n, k)


def test_products():
    seg = polytope({"x": (0,), "y": (1,)})
    sq = product_polytope(seg, seg)
    assert len(sq.vertex_ids) == 4 and dc_dimension(framework_of(sq)) == 2
    tri = polytope({"a": (0, 0), "b": (1, 0), "c": (0, 1)})
    prism = product_polytope(tri, seg)
    assert len(prism.vertex_ids) == 6 and dc_dimension(framework_of(prism)) == 2
    t2 = product_polytope(tri, tri)
    assert len(t2.vertex_ids) == 9 and dc_dimension(framework_of(t2)) == 2
    # a "u|w" or "u+v" label that two vertex pairs share is refused, not merged
    a, b = polytope({"x|": (0, 0), "x": (1, 0)}), polytope({"y": (0, 0), "|y": (0, 1)})
    with pytest.raises(InputError, match="^duplicate vertex label$"):
        product_polytope(a, b)  # ("x|", "y") and ("x", "|y") are both x||y
    a, b = polytope({"x+": (0, 0), "x": (1, 0)}), polytope({"y": (0, 0), "+y": (0, 1)})
    with pytest.raises(InputError, match="^duplicate vertex label$"):
        minkowski_sum_labeled(a, b)  # ("x+", "y") and ("x", "+y") are both x++y


def _sum_law(a, b):
    """factorization() of the labelled Minkowski sum of a and b."""
    s = minkowski_sum_labeled(a, b)
    return factorization(framework_of(s.polytope), s.provenance, framework_of(a), framework_of(b))


def test_parallelogramic_sums():
    t1 = polytope({"a": (0, 0, 0), "b": (1, 0, 0), "c": (Fraction(1, 2), 0, 1)})
    t2 = polytope({"a": (0, 0, 0), "b": (0, 1, 0), "c": (0, Fraction(1, 2), -1)})
    assert parallelogramic_position(t1, t2) == (True, None)
    assert _sum_law(t1, t2) == ((1, 1, 2), True)
    s1 = polytope({"a": (0, 0, 0), "b": (1, 0, 0)})
    s2 = polytope({"a": (0, 0, 0), "b": (2, 0, 0)})
    ok, reason = parallelogramic_position(s1, s2)
    assert not ok and "parallel" in reason
    assert _sum_law(s1, s2) == ((1, 1, 1), False)  # the sum's one edge translates neither
    # a triangle plus its negative is a hexagon with dc 4, not 1 + 1
    tri = polytope({"a": (0, 0), "b": (1, 0), "c": (0, 1)})
    neg = polytope({"a": (0, 0), "b": (-1, 0), "c": (0, -1)})
    assert not parallelogramic_position(tri, neg)[0]
    assert _sum_law(tri, neg)[0] == (1, 1, 4)


def test_triangle_free_simpliciality():
    # triangle-free: the complete bipartite zonotope is simplicial with one
    # ray per arc
    z = graphical_zonotope(complete_bipartite(2, 2))
    rays = block_rays(z.framework())
    assert None not in rays and len(rays) == 4
    hexa = graphical_zonotope(complete_graph(3))
    assert None in block_rays(hexa.framework())


def test_zonotope_generator_guard():
    gens = [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 2, 3), (2, 1, 5), (1, 3, 1), (3, 1, 2)]
    with pytest.raises(ResourceLimitError):
        zonotope(gens)


def test_wedge_preservation_on_corpus():
    """Wedging keeps the edge-direction property, and wedges of
    indecomposable members stay indecomposable."""
    from defocone.polytope import is_deformed_permutahedron

    cp = corpus()
    for name in ("hexagon", "p_3_1", "q_3_1"):
        p = cp[name].polytope
        assert is_deformed_permutahedron(p)
        for side in ("min", "max"):
            w = permutahedral_wedge(p, 1, side)
            assert is_deformed_permutahedron(w), (name, side)
            if cp[name].expected.get("indecomposable"):
                assert is_indecomposable(framework_of(w)), (name, side)


def _wedge_tower(base, moves):
    """Iterated permutahedral wedges; moves are (coordinate, side) pairs."""
    for i, side in moves:
        base = permutahedral_wedge(base, i, side)
    return base


def _normal_fingerprint(p):
    """A cheap invariant separating non-normally-equivalent polytopes: the
    vertex and edge counts and the facet-normal multiset up to positive
    scaling."""
    dirs = Counter(canonical_ray(f.normal) for f in facets(p))
    return len(p.vertex_ids), len(edges(p)), tuple(sorted(dirs.items()))


def test_wedge_tower_spot_checks():
    """Short towers over the seven-vertex member stay indecomposable
    deformed permutahedra and are separated by cheap fingerprints."""
    from defocone.polytope import is_deformed_permutahedron

    base = bipartite_truncation(1, 3, "P").polytope
    towers = {
        "11": _wedge_tower(base, [(1, "min"), (1, "min")]),
        "12": _wedge_tower(base, [(1, "min"), (2, "min")]),
        "21max": _wedge_tower(base, [(2, "min"), (1, "max")]),
    }
    prints = {}
    for name, t in towers.items():
        assert is_indecomposable(framework_of(t)), name
        assert is_deformed_permutahedron(t), name
        prints[name] = _normal_fingerprint(t)
    assert len(set(prints.values())) == len(prints)


def _implicit_condition_gap(fw, u, v):
    """True for the curious case where every deformation in the linear span
    moves v-u along its base direction, yet `is_implicit_edge` finds the
    induced factor negative somewhere on the cone."""
    if edge_key(u, v) in fw.edges or not any({u, v} <= set(c) for c in components(fw)):
        return False
    base = vec_sub(fw.point(v), fw.point(u))
    for b in deformation_space(fw).basis:
        pos = realize(fw, b)
        diff = vec_sub(pos[v], pos[u])
        if not parallel(base, diff) or (is_zero_vec(base) and not is_zero_vec(diff)):
            return False
    return not is_implicit_edge(fw, u, v)


def test_implicit_condition_gap_scan():
    """The two nonnegativity conditions never split on this corpus; any
    future hit is interesting enough to fail loudly here."""
    cp = corpus()
    hits = []
    for name in ("trapezoid", "hexagon", "square", "kallay_coplanar", "q_2_2"):
        fw = cp[name].framework
        for u, v in itertools.combinations(fw.vertex_ids, 2):
            if _implicit_condition_gap(fw, u, v):
                hits.append((name, u, v))
    assert hits == []


def test_mixed_matroid_direct_sums():
    pieces = {
        "U23+U24": (uniform_matroid(2, 3), uniform_matroid(2, 4)),
        "U12+U23": (uniform_matroid(1, 2), uniform_matroid(2, 3)),
    }
    for label, parts in pieces.items():
        mp = matroid_polytope(matroid_direct_sum(*parts))
        assert len(mp.components) == len(parts), label
        assert dc_dimension(mp.framework) == len(parts), label
