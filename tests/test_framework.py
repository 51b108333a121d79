"""Framework semantics: cycle equations, placement, oracle, partitions."""

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defocone.framework
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
from defocone.errors import InputError, ResourceLimitError
from defocone.exact import in_span, nullspace, rank, rref, vec_scale, vec_sub
from defocone.framework import (
    Framework,
    _edge_order_basis,
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
)
from defocone.report import DEDUCTION_PROVABLE
from test_exact import cycle_system_kernels


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


def _assert_hull_rows_agree(fw):
    """The hull frame is the reduced point differences with the points read
    at its pivot columns, and `nullspace` of the hull rows as built is the
    reference basis, the reduced form's kernel of every ambient
    coordinate's rows, Fraction for Fraction.  Returns the basis size and
    whether rows were left out in hull coordinates."""
    base = fw.coords[0]
    basis, pivots = rref([vec_sub(c, base) for c in fw.coords[1:]], fw.dim)
    ys = tuple(tuple(c[k] - base[k] for k in pivots) for c in fw.coords)
    assert fw.hull_frame == (base, tuple(basis), ys)
    assert fw.hull_dim == len(pivots)
    reference, kernel, shorter = cycle_system_kernels(fw)
    assert kernel == reference
    assert all(type(x) is Fraction for v in kernel for x in v)
    return len(reference), shorter


def _assert_chord_first_basis(fw):
    """The chord-first elimination, read back in edge order, is the
    reference basis, Fraction for Fraction."""
    basis = deformation_space(fw).basis
    assert basis == cycle_system_kernels(fw)[0]
    assert all(type(x) is Fraction for v in basis for x in v)


def _family_frameworks() -> dict:
    """P/Q for n <= 2, m <= 3, the K4 and K2,3 zonotopes, U(2,5) and M(K4)."""
    out = {f"{kind}_{n}_{m}": bipartite_truncation(n, m, kind).framework
           for kind in "PQ" for n in (1, 2) for m in (1, 2, 3) if kind == "P" or n * m > 2}
    out["zono_k4"] = graphical_zonotope(complete_graph(4)).framework()
    out["zono_k2_3"] = graphical_zonotope(complete_bipartite(2, 3)).framework()
    out["u_2_5"] = matroid_polytope(uniform_matroid(2, 5)).framework
    out["m_k4"] = matroid_polytope(graphic_matroid(complete_graph(4))).framework
    return out


def _named_frameworks(cp) -> dict:
    """The corpus, the collapsed cube, the families and DEDUCTION_PROVABLE, by name."""
    out = {name: e.framework for name, e in cp.items()}
    out["collapsed_cube"] = _collapsed_cube()
    out.update(_family_frameworks())
    out.update({f"{kind}_{n}_{m}": bipartite_truncation(n, m, kind).framework for kind, n, m in DEDUCTION_PROVABLE})
    return out


def _small_cases() -> dict:
    """Hand-made frameworks: a degenerate chord, a degenerate tree edge, a
    triangle beside a lone vertex, a tree, and no edges."""
    return {
        "degenerate chord": framework({"a": (0, 0), "b": (1, 0), "c": (1, 0)}, [("a", "b"), ("a", "c"), ("b", "c")]),
        "degenerate tree edge": framework({"a": (0, 0), "b": (0, 0), "c": (1, 0)}, [("a", "b"), ("a", "c"), ("b", "c")]),
        "triangle and a point": framework({"a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (5, 5)},
                                          [("a", "b"), ("a", "c"), ("b", "c")]),
        "path": framework({"a": (0,), "b": (1,), "c": (3,)}, [("a", "b"), ("b", "c")]),
        "no edges": framework({"a": (0, 1), "b": (2, 3)}, []),
    }


def _chords(fw):
    return {edge_key(w[-1], w[0]) for w in cycle_basis(fw)}


def _reference_frameworks(cp) -> dict:
    """The corpus, the collapsed cube, the families, DEDUCTION_PROVABLE,
    P_1,5 and the hand-made cases, by name."""
    return {**_named_frameworks(cp), "P_1_5": bipartite_truncation(1, 5, "P").framework, **_small_cases()}


def test_hull_rows_agree_with_all_coordinate_rows(cp):
    """Each distinct framework of `_reference_frameworks`, once."""
    checked = [_assert_hull_rows_agree(fw) for fw in dict.fromkeys(_reference_frameworks(cp).values())]
    assert {1, 2, 3} <= {dim for dim, _ in checked}
    # the families lie in hyperplanes, so rows were left out on them
    assert any(shorter for _, shorter in checked)


def test_chord_first_basis_is_the_edge_order_nullspace(cp):
    named = _reference_frameworks(cp)
    fws = dict.fromkeys(named.values())
    for fw in fws:
        _assert_chord_first_basis(fw)
    assert _chords(named["degenerate chord"]) == {("b", "c")} <= named["degenerate chord"].degenerate_edges
    assert ("a", "b") in named["degenerate tree edge"].degenerate_edges - _chords(named["degenerate tree edge"])
    # the chords are not a prefix of the edges on the families, so the
    # column order really changed
    assert any(sorted(fw.edges.index(e) for e in _chords(fw)) != list(range(len(_chords(fw)))) for fw in fws)


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


@given(_subspace_frameworks())
@settings(max_examples=200, deadline=None)
def test_chord_first_basis_on_frameworks_in_subspaces(fw):
    _assert_chord_first_basis(fw)


def test_edge_order_read_back_on_permuted_random_kernels():
    """Any basis of the kernel of the column-permuted matrix, mapped back
    by the permutation, reads back to `nullspace` of the matrix itself."""
    rnd = random.Random(2026)
    seen_dims = set()
    for _ in range(300):
        n = rnd.randint(0, 9)
        rows = [[Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)) if rnd.random() < 0.5 else Fraction(0)
                 for _ in range(n)] for _ in range(rnd.randint(0, 6))]
        rows += [list(rows[0])] if rows and rnd.random() < 0.3 else []
        order = list(range(n))
        rnd.shuffle(order)
        kernel = nullspace([[row[j] for j in order] for row in rows], n)
        # another basis of the same kernel: add random multiples of the
        # earlier vectors to each one, then reverse the list
        mixed = []
        for i, v in enumerate(kernel):
            coeffs = [rnd.randint(-2, 2) for _ in range(i)]
            mixed.append(tuple(x + sum((c * w[k] for c, w in zip(coeffs, kernel)), Fraction(0))
                               for k, x in enumerate(v)))
        mixed.reverse()
        expected = tuple(nullspace(rows, n))
        assert tuple(_edge_order_basis(kernel, order)) == expected
        assert tuple(_edge_order_basis(mixed, order)) == expected
        seen_dims.add(len(expected))
    assert {0, 1, 2, 3} <= seen_dims


def _basis_digest(fw) -> str:
    text = json.dumps([[str(x) for x in v] for v in deformation_space(fw).basis])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# sha256 prefixes of the deformation bases (entries as "p/q" text), recorded
# with the columns eliminated in edge order, before the chord-first order.
BASIS_DIGESTS = {
    "triangle": "2697a6a0fa542cf4",
    "scalene_quadrilateral": "2de334317d2426ab",
    "trapezoid": "3e27889e51065102",
    "parallelogram": "239c7192bef61112",
    "square": "239c7192bef61112",
    "cube": "e6f13e1d7a287aab",
    "prism": "18b3c3c62d8799d6",
    "hemicube": "b46bfcd7633ca95a",
    "hexagon": "6cde2640e6844d3e",
    "hexagonal_pyramid": "60c7e7953ea21476",
    "kallay_coplanar": "9e54106f64cf1220",
    "kallay_skew": "b10855be199a1de8",
    "triangular_cupola": "f358617600ce255b",
    "chiseled_cube": "86c6357595e0f298",
    "chiseled_square_pyramid": "9772e8957d46aebd",
    "triangle_sum_shared_direction": "4fcd98a0d2e9f0de",
    "gyrobifastigium": "7d1c5ecb361cd776",
    "diminished_trapezohedron": "be96d45b39bbadec",
    "p_3_1": "60c7e7953ea21476",
    "q_3_1": "60c7e7953ea21476",
    "p_2_2": "597ef783bdca04d3",
    "q_2_2": "ded67558f563129d",
    "two_disjoint_triangles": "a32fabae99e2320e",
    "collapsed_cube": "a557bd7d49dc7ee4",
    "P_1_1": "4f53cda18c2baa0c",
    "P_1_2": "2697a6a0fa542cf4",
    "P_1_3": "60c7e7953ea21476",
    "P_2_1": "2697a6a0fa542cf4",
    "P_2_2": "597ef783bdca04d3",
    "P_2_3": "a400df1d707567cf",
    "Q_1_3": "60c7e7953ea21476",
    "Q_2_2": "ded67558f563129d",
    "Q_2_3": "317b581f6b14cea9",
    "zono_k4": "9ab435b455a48602",
    "zono_k2_3": "586ae28fe8498156",
    "u_2_5": "cde332ce8e2de982",
    "m_k4": "09972d05b674a220",
    "P_3_1": "60c7e7953ea21476",
    "P_1_4": "83ade43a0cb0ff75",
    "P_4_1": "83ade43a0cb0ff75",
    "P_3_2": "a400df1d707567cf",
    "Q_3_1": "60c7e7953ea21476",
    "Q_1_4": "da965dfff8ea53de",
    "Q_4_1": "da965dfff8ea53de",
    "Q_3_2": "317b581f6b14cea9",
}


def test_basis_digests_are_pinned(cp):
    assert {name: _basis_digest(fw) for name, fw in _named_frameworks(cp).items()} == BASIS_DIGESTS


def test_guard_fires_before_any_cycle_is_built(monkeypatch):
    """The guard's shape comes from |E| - |V| + #components, so a framework
    past it is refused without a cycle basis or a row."""

    def refuse(fw):
        raise AssertionError("cycle_basis called")

    monkeypatch.setattr(defocone.framework, "cycle_basis", refuse)
    n = 30
    grid = framework({f"{i},{j}": (i, j) for i in range(n) for j in range(n)},
                     [(f"{i},{j}", f"{i + 1},{j}") for i in range(n - 1) for j in range(n)]
                     + [(f"{i},{j}", f"{i},{j + 1}") for i in range(n) for j in range(n - 1)])
    with pytest.raises(ResourceLimitError, match=r"^deformation space guard: 1682x1740 equations exceed 50000 entries$"):
        deformation_space(grid)
    path = framework({f"v{i}": (i,) for i in range(300)}, [(f"v{i}", f"v{i + 1}") for i in range(299)])
    with pytest.raises(ResourceLimitError, match=r"^deformation space guard: 299x299 kernel basis exceeds 50000 entries$"):
        deformation_space(path)


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
