"""Fixed small examples with their expected verdicts.

Exact rational coordinates chosen so each fixture realizes the stated
parallelism and coplanarity conditions.  The regular hexagon is realized
as the graphical zonotope of a triangle (an affine image of the metric
hexagon; deformation data is affinely invariant).  The skew twice-stacked
cube uses a prism-over-a-quadrilateral realization whose side shifts make
the two distinguished side edges skew while all six faces stay planar;
simple shears cannot do this, since face planarity over a fixed base
forces the sheared edge to stay parallel to the base edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constructions import (
    bipartite_truncation,
    complete_graph,
    graphical_zonotope,
    minkowski_sum_labeled,
    product_polytope,
    stack_vertex,
)
from .framework import Framework, framework
from .polytope import PolytopeV, facets, framework_of, polytope


@dataclass
class CorpusEntry:
    name: str
    polytope: PolytopeV | None
    framework: Framework
    expected: dict


def _poly_entry(name, points, expected) -> CorpusEntry:
    p = polytope(points) if not isinstance(points, PolytopeV) else points
    return CorpusEntry(name, p, framework_of(p), expected)


def _triangle_points(a, b, c):
    return {"A": a, "B": b, "C": c}


def regular_hexagon() -> PolytopeV:
    z = graphical_zonotope(complete_graph(3))
    return z.polytope


def skew_stacked_cube() -> PolytopeV:
    """Combinatorial cube (prism over a square with side shifts chosen so
    opposite side edges are skew) with a vertex stacked on each of the two
    square faces."""
    quad = [(0, 0), (4, 0), (4, 4), (0, 4)]
    shift = [(0, 0), (4, 0), (4, 8), (0, 8)]
    pts = {}
    for i in range(4):
        pts[f"l{i + 1}"] = (Fraction(0), Fraction(quad[i][0]), Fraction(quad[i][1]))
        pts[f"r{i + 1}"] = (
            Fraction(1),
            Fraction(quad[i][0] + shift[i][0]),
            Fraction(quad[i][1] + shift[i][1]),
        )
    cube = polytope(pts)
    left = frozenset({"l1", "l2", "l3", "l4"})
    right = frozenset({"r1", "r2", "r3", "r4"})
    return stack_vertex(cube, [left, right])


def coplanar_stacked_cube() -> PolytopeV:
    pts = {f"c{x}{y}{z}": (Fraction(x), Fraction(y), Fraction(z)) for x in (0, 1) for y in (0, 1) for z in (0, 1)}
    cube = polytope(pts)
    left = frozenset(k for k in pts if k[1] == "0")
    right = frozenset(k for k in pts if k[1] == "1")
    return stack_vertex(cube, [left, right])


def minkowski_summands() -> dict[str, tuple[PolytopeV, PolytopeV]]:
    """The two triangles of each Minkowski-sum entry of the corpus."""
    half = Fraction(1, 2)
    pairs = {
        "hemicube": (((0, 0, 0), (1, 0, 0), (2, 0, 1)), ((0, 0, 0), (0, 1, 0), (0, 2, 1))),
        "triangle_sum_shared_direction": (
            ((0, 0, 0), (4, 0, 0), (2, 0, 3)),
            ((0, 0, 0), (0, 4, 0), (2, 0, 3)),
        ),
        "gyrobifastigium": (((0, 0, 0), (1, 0, 0), (half, 0, 1)), ((0, 0, 0), (0, 1, 0), (0, half, -1))),
        "diminished_trapezohedron": (
            ((0, 0, 0), (1, 0, 0), (half, 0, 1)),
            ((0, 0, 0), (0, 1, 0), (0, half, 1)),
        ),
    }
    return {
        name: (polytope(_triangle_points(*a)), polytope(_triangle_points(*b)))
        for name, (a, b) in pairs.items()
    }


def corpus() -> dict[str, CorpusEntry]:
    entries: list[CorpusEntry] = []
    half = Fraction(1, 2)

    entries.append(
        _poly_entry(
            "triangle",
            _triangle_points((0, 0), (1, 0), (0, 1)),
            {"dc_dimension": 1, "indecomposable": True, "blocks": 1},
        )
    )
    entries.append(
        _poly_entry(
            "scalene_quadrilateral",
            {"A": (0, 0), "B": (3, 0), "C": (4, 2), "D": (1, 3)},
            {"dc_dimension": 2, "indecomposable": False, "blocks": 4},
        )
    )
    entries.append(
        _poly_entry(
            "trapezoid",
            {"A": (0, 0), "B": (4, 0), "C": (3, 1), "D": (1, 1)},
            {"dc_dimension": 2, "indecomposable": False, "blocks": 3, "dependent_pairs": 1},
        )
    )
    entries.append(
        _poly_entry(
            "parallelogram",
            {"A": (0, 0), "B": (2, 0), "C": (3, 1), "D": (1, 1)},
            {"dc_dimension": 2, "indecomposable": False, "blocks": 2},
        )
    )
    entries.append(
        _poly_entry(
            "square",
            {"A": (0, 0), "B": (1, 0), "C": (1, 1), "D": (0, 1)},
            {"dc_dimension": 2, "indecomposable": False, "blocks": 2},
        )
    )
    entries.append(
        _poly_entry(
            "cube",
            {f"c{x}{y}{z}": (x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)},
            {"dc_dimension": 3, "indecomposable": False, "blocks": 3},
        )
    )
    prism = product_polytope(
        polytope(_triangle_points((0, 0), (1, 0), (0, 1))), polytope({"x": (0,), "y": (1,)})
    )
    entries.append(
        _poly_entry(
            "prism",
            prism,
            {"dc_dimension": 2, "indecomposable": False, "rays": 2},
        )
    )
    sums = {name: minkowski_sum_labeled(a, b).polytope for name, (a, b) in minkowski_summands().items()}
    entries.append(
        _poly_entry("hemicube", sums["hemicube"], {"dc_dimension": 2, "indecomposable": False})
    )
    hexa = regular_hexagon()
    entries.append(
        _poly_entry(
            "hexagon",
            hexa,
            {"dc_dimension": 4, "indecomposable": False, "blocks": 6, "rays": 5},
        )
    )
    apex = (Fraction(3, 2), Fraction(3, 2), Fraction(3, 2))
    entries.append(
        _poly_entry(
            "hexagonal_pyramid",
            {**hexa.points, "apex": apex},
            {"dc_dimension": 1, "indecomposable": True},
        )
    )
    entries.append(
        _poly_entry(
            "kallay_coplanar",
            coplanar_stacked_cube(),
            {"dc_dimension": 2, "indecomposable": False, "deduction_proves": False},
        )
    )
    entries.append(
        _poly_entry(
            "kallay_skew",
            skew_stacked_cube(),
            {"dc_dimension": 1, "indecomposable": True, "deduction_proves": True},
        )
    )
    cupola_pts = {}
    for i, p in enumerate(
        [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, -1, 0), (-1, 1, 0), (1, 0, -1), (-1, 0, 1), (0, 1, -1), (0, -1, 1)]
    ):
        cupola_pts[f"c{i}"] = p
    entries.append(
        _poly_entry(
            "triangular_cupola",
            cupola_pts,
            {"dc_dimension": 2, "rays": 2, "dim_bound": 2, "f_vector": (9, 15, 8)},
        )
    )
    entries.append(
        _poly_entry(
            "chiseled_cube",
            {
                "b00": (0, 0, 0),
                "b10": (1, 0, 0),
                "b11": (1, 1, 0),
                "b01": (0, 1, 0),
                "t00": (0, 0, half),
                "t10": (1, 0, 1),
                "t11": (1, 1, half),
                "t01": (0, 1, 1),
            },
            {"dc_dimension": 2, "dim_bound": 2},
        )
    )
    entries.append(
        _poly_entry(
            "chiseled_square_pyramid",
            {
                "b00": (0, 0, 0),
                "b10": (4, 0, 0),
                "b11": (4, 4, 0),
                "b01": (0, 4, 0),
                "t00": (Fraction(3, 4), Fraction(3, 4), Fraction(3, 2)),
                "t10": (3, 1, 2),
                "t11": (Fraction(13, 4), Fraction(13, 4), Fraction(3, 2)),
                "t01": (1, 3, 2),
            },
            {"dc_dimension": 2, "dim_bound": 2},
        )
    )
    entries.append(
        _poly_entry(
            "triangle_sum_shared_direction",
            sums["triangle_sum_shared_direction"],
            {"dc_dimension": 2, "dim_bound": 2},
        )
    )
    entries.append(
        _poly_entry(
            "gyrobifastigium",
            sums["gyrobifastigium"],
            {"dc_dimension": 2, "indecomposable": False},
        )
    )
    entries.append(
        _poly_entry(
            "diminished_trapezohedron",
            sums["diminished_trapezohedron"],
            {"dc_dimension": 2, "indecomposable": False},
        )
    )
    for n, m, kind, expect in (
        (3, 1, "P", {"dc_dimension": 1, "indecomposable": True, "f_vector": (7, 12, 7), "deduction_proves": True}),
        (3, 1, "Q", {"dc_dimension": 1, "indecomposable": True, "deduction_proves": True}),
        (2, 2, "P", {"dc_dimension": 1, "indecomposable": True, "f_vector": (13, 24, 13), "deduction_proves": True}),
        (2, 2, "Q", {"dc_dimension": 2, "indecomposable": False, "deduction_proves": False}),
    ):
        tr = bipartite_truncation(n, m, kind)
        entries.append(
            CorpusEntry(f"{kind}_{n}_{m}".lower(), tr.polytope, tr.framework, expect)
        )

    two_triangles = framework(
        {"A": (0, 0), "B": (1, 0), "C": (0, 1), "D": (5, 5), "E": (6, 5), "F": (5, 6)},
        [("A", "B"), ("B", "C"), ("A", "C"), ("D", "E"), ("E", "F"), ("D", "F")],
    )
    entries.append(
        CorpusEntry(
            "two_disjoint_triangles",
            None,
            two_triangles,
            {"dc_dimension": 2, "indecomposable": False, "connected": False},
        )
    )
    return {e.name: e for e in entries}


def facet_flats(p: PolytopeV):
    return [f.vertex_ids for f in facets(p)]
