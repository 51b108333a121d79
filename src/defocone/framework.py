"""Frameworks (geometric graphs) and their deformation spaces.

A framework is a finite vertex set realized by rational points plus an
edge set.  Its deformations are reparametrizations of the edges by
nonnegative factors that satisfy, for every cycle, the vector equation
saying the weighted edge vectors still close up.  `realize` places the
vertices under given factors, or finds an edge that does not close up,
in O(E*d); dimensions and dependency classes are computed from the exact
nullspace of that linear system.  Questions about the cone itself (its
rays, implicit edges, the closure) are answered from its rays in `cones`.

A fundamental cycle basis suffices: the closing-up equation depends
linearly on the cycle (as an element of the rational cycle space), so a
spanning-forest basis generates the equations of all cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import graphs
from .errors import InputError, ResourceLimitError
from .exact import Vec, is_zero_vec, nullspace, rank, vec_scale, vec_sub

Edge = tuple[str, str]

# Entries of the largest cycle-equation system (rows counted per ambient
# coordinate, times columns) and of the largest E x E kernel basis; the
# largest the program meets is Q_2,3's 355 x 114.
MAX_EQ_CELLS = 50_000


def edge_key(u: str, v: str) -> Edge:
    if u == v:
        raise InputError(f"self-loop at {u!r}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Points:
    """A labelled set of rational points: vertex_ids[i] sits at coords[i].
    Equality compares classes first, so a polytope never equals a framework."""

    vertex_ids: tuple[str, ...]
    coords: tuple[Vec, ...]

    @property
    def dim(self) -> int:
        return len(self.coords[0]) if self.coords else 0

    def point(self, v: str) -> Vec:
        return self.coords[self.vertex_ids.index(v)]

    @property
    def points(self) -> dict[str, Vec]:
        return dict(zip(self.vertex_ids, self.coords))


def labelled_points(points) -> tuple[tuple[str, ...], tuple[Vec, ...]]:
    """(vertex_ids, coords) from a label->coords map or from (label, coords)
    pairs, labels as str and coordinates as Fractions.

    Pairs keep a repeated label, so it is refused here instead of being
    overwritten in a map; so are points of different dimensions.
    """
    pairs = points.items() if isinstance(points, dict) else points
    ids, coords = [], []
    for label, c in pairs:
        ids.append(str(label))
        coords.append(tuple(Fraction(x) for x in c))
    if len(set(ids)) != len(ids):
        raise InputError("duplicate vertex label")
    if len({len(c) for c in coords}) > 1:
        raise InputError("mixed coordinate dimensions")
    return tuple(ids), tuple(coords)


@dataclass(frozen=True)
class Framework(Points):
    edges: tuple[Edge, ...]

    def edge_vector(self, e: Edge) -> Vec:
        u, v = e
        return vec_sub(self.point(v), self.point(u))

    def is_degenerate(self, e: Edge) -> bool:
        return is_zero_vec(self.edge_vector(e))

    @property
    def degenerate_edges(self) -> frozenset[Edge]:
        return frozenset(e for e in self.edges if self.is_degenerate(e))

    @property
    def nondegenerate_edges(self) -> tuple[Edge, ...]:
        deg = self.degenerate_edges
        return tuple(e for e in self.edges if e not in deg)


def framework(points, edges) -> Framework:
    """Build a canonical Framework from labelled points, as `labelled_points`
    takes them, and edge pairs."""
    ids, coords = labelled_points(points)
    es = sorted({edge_key(str(u), str(v)) for u, v in edges})
    known = set(ids)
    for e in es:
        if not known.issuperset(e):
            raise InputError(f"unknown vertex in edge {e!r}")
    return Framework(ids, coords, tuple(es))


def adjacency(fw: Framework) -> dict[str, tuple[str, ...]]:
    return graphs.adjacency(fw.vertex_ids, fw.edges)


def components(fw: Framework) -> tuple[tuple[str, ...], ...]:
    return tuple(graphs.components(fw.vertex_ids, adjacency(fw)))


def is_connected(fw: Framework) -> bool:
    return len(components(fw)) <= 1


def cycle_basis(fw: Framework) -> tuple[tuple[str, ...], ...]:
    """Fundamental cycles of the BFS forest, as closed vertex walks.

    A walk (u0, ..., uk) stands for the edge sequence u0u1, ..., uk u0.
    Count equals |E| - |V| + #components.
    """
    parent = graphs.bfs_parents(adjacency(fw), fw.vertex_ids)
    tree = {edge_key(x, p) for x, p in parent.items() if p is not None}
    chords = (e for e in fw.edges if e not in tree)
    return tuple(tuple(graphs.tree_path(parent, u, v)) for u, v in chords)


def walk_edges(walk: tuple[str, ...]):
    for i, u in enumerate(walk):
        yield u, walk[(i + 1) % len(walk)]


@dataclass(frozen=True)
class DeformationSpace:
    """Basis of the linear span of the deformation cone, indexed by edges."""

    framework: Framework
    basis: tuple[Vec, ...]
    degenerate: frozenset[Edge]
    cycles: tuple[tuple[str, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def unit_vector(self) -> Vec:
        return tuple(
            Fraction(0) if e in self.degenerate else Fraction(1) for e in self.framework.edges
        )


def _hull_pivots(fw: Framework) -> list[int]:
    """The coordinates a left-to-right scan finds independent on the point
    differences: the pivot columns of their reduced row echelon form, by
    which `polytope.hull_frame` reads hull coordinates."""
    base = fw.coords[0] if fw.coords else ()
    cols = list(zip(*(vec_sub(c, base) for c in fw.coords[1:])))
    pivots: list[int] = []
    for k, col in enumerate(cols):
        if rank([cols[i] for i in pivots] + [col], len(col)) > len(pivots):
            pivots.append(k)
    return pivots


def cycle_equation_rows(fw: Framework, cycles) -> list[list[Fraction]]:
    """One row per cycle per pivot coordinate of the affine hull, plus a
    forced-zero row per degenerate edge.

    The pivot coordinates are those of `_hull_pivots`.  Every edge vector
    lies in the hull's direction space, whose reduced basis is 1 at its own
    pivot coordinate and 0 at the others, so a cycle sum that vanishes at
    the pivot coordinates vanishes everywhere: the rows of the other
    coordinates are combinations of these, and leaving them out changes no
    row space.
    """
    eidx = {e: i for i, e in enumerate(fw.edges)}
    pivots = _hull_pivots(fw)
    rows: list[list[Fraction]] = []
    for walk in cycles:
        acc = [[Fraction(0)] * len(pivots) for _ in fw.edges]
        for u, v in walk_edges(walk):
            i = eidx[edge_key(u, v)]
            pu, pv = fw.point(u), fw.point(v)
            acc[i] = [a + pv[k] - pu[k] for a, k in zip(acc[i], pivots)]
        for k in range(len(pivots)):
            rows.append([acc[i][k] for i in range(len(fw.edges))])
    for e in sorted(fw.degenerate_edges):
        row = [Fraction(0)] * len(fw.edges)
        row[eidx[e]] = Fraction(1)
        rows.append(row)
    return rows


@lru_cache(maxsize=None)
def deformation_space(fw: Framework) -> DeformationSpace:
    """The exact nullspace of the cycle equations, eliminated sparsest row
    first.  The row order and the left-out coordinate rows change no row
    space, so the pivot-normalized basis is the one every order gives.

    ResourceLimitError, before any row is built, when the equations counted
    per ambient coordinate, or the E x E kernel basis, exceed MAX_EQ_CELLS
    entries."""
    cycles = cycle_basis(fw)
    shape = (len(cycles) * fw.dim + len(fw.degenerate_edges), len(fw.edges))
    if shape[0] * shape[1] > MAX_EQ_CELLS:
        raise ResourceLimitError(f"deformation space guard: {shape[0]}x{shape[1]} equations exceed {MAX_EQ_CELLS} entries")
    if shape[1] * shape[1] > MAX_EQ_CELLS:
        raise ResourceLimitError(f"deformation space guard: {shape[1]}x{shape[1]} kernel basis exceeds {MAX_EQ_CELLS} entries")
    rows = sorted(cycle_equation_rows(fw, cycles), key=lambda row: len(row) - row.count(0))
    basis = nullspace(rows, len(fw.edges))
    return DeformationSpace(fw, tuple(basis), fw.degenerate_edges, cycles)


def dc_dimension(fw: Framework) -> int:
    return deformation_space(fw).dim


def is_indecomposable(fw: Framework) -> bool:
    """Exact ground truth.

    Connected with a one-dimensional deformation space; a lone vertex and a
    connected all-degenerate framework (a single point with multiplicity)
    count as indecomposable, a disconnected framework never does.
    """
    if len(fw.vertex_ids) == 1:
        return True
    if not is_connected(fw):
        return False
    return dc_dimension(fw) <= 1


def realize(fw: Framework, lam) -> dict[str, Vec] | None:
    """Vertex positions under the edge factors lam, of any sign, or None
    when some edge does not close up or a degenerate edge has a nonzero
    factor.  The smallest label of each component keeps its point; every
    other vertex is placed along the BFS forest by lam-scaled edge steps.
    """
    points = fw.points
    eidx = {e: i for i, e in enumerate(fw.edges)}
    anchors = [comp[0] for comp in components(fw)]
    pos = {a: points[a] for a in anchors}
    for y, x in graphs.bfs_parents(adjacency(fw), anchors).items():
        if x is not None:
            step = vec_scale(lam[eidx[edge_key(x, y)]], vec_sub(points[y], points[x]))
            pos[y] = tuple(a + b for a, b in zip(pos[x], step))
    for t, (u, v) in zip(lam, fw.edges):
        base = vec_sub(points[v], points[u])
        if (t != 0 and is_zero_vec(base)) or vec_sub(pos[v], pos[u]) != vec_scale(t, base):
            return None
    return pos


def dependency_partition(fw: Framework) -> tuple[frozenset[Edge], ...]:
    """Blocks of non-degenerate edges whose factors agree on the whole cone.

    Valid to read off the basis because the cone spans its linear hull (the
    all-ones vector is relatively interior).  Blocks are ordered by their
    smallest edge.
    """
    ds = deformation_space(fw)
    eidx = {e: i for i, e in enumerate(fw.edges)}
    groups: dict[tuple, list[Edge]] = {}
    for e in fw.nondegenerate_edges:
        key = tuple(b[eidx[e]] for b in ds.basis)
        groups.setdefault(key, []).append(e)
    blocks = [frozenset(g) for g in groups.values()]
    return tuple(sorted(blocks, key=lambda b: min(b)))


def quotient_degenerate(fw: Framework):
    """Contract the transitive closure of degenerate edges.

    Returns (quotient framework, vertex -> class representative map).
    Only edges declared in the framework are contracted; mere coordinate
    coincidence without an edge does not tie vertices together.
    """
    classes = graphs.UnionFind(fw.vertex_ids)
    for u, v in fw.degenerate_edges:
        classes.union(u, v)
    mapping = {v: classes.find(v) for v in fw.vertex_ids}
    new_ids = tuple(v for v in fw.vertex_ids if mapping[v] == v)
    coords = tuple(fw.point(v) for v in new_ids)
    edges = sorted(
        {
            edge_key(mapping[u], mapping[v])
            for u, v in fw.edges
            if mapping[u] != mapping[v]
        }
    )
    return Framework(new_ids, coords, tuple(edges)), mapping
