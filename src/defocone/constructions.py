"""Generators for the polytope families under study.

Graphical zonotopes and their one- and two-vertex truncations, general
zonotopes with generator bookkeeping (the class law that bounds the
deformation-cone dimension of their deep truncations and stackings), deep
truncations, facet stackings, permutahedral wedges, matroid base
polytopes, products, labeled Minkowski sums, and order-cone slices.

Everything is deterministic; there is no randomness anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import graphs
from .cones import product_points
from .errors import InputError, ResourceLimitError
from .deduction import flat_direction
from .exact import Vec, affine_rank, in_span, nullspace, parallel, vec_dot, vec_sub
from .framework import (
    Framework,
    edge_key,
    framework,
    labelled_points,
)
from .polytope import (
    MAX_DIM,
    PolytopeV,
    edges,
    faces,
    facets,
    hull_vertices,
    polytope,
)

MAX_ORIENTATIONS = 5000
MAX_ZONOTOPE_GENERATORS = 6  # one LP per subset sum, each over all 2^g sums


# ---------------------------------------------------------------------------
# abstract graphs


@dataclass(frozen=True)
class SimpleGraph:
    nodes: tuple[str, ...]
    arcs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        seen, nodes = set(), set(self.nodes)
        for u, v in self.arcs:
            if u == v:
                raise InputError("loops are not allowed")
            if u not in nodes or v not in nodes:
                raise InputError(f"unknown node in arc {(u, v)!r}")
            k = (u, v) if u < v else (v, u)
            if k in seen:
                raise InputError("multi-arcs are not allowed")
            seen.add(k)


def graph(nodes, arcs) -> SimpleGraph:
    ns = tuple(sorted(str(n) for n in nodes))
    es = tuple(sorted(edge_key(str(u), str(v)) for u, v in arcs))
    return SimpleGraph(ns, es)


def _check_orientations(factors):
    """Refuse once the product of the factors exceeds MAX_ORIENTATIONS.
    Add the nodes one by one; a node with b earlier neighbours extends each
    acyclic orientation of the earlier ones in at least b + 1 ways (put it
    into any gap between those neighbours in a linear extension), so the
    factors b + 1 multiply to a lower bound on the acyclic orientations."""
    bound = 1
    for f in factors:
        bound *= f
        if bound > MAX_ORIENTATIONS:
            raise ResourceLimitError("too many acyclic orientations")


def complete_graph(n: int) -> SimpleGraph:
    if n < 1:
        raise InputError("a complete graph needs at least one node")
    # every node but the first has an earlier neighbour, a factor of 2 at least
    _check_orientations(itertools.repeat(2, n - 1))
    ns = [f"n{i}" for i in range(1, n + 1)]
    return graph(ns, itertools.combinations(ns, 2))


def complete_bipartite(n: int, m: int) -> SimpleGraph:
    if n < 1 or m < 1:
        raise InputError("each side of a complete bipartite graph needs a node")
    _check_orientations(itertools.repeat(2, n + m - 1))
    left = [f"a{i}" for i in range(1, n + 1)]
    right = [f"b{j}" for j in range(1, m + 1)]
    return graph(left + right, itertools.product(left, right))


def acyclic_orientations(g: SimpleGraph) -> list[tuple[bool, ...]]:
    """All acyclic orientations, as direction bits aligned with g.arcs
    (True orients the arc from its smaller to its larger endpoint).
    Backtracking over the arcs; an arc a -> b is kept unless b already
    reaches a.  Lexicographic order.  The bound over the breadth-first
    order, where only roots lack an earlier neighbour, is checked first."""
    adj = graphs.adjacency(g.nodes, g.arcs)
    order = {x: i for i, x in enumerate(graphs.bfs_parents(adj, g.nodes))}
    _check_orientations(1 + sum(order[y] < order[x] for y in adj[x]) for x in order)
    result: list[tuple[bool, ...]] = []
    succ: dict[str, list[str]] = {x: [] for x in g.nodes}

    def extend(i: int):
        if len(result) > MAX_ORIENTATIONS:
            raise ResourceLimitError("too many acyclic orientations")
        if i == len(g.arcs):
            result.append(tuple(v in succ[u] for u, v in g.arcs))
            return
        u, v = g.arcs[i]
        for a, b in ((v, u), (u, v)):
            if a not in graphs.bfs_parents(succ, [b]):
                succ[a].append(b)
                extend(i + 1)
                succ[a].pop()

    extend(0)
    return sorted(result)


def orientation_indegrees(g: SimpleGraph, bits: tuple[bool, ...]) -> Vec:
    indeg = {n: 0 for n in g.nodes}
    for (u, v), forward in zip(g.arcs, bits):
        indeg[v if forward else u] += 1
    return tuple(Fraction(indeg[n]) for n in g.nodes)


def _bits_label(bits) -> str:
    return "o" + "".join("1" if b else "0" for b in bits)


@dataclass(frozen=True)
class GraphicalZonotope:
    polytope: PolytopeV
    skeleton: tuple[tuple[str, str], ...]  # combinatorial edges

    def framework(self) -> Framework:
        return Framework(self.polytope.vertex_ids, self.polytope.coords, self.skeleton)


def graphical_zonotope(g: SimpleGraph) -> GraphicalZonotope:
    """Vertices are the in-degree vectors of acyclic orientations; the
    skeleton links orientations differing in a single arc."""
    aos = acyclic_orientations(g)
    labels = {bits: _bits_label(bits) for bits in aos}
    poly = PolytopeV(*labelled_points((labels[bits], orientation_indegrees(g, bits)) for bits in aos))
    valid = set(aos)
    skel = set()
    for bits in aos:
        for i in range(len(g.arcs)):
            flip = bits[:i] + (not bits[i],) + bits[i + 1 :]
            if flip in valid:
                skel.add(edge_key(labels[bits], labels[flip]))
    return GraphicalZonotope(poly, tuple(sorted(skel)))


# ---------------------------------------------------------------------------
# truncated graphical zonotopes of complete bipartite graphs


@dataclass(frozen=True)
class BipartiteTruncation:
    polytope: PolytopeV
    framework: Framework


def bipartite_truncation(n: int, m: int, kind: str = "P") -> BipartiteTruncation:
    """Truncate the all-left-to-right vertex (and for kind Q also the
    all-right-to-left vertex) of the complete-bipartite graphical zonotope.

    The edge list is produced combinatorially: surviving skeleton edges
    plus, on each fresh facet, links between one-arc-reversed orientations
    whose reversed arcs share an endpoint.
    """
    if kind not in ("P", "Q"):
        raise InputError("kind must be 'P' or 'Q'")
    if n < 1 or m < 1:
        raise InputError("n, m must be positive")
    if kind == "Q" and n * m <= 2:
        raise InputError("kind Q needs n*m > 2")
    g = complete_bipartite(n, m)
    z = graphical_zonotope(g)
    all_lr = tuple(True for _ in g.arcs)
    all_rl = tuple(False for _ in g.arcs)
    removed_bits = [all_lr] if kind == "P" else [all_lr, all_rl]
    removed = tuple(_bits_label(b) for b in removed_bits)
    pts = {v: c for v, c in zip(z.polytope.vertex_ids, z.polytope.coords) if v not in removed}
    es = {e for e in z.skeleton if e[0] not in removed and e[1] not in removed}
    for special in removed_bits:
        for i, j in itertools.combinations(range(len(g.arcs)), 2):
            if set(g.arcs[i]) & set(g.arcs[j]):
                b1 = special[:i] + (not special[i],) + special[i + 1 :]
                b2 = special[:j] + (not special[j],) + special[j + 1 :]
                es.add(edge_key(_bits_label(b1), _bits_label(b2)))
    fw = framework(pts, sorted(es))
    return BipartiteTruncation(PolytopeV(fw.vertex_ids, fw.coords), fw)


def bipartite_zonotope_facet_count(n: int, m: int) -> int:
    """Number of node subsets inducing a connected subgraph whose
    complement is also connected; equals the facet count."""
    g = complete_bipartite(n, m)
    adj = graphs.adjacency(g.nodes, g.arcs)
    count = 0
    for r in range(1, len(g.nodes)):
        for subset in itertools.combinations(g.nodes, r):
            rest = [x for x in g.nodes if x not in subset]
            if all(len(graphs.components(part, adj)) == 1 for part in (subset, rest)):
                count += 1
    return count


# ---------------------------------------------------------------------------
# plain zonotopes with generator bookkeeping


@dataclass(frozen=True)
class Zonotope:
    generators: tuple[Vec, ...]
    polytope: PolytopeV

    def edge_class(self, e) -> int:
        """Index of the generator parallel to the given edge."""
        d = self.polytope.edge_vector(e)
        for i, gen in enumerate(self.generators):
            if parallel(gen, d):
                return i
        raise InputError(f"edge {e} is parallel to no generator")

    def class_components(self, edge_groups) -> int:
        """Components of the graph on generator indices that links the
        classes of the edges in each group.  With one group per truncated
        vertex, its edges, this is Omega of a deep truncation; with one
        group per stacked facet, the zonotope's edges inside it, Gamma of a
        stacking.  Either count bounds the deformation-cone dimension."""
        classes = graphs.UnionFind(range(len(self.generators)))
        for group in edge_groups:
            ks = [self.edge_class(e) for e in group]
            for a, b in zip(ks, ks[1:]):
                classes.union(a, b)
        return len(classes.classes())


def zonotope(generators) -> Zonotope:
    """Sum of segments [0, g]; vertices are the subset sums that survive a
    hull check, labeled by their generator subsets."""
    gens = tuple(tuple(Fraction(x) for x in g) for g in generators)
    if not gens:
        raise InputError("need at least one generator")
    d = len(gens[0])
    if len(gens) > MAX_ZONOTOPE_GENERATORS:
        raise ResourceLimitError(f"too many zonotope generators: {len(gens)} > {MAX_ZONOTOPE_GENERATORS}")
    sums = {}
    for mask in range(2 ** len(gens)):
        s = tuple(
            sum((gens[i][k] for i in range(len(gens)) if mask >> i & 1), Fraction(0))
            for k in range(d)
        )
        sums.setdefault(s, []).append(mask)
    pts = []
    for s in itertools.compress(sums, hull_vertices(sums)):
        mask = sums[s][0]
        pts.append(("z" + "".join("1" if mask >> i & 1 else "0" for i in range(len(gens))), s))
    return Zonotope(gens, PolytopeV(*labelled_points(sorted(pts))))


# ---------------------------------------------------------------------------
# deep truncation


def _cut_functional(p: PolytopeV, x: str, neighbor_ids):
    """Hyperplane through the neighbors of x, oriented toward x; errors out
    if the neighbors do not span a hyperplane of the hull (the kernel of
    their hull-coordinate differences is not one line) or another vertex
    sticks past it."""
    yofs = dict(zip(p.vertex_ids, p.hull_frame[2]))
    normals = nullspace([vec_sub(yofs[v], yofs[neighbor_ids[0]]) for v in neighbor_ids[1:]], p.hull_dim)
    if len(normals) != 1:
        raise InputError(f"no deep truncation at {x!r}: neighbors are not on a hyperplane")
    a = normals[0]
    c = vec_dot(a, yofs[neighbor_ids[0]])
    if vec_dot(a, yofs[x]) < c:
        a = tuple(-t for t in a)
        c = -c
    if vec_dot(a, yofs[x]) == c:
        raise InputError(f"no deep truncation at {x!r}: vertex lies on the neighbor hyperplane")
    for v in p.vertex_ids:
        if v == x or v in neighbor_ids:
            continue
        if vec_dot(a, yofs[v]) > c:
            raise InputError(
                f"no deep truncation at {x!r}: vertex {v!r} lies past the neighbor hyperplane"
            )
    return a, c


def deep_truncate(p: PolytopeV, labels) -> PolytopeV:
    """Delete pairwise non-adjacent vertices whose neighbors are coplanar."""
    labels = tuple(labels)
    unknown = set(labels) - set(p.vertex_ids)
    if unknown:
        raise InputError(f"unknown vertex labels: {sorted(unknown)}")
    es = edges(p)
    adj = graphs.adjacency(p.vertex_ids, es)
    if any(edge_key(a, b) in es for a, b in itertools.combinations(labels, 2)):
        raise InputError("truncated vertices must be pairwise non-adjacent")
    for x in labels:
        _cut_functional(p, x, sorted(adj[x]))
    keep = [v for v in p.vertex_ids if v not in labels]
    return PolytopeV(tuple(keep), tuple(p.point(v) for v in keep))


# ---------------------------------------------------------------------------
# stacking


def stack_vertex(p: PolytopeV, facet_vertex_sets) -> PolytopeV:
    """Stack one vertex just outside each selected facet.

    The stacking point starts one unit of outward normal past the facet
    barycenter and is halved until it lies strictly inside every other
    facet's halfspace, so outputs reproduce exactly.  The k-th point is
    labelled q<k>, with a prime appended while that label is taken.
    """
    current = p
    for idx, wanted in enumerate(frozenset(f) for f in facet_vertex_sets):
        fs = facets(current)
        match = next((f for f in fs if f.vertex_ids == wanted), None)
        if match is None:
            raise InputError(f"not a facet: {sorted(wanted)}")
        bary = tuple(
            sum((current.point(v)[k] for v in sorted(wanted)), Fraction(0)) / len(wanted)
            for k in range(current.dim)
        )
        eps = Fraction(1)
        while True:
            q = tuple(b + eps * nk for b, nk in zip(bary, match.normal))
            if all(
                vec_dot(f.normal, q) < f.offset
                for f in fs
                if f.vertex_ids != wanted
            ):
                break
            eps /= 2
        label = f"q{idx}"
        while label in current.vertex_ids:
            label += "'"
        current = PolytopeV(current.vertex_ids + (label,), current.coords + (q,))
    return current


# ---------------------------------------------------------------------------
# wedges, products, matroids, order-cone slices


def permutahedral_wedge(p: PolytopeV, i: int, side: str = "min") -> PolytopeV:
    """Wedge over the face extreme in coordinate i, embedded so deformed
    permutahedra stay deformed permutahedra (one fresh coordinate)."""
    if not 1 <= i <= p.dim:
        raise InputError(f"coordinate index {i} out of range")
    if side not in ("min", "max"):
        raise InputError("side must be 'min' or 'max'")
    vals = [c[i - 1] for c in p.coords]
    extreme = min(vals) if side == "min" else max(vals)
    pts = {v: c + (Fraction(0),) for v, c in zip(p.vertex_ids, p.coords)}
    for v, c in zip(p.vertex_ids, p.coords):
        t = c[i - 1] - extreme
        lifted = list(c) + [Fraction(0)]
        lifted[i - 1] -= t
        lifted[p.dim] += t
        if t != 0:
            label = v + "'"
            while label in pts:  # keep iterated wedges collision-free
                label += "'"
            pts[label] = tuple(lifted)
    return polytope(pts)


def product_polytope(a: PolytopeV, b: PolytopeV) -> PolytopeV:
    return PolytopeV(*product_points(a, b))


@dataclass(frozen=True)
class MatroidBases:
    ground: tuple[str, ...]
    bases: frozenset[frozenset[str]]

    def __post_init__(self):
        if not self.bases:
            raise InputError("a matroid needs at least one basis")
        sizes = {len(b) for b in self.bases}
        if len(sizes) != 1:
            raise InputError("bases must be equicardinal")
        for b in self.bases:
            if not b <= set(self.ground):
                raise InputError("basis uses unknown element")


def verify_exchange(mb: MatroidBases) -> bool:
    for b1 in mb.bases:
        for b2 in mb.bases:
            for x in b1 - b2:
                if not any((b1 - {x}) | {y} in mb.bases for y in b2 - b1):
                    return False
    return True


def _check_ground(size: int):
    """A matroid polytope has one coordinate per element, so the polytope
    guard's dimension bounds the ground set; callers check before listing
    anything.  The bases, k-subsets of at most MAX_DIM elements, then number
    at most C(MAX_DIM, MAX_DIM // 2), within the vertex guard."""
    if size > MAX_DIM:
        raise ResourceLimitError(f"matroid guard: {size} elements exceed dimension {MAX_DIM}")


def uniform_matroid(k: int, n: int) -> MatroidBases:
    if not 0 <= k <= n:
        raise InputError("a uniform matroid needs 0 <= k <= n")
    _check_ground(n)
    ground = tuple(f"e{i}" for i in range(1, n + 1))
    return MatroidBases(ground, frozenset(frozenset(b) for b in itertools.combinations(ground, k)))


def graphic_matroid(g: SimpleGraph) -> MatroidBases:
    """Bases are the spanning trees (the graph must be connected)."""
    _check_ground(len(g.arcs))
    n = len(g.nodes)
    if len(graphs.components(g.nodes, graphs.adjacency(g.nodes, g.arcs))) != 1:
        raise InputError("a graphic matroid needs a connected graph")
    trees = []
    for comb in itertools.combinations(g.arcs, n - 1):
        if len(graphs.components(g.nodes, graphs.adjacency(g.nodes, comb))) == 1:
            trees.append(frozenset(f"{u}-{v}" for u, v in comb))
    ground = tuple(sorted(f"{u}-{v}" for u, v in g.arcs))
    return MatroidBases(ground, frozenset(trees))


def matroid_direct_sum(*parts: MatroidBases) -> MatroidBases:
    _check_ground(sum(len(mb.ground) for mb in parts))
    ground = []
    for i, mb in enumerate(parts):
        ground.extend(f"s{i}.{e}" for e in mb.ground)
    bases = [frozenset()]
    for i, mb in enumerate(parts):
        bases = [
            b | frozenset(f"s{i}.{e}" for e in part)
            for b in bases
            for part in mb.bases
        ]
    return MatroidBases(tuple(ground), frozenset(bases))


@dataclass
class MatroidPolytope:
    polytope: PolytopeV
    framework: Framework
    components: tuple[frozenset[str], ...]


def matroid_polytope(mb: MatroidBases) -> MatroidPolytope:
    """Indicator-vector polytope; skeleton links bases with a two-element
    symmetric difference; components come from the fundamental graph of the
    lexicographically first basis (loops and coloops are isolated)."""
    if not verify_exchange(mb):
        raise InputError("basis-exchange axiom fails")
    order = mb.ground
    labels = {}
    pts = {}
    for b in sorted(mb.bases, key=lambda b: tuple(sorted(b))):
        label = "m" + "".join("1" if e in b else "0" for e in order)
        labels[b] = label
        pts[label] = tuple(Fraction(1 if e in b else 0) for e in order)
    es = []
    for b1, b2 in itertools.combinations(labels, 2):
        if len(b1 ^ b2) == 2:
            es.append((labels[b1], labels[b2]))
    fw = framework(pts, es)
    poly = PolytopeV(fw.vertex_ids, fw.coords)
    first = min(mb.bases, key=lambda b: tuple(sorted(b)))
    arcs = set()
    for j in set(order) - first:
        for i in first:
            if (first - {i}) | {j} in mb.bases:
                arcs.add(edge_key(i, j))
    parts = graphs.components(order, graphs.adjacency(order, arcs))
    comps = tuple(sorted((frozenset(s) for s in parts), key=sorted))
    return MatroidPolytope(poly, fw, comps)


def hyperorder_polytope(n: int, k: int) -> PolytopeV:
    """Slice of the weakly-increasing order simplex at coordinate sum k."""
    if not 1 <= k <= n:
        raise InputError("need 1 <= k <= n")
    if n > MAX_DIM:  # the points lie in R^n; refuse before listing them
        raise ResourceLimitError(f"hyperorder guard: dimension {n} exceeds {MAX_DIM}")
    pts = {}
    seen = set()

    def add(point):
        if point not in seen:
            seen.add(point)
            pts[f"h{len(pts)}"] = point

    apex = (Fraction(0),) * (n - k) + (Fraction(1),) * k
    add(apex)
    for j in range(0, k):
        for i in range(max(1, k - j), n - j + 1):
            val = Fraction(k - j, i)
            if val > 1:
                continue
            add((Fraction(0),) * (n - j - i) + (val,) * i + (Fraction(1),) * j)
    return polytope(pts)


# ---------------------------------------------------------------------------
# labeled Minkowski sums and parallelogramic position


@dataclass
class LabeledSum:
    polytope: PolytopeV
    provenance: dict  # label -> (label in a, label in b)


def minkowski_sum_labeled(a: PolytopeV, b: PolytopeV) -> LabeledSum:
    """Sum with vertex provenance; requires every vertex of the sum to be
    a unique pair sum (true whenever no edge directions are shared)."""
    cand = {}
    for u in a.vertex_ids:
        for v in b.vertex_ids:
            s = tuple(x + y for x, y in zip(a.point(u), b.point(v)))
            cand.setdefault(s, []).append((u, v))
    pairs = []
    prov = {}
    for s in itertools.compress(cand, hull_vertices(cand)):
        prs = cand[s]
        if len(prs) > 1:
            raise InputError(f"ambiguous vertex decomposition at {s}")
        label = f"{prs[0][0]}+{prs[0][1]}"
        pairs.append((label, s))
        prov[label] = prs[0]
    return LabeledSum(PolytopeV(*labelled_points(sorted(pairs))), prov)


def parallelogramic_position(a: PolytopeV, b: PolytopeV):
    """(ok, reason): no shared edge directions and no edge of one parallel
    to a 2-face of the other."""
    ea, eb = edges(a), edges(b)
    for e in ea:
        for f in eb:
            if parallel(a.edge_vector(e), b.edge_vector(f)):
                return False, f"edge {e} of the first summand is parallel to edge {f} of the second"
    for p, q, ep in ((a, b, ea), (b, a, eb)):
        for face in faces(q):
            if affine_rank([q.point(v) for v in face]) != 2:
                continue
            dirs = flat_direction(q, face)
            for e in ep:
                if in_span(dirs, p.edge_vector(e)):
                    return False, f"edge {e} is parallel to 2-face {sorted(face)}"
    return True, None
