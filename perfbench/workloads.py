"""The three workloads: their inputs, the seeded transform and the ops.

Every op is one user-level query made through the public API, starting
from the JSON object form that ``defocone analyze``/``certify``/``verify``
read.  Set-up builds the inputs with ``constructions``/``corpus``, moves
each one by a seeded small-integer unimodular map and a seeded shuffle of
every vertex but the first, and serializes it.  Invertible linear maps preserve
every verdict checked here: edge and facet vertex sets, deformation-cone
dimension, dependency blocks and rays (edge factors are ratios), and
whether deduction proves indecomposability.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("faces", "oracle", "certify")
# Fewest whole passes per run.  A pass of `oracle` or `certify` takes
# 11-17 s, so two keep those runs near half a minute.
MIN_PASSES = {"faces": 3, "oracle": 2, "certify": 2}

# P_a,b and Q_a,b as (kind, n, m); the faces set keeps to at most 15 vertices
# (the corpus already holds P_3,1, Q_3,1, P_2,2 and Q_2,2).
FACES_TRUNCATIONS = (("P", 1, 3), ("P", 1, 4), ("Q", 1, 4))
# U(3,6) is left to `oracle`: its LP route costs 1.4 to 6.4 s depending on
# the vertex order alone, enough to set faces' throughput and tail by itself.
FACES_MATROIDS = ("u_2_5", "m_k4")
ORACLE_TRUNCATIONS = (("P", 2, 3), ("Q", 2, 3), ("P", 1, 5))
UNIFORM = {"u_2_3": (2, 3), "u_2_4": (2, 4), "u_2_5": (2, 5), "u_3_6": (3, 6)}  # U(k, n); m_k4 is M(K4)


def digest(obj) -> str:
    """Short content hash of a JSON-able value, for set-valued verdicts."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def unimodular(rng: random.Random, d: int) -> list[list[int]]:
    """A random integer matrix of determinant +-1 with small entries."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    if d >= 2:
        for _ in range(d):
            i, j = rng.sample(range(d), 2)
            c = rng.choice((-1, 1))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    perm = list(range(d))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) * x for x in m[perm[i]]] for i in range(d)]


def moved(ids, coords, variant, name):
    """(ids, coords) under the input's seeded map and vertex shuffle.

    Variant None is the identity map in the original order, which is how
    the expected-values file was recorded.
    """
    ids, coords = list(ids), [tuple(c) for c in coords]
    if variant is None:
        return ids, coords
    rng = random.Random(f"{variant}/{name}")
    d = len(coords[0]) if coords else 0
    mat = unimodular(rng, d)
    coords = [tuple(sum((a * x for a, x in zip(row, c)), Fraction(0)) for row in mat) for c in coords]
    order = list(range(1, len(ids)))
    rng.shuffle(order)
    order.insert(0, 0)  # the first vertex stays first; see NOTES.md, "Seed sensitivity"
    return [ids[i] for i in order], [coords[i] for i in order]


def _poly_obj(pkg, poly, variant, name) -> dict:
    ids, coords = moved(poly.vertex_ids, poly.coords, variant, name)
    return pkg.io.polytope_to_obj(pkg.polytope.PolytopeV(tuple(ids), tuple(coords)))


def _fw_obj(pkg, fw, variant, name) -> dict:
    ids, coords = moved(fw.vertex_ids, fw.coords, variant, name)
    return pkg.io.framework_to_obj(pkg.framework.Framework(tuple(ids), tuple(coords), fw.edges))


def trunc_name(kind, n, m) -> str:
    return f"{kind.lower()}_{n}_{m}"


def build(pkg, workload: str) -> list[tuple[str, object, dict]]:
    """(name, geometry, corpus expected dict or {}) for every input.

    The geometry is a PolytopeV for `faces`, a Framework for `oracle` and a
    (Framework, PolytopeV or None) pair for `certify`.
    """
    c = pkg.constructions
    cp = pkg.corpus.corpus()

    def matroid(k):
        mb = c.graphic_matroid(c.complete_graph(4)) if k == "m_k4" else c.uniform_matroid(*UNIFORM[k])
        return c.matroid_polytope(mb)

    def trunc(t):
        return c.bipartite_truncation(t[1], t[2], t[0])

    if workload == "faces":
        out = [(name, e.polytope, e.expected) for name, e in cp.items() if e.polytope is not None]
        out += [(trunc_name(*t), trunc(t).polytope, {}) for t in FACES_TRUNCATIONS]
        out += [(k, matroid(k).polytope, {}) for k in FACES_MATROIDS]
        out.append(("zono_k4", c.graphical_zonotope(c.complete_graph(4)).polytope, {}))
    elif workload == "oracle":
        out = [(trunc_name(*t), trunc(t).framework, {}) for t in ORACLE_TRUNCATIONS]
        out.append(("u_3_6", matroid("u_3_6").framework, {}))
        out.append(("zono_k2_3", c.graphical_zonotope(c.complete_bipartite(2, 3)).framework(), {}))
        out.append(("zono_k4", c.graphical_zonotope(c.complete_graph(4)).framework(), {}))
        out += [(name, e.framework, e.expected) for name, e in cp.items()]
    elif workload == "certify":
        out = [(name, (e.framework, e.polytope), e.expected) for name, e in cp.items()]
        for t in pkg.report.DEDUCTION_PROVABLE:
            if trunc_name(*t) not in cp:
                tr = trunc(t)
                out.append((trunc_name(*t), (tr.framework, tr.polytope), {}))
        for k in ("u_2_3", "u_2_4", "m_k4"):
            mp = matroid(k)
            out.append((k, (mp.framework, mp.polytope), {}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def serialize(pkg, workload: str, base, variant) -> list[tuple[str, object]]:
    """The JSON object form of every input under the variant's map and shuffle."""
    if workload == "faces":
        return [(name, _poly_obj(pkg, p, variant, name)) for name, p, _ in base]
    if workload == "oracle":
        return [(name, _fw_obj(pkg, fw, variant, name)) for name, fw, _ in base]
    out = []
    for name, (fw, poly), _ in base:
        item = {"framework": _fw_obj(pkg, fw, variant, name), "polytope": None}
        if poly is not None:
            item["polytope"] = _poly_obj(pkg, poly, variant, name)
        out.append((name, item))
    return out


# ---------------------------------------------------------------------------
# ops: each returns the raw results; verdicts are read off outside the timer


def faces_op(pkg, obj):
    p = pkg.io.polytope_from_obj(obj)
    fw = pkg.polytope.framework_of(p)
    fs = pkg.polytope.facets(p)
    return p, fw, fs, pkg.framework.dc_dimension(fw), pkg.framework.dependency_partition(fw)


def oracle_op(pkg, obj):
    fw = pkg.io.framework_from_obj(obj)
    ds = pkg.framework.deformation_space(fw)
    blocks = pkg.framework.dependency_partition(fw)
    connected = pkg.framework.is_connected(fw)
    indec = pkg.framework.is_indecomposable(fw)
    cone = None
    if len(fw.edges) <= pkg.cones.MAX_EDGES and ds.dim <= pkg.cones.MAX_SPAN_DIM:
        cone = pkg.cones.enumerate_rays(ds)
    return ds, blocks, connected, indec, cone


def certify_op(pkg, item):
    io, ded = pkg.io, pkg.deduction
    fw = io.framework_from_obj(item["framework"])
    flats = None
    if item["polytope"] is not None:
        flats = pkg.corpus.facet_flats(io.polytope_from_obj(item["polytope"], check=False))
    state = ded.saturate(fw)
    proved, _ = ded.conclude_indecomposable(state, flats)
    bound = ded.dim_upper_bound(state, flats)
    conclusion = {"indecomposable_proved": proved, "classes": len(state.classes())}
    text = json.dumps(io.certificate_to_obj(state.log, conclusion), indent=1, sort_keys=True)
    steps = io.certificate_from_obj(json.loads(text))
    accepted, _, _ = ded.verify_certificate(fw, steps)
    return proved, bound, accepted, len(steps), len(text.encode())


OPS = {"faces": faces_op, "oracle": oracle_op, "certify": certify_op}


def _blocks(blocks):
    return sorted(sorted(list(e) for e in b) for b in blocks)


def verdicts(workload: str, result) -> dict:
    """The seed-invariant verdicts of one op's result."""
    if workload == "faces":
        p, fw, fs, dc, blocks = result
        return {
            "vertices": len(p.vertex_ids),
            "edges": len(fw.edges),
            "facets": len(fs),
            "edge_set": digest([list(e) for e in fw.edges]),
            "facet_sets": digest(sorted(sorted(f.vertex_ids) for f in fs)),
            "dc_dimension": dc,
            "blocks": len(blocks),
            "dependent_pairs": sum(1 for b in blocks if len(b) == 2),
            "block_sets": digest(_blocks(blocks)),
        }
    if workload == "oracle":
        ds, blocks, connected, indec, cone = result
        out = {
            "dc_dimension": ds.dim,
            "blocks": len(blocks),
            "dependent_pairs": sum(1 for b in blocks if len(b) == 2),
            "block_sets": digest(_blocks(blocks)),
            "connected": connected,
            "indecomposable": indec,
        }
        if cone is not None:
            out["rays"] = len(cone.rays)
            out["ray_set"] = digest([[str(x) for x in r] for r in cone.rays])
        return out
    proved, bound, accepted, _, _ = result
    return {"proved": proved, "dim_bound": bound, "replay_accepted": accepted}


# ---------------------------------------------------------------------------
# expected values, each with its source

# f-vectors from the paper's table (also criterion 3 of `defocone report paper`).
PAPER_F_VECTORS = {"p_3_1": (7, 12, 7), "p_2_2": (13, 24, 13), "p_1_4": (15, 34, 28, 9), "p_2_3": (45, 111, 89, 23)}

# corpus `expected` key -> verdict field, per workload
CORPUS_FIELDS = {
    "faces": {"dc_dimension": "dc_dimension", "blocks": "blocks", "dependent_pairs": "dependent_pairs"},
    "oracle": {
        "dc_dimension": "dc_dimension",
        "indecomposable": "indecomposable",
        "blocks": "blocks",
        "dependent_pairs": "dependent_pairs",
        "rays": "rays",
        "connected": "connected",
    },
    "certify": {"deduction_proves": "proved", "dim_bound": "dim_bound", "indecomposable": "indecomposable"},
}


def _f_vector_fields(f) -> dict:
    return {"vertices": f[0], "edges": f[1], "facets": f[-1]}


def expected_values(pkg, workload: str, base, recorded: dict) -> dict:
    """name -> {field: (value, source)}, the same for every seed.

    Sources, strongest first: the paper's f-vectors, the corpus `expected`
    dicts, `report.DEDUCTION_PROVABLE`, and for everything else the
    values recorded at the identity map in expected.json.
    """
    provable = {trunc_name(*t) for t in pkg.report.DEDUCTION_PROVABLE}
    out = {}
    for name, _, corpus_expect in base:
        exp = {field: (value, "recorded") for field, value in recorded[workload][name].items()}
        if workload == "certify" and name in provable:
            exp["proved"] = (True, "report.DEDUCTION_PROVABLE")
        for key, field in CORPUS_FIELDS[workload].items():
            if key in corpus_expect:
                exp[field] = (corpus_expect[key], "corpus")
        if workload == "faces":
            if "f_vector" in corpus_expect:
                exp.update({k: (v, "corpus") for k, v in _f_vector_fields(corpus_expect["f_vector"]).items()})
            if name in PAPER_F_VECTORS:
                exp.update({k: (v, "paper") for k, v in _f_vector_fields(PAPER_F_VECTORS[name]).items()})
        out[name] = exp
    return out


def check(workload: str, got: dict, exp: dict) -> str | None:
    """Why the op's verdicts fail their expected values, or None."""
    for field, (value, source) in sorted(exp.items()):
        if workload == "certify" and field == "indecomposable":
            if got["proved"] and not value:
                return f"proved indecomposable, but {source} says decomposable"
            continue
        if got.get(field) != value:
            return f"{field}: got {got.get(field)!r}, expected {value!r} ({source})"
    return None
