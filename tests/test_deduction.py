"""Rule engine: saturation, conclusions, bounds, certificate replay."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import defocone
from defocone import graphs
from defocone.constructions import (
    bipartite_truncation,
    complete_graph,
    graphic_matroid,
    matroid_polytope,
    uniform_matroid,
)
from defocone.corpus import corpus, facet_flats
from defocone.deduction import (
    COVERING_CONCLUSION,
    DEGENERATE_CONTRACTION,
    DIM_BOUND,
    IMPLICIT_FROM_PATH,
    PROJECTION_LIFT,
    RIGID_CYCLE,
    DeductionState,
    Step,
    conclude_indecomposable,
    covering_pins_all,
    dim_upper_bound,
    flat_direction,
    saturate,
    singleton_flats,
    verify_certificate,
)
from defocone.errors import InputError
from defocone.io import certificate_to_obj, framework_to_obj
from defocone.exact import Vec, is_zero_vec, nullspace, rank
from defocone.framework import dc_dimension, dependency_partition, edge_key, framework
from defocone.report import DEDUCTION_PROVABLE


@pytest.fixture(scope="module")
def cp():
    return corpus()


def test_strawberry_saturation(cp):
    e = cp["p_3_1"]
    st = saturate(e.framework)
    # one class spans all seven vertices
    rep, comp = st.class_components()[0]
    assert comp == frozenset(e.framework.vertex_ids)
    ok, step = conclude_indecomposable(st, facet_flats(e.polytope))
    assert ok and step.kind == COVERING_CONCLUSION


def test_kallay_pair(cp):
    cop = cp["kallay_coplanar"]
    st = saturate(cop.framework)
    ok, _ = conclude_indecomposable(st, facet_flats(cop.polytope))
    assert not ok  # it really is decomposable
    assert dim_upper_bound(st, facet_flats(cop.polytope)) == 2
    skew = cp["kallay_skew"]
    st2 = saturate(skew.framework)
    ok2, _ = conclude_indecomposable(st2, facet_flats(skew.polytope))
    assert ok2
    kinds = {s.kind for s in st2.log}
    assert RIGID_CYCLE in kinds and IMPLICIT_FROM_PATH in kinds


def test_hexagon_learns_nothing(cp):
    st = saturate(cp["hexagon"].framework)
    assert all(s.kind == COVERING_CONCLUSION for s in st.log)  # i.e. no merges
    ok, _ = conclude_indecomposable(st, facet_flats(cp["hexagon"].polytope))
    assert not ok


def test_chiseled_square_pyramid_bound_without_conclusion(cp):
    e = cp["chiseled_square_pyramid"]
    st = saturate(e.framework)
    ok, _ = conclude_indecomposable(st, facet_flats(e.polytope))
    assert not ok  # decomposable, so no sound engine can conclude
    assert dim_upper_bound(st, facet_flats(e.polytope)) == 2


def test_dim_bounds(cp):
    for name in ("triangular_cupola", "chiseled_cube", "triangle_sum_shared_direction"):
        e = cp[name]
        st = saturate(e.framework)
        bound = dim_upper_bound(st, facet_flats(e.polytope))
        assert bound == e.expected["dim_bound"]
        assert bound >= dc_dimension(e.framework)


def test_bound_validity_on_corpus(cp):
    for name, e in cp.items():
        st = saturate(e.framework)
        flats = facet_flats(e.polytope) if e.polytope is not None else None
        bound = dim_upper_bound(st, flats)
        if bound is not None:
            assert bound >= dc_dimension(e.framework), name


def test_soundness_on_corpus(cp):
    for name, e in cp.items():
        st = saturate(e.framework)
        blocks = dependency_partition(e.framework)
        block_of = {edge: i for i, b in enumerate(blocks) for edge in b}
        for rep, es in st.classes().items():
            base = [x for x in es if x in e.framework.edges and x in block_of]
            assert len({block_of[x] for x in base}) <= 1, name


def test_determinism(cp):
    fw = cp["kallay_skew"].framework
    a = saturate(fw)
    b = saturate(fw)
    assert a.log == b.log


def test_degenerate_transfer_rule():
    # doubled-vertex triangle: degenerate edges transfer dependencies
    x, y, z = (0, 0), (4, 0), (0, 4)
    fw = framework(
        {"1": x, "2": x, "3": y, "4": y, "5": z, "6": z},
        [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "6"), ("1", "6")],
    )
    st = saturate(fw)
    assert any(s.kind == DEGENERATE_CONTRACTION for s in st.log)
    ok, _ = conclude_indecomposable(st, None)
    assert ok
    good, idx, reason = verify_certificate(fw, st.log)
    assert good, (idx, reason)


def test_replay_all_produced_certificates(cp):
    for name, e in cp.items():
        st = saturate(e.framework)
        flats = facet_flats(e.polytope) if e.polytope is not None else None
        conclude_indecomposable(st, flats)
        dim_upper_bound(st, flats)
        good, idx, reason = verify_certificate(e.framework, st.log)
        assert good, (name, idx, reason)


def test_mutated_certificates_fail(cp):
    from defocone.report import _mutation_checks

    ok, detail = _mutation_checks(cp)
    assert ok, detail


def test_trivial_conclusions():
    point = framework({"p": (0, 0)}, [])
    ok, _ = conclude_indecomposable(saturate(point), None)
    assert ok
    seg = framework({"a": (0,), "b": (1,)}, [("a", "b")])
    ok, _ = conclude_indecomposable(saturate(seg), None)
    assert ok
    two_points = framework({"a": (0,), "b": (1,)}, [])
    ok, _ = conclude_indecomposable(saturate(two_points), None)
    assert not ok
    ok, step = conclude_indecomposable(saturate(point), None)
    assert verify_certificate(point, [step])[0]
    forged = Step(COVERING_CONCLUSION, {"trivial": True, "S": ["a", "b"], "flats": []})
    ok, _, reason = verify_certificate(two_points, [forged])
    assert not ok and "disconnected" in reason


_COUNT_RANKS = """
import json
from defocone import corpus, deduction, exact

entry = corpus.corpus()["gyrobifastigium"]
flats = corpus.facet_flats(entry.polytope)
calls = 0
original = exact.rank


def counted(*args):
    global calls
    calls += 1
    return original(*args)


def calls_made(fn, *args):
    start = calls
    result = fn(*args)
    return calls - start, result


exact.rank = deduction.rank = counted
counts = {}
counts["saturate"], state = calls_made(deduction.saturate, entry.framework)
counts["conclude"], _ = calls_made(deduction.conclude_indecomposable, state, flats)
counts["bound"], _ = calls_made(deduction.dim_upper_bound, state, flats)
counts["replay"], verdict = calls_made(deduction.verify_certificate, entry.framework, state.log)
print(json.dumps({
    "rank_calls": counts,
    "log": [[s.kind, s.payload] for s in state.log],
    "replay": verdict,
}))
"""


def test_saturation_independent_of_hash_seed():
    """String hashing must not steer the search, the conclusion, the bound
    or the replay: same eliminations in each, same log.  The bound reuses
    the conclusion's covering test, so it makes no rank call."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(defocone.__file__)))
    runs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", _COUNT_RANKS],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        )
        runs.append(json.loads(out.stdout))
    counts = runs[0]["rank_calls"]
    assert counts["saturate"] > 0 and counts["conclude"] > 0 and counts["replay"] > 0
    assert counts["bound"] == 0
    assert "DimBound" in {k for k, _ in runs[0]["log"]}
    assert runs[0]["replay"] == [True, None, None]
    assert runs[0] == runs[1]


def test_rule_budget_configuration(cp):
    # the rigid-cycle search, within its budgets, joins the two halves
    skew = cp["kallay_skew"]
    st = saturate(skew.framework)
    assert any(s.kind == RIGID_CYCLE for s in st.log)
    ok, _ = conclude_indecomposable(st, facet_flats(skew.polytope))
    assert ok


def test_collinear_triangle_rejected(cp):
    """A triangle is a rigid 3-cycle with no skips: it holds exactly when
    its vertices are affinely independent."""
    collinear = framework(
        {"a": (0, 0), "b": (1, 0), "c": (2, 0)},
        [("a", "b"), ("b", "c"), ("a", "c")],
    )
    triangle = Step(RIGID_CYCLE, {"cycle": ["a", "b", "c"], "skip": []})
    assert verify_certificate(collinear, [triangle]) == (False, 0, "cycle rank condition fails")
    assert verify_certificate(cp["triangle"].framework, [Step(RIGID_CYCLE, {"cycle": ["A", "B", "C"], "skip": []})]) == (
        True, None, None)


def test_projection_lift_requires_parallel_paths(cp):
    """On the square the two paths of a lift must be parallel: two paths
    along different sides span the plane, and every lifted edge with it."""
    sq = cp["square"].framework
    good = Step(PROJECTION_LIFT, {"edge_a": ["B", "C"], "edge_b": ["A", "D"], "path_a": ["B", "A"], "path_b": ["C", "D"]})
    assert verify_certificate(sq, [good]) == (True, None, None)
    bad = Step(PROJECTION_LIFT, {"edge_a": ["B", "C"], "edge_b": ["A", "B"], "path_a": ["B", "A"], "path_b": ["C", "B"]})
    assert verify_certificate(sq, [bad]) == (False, 0, "lifted edge lies in the span of its paths")


def _grown_path(rng, adj, start):
    """A random walk of 0 to 3 steps from start along the framework's edges."""
    path = [start]
    for _ in range(rng.randint(0, 3)):
        path.append(rng.choice(adj[path[-1]]))
    return path


def _random_framework(rng):
    """4 to 8 small integer points in the plane or in space, coincident ones
    allowed, joined by a random spanning tree and at most 40 edges."""
    dim, n = rng.choice((2, 3)), rng.randint(4, 8)
    points = {f"v{i}": tuple(rng.randint(-2, 2) for _ in range(dim)) for i in range(n)}
    ids = list(points)
    edges = {(ids[rng.randrange(i)], ids[i]) for i in range(1, n)}
    pairs = [e for e in itertools.combinations(ids, 2) if e not in edges]
    edges |= set(rng.sample(pairs, min(len(pairs), rng.randint(0, 40 - len(edges)))))
    return framework(points, sorted(edges))


def test_projection_lifts_are_sound_against_the_oracle(cp):
    """Differential soundness: on the corpus and on seeded random connected
    frameworks, every lift `apply` accepts on the framework's own edges,
    with paths grown at random from the ends of a random edge, merges two
    edges of one `dependency_partition` block."""
    rng = random.Random(31)
    fws = [e.framework for _, e in sorted(cp.items())] + [_random_framework(rng) for _ in range(120)]
    tried, accepted, spanned = 0, 0, 0
    for fw in fws:
        if not fw.edges:
            continue
        block_of = {e: i for i, b in enumerate(dependency_partition(fw)) for e in b}
        adj = {v: sorted(ns) for v, ns in graphs.adjacency(fw.vertex_ids, fw.edges).items()}
        for _ in range(100):
            u, v = rng.choice(fw.edges)
            path_a, path_b = _grown_path(rng, adj, u), _grown_path(rng, adj, v)
            if path_a[-1] == path_b[-1]:
                continue
            step = Step(PROJECTION_LIFT, {"edge_a": [u, v], "edge_b": [path_a[-1], path_b[-1]],
                                          "path_a": path_a, "path_b": path_b})
            state = DeductionState(fw)
            reason = state.apply(step)
            tried += 1
            spanned += reason == "lifted edge lies in the span of its paths"
            if reason is None:
                accepted += 1
                ea, eb = edge_key(u, v), edge_key(path_a[-1], path_b[-1])
                assert block_of[ea] == block_of[eb], (fw, step)
    assert tried > 10_000 and accepted > 2_000 and spanned > 1_000, (tried, accepted, spanned)


def test_projection_lift_along_a_path():
    """A trapezoid with a vertex on its long side: the two legs meet the
    horizontal class at both ends, so projecting along it merges them over
    a two-edge path, which the quadrilateral rule cannot find."""
    fw = framework(
        {"a0": (0, 0), "a1": (1, 0), "a2": (2, 0), "b0": (0, 1), "b1": (2, 1)},
        [("a0", "a1"), ("a1", "a2"), ("b0", "b1"), ("a0", "b0"), ("a2", "b1")],
    )
    st = saturate(fw)
    assert st.log == [Step(PROJECTION_LIFT, {
        "edge_a": ["a0", "b0"],
        "edge_b": ["a2", "b1"],
        "path_a": ["a0", "a1", "a2"],
        "path_b": ["b0", "b1"],
    })]
    assert verify_certificate(fw, st.log) == (True, None, None)
    assert frozenset({("a0", "b0"), ("a2", "b1")}) in dependency_partition(fw)
    assert dc_dimension(fw) == 3


def _rejected_steps(cp):
    """name -> (framework, step, words of the reason the kernel must give)."""
    collinear = framework(
        {"a": (0, 0), "b": (1, 0), "c": (2, 0)},
        [("a", "b"), ("b", "c"), ("a", "c")],
    )
    coincident = framework(
        {"a": (0, 0), "b": (0, 0), "c": (1, 0)},
        [("a", "b"), ("b", "c"), ("a", "c")],
    )
    doubled_square = framework(
        {"A": (0, 0), "A2": (0, 0), "B": (1, 0), "C": (1, 1), "D": (0, 1)},
        [("A", "A2"), ("A2", "B"), ("B", "C"), ("C", "D"), ("D", "A")],
    )
    sq, tri = cp["square"].framework, cp["triangle"].framework
    scalene = cp["scalene_quadrilateral"].framework
    two_points = framework({"a": (0,), "b": (1,)}, [])
    lift = {"edge_a": ["B", "C"], "edge_b": ["A", "D"], "path_a": ["B", "A"], "path_b": ["C", "D"]}
    contraction = {"degenerate": ["A", "B"], "pivot": ["A", "C"], "new": ["B", "C"]}
    trivial = {"trivial": True, "S": ["a", "b"], "flats": []}
    bound = {"classes": [["A", "B"]], "S": ["A", "B", "C"], "flats": [["A"], ["B"], ["C"]]}
    # every list field of every step kind with a string in place of a list,
    # which read letter by letter would name labels: "AB" the edge A-B
    shapes = {
        RIGID_CYCLE: (sq, {"cycle": ["A", "B", "C", "D"], "skip": [["A", "B"]]}),
        PROJECTION_LIFT: (sq, lift),
        DEGENERATE_CONTRACTION: (tri, contraction),
        IMPLICIT_FROM_PATH: (tri, {"path": ["A", "B", "C"]}),
        COVERING_CONCLUSION: (tri, {"S": ["A", "B", "C"], "witness_edge": ["A", "B"], "flats": [["A"], ["B"], ["C"]]}),
        DIM_BOUND: (tri, {"bound": 1, **bound}),
    }
    text_lists = {
        f"{kind} with text {key}": (
            fw,
            Step(kind, {**payload, key: [
                "".join(x) for x in value] if isinstance(value[0], list) else "".join(value)}),
            f"malformed payload: {key} must be a list",
        )
        for kind, (fw, payload) in shapes.items()
        for key, value in payload.items()
        if isinstance(value, list)
    }
    return {
        **text_lists,
        "collinear triangle": (
            collinear, Step(RIGID_CYCLE, {"cycle": ["a", "b", "c"], "skip": []}), "rank condition"
        ),
        "coincident triangle": (
            coincident, Step(RIGID_CYCLE, {"cycle": ["a", "b", "c"], "skip": []}), "rank condition"
        ),
        "square cycle without a skip": (
            sq, Step(RIGID_CYCLE, {"cycle": ["A", "B", "C", "D"], "skip": []}), "rank condition"
        ),
        "cycle skipping only a degenerate edge": (
            doubled_square,
            Step(RIGID_CYCLE, {"cycle": ["A", "A2", "B", "C", "D"], "skip": [["A", "A2"]]}),
            "rank condition",
        ),
        "lift of an edge in the span of its paths": (
            sq,
            Step(PROJECTION_LIFT, {"edge_a": ["A", "B"], "edge_b": ["B", "C"], "path_a": ["A", "B"], "path_b": ["B", "C"]}),
            "lifted edge lies in the span of its paths",
        ),
        # each path alone spans a line that misses both lifted edges
        "lift across a quadrilateral whose paths span the plane": (
            scalene,
            Step(PROJECTION_LIFT, {"edge_a": ["A", "D"], "edge_b": ["B", "C"], "path_a": ["A", "B"], "path_b": ["D", "C"]}),
            "lifted edge lies in the span of its paths",
        ),
        "lift with paths that do not end at the second edge": (
            sq, Step(PROJECTION_LIFT, {**lift, "path_b": ["C"]}), "paths do not end at the second edge"
        ),
        "degenerate contraction on a triangle": (
            tri, Step(DEGENERATE_CONTRACTION, contraction), "not degenerate"
        ),
        "implicit path across two classes": (
            sq, Step(IMPLICIT_FROM_PATH, {"path": ["A", "B", "C"]}), "not in one class"
        ),
        "forged trivial conclusion": (
            two_points, Step(COVERING_CONCLUSION, trivial), "disconnected"
        ),
        "bound given as true": (tri, Step(DIM_BOUND, {"bound": True, **bound}), "malformed payload: bound must be an integer"),
        "bound given as 1.0": (tri, Step(DIM_BOUND, {"bound": 1.0, **bound}), "malformed payload: bound must be an integer"),
        "unknown kind": (tri, Step("Bogus", {}), "unknown step kind"),
        "malformed payload": (tri, Step(RIGID_CYCLE, {"cycle": ["A", "B", "C"]}), "malformed payload"),
    }


def test_kernel_rejects_a_step_without_changing_the_state(cp):
    for name, (fw, step, words) in _rejected_steps(cp).items():
        state = saturate(fw)
        before = (set(state.known), state.classes(), list(state.log))
        reason = state.apply(step)
        assert reason is not None and words in reason, (name, reason)
        assert (set(state.known), state.classes(), list(state.log)) == before, name
        assert DeductionState(fw).replay([step]) == (False, 0, reason), name


# The forged steps that `defocone verify` must refuse with the kernel's
# reason: degenerate triangles, a skip of a zero direction, lifts whose
# paths span a lifted edge, paths that miss the second edge, and bounds
# that are not JSON integers.
FORGED_GEOMETRY = (
    "collinear triangle",
    "coincident triangle",
    "cycle skipping only a degenerate edge",
    "lift of an edge in the span of its paths",
    "lift across a quadrilateral whose paths span the plane",
    "lift with paths that do not end at the second edge",
    "bound given as true",
    "bound given as 1.0",
)


@pytest.mark.parametrize("name", FORGED_GEOMETRY)
def test_verify_refuses_forged_geometry_with_the_kernels_reason(tmp_path, cp, name):
    fw, step, words = _rejected_steps(cp)[name]
    reason = DeductionState(fw).apply(step)
    assert words in reason
    fw_file, cert_file = tmp_path / "fw.json", tmp_path / "cert.json"
    fw_file.write_text(json.dumps(framework_to_obj(fw)))
    cert_file.write_text(json.dumps(certificate_to_obj([step])))
    src = os.path.dirname(os.path.dirname(os.path.abspath(defocone.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "defocone", "verify", str(fw_file), str(cert_file)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 1
    assert out.stderr == f"invalid certificate: step 0: {reason}\n"


def test_verify_refuses_text_where_a_list_belongs(tmp_path, cp):
    """Read letter by letter, a 3-cycle over "ABC" and a conclusion over
    S = "ABC" and the flats "A", "B", "C" would replay on the triangle; the
    kernel refuses them, and `defocone verify` with it."""
    tri = cp["triangle"].framework
    text_conclusion = Step(COVERING_CONCLUSION, {"S": "ABC", "witness_edge": "AB", "flats": ["A", "B", "C"]})
    fw_file, cert_file = tmp_path / "fw.json", tmp_path / "cert.json"
    fw_file.write_text(json.dumps(framework_to_obj(tri)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(defocone.__file__)))
    for vertices, index, key in (("ABC", 0, "cycle"), (["A", "B", "C"], 1, "S")):
        steps = [Step(RIGID_CYCLE, {"cycle": vertices, "skip": []}), text_conclusion]
        reason = f"malformed payload: {key} must be a list"
        assert verify_certificate(tri, steps) == (False, index, reason)
        cert_file.write_text(json.dumps(certificate_to_obj(steps)))
        out = subprocess.run(
            [sys.executable, "-m", "defocone", "verify", str(fw_file), str(cert_file)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 1
        assert out.stderr == f"invalid certificate: step {index}: {reason}\n"


def test_conclusion_states_what_the_replay_established(cp):
    cop = cp["kallay_coplanar"]
    st = saturate(cop.framework)
    dim_upper_bound(st, facet_flats(cop.polytope))
    again = DeductionState(cop.framework)
    assert again.replay(st.log) == (True, None, None)
    assert again.conclusion() == {"indecomposable_proved": False, "classes": 2}
    skew = cp["kallay_skew"]
    st = saturate(skew.framework)
    ok, _ = conclude_indecomposable(st, facet_flats(skew.polytope))
    assert ok
    again = DeductionState(skew.framework)
    assert again.replay(st.log) == (True, None, None)
    assert again.conclusion() == st.conclusion() == {"indecomposable_proved": True, "classes": 1}


def test_bounds_from_flats_that_do_not_pin_replay(cp):
    """With half of the facet flats most vertices stay unpinned: the bound
    then comes from spanning classes alone, and its step must replay."""
    bounded = []
    for name, e in sorted(cp.items()):
        if e.polytope is None:
            continue
        flats = facet_flats(e.polytope)
        st = saturate(e.framework)
        bound = dim_upper_bound(st, flats[: len(flats) // 2])
        if bound is None:
            continue
        bounded.append(name)
        assert bound >= dc_dimension(e.framework), name
        assert st.log[-1].kind == DIM_BOUND, name
        good, idx, reason = verify_certificate(e.framework, st.log)
        assert good, (name, idx, reason)
    assert len(bounded) == 21 and "hexagon" not in bounded


def test_dim_bound_rejects_a_disconnected_flat(cp):
    sq = cp["square"].framework
    with pytest.raises(InputError, match="not connected"):
        dim_upper_bound(saturate(sq), [["A", "C"], ["B", "D"]])


# ---------------------------------------------------------------------------
# covering test against the pairwise span intersection it replaced


def _intersect_spans(spans: list[list[Vec]], dim: int) -> int:
    """Dimension of the intersection of the given linear spans, one
    nullspace per pair."""
    current: list[Vec] | None = None
    for vecs in spans:
        if current is None:
            current = list(vecs)
            continue
        if not current:
            return 0
        # x in span(current) and span(vecs): x = C^T y = V^T z
        rows = [[c[i] for c in current] + [-v[i] for v in vecs] for i in range(dim)]
        inter = []
        for sol in nullspace(rows, len(current) + len(vecs)):
            x = tuple(
                sum((sol[j] * current[j][i] for j in range(len(current))), Fraction(0))
                for i in range(dim)
            )
            if not is_zero_vec(x):
                inter.append(x)
        current = inter
    if current is None:
        return dim
    return rank(current, dim) if current else 0


def _reference_pins_all(fw, flats) -> bool:
    for v in fw.vertex_ids:
        spans = [flat_direction(fw, f) for f in flats if v in f]
        if not spans or _intersect_spans(spans, fw.dim) != 0:
            return False
    return True


def _covering_cases(cp):
    """(source, name, framework, flats): facet and singleton flats, each
    list whole and as three seeded random halves."""
    lists = []
    for name, e in sorted(cp.items()):
        if e.polytope is not None:
            lists.append(("corpus facets", name, e.framework, facet_flats(e.polytope)))
        lists.append(("corpus singletons", name, e.framework, singleton_flats(e.framework)))
    for kind, n, m in DEDUCTION_PROVABLE:
        tr = bipartite_truncation(n, m, kind)
        lists.append(("truncation facets", f"{kind}_{n}_{m}", tr.framework, facet_flats(tr.polytope)))
    for name, mb in (
        ("U(2,3)", uniform_matroid(2, 3)),
        ("U(2,4)", uniform_matroid(2, 4)),
        ("M(K4)", graphic_matroid(complete_graph(4))),
    ):
        mp = matroid_polytope(mb)
        lists.append(("matroid facets", name, mp.framework, facet_flats(mp.polytope)))
    cases = []
    for source, name, fw, flats in lists:
        flats = [frozenset(f) for f in flats]
        rng = random.Random(f"{source}/{name}")
        cases.append((source, name, fw, flats))
        for k in range(3):
            cases.append((source, f"{name} half {k}", fw, rng.sample(flats, len(flats) // 2)))
    return cases


def test_covering_matches_pairwise_span_intersection(cp):
    verdicts: dict[str, set[bool]] = {}
    for source, name, fw, flats in _covering_cases(cp):
        got = covering_pins_all(fw, flats)
        assert got == _reference_pins_all(fw, flats), (source, name)
        verdicts.setdefault(source, set()).add(got)
    assert all(v == {True, False} for v in verdicts.values()), verdicts


def test_direction_keys_name_directions_up_to_scale():
    fw = framework(
        {"o": (0, 0, 0), "a": (1, 2, 3), "b": (-2, -4, -6), "c": (Fraction(1, 2), 1, Fraction(3, 2)),
         "d": (1, 2, 4), "e": (0, 0, 0)},
        [],
    )
    st = DeductionState(fw)
    key = st.direction_key(("o", "a"))
    assert key == (1, 2, 3) and all(isinstance(x, int) for x in key)
    assert st.direction_key(("a", "o")) == key  # antiparallel
    assert st.direction_key(("o", "b")) == st.direction_key(("c", "o")) == key  # rational multiples
    assert st.direction_key(("a", "b")) == key  # a pair off the origin
    assert st.direction_key(("o", "d")) != key and st.direction_key(("a", "d")) == (0, 0, 1)
    assert st.direction_key(("o", "e")) is None and st.direction_key(("e", "o")) is None
    assert st.direction(("o", "a")) == (1, 2, 3) and st.direction(("a", "o")) == (-1, -2, -3)


def test_small_rank_matches_exact_rank():
    """`small_rank` reads up to two pairs off the direction keys and hands
    longer lists to `rank`.  Every list of at most two pairs over zero,
    repeated, antiparallel and rational-multiple directions, and seeded
    longer lists, must get `rank`'s answer."""
    rng = random.Random(19)
    two_pair_ranks = set()
    for dim in (1, 2, 3):
        v, w = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)) for _ in range(2)]
        points = {
            "o": (0,) * dim, "z": (0,) * dim, "v": v, "2v": tuple(2 * x for x in v),
            "-v/3": tuple(-x / 3 for x in v), "w": w, "v+w": tuple(x + y for x, y in zip(v, w)),
        }
        st = DeductionState(framework(points, []))
        pairs = list(itertools.permutations(points, 2))
        lists = [[]] + [[e] for e in pairs] + [list(es) for es in itertools.product(pairs, repeat=2)]
        lists += [rng.sample(pairs, rng.randint(3, 5)) for _ in range(200)]
        for es in lists:
            want = rank([st.direction(e) for e in es], dim)
            assert st.small_rank(es) == want, (dim, es)
            if len(es) == 2:
                two_pair_ranks.add(want)
    assert two_pair_ranks == {0, 1, 2}


def _certificate_text(fw, flats) -> str:
    """The certificate JSON as `defocone certify` writes it, after the
    facet-flat conclusion and the dimension bound."""
    state = saturate(fw)
    conclude_indecomposable(state, flats)
    dim_upper_bound(state, flats)
    return json.dumps(certificate_to_obj(state.log, state.conclusion()), indent=1, sort_keys=True) + "\n"


# sha256 prefixes of `_certificate_text` for the corpus (facet flats when
# there is a polytope) and for DEDUCTION_PROVABLE, in certificate format /2:
# triangles are 3-cycle `RigidCycle` steps and lifts carry no kernel, so
# steps hold only labels, and certificates of inputs that differ only in
# coordinates (the square and the parallelogram) coincide.
CERTIFICATE_DIGESTS = {
    "chiseled_cube": "4e0f535ab83e1b28",
    "chiseled_square_pyramid": "a4647ef9f01a1935",
    "cube": "db3811835759cf25",
    "diminished_trapezohedron": "3b5198a3197b1538",
    "gyrobifastigium": "c77449b1058c7e52",
    "hemicube": "b2277e7fd68f1003",
    "hexagon": "f520f0c6126d21e2",
    "hexagonal_pyramid": "bf2714f5860d37aa",
    "kallay_coplanar": "967dd735a389fec3",
    "kallay_skew": "aabdaf9c11268e45",
    "p_2_2": "0e2ca437188fc22b",
    "p_3_1": "5fbde82579dcde3b",
    "parallelogram": "528c3616d1866d05",
    "prism": "820c80f5a75ce38f",
    "q_2_2": "a62c041f11824dd8",
    "q_3_1": "7cbb69ee87b286c6",
    "scalene_quadrilateral": "fcc295d34b76b197",
    "square": "528c3616d1866d05",
    "trapezoid": "518051477888fb5a",
    "triangle": "b0b8016442f4c64b",
    "triangle_sum_shared_direction": "7cac887203711905",
    "triangular_cupola": "5ff965e450c9bfed",
    "two_disjoint_triangles": "c60384e7163ec5d3",
    "P_1_2": "05898347d005111d",
    "P_2_1": "05898347d005111d",
    "P_1_3": "5fbde82579dcde3b",
    "P_3_1": "5fbde82579dcde3b",
    "P_2_2": "0e2ca437188fc22b",
    "P_1_4": "8dfc46e06d87c8ac",
    "P_4_1": "8dfc46e06d87c8ac",
    "P_2_3": "c75f84b6d9913eac",
    "P_3_2": "e6221718ff79bc2e",
    "Q_1_3": "7cbb69ee87b286c6",
    "Q_3_1": "7cbb69ee87b286c6",
    "Q_1_4": "373f3124d8f33969",
    "Q_4_1": "373f3124d8f33969",
    "Q_2_3": "52c1b62fb8c56d76",
    "Q_3_2": "ed6af0696864c2a6",
}


def test_certificates_are_byte_identical(cp):
    got = {name: _certificate_text(e.framework, facet_flats(e.polytope) if e.polytope is not None else None)
           for name, e in sorted(cp.items())}
    for kind, n, m in DEDUCTION_PROVABLE:
        tr = bipartite_truncation(n, m, kind)
        got[f"{kind}_{n}_{m}"] = _certificate_text(tr.framework, facet_flats(tr.polytope))
    digests = {name: hashlib.sha256(text.encode()).hexdigest()[:16] for name, text in got.items()}
    assert digests == CERTIFICATE_DIGESTS


MALFORMED_VALUES = ([], None, 5, "x", [[]], [None], {})


def test_kernel_gives_a_reason_for_any_malformed_field(cp):
    """Each logged step with one payload field replaced by a malformed value
    is rejected with a reason, and `apply` never raises.  The one mutation
    that stays a valid step is an empty `flats` of a dimension bound over
    every vertex: that is how a bound without flats is written."""
    accepted = []
    for name in ("triangle", "square", "cube", "hexagon", "prism", "p_2_2", "q_2_2"):
        e = cp[name]
        st = saturate(e.framework)
        flats = facet_flats(e.polytope) if e.polytope is not None else None
        conclude_indecomposable(st, flats)
        dim_upper_bound(st, flats)
        state = DeductionState(e.framework)
        for i, step in enumerate(st.log):
            for key, value in step.payload.items():
                for bad in MALFORMED_VALUES:
                    if bad != value and state.apply(Step(step.kind, {**step.payload, key: bad})) is None:
                        everything = step.payload.get("S") == sorted(e.framework.vertex_ids)
                        accepted.append((step.kind, key, bad, everything))
                        state = DeductionState(e.framework)
                        state.replay(st.log[:i])
            assert state.apply(step) is None, (name, step)
    empty_flats = [(DIM_BOUND, "flats", v, True) for v in (None, [], {})]
    assert all(a in empty_flats for a in accepted), accepted
