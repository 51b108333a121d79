"""File formats and the command-line interface."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import types

import pytest

import defocone

from defocone.cli import build_parser, main
from defocone.corpus import corpus
from defocone.ddcore import MAX_DD_RAYS
from defocone.deduction import PROJECTION_LIFT, Step, saturate
from defocone.errors import InputError
from defocone.io import (
    CERT_FORMAT,
    AnalysisReport,
    certificate_from_obj,
    certificate_to_obj,
    framework_from_obj,
    framework_to_obj,
    polytope_from_obj,
    polytope_to_obj,
)
from defocone.polytope import facets


@pytest.fixture(scope="module")
def cp():
    return corpus()


def test_package_keeps_its_submodules():
    """The package re-exports no function under a submodule's name."""
    import defocone.framework
    import defocone.polytope

    assert isinstance(defocone.framework, types.ModuleType)
    assert isinstance(defocone.polytope, types.ModuleType)
    assert callable(defocone.framework.deformation_space)


def test_framework_roundtrip(cp):
    fw = cp["trapezoid"].framework
    again = framework_from_obj(framework_to_obj(fw))
    assert again == fw


def test_polytope_roundtrip(cp):
    p = cp["hexagon"].polytope
    again = polytope_from_obj(polytope_to_obj(p))
    assert again == p


def test_rationals_in_files_are_strings(cp):
    obj = framework_to_obj(cp["kallay_skew"].framework)
    text = json.dumps(obj)
    parsed = json.loads(text)
    assert framework_from_obj(parsed) == cp["kallay_skew"].framework


def test_malformed_inputs_rejected():
    with pytest.raises(InputError):
        framework_from_obj({"dim": 2, "vertices": []})
    for read in (polytope_from_obj, framework_from_obj):
        with pytest.raises(InputError, match="has no vertices"):
            read({"dim": 2, "vertices": [], "edges": []})
    with pytest.raises(InputError):
        polytope_from_obj(
            {"dim": 1, "vertices": [{"id": "a", "coords": ["0.25"]}]}
        )
    with pytest.raises(InputError):
        certificate_from_obj({"format": "something-else", "steps": []})


def test_certificate_roundtrip(cp):
    st = saturate(cp["p_3_1"].framework)
    obj = certificate_to_obj(st.log, {"note": "test"})
    steps = certificate_from_obj(json.loads(json.dumps(obj)))
    assert steps == st.log


def test_analysis_report_roundtrip():
    rep = AnalysisReport(
        descriptor="x.json",
        n_vertices=3,
        n_edges=3,
        dim=2,
        connected=True,
        dc_dimension=1,
        indecomposable=True,
        blocks=[[["a", "b"], ["b", "c"]]],
        rays=[["1", "1", "1"]],
        matroid_homothet=False,
        seconds=0.01,
    )
    again = AnalysisReport(**json.loads(json.dumps(dataclasses.asdict(rep))))
    assert again == rep


# ---------------------------------------------------------------------------
# CLI


def run_cli(*argv):
    return main(list(argv))


def test_cli_construct_analyze_roundtrip(tmp_path, capsys):
    out = tmp_path / "tri.json"
    assert run_cli("construct", "corpus", "--name", "triangle", "-o", str(out)) == 0
    capsys.readouterr()
    assert run_cli("analyze", str(out), "--rays", "--json") == 0
    first = json.loads(capsys.readouterr().out)
    assert first["dc_dimension"] == 1 and first["indecomposable"]
    assert first["blocks"] == [[["A", "B"], ["A", "C"], ["B", "C"]]]
    assert run_cli("analyze", str(out), "--rays", "--json") == 0
    second = json.loads(capsys.readouterr().out)
    a, b = AnalysisReport(**first), AnalysisReport(**second)
    for key in ("dc_dimension", "indecomposable", "blocks", "rays", "matroid_homothet"):
        assert getattr(a, key) == getattr(b, key)


def test_cli_oracle_on_constructed_family(tmp_path, capsys):
    out = tmp_path / "q22.json"
    assert (
        run_cli(
            "construct", "bipartite-trunc", "--n", "2", "--m", "2", "--kind", "Q",
            "-o", str(out),
        )
        == 0
    )
    capsys.readouterr()
    assert run_cli("analyze", str(out), "--json") == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["indecomposable"], rep["dc_dimension"], rep["matroid_homothet"]) == (False, 2, None)


def test_cli_has_one_command_per_question():
    assert sorted(_subcommands(build_parser())) == ["analyze", "certify", "construct", "report", "verify"]


# (what `analyze` is given, dc, number of blocks, matroid_homothet): the
# decision is made only for an indecomposable polytope.
ANALYZED = {
    "square": (["corpus", "--name", "square"], 2, 2, None),
    "triangle": (["corpus", "--name", "triangle"], 1, 1, False),
    "Q_1,3": (["bipartite-trunc", "--n", "1", "--m", "3", "--kind", "Q"], 1, 1, True),
    "P_2,3": (["bipartite-trunc", "--n", "2", "--m", "3"], 1, 1, False),
    "q_2_2": (["corpus", "--name", "q_2_2"], 2, 2, None),
    "triangle framework": (None, 1, 1, None),
}


@pytest.mark.parametrize("name", sorted(ANALYZED))
def test_cli_analyze_reports_blocks_and_the_matroid_decision(tmp_path, cp, capsys, name):
    family, dc, blocks, matroid = ANALYZED[name]
    path = tmp_path / "in.json"
    if family is None:
        path.write_text(json.dumps(framework_to_obj(cp["triangle"].framework)))
    else:
        assert run_cli("construct", *family, "-o", str(path)) == 0
    capsys.readouterr()
    assert run_cli("analyze", str(path), "--json") == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["dc_dimension"], len(rep["blocks"]), rep["matroid_homothet"]) == (dc, blocks, matroid)
    assert run_cli("analyze", str(path)) == 0
    shown = f"matroid polytope up to homothety: {matroid}\n"
    assert (shown in capsys.readouterr().out) == (matroid is not None)


def test_cli_certify_covers_with_facets_or_single_vertices(tmp_path, cp):
    """A polytope file is covered by its facets, a framework file by its
    vertices one by one."""
    for fixture, obj, flats in (
        ("kallay_skew", polytope_to_obj(cp["kallay_skew"].polytope),
         [sorted(f.vertex_ids) for f in facets(cp["kallay_skew"].polytope)]),
        ("p_3_1", framework_to_obj(cp["p_3_1"].framework), [[v] for v in cp["p_3_1"].framework.vertex_ids]),
    ):
        path, cert = tmp_path / f"{fixture}.json", tmp_path / f"{fixture}.cert.json"
        path.write_text(json.dumps(obj))
        assert run_cli("certify", str(path), "-o", str(cert)) == 0
        last = json.loads(cert.read_text())["steps"][-1]
        assert last["kind"] == "CoveringConclusion"
        assert sorted(last["payload"]["flats"]) == sorted(flats)
        assert run_cli("verify", str(path), str(cert)) == 0


def test_cli_certify_verify_cycle(tmp_path, capsys):
    poly = tmp_path / "p31.json"
    cert = tmp_path / "p31.cert.json"
    assert run_cli("construct", "bipartite-trunc", "--n", "3", "--m", "1", "-o", str(poly)) == 0
    assert run_cli("certify", str(poly), "-o", str(cert)) == 0
    assert run_cli("verify", str(poly), str(cert)) == 0
    blob = json.loads(cert.read_text())
    assert blob["conclusion"]["indecomposable_proved"] is True
    # tamper with a payload: replay must fail with exit code 1
    step = next(s for s in blob["steps"] if s["kind"] == "RigidCycle")
    step["payload"]["cycle"] = step["payload"]["cycle"][:2] + [step["payload"]["cycle"][0]]
    bad = tmp_path / "bad.cert.json"
    bad.write_text(json.dumps(blob))
    capsys.readouterr()
    assert run_cli("verify", str(poly), str(bad)) == 1


def test_cli_verify_checks_the_conclusion(tmp_path, capsys):
    sq = tmp_path / "sq.json"
    assert run_cli("construct", "corpus", "--name", "square", "-o", str(sq)) == 0
    capsys.readouterr()
    assert run_cli("analyze", str(sq), "--json") == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["indecomposable"], rep["dc_dimension"]) == (False, 2)
    forged = tmp_path / "sq.cert.json"
    forged.write_text(json.dumps(certificate_to_obj([], {"indecomposable_proved": True})))
    assert run_cli("verify", str(sq), str(forged)) == 1
    assert "claims indecomposability" in capsys.readouterr().err
    # the same empty replay without the claim is a valid (empty) certificate
    forged.write_text(json.dumps(certificate_to_obj([], {"indecomposable_proved": False})))
    assert run_cli("verify", str(sq), str(forged)) == 0


@pytest.mark.parametrize(
    "edit, code",
    [("genuine", 0), ("classes 17", 1), ("extra key", 1), ("null conclusion", 0)],
)
def test_cli_verify_checks_every_claim(tmp_path, capsys, edit, code):
    poly = tmp_path / "ks.json"
    cert = tmp_path / "ks.cert.json"
    assert run_cli("construct", "corpus", "--name", "kallay_skew", "-o", str(poly)) == 0
    assert run_cli("certify", str(poly), "-o", str(cert)) == 0
    blob = json.loads(cert.read_text())
    assert blob["conclusion"] == {"indecomposable_proved": True, "classes": 1}
    if edit == "classes 17":
        blob["conclusion"]["classes"] = 17
    elif edit == "extra key":
        blob["conclusion"]["dim_bound"] = 0
    elif edit == "null conclusion":
        blob["conclusion"] = None
    cert.write_text(json.dumps(blob))
    capsys.readouterr()
    assert run_cli("verify", str(poly), str(cert)) == code
    err = capsys.readouterr().err
    if code:
        assert "invalid certificate: conclusion claims" in err
    else:
        assert err == ""


MALFORMED_CERTIFICATES = {
    "top-level list": [],
    "steps not a list": {"format": CERT_FORMAT, "steps": 5},
    "step not an object": {"format": CERT_FORMAT, "steps": [5]},
    "step without payload": {"format": CERT_FORMAT, "steps": [{"kind": "RigidCycle"}]},
    "format 1, whose lifts carried a kernel": {"format": "edge-dependency-certificate/1", "steps": []},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CERTIFICATES))
def test_cli_verify_rejects_malformed_certificates(tmp_path, cp, name):
    fw = tmp_path / "tri.json"
    fw.write_text(json.dumps(framework_to_obj(cp["triangle"].framework)))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(MALFORMED_CERTIFICATES[name]))
    src = os.path.dirname(os.path.dirname(os.path.abspath(defocone.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "defocone", "verify", str(fw), str(cert)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    assert out.stderr.startswith("error: ")


# A lift on the square that `verify` accepts.
SQUARE_LIFT = {"edge_a": ["B", "C"], "edge_b": ["A", "D"], "path_a": ["B", "A"], "path_b": ["C", "D"]}


def _verify_square_lift(tmp_path, cp, text):
    sq, cert = tmp_path / "sq.json", tmp_path / "sq.cert.json"
    sq.write_text(json.dumps(framework_to_obj(cp["square"].framework)))
    cert.write_text(text)
    return run_cli("verify", str(sq), str(cert))


@pytest.mark.parametrize("path", ["path_a", "path_b"])
def test_cli_verify_rejects_an_empty_identification_path(tmp_path, cp, capsys, path):
    lift = {**SQUARE_LIFT, path: []}
    assert _verify_square_lift(tmp_path, cp, json.dumps(certificate_to_obj([Step(PROJECTION_LIFT, lift)]))) == 1
    assert capsys.readouterr().err == "invalid certificate: step 0: identification path is empty\n"


BAD_INVOCATIONS = {
    "facet index out of range": ["construct", "stack", "--input", "{cube}", "--facets", "99", "-o", "{out}"],
    "negative facet index": ["construct", "stack", "--input", "{cube}", "--facets", "-1", "-o", "{out}"],
    "bipartite-trunc without sizes": ["construct", "bipartite-trunc", "-o", "{out}"],
    "matroid without a matroid": ["construct", "matroid", "-o", "{out}"],
    "hyperorder without sizes": ["construct", "hyperorder", "-o", "{out}"],
    "wedge without input": ["construct", "wedge", "-o", "{out}"],
    "product without inputs": ["construct", "product", "-o", "{out}"],
    "truncate without input": ["construct", "truncate", "-o", "{out}"],
    "truncate without vertices": ["construct", "truncate", "--input", "{cube}", "-o", "{out}"],
    "truncate unknown vertex": ["construct", "truncate", "--input", "{cube}", "--vertices", "zz", "-o", "{out}"],
    "truncate a point": ["construct", "truncate", "--input", "{point}", "--vertices", "a", "-o", "{out}"],
    "empty complete graph": ["construct", "zonotope", "--complete", "0", "-o", "{out}"],
    "empty bipartite side": ["construct", "zonotope", "--bipartite", "0", "2", "-o", "{out}"],
    "negative uniform rank": ["construct", "matroid", "--uniform", "-1", "3", "-o", "{out}"],
    "analyze a directory": ["analyze", "{dir}"],
    "analyze non-UTF-8 file": ["analyze", "{binary}"],
    "analyze a 100000-deep array": ["analyze", "{deep}"],
    "verify a 100000-deep certificate": ["verify", "{cube}", "{deep}"],
    "polytope file with a repeated id": ["analyze", "{repeated_polytope}"],
    "framework file with a repeated id": ["analyze", "{repeated_framework}"],
    "polytope file with no vertices": ["analyze", "{empty_polytope}"],
    "framework file with no vertices": ["analyze", "{empty_framework}"],
    "polytope file with text coordinates": ["analyze", "{text_coords}"],
    "framework file with text edges": ["analyze", "{text_edges}"],
    "polytope file with a boolean dim": ["analyze", "{bool_dim}"],
    "polytope file with null, boolean and integer ids": ["analyze", "{json_ids}"],
    "framework file with an integer id": ["analyze", "{int_id_framework}"],
    "framework file with integer edge endpoints": ["analyze", "{int_endpoints}"],
    "framework file with an object for edges": ["analyze", "{object_edges}"],
    "polytope file with an object for vertices": ["analyze", "{object_vertices}"],
    "polytope file with a string for a vertex row": ["analyze", "{text_row}"],
    "framework file with a list for a vertex row": ["analyze", "{list_row}"],
    "product labels that collide": ["construct", "product", "--inputs", "{seg_a}", "{seg_b}", "-o", "{out}"],
    "seedless is not an option": ["construct", "corpus", "--name", "cube", "--seedless", "-o", "{out}"],
    # each family takes only the options its builder reads, unabbreviated
    "corpus with a size": ["construct", "corpus", "--name", "cube", "--n", "3", "-o", "{out}"],
    "corpus with a wedge option": ["construct", "corpus", "--name", "cube", "--coord", "2", "-o", "{out}"],
    "zonotope of two graphs": ["construct", "zonotope", "--complete", "4", "--bipartite", "2", "2", "-o", "{out}"],
    "matroid of two kinds": ["construct", "matroid", "--uniform", "2", "4", "--graphic-complete", "4", "-o", "{out}"],
    # `analyze` says all they said, and the file decides the flats
    "oracle is not a command": ["oracle", "{cube}", "--json"],
    "matroid-test is not a command": ["matroid-test", "{cube}"],
    "analyze with --deps": ["analyze", "{cube}", "--deps"],
    "certify with --flats facets": ["certify", "{cube}", "--flats", "facets", "-o", "{out}"],
}

# The error line of the invocations that must name their fault exactly.
BAD_INVOCATION_LINES = {
    "polytope file with a repeated id": "error: duplicate vertex label\n",
    "framework file with a repeated id": "error: duplicate vertex label\n",
    "polytope file with no vertices": "error: polytope file has no vertices\n",
    "framework file with no vertices": "error: framework file has no vertices\n",
    "polytope file with text coordinates": "error: malformed polytope file: coords must be a list\n",
    "framework file with text edges": "error: malformed framework file: an edge must be a list\n",
    "polytope file with a boolean dim": "error: malformed polytope file: dim must be an integer\n",
    "polytope file with null, boolean and integer ids": "error: malformed polytope file: a vertex id must be a string\n",
    "framework file with an integer id": "error: malformed framework file: a vertex id must be a string\n",
    "framework file with integer edge endpoints":
        "error: malformed framework file: an edge endpoint must be a string\n",
    "framework file with an object for edges": "error: malformed framework file: edges must be a list\n",
    "polytope file with an object for vertices": "error: malformed polytope file: vertices must be a list\n",
    "polytope file with a string for a vertex row": "error: malformed polytope file: a vertex row must be an object\n",
    "framework file with a list for a vertex row": "error: malformed framework file: a vertex row must be an object\n",
    "product labels that collide": "error: duplicate vertex label\n",
    "truncate a point": "error: no deep truncation at 'a': neighbors are not on a hyperplane\n",
    "seedless is not an option": "error: unrecognized arguments: --seedless\n",
    "corpus with a size": "error: unrecognized arguments: --n 3\n",
    "corpus with a wedge option": "error: unrecognized arguments: --coord 2\n",
    "analyze with --deps": "error: unrecognized arguments: --deps\n",
    "certify with --flats facets": "error: unrecognized arguments: --flats facets\n",
}

# Inputs refused by a resource guard, which exits 2.
GUARDED_INVOCATIONS = {
    "complete graph with 990 arcs": ["construct", "zonotope", "--complete", "45", "-o", "{out}"],
    "bipartite graph with 1024 arcs": ["construct", "zonotope", "--bipartite", "32", "32", "-o", "{out}"],
    # a matroid polytope has one coordinate per element, so the ground set
    # is bounded by the polytope guard's dimension before anything is listed
    "uniform matroid with C(20, 8) bases": ["construct", "matroid", "--uniform", "8", "20", "-o", "{out}"],
    "uniform matroid with C(40, 15) bases": ["construct", "matroid", "--uniform", "15", "40", "-o", "{out}"],
    "graphic matroid of K7": ["construct", "matroid", "--graphic-complete", "7", "-o", "{out}"],
    "graphic matroid of K8": ["construct", "matroid", "--graphic-complete", "8", "-o", "{out}"],
    "graphic matroid of K300": ["construct", "matroid", "--graphic-complete", "300", "-o", "{out}"],
    "uniform matroid of rank 0 on 100000 elements": ["construct", "matroid", "--uniform", "0", "100000", "-o", "{out}"],
    "uniform matroid of rank 1 on 100000 elements": ["construct", "matroid", "--uniform", "1", "100000", "-o", "{out}"],
    # a graph on 14 or more nodes is refused before its arcs are listed
    "complete graph on 3000 nodes": ["construct", "zonotope", "--complete", "3000", "-o", "{out}"],
    "graphic matroid of K3000": ["construct", "matroid", "--graphic-complete", "3000", "-o", "{out}"],
    # the points of a hyperorder polytope lie in R^n, refused above dimension 8
    "hyperorder in dimension 100000": ["construct", "hyperorder", "--n", "100000", "--k", "1", "-o", "{out}"],
    # 1058 cycle equations on 1104 edges, refused before any row is built
    "analyze on a 24 x 24 grid": ["analyze", "{grid}"],
    # no cycle equations, but a 2999 x 2999 kernel basis
    "analyze on a 3000-vertex path": ["analyze", "{path}"],
    # the cyclic polytope C(30, 8): 17,250 facets, refused while DD inserts
    "analyze on 30 moment-curve points in R^8": ["analyze", "{moment}"],
    # the polytope guard comes before the hull frame's elimination and any LP
    "analyze on a 3000-point file in R^2": ["analyze", "{parabola}"],
    "analyze on 9 points in R^9": ["analyze", "{units}"],
}

# The guard each of these inputs must meet first.
GUARDED_INVOCATION_LINES = {
    "analyze on a 3000-vertex path":
        "resource guard: deformation space guard: 2999x2999 kernel basis exceeds 50000 entries\n",
    "analyze on 30 moment-curve points in R^8":
        f"resource guard: double description guard: more than {MAX_DD_RAYS} rays\n",
    "analyze on a 3000-point file in R^2":
        "resource guard: polytope guard: 3000 vertices in dimension 2 exceeds 200/8\n",
    "analyze on 9 points in R^9":
        "resource guard: polytope guard: 9 vertices in dimension 9 exceeds 200/8\n",
}


def _points(*rows, **extra) -> str:
    """The text of a file over (id, coords) rows, in order, repeats kept."""
    vertices = [{"id": v, "coords": [str(x) for x in c]} for v, c in rows]
    return json.dumps({"dim": len(rows[0][1]), "vertices": vertices, **extra})


def _path(n: int) -> str:
    """The text of a framework file: a path on n points of the line."""
    return _points(*[(f"v{i}", (i,)) for i in range(n)], edges=[[f"v{i}", f"v{i + 1}"] for i in range(n - 1)])


def _grid(k: int) -> str:
    """The text of a framework file: the k x k grid graph on the integer points."""
    rows = [(f"v{i}_{j}", (i, j)) for i in range(k) for j in range(k)]
    edges = [[f"v{i}_{j}", f"v{i + 1}_{j}"] for i in range(k - 1) for j in range(k)]
    edges += [[f"v{i}_{j}", f"v{i}_{j + 1}"] for i in range(k) for j in range(k - 1)]
    return _points(*rows, edges=edges)


@pytest.mark.parametrize("name", sorted(BAD_INVOCATIONS) + sorted(GUARDED_INVOCATIONS))
def test_cli_bad_invocations_end_in_an_error_line(tmp_path, cp, name):
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps(polytope_to_obj(cp["cube"].polytope)))
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00{}")
    paths = {"cube": cube, "out": tmp_path / "out.json", "dir": tmp_path, "binary": binary}
    # a square whose fourth vertex reuses the id "a", once without and once
    # with edges; two segments whose "u|w" product labels collide; three
    # files with a string or a boolean where a list or an integer belongs;
    # three with a null, a boolean or a number where a string belongs; and
    # two with an object where a list belongs, and two with a string or a
    # list where a vertex row object belongs
    square = [("a", (0, 0)), ("b", (1, 0)), ("c", (1, 1)), ("a", (0, 1))]
    files = {
        "repeated_polytope": _points(*square),
        "repeated_framework": _points(*square, edges=[["a", "b"], ["b", "c"], ["a", "c"]]),
        "empty_polytope": json.dumps({"dim": 2, "vertices": []}),
        "empty_framework": json.dumps({"dim": 2, "vertices": [], "edges": []}),
        "point": _points(("a", (1, 2))),
        # "00" would read as (0, 0), "ab" as the edge a-b and true as dim 1
        "text_coords": json.dumps({"dim": 2, "vertices": [{"id": "a", "coords": "00"}, {"id": "b", "coords": ["1", "0"]}]}),
        "text_edges": _points(("a", (0, 0)), ("b", (1, 0)), ("c", (0, 1)), edges=["ab", "bc", "ca"]),
        "bool_dim": json.dumps({"dim": True, "vertices": [{"id": "a", "coords": ["0"]}, {"id": "b", "coords": ["1"]}]}),
        # null, true and 1 would read as the vertices "None", "True" and "1"
        "json_ids": _points((None, (0, 0)), (True, (1, 0)), (1, (0, 1))),
        "int_id_framework": _points(("a", (0, 0)), (1, (1, 0)), edges=[["a", "1"]]),
        "int_endpoints": _points(("1", (0, 0)), ("2", (1, 0)), edges=[[1, 2]]),
        # {} would read as no edges, and {"id": "a"} as the vertex row "id"
        "object_edges": _points(("a", (0, 0)), ("b", (1, 0)), edges={}),
        "object_vertices": json.dumps({"dim": 1, "vertices": {"id": "a", "coords": ["0"]}}),
        "text_row": json.dumps({"dim": 1, "vertices": ["a"]}),
        "list_row": json.dumps({"dim": 1, "vertices": [["a", ["0"]]], "edges": []}),
        "deep": "[" * 100_000 + "]" * 100_000,
        "seg_a": _points(("x|", (0,)), ("x", (1,))),
        "seg_b": _points(("y", (0,)), ("|y", (1,))),
        "grid": _grid(24),
        "path": _path(3000),
        "moment": _points(*[(f"t{t}", [t**k for k in range(1, 9)]) for t in range(30)]),
        "parabola": _points(*[(f"t{t}", (t, t * t)) for t in range(3000)]),
        "units": _points(*[(f"e{i}", [int(i == j) for j in range(9)]) for i in range(9)]),
    }
    for key, text in files.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(text)
    argv = [a.format(**paths) for a in {**BAD_INVOCATIONS, **GUARDED_INVOCATIONS}[name]]
    code, line = (2, "resource guard: ") if name in GUARDED_INVOCATIONS else (1, "error: ")
    src = os.path.dirname(os.path.dirname(os.path.abspath(defocone.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "defocone", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == code
    assert "Traceback" not in out.stderr
    err = out.stderr
    if err.startswith("usage: "):  # argparse: its usage lines, then "<prog>: error: ..."
        prog, _, err = err.splitlines()[-1].partition(": ")
        assert prog.startswith("defocone")
        err += "\n"
    assert err.startswith(line)
    exact_lines = {**BAD_INVOCATION_LINES, **GUARDED_INVOCATION_LINES}
    if name in exact_lines:
        assert err == exact_lines[name]
    assert not (tmp_path / "out.json").exists()


# The places that need a polytope, each given a framework file.
POLYTOPE_SITES = {
    "wedge": ["construct", "wedge", "--input", "{fw}", "-o", "{out}"],
    "product": ["construct", "product", "--inputs", "{cube}", "{fw}", "-o", "{out}"],
    "stack": ["construct", "stack", "--input", "{fw}", "-o", "{out}"],
    "truncate": ["construct", "truncate", "--input", "{fw}", "--vertices", "a", "-o", "{out}"],
}


@pytest.mark.parametrize("name", sorted(POLYTOPE_SITES))
def test_cli_refuses_a_framework_where_a_polytope_is_needed(tmp_path, cp, capsys, name):
    fw = tmp_path / "tri.json"
    fw.write_text(json.dumps(framework_to_obj(cp["triangle"].framework)))
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps(polytope_to_obj(cp["cube"].polytope)))
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert run_cli(*[a.format(fw=fw, cube=cube, out=out) for a in POLYTOPE_SITES[name]]) == 1
    assert capsys.readouterr() == ("", f"error: {fw} holds a framework; a polytope input is needed\n")
    assert not out.exists()


# The options each family's sub-parser declares, besides -o/--output.
FAMILY_OPTIONS = {
    "zonotope": {"complete", "bipartite"},
    "bipartite-trunc": {"n", "m", "kind"},
    "wedge": {"input", "coord", "side"},
    "matroid": {"uniform", "graphic_complete"},
    "product": {"inputs"},
    "hyperorder": {"n", "k"},
    "stack": {"input", "facets"},
    "truncate": {"input", "vertices"},
    "corpus": {"name"},
}

# Invocations that between them take every branch of every builder.
FAMILY_RUNS = [
    ["zonotope"],
    ["zonotope", "--bipartite", "1", "2"],
    ["bipartite-trunc", "--n", "2", "--m", "1"],
    ["wedge", "--input", "{square}"],
    ["matroid", "--uniform", "2", "3"],
    ["matroid", "--graphic-complete", "3"],
    ["product", "--inputs", "{square}", "{square}"],
    ["hyperorder", "--n", "3", "--k", "1"],
    ["stack", "--input", "{square}"],
    ["truncate", "--input", "{square}", "--vertices", "{vertex}"],
    ["corpus", "--name", "triangle"],
]


class ReadLog(argparse.Namespace):
    """A namespace that records the name of each attribute read from it."""

    def __init__(self, values: dict):
        super().__init__(**values)
        self._read = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


def _subcommands(parser) -> dict:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_each_family_reads_every_option_it_declares(tmp_path, cp):
    families = _subcommands(_subcommands(build_parser())["construct"])
    declared = {name: {a.dest for a in p._actions} - {"help", "output"} for name, p in families.items()}
    assert declared == FAMILY_OPTIONS
    square = tmp_path / "square.json"
    square.write_text(json.dumps(polytope_to_obj(cp["square"].polytope)))
    paths = {"square": square, "vertex": cp["square"].polytope.vertex_ids[0]}
    read = {name: set() for name in families}
    for run in FAMILY_RUNS:
        args = build_parser().parse_args(["construct", *(a.format(**paths) for a in run), "-o", "unused"])
        log = ReadLog(vars(args))
        args.build(log)
        read[run[0]] |= log._read
    assert read == FAMILY_OPTIONS


def test_cli_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run_cli("analyze", str(missing)) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 1, "vertices": [{"id": "a", "coords": ["0.5"]}]}))
    assert run_cli("analyze", str(bad)) == 1
    path = tmp_path / "path.json"  # 13 edges, each deforming alone: dc = 13
    rows = [(f"v{i}", (i, i * i)) for i in range(14)]
    path.write_text(_points(*rows, edges=[[f"v{i}", f"v{i + 1}"] for i in range(13)]))
    capsys.readouterr()
    assert run_cli("analyze", str(path), "--rays") == 2
    assert capsys.readouterr().err == "resource guard: ray enumeration guard: span dimension 13 exceeds limit 12\n"
    assert run_cli("definitely-not-a-command") == 1


def test_cli_remaining_construct_families(tmp_path, capsys):
    hexa = tmp_path / "hex.json"
    assert run_cli("construct", "zonotope", "--bipartite", "2", "2", "-o", str(hexa)) == 0
    capsys.readouterr()
    assert run_cli("analyze", str(hexa), "--json") == 0
    assert json.loads(capsys.readouterr().out)["dc_dimension"] == 4
    hyper = tmp_path / "hyper.json"
    assert run_cli("construct", "hyperorder", "--n", "4", "--k", "2", "-o", str(hyper)) == 0
    mat = tmp_path / "mat.json"
    assert run_cli("construct", "matroid", "--uniform", "2", "4", "-o", str(mat)) == 0
    capsys.readouterr()
    assert run_cli("analyze", str(mat), "--json") == 0
    assert json.loads(capsys.readouterr().out)["indecomposable"] is True
    cube = tmp_path / "cube.json"
    assert run_cli("construct", "zonotope", "--bipartite", "1", "3", "-o", str(cube)) == 0
    # one stacked facet: a square pyramid plus a segment, so decomposable
    # (criterion 10: one stack on a 3-generator zonotope leaves 2 components)
    stacked = tmp_path / "stacked.json"
    assert run_cli("construct", "stack", "--input", str(cube), "--facets", "0", "-o", str(stacked)) == 0
    capsys.readouterr()
    assert run_cli("analyze", str(stacked), "--json") == 0
    blob = json.loads(capsys.readouterr().out)
    assert (blob["n_vertices"], blob["n_edges"], blob["indecomposable"], blob["dc_dimension"]) == (9, 16, False, 2)
    # two adjacent stacked facets: the pyramid triangles join the two squares
    # into one class, and the parallelograms carry it to every edge
    stacked2 = tmp_path / "stacked2.json"
    assert run_cli("construct", "stack", "--input", str(cube), "--facets", "0", "1", "-o", str(stacked2)) == 0
    capsys.readouterr()
    assert run_cli("analyze", str(stacked2), "--json") == 0
    blob = json.loads(capsys.readouterr().out)
    assert (blob["n_vertices"], blob["n_edges"], blob["indecomposable"], blob["dc_dimension"]) == (10, 20, True, 1)
    cert = tmp_path / "stacked2.cert.json"
    assert run_cli("certify", str(stacked2), "-o", str(cert)) == 0
    assert json.loads(cert.read_text())["conclusion"]["indecomposable_proved"] is True
    assert run_cli("verify", str(stacked2), str(cert)) == 0
    # a stacked point never takes the label of an input vertex: q0 is taken,
    # so the point stacked on the facet x = 1 of this square is q0'
    square = tmp_path / "square.json"
    square.write_text(_points(("q0", (0, 0)), ("b", (1, 0)), ("c", (1, 1)), ("d", (0, 1))))
    stacked_square = tmp_path / "stacked_square.json"
    assert run_cli("construct", "stack", "--input", str(square), "-o", str(stacked_square)) == 0
    rows = json.loads(stacked_square.read_text())["vertices"]
    assert [(r["id"], r["coords"]) for r in rows] == [
        ("q0", ["0", "0"]), ("b", ["1", "0"]), ("c", ["1", "1"]), ("d", ["0", "1"]), ("q0'", ["2", "1/2"])
    ]
    cut = tmp_path / "cut.json"
    assert run_cli("construct", "truncate", "--input", str(cube), "--vertices", "o111", "-o", str(cut)) == 0
    capsys.readouterr()
    assert run_cli("analyze", str(cut), "--json") == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["n_vertices"] == 7 and blob["indecomposable"] is True


def test_cli_wedge_and_product(tmp_path, capsys):
    seg = tmp_path / "seg.json"
    seg.write_text(
        json.dumps(
            {
                "dim": 1,
                "vertices": [
                    {"id": "x", "coords": ["0"]},
                    {"id": "y", "coords": ["1"]},
                ],
            }
        )
    )
    sq = tmp_path / "sq.json"
    assert run_cli("construct", "product", "--inputs", str(seg), str(seg), "-o", str(sq)) == 0
    capsys.readouterr()
    assert run_cli("analyze", str(sq), "--json") == 0
    assert json.loads(capsys.readouterr().out)["dc_dimension"] == 2
    wedge = tmp_path / "w.json"
    assert run_cli("construct", "wedge", "--input", str(sq), "--coord", "1", "-o", str(wedge)) == 0
