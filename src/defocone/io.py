"""File formats: frameworks, polytopes, certificates, analysis reports.

All rationals are written in the canonical text form "p" or "p/q" (q > 0,
gcd-reduced); decimals are rejected on input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .deduction import STEP_KINDS, Step
from .errors import InputError
from .exact import parse_rat, rat_str
from .framework import Framework, Points, framework
from .polytope import PolytopeV, polytope

CERT_FORMAT = "edge-dependency-certificate/2"


def _points_to_obj(p: Points) -> dict:
    return {
        "dim": p.dim,
        "vertices": [
            {"id": v, "coords": [rat_str(x) for x in c]} for v, c in zip(p.vertex_ids, p.coords)
        ],
    }


def _listed(x, what: str) -> list:
    """x when it is a JSON list; a string would be read letter by letter."""
    if type(x) is not list:
        raise TypeError(f"{what} must be a list")
    return x


def _text(x, what: str) -> str:
    """x when it is a JSON string; another value would be named by its str."""
    if type(x) is not str:
        raise TypeError(f"{what} must be a string")
    return x


def _points_from_obj(obj: dict, kind: str) -> list:
    """The (id, coords) rows of a file object, in file order, so that a
    repeated id reaches `labelled_points`."""
    try:
        dim = obj["dim"]
        if type(dim) is not int:
            raise TypeError("dim must be an integer")
        pairs = [(_text(row["id"], "a vertex id"), [parse_rat(c) for c in _listed(row["coords"], "coords")])
                 for row in _listed(obj["vertices"], "vertices")]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed {kind} file: {exc}")
    if not pairs:
        raise InputError(f"{kind} file has no vertices")
    if any(len(coords) != dim for _, coords in pairs):
        raise InputError("coordinate length does not match dim")
    return pairs


def framework_to_obj(fw: Framework) -> dict:
    return {**_points_to_obj(fw), "edges": [[u, v] for u, v in fw.edges]}


def framework_from_obj(obj: dict) -> Framework:
    pairs = _points_from_obj(obj, "framework")
    try:
        edges = [(_text(u, "an edge endpoint"), _text(v, "an edge endpoint"))
                 for u, v in (_listed(e, "an edge") for e in _listed(obj["edges"], "edges"))]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed framework file: {exc}")
    return framework(pairs, edges)


def polytope_to_obj(p: PolytopeV) -> dict:
    return _points_to_obj(p)


def polytope_from_obj(obj: dict, check: bool = True) -> PolytopeV:
    return polytope(_points_from_obj(obj, "polytope"), check=check)


def load_json(path: str):
    """The JSON value in a file; InputError when the file is not UTF-8 JSON
    or nests too deeply to decode."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"unreadable JSON in {path}: {exc}")


def load_geometry(path: str):
    """Read a framework or polytope file; the edge list decides which."""
    obj = load_json(path)
    if not isinstance(obj, dict):
        raise InputError("top-level JSON object expected")
    if "edges" in obj:
        return framework_from_obj(obj)
    return polytope_from_obj(obj)


def save_obj(obj: dict, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def certificate_to_obj(steps, conclusion: dict | None = None) -> dict:
    return {
        "format": CERT_FORMAT,
        "steps": [{"kind": s.kind, "payload": s.payload} for s in steps],
        "conclusion": conclusion,
    }


def certificate_from_obj(obj: dict) -> list[Step]:
    """The steps of a certificate object; InputError on a wrong shape."""
    if not isinstance(obj, dict):
        raise InputError("top-level JSON object expected")
    if obj.get("format") != CERT_FORMAT:
        raise InputError("unknown certificate format")
    if not isinstance(obj.get("conclusion"), (dict, type(None))):
        raise InputError("certificate conclusion must be an object or null")
    if not isinstance(obj.get("steps"), list):
        raise InputError("certificate steps must be a list")
    steps = []
    for row in obj["steps"]:
        if not isinstance(row, dict) or not isinstance(row.get("payload"), dict):
            raise InputError("certificate step must be an object with a payload object")
        kind = row.get("kind")
        if kind not in STEP_KINDS:
            raise InputError(f"unknown step kind {kind!r}")
        steps.append(Step(kind, row["payload"]))
    return steps


@dataclass
class AnalysisReport:
    descriptor: str
    n_vertices: int
    n_edges: int
    dim: int
    connected: bool
    dc_dimension: int
    indecomposable: bool
    blocks: list[list[list[str]]]
    rays: list[list[str]] | None
    matroid_homothet: bool | None  # null unless the input is an indecomposable polytope
    seconds: float
