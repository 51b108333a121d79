"""Command-line front end.

Subcommands: analyze, certify, verify, construct, report.  On a polytope
file `analyze` adds the matroid decision and `certify` covers with facets.
Exit codes: 0 success, 1 validation or verification failure, 2 resource
guard exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

from .cones import enumerate_rays
from .constructions import (
    bipartite_truncation,
    complete_bipartite,
    complete_graph,
    deep_truncate,
    graphic_matroid,
    graphical_zonotope,
    hyperorder_polytope,
    matroid_polytope,
    permutahedral_wedge,
    product_polytope,
    stack_vertex,
    uniform_matroid,
)
from .corpus import corpus, facet_flats
from .deduction import DeductionState, conclude_indecomposable, saturate
from .errors import InputError, ResourceLimitError
from .exact import rat_str
from .framework import (
    Framework,
    dependency_partition,
    deformation_space,
    is_connected,
    is_indecomposable,
)
from .io import (
    AnalysisReport,
    certificate_from_obj,
    certificate_to_obj,
    framework_to_obj,
    load_geometry,
    load_json,
    polytope_to_obj,
    save_obj,
)
from .polytope import PolytopeV, facets, framework_of, matroid_homothet

OK, FAILURE, GUARD = 0, 1, 2


def _as_framework(obj) -> Framework:
    if isinstance(obj, PolytopeV):
        return framework_of(obj)
    return obj


def _print_report(rep: AnalysisReport, as_json: bool):
    if as_json:
        print(json.dumps(dataclasses.asdict(rep), indent=1, sort_keys=True))
        return
    print(f"input: {rep.descriptor}")
    print(f"vertices: {rep.n_vertices}  edges: {rep.n_edges}  ambient dim: {rep.dim}")
    print(f"connected: {rep.connected}")
    print(f"deformation cone dimension: {rep.dc_dimension}")
    print(f"indecomposable: {rep.indecomposable}")
    if rep.matroid_homothet is not None:
        print(f"matroid polytope up to homothety: {rep.matroid_homothet}")
    if rep.blocks:
        print(f"dependency blocks ({len(rep.blocks)}):")
        for b in rep.blocks:
            print("  " + ", ".join("-".join(e) for e in b))
    if rep.rays is not None:
        print(f"rays ({len(rep.rays)}):")
        for r in rep.rays:
            print("  (" + ", ".join(r) + ")")
    print(f"elapsed: {rep.seconds}s")


def cmd_analyze(args) -> int:
    obj = load_geometry(args.file)
    t0 = time.time()
    fw = _as_framework(obj)
    ds = deformation_space(fw)
    blocks = [sorted([list(e) for e in b]) for b in dependency_partition(fw)]
    rays = None
    if args.rays:
        rays = [[rat_str(x) for x in r] for r in enumerate_rays(ds).rays]
    indecomposable = is_indecomposable(fw)
    matroid = matroid_homothet(obj) if indecomposable and isinstance(obj, PolytopeV) else None
    rep = AnalysisReport(
        descriptor=args.file,
        n_vertices=len(fw.vertex_ids),
        n_edges=len(fw.edges),
        dim=fw.dim,
        connected=is_connected(fw),
        dc_dimension=ds.dim,
        indecomposable=indecomposable,
        blocks=blocks,
        rays=rays,
        matroid_homothet=matroid,
        seconds=round(time.time() - t0, 6),
    )
    _print_report(rep, args.json)
    return OK


def cmd_certify(args) -> int:
    obj = load_geometry(args.file)
    flats = facet_flats(obj) if isinstance(obj, PolytopeV) else None
    state = saturate(_as_framework(obj))
    proved, _ = conclude_indecomposable(state, flats)
    out = args.output or (args.file + ".cert.json")
    save_obj(certificate_to_obj(state.log, state.conclusion()), out)
    print(f"certificate with {len(state.log)} steps written to {out}")
    print(f"indecomposability proved: {proved}")
    return OK


# How `verify` names a conclusion key that the replay does not bear out.
CLAIM_NAMES = {"indecomposable_proved": "indecomposability"}


def cmd_verify(args) -> int:
    obj = load_geometry(args.file)
    fw = _as_framework(obj)
    cert = load_json(args.certificate)
    steps = certificate_from_obj(cert)
    state = DeductionState(fw)
    ok, idx, reason = state.replay(steps)
    if not ok:
        print(f"invalid certificate: step {idx}: {reason}", file=sys.stderr)
        return FAILURE
    established = state.conclusion()
    for key, value in (cert.get("conclusion") or {}).items():
        got = json.dumps(established[key]) if key in established else "nothing"
        if got != json.dumps(value):
            print(
                f"invalid certificate: conclusion claims {CLAIM_NAMES.get(key, key)} = "
                f"{json.dumps(value)}, but the replay established {got}",
                file=sys.stderr,
            )
            return FAILURE
    print(f"certificate valid ({len(steps)} steps replayed)")
    print(f"established: {json.dumps(established, sort_keys=True)}")
    return OK


def _load_polytope(path: str) -> PolytopeV:
    """The polytope in a file; a framework file is refused."""
    obj = load_geometry(path)
    if not isinstance(obj, PolytopeV):
        raise InputError(f"{path} holds a framework; a polytope input is needed")
    return obj


def _zonotope(args):
    g = complete_bipartite(*args.bipartite) if args.bipartite else complete_graph(args.complete)
    return graphical_zonotope(g).polytope


def _matroid(args):
    if args.uniform:
        return matroid_polytope(uniform_matroid(*args.uniform)).polytope
    return matroid_polytope(graphic_matroid(complete_graph(args.graphic_complete))).polytope


def _stack(args):
    base = _load_polytope(args.input)
    fs = facets(base)
    if not all(0 <= i < len(fs) for i in args.facets):
        raise InputError(f"facet indices must lie in 0..{len(fs) - 1}")
    return stack_vertex(base, [fs[i].vertex_ids for i in args.facets])


def _corpus(args):
    entry = corpus().get(args.name)
    if entry is None:
        raise InputError(f"unknown corpus fixture {args.name!r}")
    return entry.polytope if entry.polytope is not None else entry.framework


def cmd_construct(args) -> int:
    made = args.build(args)
    if isinstance(made, PolytopeV):
        kind, obj = "polytope", polytope_to_obj(made)
    else:
        kind, obj = "framework", framework_to_obj(made)
    save_obj(obj, args.output)
    print(f"{kind} with {len(made.vertex_ids)} vertices written to {args.output}")
    return OK


def cmd_report(args) -> int:
    from .report import run_all

    if args.json:
        results = run_all()
        print(
            json.dumps(
                [
                    {
                        "criterion": r.criterion,
                        "label": r.label,
                        "passed": r.passed,
                        "detail": r.detail,
                        "seconds": round(r.seconds, 3),
                    }
                    for r in results
                ],
                indent=1,
            )
        )
    else:
        results = run_all(progress=print)
        passed = sum(1 for r in results if r.passed)
        print(f"\n{passed}/{len(results)} rows pass")
    return OK if all(r.passed for r in results) else FAILURE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="defocone",
        description="Minkowski decomposability and deformation cones, exactly.",
        allow_abbrev=False,
    )
    sub = ap.add_subparsers()

    def command(name, run, help):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(run=run)
        return p

    p = command("analyze", cmd_analyze, "deformation-cone analysis of a file")
    p.add_argument("file")
    p.add_argument("--rays", action="store_true")
    p.add_argument("--json", action="store_true")

    p = command("certify", cmd_certify, "run the deduction engine, write a certificate")
    p.add_argument("file")
    p.add_argument("-o", "--output")

    p = command("verify", cmd_verify, "replay a certificate")
    p.add_argument("file")
    p.add_argument("certificate")

    # One sub-parser per family, declaring only the options its builder reads.
    construct = command("construct", cmd_construct, "emit a family member as a file")
    families = construct.add_subparsers(dest="family", required=True)

    def family(name, build):
        p = families.add_parser(name, allow_abbrev=False)
        p.set_defaults(build=build)
        p.add_argument("-o", "--output", required=True)
        return p

    g = family("zonotope", _zonotope).add_mutually_exclusive_group()
    g.add_argument("--complete", type=int, default=3)
    g.add_argument("--bipartite", type=int, nargs=2, metavar=("N", "M"))

    p = family("bipartite-trunc", lambda a: bipartite_truncation(a.n, a.m, a.kind).polytope)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kind", choices=["P", "Q"], default="P")

    p = family("wedge", lambda a: permutahedral_wedge(_load_polytope(a.input), a.coord, a.side))
    p.add_argument("--input", required=True)
    p.add_argument("--coord", type=int, default=1)
    p.add_argument("--side", choices=["min", "max"], default="min")

    g = family("matroid", _matroid).add_mutually_exclusive_group(required=True)
    g.add_argument("--uniform", type=int, nargs=2, metavar=("K", "N"))
    g.add_argument("--graphic-complete", type=int)

    p = family("product", lambda a: product_polytope(*map(_load_polytope, a.inputs)))
    p.add_argument("--inputs", nargs=2, required=True)

    p = family("hyperorder", lambda a: hyperorder_polytope(a.n, a.k))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = family("stack", _stack)
    p.add_argument("--input", required=True)
    p.add_argument("--facets", type=int, nargs="+", default=[0])

    p = family("truncate", lambda a: deep_truncate(_load_polytope(a.input), a.vertices.split(",")))
    p.add_argument("--input", required=True)
    p.add_argument("--vertices", required=True)

    family("corpus", _corpus).add_argument("--name", required=True)

    p = command("report", cmd_report, "reproduction table")
    p.add_argument("topic", choices=["paper"])
    p.add_argument("--json", action="store_true")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; reserve 2 for guards
        return FAILURE if exc.code else OK
    if not hasattr(args, "run"):
        ap.print_help()
        return FAILURE
    try:
        return args.run(args)
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return GUARD
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE


if __name__ == "__main__":
    sys.exit(main())
