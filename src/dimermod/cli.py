"""Command-line front end.

Exit codes: 0 success, 1 failed verification assertion, 2 input error.
Reports are deterministic for identical inputs and seed; timings, in total,
per suite and per check, are only attached under --timing so that
byte-identical reruns stay the default.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

from . import DimermodError, moves, polygon as poly, spectral as sp, suites, torusgraph as tg
from .groups import (
    ambient_quotient,
    build_j,
    cluster_modular_group,
    max_translation_polygon,
    pic0_stack_presentation,
    torsion_lattice,
)


class InputError(Exception):
    pass


def _load_polygon(path):
    try:
        with open(path) as fh:
            return poly.load_polygon(fh)
    except (OSError, KeyError, ValueError) as exc:
        raise InputError("polygon %s: %s" % (path, exc))


def _load_graph(ref):
    try:
        return tg.resolve_graph(ref)
    except (OSError, KeyError, ValueError) as exc:
        raise InputError("graph %s: %s" % (ref, exc))


def _load_weights(path, graph):
    if path is None:
        return tg.all_ones_weights(graph)
    try:
        with open(path) as fh:
            w = tg.parse_weights(json.load(fh))
    except (OSError, KeyError, ValueError) as exc:
        raise InputError("weights %s: %s" % (path, exc))
    missing = sorted(set(graph.edges) - set(w))
    if missing:
        raise InputError("weights missing for edges %s" % ", ".join(missing))
    unknown = sorted(set(w) - set(graph.edges))
    if unknown:
        raise InputError("weights for edges not in the graph: %s" % ", ".join(unknown))
    return w


def _emit(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_polygon_info(args):
    p = _load_polygon(args.polygon)
    g, pts = poly.interior_lattice_points(p)
    _emit(
        {
            "vertices": [list(v) for v in p.vertices],
            "edges": [
                {
                    "index": d.index,
                    "vector": list(d.vector),
                    "multiplicity": d.multiplicity,
                    "inward_normal": list(d.inward_normal),
                }
                for d in p.edge_data()
            ],
            "genus": g,
            "interior_points": [list(q) for q in pts],
            "boundary_points": len(p.boundary_lattice_points()),
            "area2": p.area2(),
        }
    )
    return 0


def cmd_group_compute(args):
    p = _load_polygon(args.polygon)
    res = cluster_modular_group(p)
    out = res.to_json()
    out["embedding_matrix"] = [list(r) for r in build_j(p).matrix]
    out["ambient_quotient"] = ambient_quotient(p).to_json()
    _emit(out)
    return 0


def cmd_group_torsion_lattice(args):
    p = _load_polygon(args.polygon)
    lat = torsion_lattice(p)
    out = lat.to_json()
    out["index_over_H1"] = lat.index_over_standard()
    _emit(out)
    return 0


def cmd_group_max_translation(args):
    p = _load_polygon(args.polygon)
    _emit(max_translation_polygon(p).to_json())
    return 0


def cmd_group_pic0(args):
    p = _load_polygon(args.polygon)
    _emit(pic0_stack_presentation(p).to_json())
    return 0


def cmd_graph_check(args):
    g = _load_graph(args.graph)
    minimal, cert = tg.check_minimality(g)
    out = {
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "faces": {f.id: [list(d) for d in f.darts] for f in g.faces()},
        "zigzags": {
            z.id: {"homology": list(z.homology), "darts": [list(d) for d in z.darts]}
            for z in g.zigzags()
        },
        "minimal": minimal,
    }
    if cert:
        out["certificate"] = cert
    _emit(out)
    return 0


def cmd_graph_newton(args):
    g = _load_graph(args.graph)
    p, labels = tg.newton_polygon(g)
    _emit({"polygon": p.to_json(), "labels": labels})
    return 0


def cmd_graph_export(args):
    g = _load_graph(args.graph)
    _emit(g.to_json())
    return 0


def cmd_bb_find(args):
    p = _load_polygon(args.polygon)
    bb = poly.find_building_block(p)
    _emit(bb.to_json())
    return 0


def cmd_spectral_poly(args):
    g = _load_graph(args.graph)
    w = _load_weights(args.weights, g)
    p = sp.kasteleyn_polynomial(g, w)
    if args.normalized:
        p = sp.normalized_poly(p)
    _emit(p.to_json())
    return 0


def cmd_abel_map(args):
    g = _load_graph(args.graph)
    abel = sp.discrete_abel_map(g)
    _emit(abel.to_json())
    return 0


def _run_script(args):
    try:
        with open(args.script) as fh:
            script = moves.load_script(fh)
    except (OSError, KeyError, ValueError) as exc:
        raise InputError("script %s: %s" % (args.script, exc))
    base = _load_graph(script.graph)
    w = _load_weights(args.weights, base)
    return moves.run_sequence(script, w, base)


def cmd_shuffle_apply(args):
    res = _run_script(args)
    _emit(
        {
            "weights": tg.weights_to_json(res.weights),
            "profile": res.profile.to_json(),
            "trivial": moves.is_trivial(res),
            "abel_shift": dict(sorted(moves.abel_shift(res).items())),
        }
    )
    return 0


def cmd_shuffle_phi(args):
    res = _run_script(args)
    out = res.profile.to_json()
    out["trivial"] = moves.is_trivial(res)
    _emit(out)
    return 0


def cmd_verify_all(args):
    names = [args.suite] if args.suite else sorted(suites.SUITES)
    t0 = time.perf_counter()
    failures, timing, by_check = {}, {}, {}
    for name in names:
        t = time.perf_counter()
        failures[name], by_check[name] = suites.run_suite(name, seed=args.seed)
        timing[name] = int((time.perf_counter() - t) * 1000)
    digest = hashlib.sha256(
        json.dumps({"suites": names, "seed": args.seed}, sort_keys=True).encode()
    ).hexdigest()
    report = {
        "command": "verify-all",
        "inputs": digest,
        "results": {name: ("pass" if not f else "fail") for name, f in failures.items()},
        "failed_assertions": sorted(
            "%s: %s" % (name, msg) for name, f in failures.items() for msg in f
        ),
    }
    if args.timing:
        report["timing_ms"] = int((time.perf_counter() - t0) * 1000)
        report["timing_ms_by_suite"] = timing
        report["timing_ms_by_check"] = by_check
    _emit(report)
    return 0 if not report["failed_assertions"] else 1


@functools.cache
def build_parser():
    """The argparse tree, built once per process: building it costs more than most commands."""
    ap = argparse.ArgumentParser(
        prog="dimermod",
        description="cluster modular groups of dimer integrable systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polygon", help="polygon operations")
    ps = p.add_subparsers(dest="sub", required=True)
    c = ps.add_parser("info")
    c.add_argument("--polygon", required=True)
    c.set_defaults(func=cmd_polygon_info)

    p = sub.add_parser("group", help="group computations from the polygon")
    ps = p.add_subparsers(dest="sub", required=True)
    c = ps.add_parser("compute")
    c.add_argument("--polygon", required=True)
    c.set_defaults(func=cmd_group_compute)
    c = ps.add_parser("torsion-lattice")
    c.add_argument("--polygon", required=True)
    c.set_defaults(func=cmd_group_torsion_lattice)
    c = ps.add_parser("max-translation-polygon")
    c.add_argument("--polygon", required=True)
    c.set_defaults(func=cmd_group_max_translation)
    c = ps.add_parser("pic0")
    c.add_argument("--polygon", required=True)
    c.set_defaults(func=cmd_group_pic0)

    p = sub.add_parser("graph", help="torus graph operations")
    ps = p.add_subparsers(dest="sub", required=True)
    for name, fn in (
        ("check", cmd_graph_check),
        ("newton", cmd_graph_newton),
        ("export", cmd_graph_export),
    ):
        c = ps.add_parser(name)
        c.add_argument("--graph", required=True, help="catalog name or JSON file")
        c.set_defaults(func=fn)

    p = sub.add_parser("bb", help="building block polygons")
    ps = p.add_subparsers(dest="sub", required=True)
    c = ps.add_parser("find")
    c.add_argument("--polygon", required=True)
    c.set_defaults(func=cmd_bb_find)

    p = sub.add_parser("spectral", help="characteristic polynomial")
    ps = p.add_subparsers(dest="sub", required=True)
    c = ps.add_parser("poly")
    c.add_argument("--graph", required=True)
    c.add_argument("--weights")
    c.add_argument("--normalized", action="store_true")
    c.set_defaults(func=cmd_spectral_poly)

    p = sub.add_parser("abel", help="discrete Abel map")
    ps = p.add_subparsers(dest="sub", required=True)
    c = ps.add_parser("map")
    c.add_argument("--graph", required=True)
    c.set_defaults(func=cmd_abel_map)

    p = sub.add_parser("shuffle", help="move sequences")
    ps = p.add_subparsers(dest="sub", required=True)
    c = ps.add_parser("apply")
    c.add_argument("--script", required=True)
    c.add_argument("--weights")
    c.set_defaults(func=cmd_shuffle_apply)
    c = ps.add_parser("phi")
    c.add_argument("--script", required=True)
    c.add_argument("--weights")
    c.set_defaults(func=cmd_shuffle_phi)

    c = sub.add_parser("verify-all", help="run the verification suites")
    c.add_argument("--suite", choices=sorted(suites.SUITES))
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--timing", action="store_true")
    c.set_defaults(func=cmd_verify_all)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except DimermodError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
