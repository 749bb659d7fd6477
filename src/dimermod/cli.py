"""Command-line front end.

Exit codes: 0 success, 1 failed verification assertion, 2 input error,
141 (128 + SIGPIPE) when the reader closes stdout before the report is
written, as `| head` does.
Polygon, weights and script files are read by `_read` alone, graph files by
`torusgraph.resolve_graph`; a malformed file of any kind is an input error.
Reports are written by `_json_text` alone.
Reports are deterministic for identical inputs and seed; timings, in total,
per suite and per check, are only attached under --timing so that
byte-identical reruns stay the default.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import sys
import time
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

from . import DimermodError, polygon as poly
from .groups import (
    ambient_quotient,
    build_j,
    cluster_modular_group,
    max_translation_polygon,
    pic0_stack_presentation,
    torsion_lattice,
)


def _layer(name):
    """The module dimermod.<name>, in sys.modules at once but run on its first attribute access.

    A polygon command needs only `intlin`, `polygon` and `groups`, so the
    graph layers and the suites are compiled and run only when a command
    first reads one of their names (`importlib.util.LazyLoader`).  Code
    that looks the module up in sys.modules finds it there from the start,
    and it is the package's attribute too, so every import of it by name
    gets this one object.
    """
    full = "%s.%s" % (__package__, name)
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[full] = importlib.util.module_from_spec(spec)
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return module


tg, sp, moves, suites = map(_layer, ("torusgraph", "spectral", "moves", "suites"))
# `verify-all --suite` choices, written out so that building the parser runs no suite code
SUITE_NAMES = ("appendix", "group", "moves", "spectral")


class InputError(Exception):
    pass


# What a bad input file raises: unreadable, not JSON, nested too deep to
# decode, or a value its parser refuses (each DimermodError is a ValueError).
_BAD_INPUT = (OSError, KeyError, ValueError, RecursionError)


def _read(what, path, parse):
    """parse of the JSON value in the file at path; a bad file is an InputError naming what and path."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except _BAD_INPUT as exc:
        raise InputError("%s %s: %s" % (what, path, exc))


def _load_polygon(path):
    return _read("polygon", path, poly.load_polygon)


def _load_graph(ref):
    try:
        return tg.resolve_graph(ref)
    except _BAD_INPUT as exc:
        raise InputError("graph %s: %s" % (ref, exc))


def _load_weights(path, graph):
    if path is None:
        return tg.all_ones_weights(graph)
    w = _read("weights", path, tg.parse_weights)
    if w.keys() != graph.edges.keys():
        missing = sorted(graph.edges.keys() - w.keys())
        if missing:
            raise InputError("weights missing for edges %s" % ", ".join(missing))
        raise InputError("weights for edges not in the graph: %s" % ", ".join(sorted(w.keys() - graph.edges.keys())))
    return w


def _emit(payload):
    print(_json_text(payload))


def _json_text(x, ind="\n"):
    """x as json.dumps(x, indent=2, sort_keys=True) writes it, after the newline and indentation ind.

    json falls back to its pure-Python encoder when an indent is set.  This
    writer gives the same text with no call per scalar: a str or an exact int
    inside a list or dict is written inline, and only containers and other
    scalars (bools, None, floats, through json.dumps) recurse.  A container
    of _MIN_ROWS or more items that are rows of one shape (`_rows_text`:
    darts, faces, lifts, the `abel map` values table, polynomial terms) is
    written by one % template, and every other container by one join of its
    items.
    """
    t = type(x)
    if t is str:
        return _quote(x)
    if t is int:
        return int.__repr__(x)
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = ind + "  "
        items = sorted(x.items())
        if len(x) >= _MIN_ROWS:
            kinds = set(map(type, x.values()))
            if kinds == _DICTS or kinds <= _SEQUENCES:
                body = _rows_text([k for k, _ in items], [v for _, v in items], kinds, inner)
                if body is not None:
                    return "{" + inner + body + ind + "}"
        items = [
            (_quote(k) if type(k) is str else _json_key(k))
            + ": "
            + (_quote(v) if type(v) is str else int.__repr__(v) if type(v) is int else _json_text(v, inner))
            for k, v in items
        ]
        return "{" + inner + ("," + inner).join(items) + ind + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = ind + "  "
        if len(x) >= _MIN_ROWS:
            kinds = set(map(type, x))
            if kinds == _DICTS or kinds <= _SEQUENCES:
                body = _rows_text(None, x, kinds, inner)
                if body is not None:
                    return "[" + inner + body + ind + "]"
        items = [_quote(v) if type(v) is str else int.__repr__(v) if type(v) is int else _json_text(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + ind + "]"
    return json.dumps(x)


def _rows_text(keys, rows, kinds, inner):
    """The items of a list (keys None) or of a dict (its sorted keys) whose values are rows of one shape, or None.

    kinds is the set of the values' types.  The rows are lists or tuples of
    one length, or dicts with one set of two or more str keys, and each
    column must have one scalar shape (`_row_template`).  The
    values may also be non-empty lists of such list rows (the darts of each
    face).  The checks run in C, over map, zip and set.  All items are
    written by one % template, on one flat tuple of the keys and row
    entries.
    """
    deeper = inner + "  "
    if kinds == _DICTS:
        names = rows[0]
        if len(names) < 2 or not set(map(type, names.values())) <= _SCALARS:
            return None
        if set(map(type, names)) != _STRS or set(map(len, rows)) != {len(names)}:
            return None
        names = sorted(names)
        try:
            parts = list(map(itemgetter(*names), rows))
        except KeyError:  # a row with another key set of the same size
            return None
        row = _row_template(parts, inner, "{%s}", [_quote(k).replace("%", "%%") + ": " for k in names])
        if row is None:
            return None
        templates = [row] * len(rows)
    elif not rows[0]:
        return None
    elif type(rows[0][0]) not in _SEQUENCES:  # rows of scalars
        row = _row_template(rows, inner, "[%s]")
        if row is None:
            return None
        templates, parts = [row] * len(rows), rows
    else:  # lists of list rows
        sizes = list(map(len, rows))
        flat = list(chain.from_iterable(rows))
        if 0 in sizes or not set(map(type, flat)) <= _SEQUENCES:
            return None
        row = _row_template(flat, deeper, "[%s]")
        if row is None:
            return None
        lists = {n: "[" + deeper + ("," + deeper).join([row] * n) + inner + "]" for n in set(sizes)}
        templates, parts = list(map(lists.__getitem__, sizes)), map(chain.from_iterable, rows)
    if keys is None:
        return ("," + inner).join(templates) % tuple(chain.from_iterable(parts))
    keys = [_quote(k) if type(k) is str else _json_key(k) for k in keys]
    text = "%s: " + ("," + inner + "%s: ").join(templates)
    return text % tuple(chain.from_iterable(map(chain, zip(keys), parts)))


def _row_template(rows, inner, brackets, names=None):
    """The % template of one row, written between brackets and closed at indentation inner, or None.

    rows are non-empty tuples or lists of one length; names, when given,
    are the written keys in front of each entry.  Each column must be all
    exact ints or all strs that json writes as themselves between quotes,
    so that a bool, None, float or other str leaves the rows to the general
    path.
    """
    if not rows[0] or set(map(len, rows)) != {len(rows[0])}:
        return None
    formats = []
    for column in zip(*rows):
        types = set(map(type, column))
        if types == _INTS:
            formats.append("%d")
        elif types == _STRS and _verbatim("".join(column)):
            formats.append('"%s"')
        else:
            return None
    if names is not None:
        formats = list(map(str.__add__, names, formats))
    deeper = inner + "  "
    return brackets % (deeper + ("," + deeper).join(formats) + inner)


_DICTS, _INTS, _STRS = frozenset([dict]), frozenset([int]), frozenset([str])
_SCALARS, _SEQUENCES = frozenset([int, str]), frozenset([list, tuple])
# Below this many items the shape checks cost about what one template saves:
# timed over every report of one bench round (seed 7), the writer read within
# 1.5 % of this value at 4, 5, 6 and 7 rows, inside the spread of the runs.
_MIN_ROWS = 8


def _verbatim(s):
    """Whether json writes s as s itself between quotes: printable ASCII with no quote or backslash."""
    return s.isascii() and s.isprintable() and '"' not in s and "\\" not in s


def _json_key(k):
    """A dict key as json writes it: a str, or the quoted JSON text of None, a bool, an int or a float."""
    if isinstance(k, str):
        return _quote(k)
    if k is None or isinstance(k, (int, float)):
        return _quote(json.dumps(k))
    raise TypeError("keys must be str, int, float, bool or None, not %s" % type(k).__name__)


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
            "boundary_points": sum(p.multiplicities()),
            "area2": p.area2(),
        }
    )
    return 0


def cmd_group_compute(args):
    p = _load_polygon(args.polygon)
    res = cluster_modular_group(p)
    out = res.to_json()
    out["embedding_matrix"] = build_j(p)
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
        "faces": {f.id: f.darts for f in g.faces()},
        "zigzags": {z.id: {"homology": z.homology, "darts": z.darts} for z in g.zigzags()},
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
    script = _read("script", args.script, moves.load_script)
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
    import hashlib  # here, its one user, so that no other command loads OpenSSL

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


_POLYGON = (("--polygon", {"required": True}),)
_GRAPH = (("--graph", {"required": True}),)
_GRAPH_HELP = (("--graph", {"required": True, "help": "catalog name or JSON file"}),)
_SPECTRAL = _GRAPH + (("--weights", {}), ("--normalized", {"action": "store_true"}))
_SCRIPT = (("--script", {"required": True}), ("--weights", {}))

# (command, help, ((sub, handler, options), ...)), in the order `dimermod -h` lists them
_COMMANDS = (
    ("polygon", "polygon operations", (("info", cmd_polygon_info, _POLYGON),)),
    ("group", "group computations from the polygon", (
        ("compute", cmd_group_compute, _POLYGON),
        ("torsion-lattice", cmd_group_torsion_lattice, _POLYGON),
        ("max-translation-polygon", cmd_group_max_translation, _POLYGON),
        ("pic0", cmd_group_pic0, _POLYGON),
    )),
    ("graph", "torus graph operations", (
        ("check", cmd_graph_check, _GRAPH_HELP),
        ("newton", cmd_graph_newton, _GRAPH_HELP),
        ("export", cmd_graph_export, _GRAPH_HELP),
    )),
    ("bb", "building block polygons", (("find", cmd_bb_find, _POLYGON),)),
    ("spectral", "characteristic polynomial", (("poly", cmd_spectral_poly, _SPECTRAL),)),
    ("abel", "discrete Abel map", (("map", cmd_abel_map, _GRAPH),)),
    ("shuffle", "move sequences", (("apply", cmd_shuffle_apply, _SCRIPT), ("phi", cmd_shuffle_phi, _SCRIPT))),
)


@functools.cache
def build_parser():
    """The argparse tree, built once per process: building it costs more than most commands.

    Its `leaves` map each (command, sub) pair to the parser of that leaf.
    """
    ap = argparse.ArgumentParser(
        prog="dimermod",
        description="cluster modular groups of dimer integrable systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    ap.leaves = {}
    for command, about, subs in _COMMANDS:
        ps = sub.add_parser(command, help=about).add_subparsers(dest="sub", required=True)
        for name, func, options in subs:
            c = ap.leaves[command, name] = ps.add_parser(name)
            for flag, kwargs in options:
                c.add_argument(flag, **kwargs)
            c.set_defaults(func=func)

    c = sub.add_parser("verify-all", help="run the verification suites")
    c.add_argument("--suite", choices=SUITE_NAMES)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--timing", action="store_true")
    c.set_defaults(func=cmd_verify_all)

    return ap


def _parse(argv):
    """The namespace of argv, as build_parser().parse_args(argv) gives it.

    A known (command, sub) pair is parsed by its leaf parser alone, which
    is what the top parser hands the rest of argv to; leftover arguments go
    to the top parser's error, as they would from the top.
    """
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    leaf = ap.leaves.get(tuple(argv[:2]))
    if leaf is None:
        return ap.parse_args(argv)
    args, extras = leaf.parse_known_args(argv[2:])
    if extras:
        ap.error("unrecognized arguments: %s" % " ".join(extras))
    args.command, args.sub = argv[:2]
    return args


def main(argv=None):
    args = _parse(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at /dev/null, so the interpreter's last flush of what
        # is still buffered stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except DimermodError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
