"""Seeded inputs for the benchmark workloads.

Each ladder function writes its input files under a directory and returns
its share of one round: a fixed list of dimermod CLI commands, each with the
rung of the size ladder it belongs to and the check its output must pass.
A workload is one ladder (`polygons`) or several (`torus_graphs`).  The same
seed gives the same files and the same list.

Regenerate every workload's inputs with

    python3 bench/bench_inputs.py --seed 1 --out bench/_inputs
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import dataclass

import bench_checks as ck

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(ROOT, "src", "dimermod", "data")


@dataclass
class Op:
    rung: str
    argv: list
    check: object  # callable(parsed_output) raising ck.CheckError


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True)
    return path


def _bound(fn, ctx):
    return lambda out: fn(out, ctx)


# -- polygons ----------------------------------------------------------------------

POLYGON_RUNGS = (8, 16, 32, 64, 128)
# `bb find` stops at b32: its work varies with the shape of the polygon
# (coefficient of variation 0.3-0.5 between seeds at b64 and b128, against
# at most 0.06 for the group commands) and would dominate the spread between
# runs.  Larger rungs give those two operations to two more thin polygons, so
# that every rung has 12 operations.
BB_FIND_MAX = 32
POLYGON_COMMANDS = (
    ("group", "compute"),
    ("group", "torsion-lattice"),
    ("group", "pic0"),
    ("group", "max-translation-polygon"),
)


def round_polygon(rng, s):
    """Eight jittered points on the circle inscribed in [0, s]^2, hulled.

    Keeping the points near the circle keeps area and bounding box close to
    fixed for a given s, so the cost of a rung varies little between seeds,
    while the side vectors (and so the groups) vary freely.
    """
    c = s / 2
    pts = []
    for i in range(8):
        t = 2 * math.pi * (i + 0.5 * rng.random() - 0.25) / 8
        pts.append((round(c + c * math.cos(t)), round(c + c * math.sin(t))))
    return ck.normalize(ck.hull(pts))


def thin_polygon(rng, s):
    """A genus-0 polygon of lattice width 1, sheared to fill a box of side ~s."""
    a = rng.randint(max(1, s // 2), s)
    b = rng.randint(0, s - 1)
    c = rng.randint(b, s)
    pts = [(0, 0), (a, 0), (c, 1), (b, 1)]
    pts = [(x, x + y) for x, y in pts]
    for _ in range(rng.randrange(4)):
        pts = [(-y, x) for x, y in pts]
    vs = ck.normalize(ck.hull(pts))
    ck.require(ck.pick_genus(vs) == 0, "thin polygon has interior points")
    return vs


def polygons(seed, out_dir):
    """Per rung: two round polygons under the group commands (and `bb find` up to
    b32), one of them dilated, and thin polygons under `group compute` up to 12
    operations."""
    rng = random.Random("polygons-%d" % seed)
    ops = []
    for s in POLYGON_RUNGS:
        rung = "b%d" % s
        commands = POLYGON_COMMANDS + ((("bb", "find"),) if s <= BB_FIND_MAX else ())
        for i in range(2):
            # the second polygon is dilated by 2 or 3, which gives G_N torsion
            f = 1 if i == 0 else rng.choice((2, 3))
            vs = [(f * x, f * y) for x, y in round_polygon(rng, s // f)]
            path = _write_json(os.path.join(out_dir, "%s_round%d.json" % (rung, i)), {"vertices": vs})
            for cmd in commands:
                ops.append(Op(rung, list(cmd) + ["--polygon", path], _bound(ck.POLYGON_CHECKS[cmd[1]], vs)))
        for i in range(12 - 2 * len(commands)):
            vs = thin_polygon(rng, s)
            path = _write_json(os.path.join(out_dir, "%s_thin%d.json" % (rung, i)), {"vertices": vs})
            ops.append(Op(rung, ["group", "compute", "--polygon", path], _bound(ck.check_group_compute, vs)))
    return ops


# -- graphs ------------------------------------------------------------------------

GRAPH_RUNGS = (2, 3, 4)


def _catalog_json(name):
    from dimermod import torusgraph as tg

    return tg.catalog(name).graph.to_json()


def diamond(k):
    return ck.translate_to_origin([(k, 0), (0, k), (-k, 0), (0, -k)])


def triangle(k):
    return ck.translate_to_origin([(0, 0), (k, 0), (0, k)])


def doubled_edge(data, edge_id):
    """Copy of a graph with a parallel twin of one edge, which bounds a bigon face."""
    data = json.loads(json.dumps(data))
    e = next(x for x in data["edges"] if x["id"] == edge_id)
    data["edges"].append(dict(e, id="dup"))
    rot = data["rotations"]
    i = rot[e["black"]].index(edge_id)
    rot[e["black"]].insert(i, "dup")
    j = rot[e["white"]].index(edge_id)
    rot[e["white"]].insert(j + 1, "dup")
    return data


def graphs(seed, out_dir):
    """Per rung k: square_lattice_k and honeycomb_2k (both with 4k^2 faces) under
    `graph check`, `graph newton` and `abel map`; a doubled-edge square_lattice_k
    under `graph check`."""
    rng = random.Random("graphs-%d" % seed)
    ops = []
    for k in GRAPH_RUNGS:
        rung = "k%d" % k
        for name, newton in (("square_lattice_%d" % k, diamond(k)), ("honeycomb_%d" % (2 * k), triangle(2 * k))):
            ctx = {"graph": ck.Graph(_catalog_json(name)), "minimal": True, "newton": newton, "area2": ck.area2(newton)}
            for cmd, flag in ((("graph", "check"), "--graph"), (("graph", "newton"), "--graph"), (("abel", "map"), "--graph")):
                ops.append(Op(rung, list(cmd) + [flag, name], _bound(ck.GRAPH_CHECKS[cmd[1]], ctx)))
        base = _catalog_json("square_lattice_%d" % k)
        edge = rng.choice(sorted(e["id"] for e in base["edges"]))
        data = doubled_edge(base, edge)
        path = _write_json(os.path.join(out_dir, "doubled_%s.json" % rung), data)
        ctx = {"graph": ck.Graph(data), "minimal": False}
        ops.append(Op(rung, ["graph", "check", "--graph", path], _bound(ck.check_graph_check, ctx)))
    return ops


# -- spectra -----------------------------------------------------------------------

SPECTRA_RUNGS = (
    "square_lattice",
    "honeycomb_2",
    "square_lattice_2",
    "honeycomb_3",
    "honeycomb_4",
    "square_lattice_3",
    "honeycomb_5",
)


def random_weights(rng, edge_ids):
    return {e: "%d/%d" % (rng.randint(1, 9), rng.randint(1, 9)) for e in sorted(edge_ids)}


def spectra(seed, out_dir):
    """Per catalog graph: `spectral poly` with and without --normalized on one weight draw."""
    rng = random.Random("spectra-%d" % seed)
    ops = []
    for name in SPECTRA_RUNGS:
        data = _catalog_json(name)
        weights = random_weights(rng, [e["id"] for e in data["edges"]])
        path = _write_json(os.path.join(out_dir, "weights_%s.json" % name), weights)
        shared = {"graph": ck.Graph(data), "weights": ck.parse_weights(weights), "reference": {}}
        for normalized in (False, True):
            ctx = dict(shared, normalized=normalized)
            argv = ["spectral", "poly", "--graph", name, "--weights", path]
            ops.append(Op(name, argv + ["--normalized"] if normalized else argv, _bound(check_spectral, ctx)))
    return ops


def check_spectral(out, ctx):
    """Matching sums are computed once per weight file and shared by both modes."""
    ref = ctx["reference"]
    if "matchings" not in ref:
        ref["matchings"] = ck.matching_sums(ctx["graph"], ctx["weights"])
    ck.check_spectral_poly(out, dict(ctx, matchings=ref["matchings"]))


# -- shuffles ----------------------------------------------------------------------

SHUFFLE_KS = (1, 2, 3, 4)
SHUFFLE_DRAWS = 3


def shuffle_script(k):
    """Domino shuffle of square_lattice_k, built with dimermod's own moves.

    Spider moves at every face of one checkerboard class (they pairwise share
    no edge), then contraction of every vertex left 2-valent; the closing
    isomorphism back onto the base graph is found by search.
    """
    from dimermod import moves, torusgraph as tg

    name = "square_lattice" if k == 1 else "square_lattice_%d" % k
    base = tg.catalog(name).graph
    eps = tg.seed_of(base).epsilon
    parity, stack = {}, [(base.faces()[0].id, 0)]
    while stack:
        f, p = stack.pop()
        if f not in parity:
            parity[f] = p
            stack.extend((h, 1 - p) for h, v in eps[f].items() if v)
    steps = []
    g, w = base, tg.all_ones_weights(base)

    def apply(move):
        nonlocal g, w
        steps.append(move)
        out = moves._apply_move(g, w, move, tag="m%d" % (len(steps) - 1))
        g, w = out.graph, out.weights

    for f in sorted(f for f, p in parity.items() if p == 0):
        apply({"spider": g.face_of_dart(base.face_by_id(f).darts[0])})
    for v in sorted(v for v in g.vertices if len(g.rotations[v]) == 2):
        apply({"contract": v})
    closing = moves.find_closing_isomorphism(g, base)
    ck.require(closing is not None, "no closing isomorphism for the k=%d shuffle", k)
    return {"graph": name, "moves": steps, "closing": closing}


def shuffles(seed, out_dir):
    """Bundled scripts (one weight draw each) and k-fold domino shuffles (three draws each)."""
    rng = random.Random("shuffles-%d" % seed)
    family_sums = {}
    plan = []
    for name in ("domino_shuffle", "translation_x", "translation_y"):
        with open(os.path.join(DATA, name + ".json")) as fh:
            script = json.load(fh)
        kind = "shuffle" if name == "domino_shuffle" else "translation"
        plan.append(("bundled", os.path.join(DATA, name + ".json"), script, kind, 1))
    for k in SHUFFLE_KS:
        script = shuffle_script(k)
        path = _write_json(os.path.join(out_dir, "shuffle_k%d.json" % k), script)
        plan.append(("shuffle_k%d" % k, path, script, "shuffle", SHUFFLE_DRAWS))
    ops = []
    graphs_by_name = {}
    for rung, path, script, kind, draws in plan:
        if script["graph"] not in graphs_by_name:
            graphs_by_name[script["graph"]] = _catalog_json(script["graph"])
        data = graphs_by_name[script["graph"]]
        graph = ck.Graph(data)
        for d in range(draws):
            weights = random_weights(rng, [e["id"] for e in data["edges"]])
            wpath = _write_json(os.path.join(out_dir, "weights_%s_%s_%d.json" % (rung, os.path.basename(path)[:-5], d)), weights)
            ctx = {
                "graph": graph,
                "weights": ck.parse_weights(weights),
                "translation": tuple(script["closing"].get("translation", (0, 0))),
                "kind": kind,
                "family_sums": family_sums,
            }
            ops.append(Op(rung, ["shuffle", "apply", "--script", path, "--weights", wpath], _bound(ck.check_shuffle_apply, ctx)))
    return ops


def torus_graphs(seed, out_dir):
    """The graph read path, the Kasteleyn polynomial and the move write path, in one round."""
    return graphs(seed, out_dir) + spectra(seed, out_dir) + shuffles(seed, out_dir)


WORKLOADS = {"polygons": polygons, "torus_graphs": torus_graphs}


def make_inputs(workload, seed, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    return WORKLOADS[workload](seed, out_dir)


def main():
    ap = argparse.ArgumentParser(description="write the benchmark inputs for a seed")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", default=os.path.join(HERE, "_inputs"))
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    for name in WORKLOADS:
        ops = make_inputs(name, args.seed, os.path.join(args.out, name))
        print("%s: %d operations per round" % (name, len(ops)))


if __name__ == "__main__":
    main()
