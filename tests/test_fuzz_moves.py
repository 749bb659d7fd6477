"""Randomized move walks: structural invariants must survive every rewrite."""

import random
from fractions import Fraction

import pytest

from dimermod import moves, polygon as poly, torusgraph as tg
from dimermod.suites import spider_cross_checks
from test_torusgraph import check_minimality_against_window


def _class_multiset(g):
    return sorted(z.homology for z in g.zigzags())


def _product_of_faces(g, w):
    xs, _ = tg.face_variables(g, w)
    total = Fraction(1)
    for x in xs.values():
        total *= x
    return total


def _applicable_moves(g, rng):
    out = []
    for f in g.faces():
        if len(f.darts) == 4 and len({g.dart_tail(d) for d in f.darts}) == 4:
            out.append({"spider": f.id})
    for v in g.vertices:
        rot = g.rotations[v]
        if len(rot) == 2:
            b1, w1, _ = g.edges[rot[0]]
            b2, w2, _ = g.edges[rot[1]]
            others = {b1, b2, w1, w2} - {v}
            if len(others) == 2:
                out.append({"contract": v})
    for v in sorted(g.vertices):
        rot = g.rotations[v]
        if len(rot) >= 2:
            cut = rng.randint(1, len(rot) - 1)
            start = rng.randrange(len(rot))
            cyc = [rot[(start + t) % len(rot)] for t in range(len(rot))]
            out.append({"expand": {"vertex": v, "first": cyc[:cut], "second": cyc[cut:]}})
    return out


def _check_spanning_tree(g):
    """The walk from min(vertices) spans g, and its lifts agree with every tree disp."""
    root = min(g.vertices)
    pos, steps, nontree = g.spanning_tree(root)
    assert pos[root] == (0, 0) and set(pos) == set(g.vertices)
    assert len(steps) == len(g.vertices) - 1
    assert len(nontree) == len(g.edges) - len(g.vertices) + 1
    assert sorted([e for _, e, _ in steps] + nontree) == sorted(g.edges)
    reached = {root}
    for parent, e, child in steps:
        assert parent in reached and child not in reached
        assert {parent, child} == {g.black(e), g.white(e)}
        assert poly.vsub(pos[g.black(e)], pos[g.white(e)]) == g.disp(e)
        reached.add(child)


@pytest.mark.parametrize(
    "name",
    [
        "honeycomb",
        "honeycomb_2",
        "honeycomb_3",
        "square_lattice",
        "square_lattice_2",
        "square_lattice_3",
    ],
)
def test_spanning_tree_of_catalog_graphs(name):
    _check_spanning_tree(tg.catalog(name).graph)


def test_random_move_walks_keep_invariants():
    rng = random.Random(99)
    for start in ("square_lattice", "honeycomb"):
        g = tg.catalog(start).graph
        w = tg.random_weights(g, rng)
        classes = _class_multiset(g)
        mono = sorted(
            (z.homology, tg.zigzag_monodromy(g, w, z)) for z in g.zigzags()
        )
        for step in range(12):
            options = _applicable_moves(g, rng)
            move = rng.choice(options)
            if "spider" in move:
                # the full cross-check battery on the evolved graph
                fails = spider_cross_checks(g, w, move["spider"], spectral=False)
                assert fails == [], (start, step, fails)
            out = moves._apply_move(g, w, move, tag="f%d" % step)
            g, w = out.graph, out.weights
            _check_spanning_tree(g)
            assert check_minimality_against_window(g) is None
            # validated by construction; check the conserved quantities
            assert _class_multiset(g) == classes, (start, step, move)
            assert _product_of_faces(g, w) == 1
            assert sorted(
                (z.homology, tg.zigzag_monodromy(g, w, z)) for z in g.zigzags()
            ) == mono


def test_random_walk_strand_tracking_stays_bijective():
    rng = random.Random(7)
    g = tg.catalog("square_lattice").graph
    w = tg.random_weights(g, rng)
    anchors = {z.id: moves.Anchor(dart=z.darts[0], translate=(0, 0)) for z in g.zigzags()}
    classes = {z.id: z.homology for z in g.zigzags()}
    for step in range(15):
        options = _applicable_moves(g, rng)
        move = rng.choice(options)
        current = {
            zid: g.zigzag_by_id(g.zigzag_of_dart(a.dart)) for zid, a in anchors.items()
        }
        out = moves._apply_move(g, w, move, tag="t%d" % step)
        for zid, a in anchors.items():
            anchors[zid] = moves._advance_anchor(
                g, current[zid], a, out.removed_darts, out.avoid_darts
            )
        g, w = out.graph, out.weights
        _check_spanning_tree(g)
        assert check_minimality_against_window(g) is None
        seen = set()
        for zid, a in anchors.items():
            pid = g.zigzag_of_dart(a.dart)
            assert pid not in seen
            seen.add(pid)
            assert g.zigzag_by_id(pid).homology == classes[zid]
