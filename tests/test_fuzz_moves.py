"""Randomized move walks: structural invariants must survive every rewrite."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from dimermod import intlin, moves, polygon as poly, torusgraph as tg
from dimermod.suites import bundled_script, spider_cross_checks
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


def _assert_same_as_full_build(g):
    """A graph a move made, which re-traced only the orbits it rewrote, equals a full build."""
    full = tg.TorusGraph(g.vertices, g.edges, g.rotations)
    assert [(f.id, f.darts) for f in g.faces()] == [(f.id, f.darts) for f in full.faces()]
    assert [(z.id, z.darts, z.homology, z.positions) for z in g.zigzags()] == [
        (z.id, z.darts, z.homology, z.positions) for z in full.zigzags()
    ]
    for d in [(e, s) for e in full.edges for s in (1, -1)]:
        assert g.face_of_dart(d) == full.face_of_dart(d), d
        assert g.zigzag_of_dart(d) == full.zigzag_of_dart(d), d


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


# (seed, start graphs, moves per walk, tag of the new names) of the two walks
INVARIANT_WALKS = (99, ("square_lattice", "honeycomb"), 12, "f%d")
STRAND_WALK = (7, ("square_lattice",), 15, "t%d")


def random_walks(seed, starts, steps, tag):
    """Seeded walks of random moves, one from each catalog graph in `starts`.

    Yields (step, g, w, move, outcome) per move, g and w being the graph and
    weights before the move; each walk starts with weights drawn from the rng.
    """
    rng = random.Random(seed)
    for start in starts:
        g = tg.catalog(start).graph
        w = tg.random_weights(g, rng)
        for step in range(steps):
            move = rng.choice(_applicable_moves(g, rng))
            out = moves._apply_move(g, w, move, tag=tag % step)
            yield step, g, w, move, out
            g, w = out.graph, out.weights


def walk_graphs(every=3):
    """Every `every`-th graph, with its weights, of the two walks below."""
    for walk in (INVARIANT_WALKS, STRAND_WALK):
        for step, _, _, _, out in random_walks(*walk):
            if step % every == every - 1:
                yield out.graph, out.weights


def test_random_move_walks_keep_invariants():
    for step, g, w, move, out in random_walks(*INVARIANT_WALKS):
        if step == 0:
            classes = _class_multiset(g)
            mono = sorted(
                (z.homology, tg.zigzag_monodromy(g, w, z)) for z in g.zigzags()
            )
        if "spider" in move:
            # the full cross-check battery on the evolved graph
            fails = spider_cross_checks(g, w, move["spider"], spectral=False)
            assert fails == [], (step, fails)
        g, w = out.graph, out.weights
        _assert_same_as_full_build(g)
        _check_spanning_tree(g)
        assert check_minimality_against_window(g) is None
        # validated by construction; check the conserved quantities
        assert _class_multiset(g) == classes, (step, move)
        assert _product_of_faces(g, w) == 1
        assert sorted(
            (z.homology, tg.zigzag_monodromy(g, w, z)) for z in g.zigzags()
        ) == mono


def test_random_walk_strand_tracking_stays_bijective():
    for step, g, w, move, out in random_walks(*STRAND_WALK):
        if step == 0:
            anchors = {z.id: moves.Anchor(dart=z.darts[0], translate=(0, 0)) for z in g.zigzags()}
            classes = {z.id: z.homology for z in g.zigzags()}
        current = {
            zid: g.zigzag_by_id(g.zigzag_of_dart(a.dart)) for zid, a in anchors.items()
        }
        for zid, a in anchors.items():
            anchors[zid] = moves._advance_anchor(
                g, current[zid], a, out.removed_darts, out.avoid_darts
            )
        g, w = out.graph, out.weights
        _assert_same_as_full_build(g)
        _check_spanning_tree(g)
        assert check_minimality_against_window(g) is None
        seen = set()
        for zid, a in anchors.items():
            pid = g.zigzag_of_dart(a.dart)
            assert pid not in seen
            seen.add(pid)
            assert g.zigzag_by_id(pid).homology == classes[zid]


def _monodromies_one_solve_per_target(g, weights):
    """torus_monodromies as it was with one Smith form per target class."""
    pos, phi, nontree = tg._weight_potentials(g, weights)
    hols, classes = [], []
    for e in sorted(nontree):
        b, w, _ = g.edges[e]
        classes.append(g.cycle_class(pos, e))
        hols.append(phi[w] * weights[e] / phi[b])
    mat = [[c[0] for c in classes], [c[1] for c in classes]]
    out = []
    for target in ((1, 0), (0, 1)):
        m = Fraction(1)
        for c, h in zip(intlin.solve_integer(mat, list(target)), hols):
            m *= h ** c
        out.append(m)
    return tuple(out)


def test_torus_monodromies_match_one_solve_per_target(monkeypatch):
    rng = random.Random(41)
    names = ["honeycomb", "square_lattice"] + [
        "%s_%d" % (family, k) for family in ("honeycomb", "square_lattice") for k in range(2, 5)
    ]
    graphs = [(g, tg.random_weights(g, rng)) for g in (tg.catalog(n).graph for n in names)]
    for g, w in graphs + list(walk_graphs(every=1)):
        assert tg.torus_monodromies(g, w) == _monodromies_one_solve_per_target(g, w)
    forms = []
    smith = intlin.smith_normal_form
    monkeypatch.setattr(intlin, "smith_normal_form", lambda b: forms.append(b) or smith(b))
    tg.torus_monodromies(*graphs[-1])
    assert len(forms) == 1


@pytest.mark.parametrize("name", ["domino_shuffle", "translation_x", "translation_y"])
def test_bundled_scripts_match_full_builds(name):
    script = moves.load_script(bundled_script(name))
    g = tg.resolve_graph(script.graph)
    w = tg.all_ones_weights(g)
    for i, move in enumerate(script.moves):
        out = moves._apply_move(g, w, move, tag="m%d" % i)
        g, w = out.graph, out.weights
        _assert_same_as_full_build(g)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_domino_shuffle_of_refined_lattice_matches_full_builds(k):
    """Spider one checkerboard class of faces, then contract every 2-valent vertex."""
    base = tg.catalog("square_lattice" if k == 1 else "square_lattice_%d" % k).graph
    eps = tg.seed_of(base).epsilon
    parity, stack = {}, [(base.faces()[0].id, 0)]
    while stack:
        f, p = stack.pop()
        if f not in parity:
            parity[f] = p
            stack.extend((h, 1 - p) for h, v in eps[f].items() if v)
    g, w = base, tg.all_ones_weights(base)
    for i, f in enumerate(sorted(f for f, p in parity.items() if p == 0)):
        # faces of one class share no edge, so each is still the face of its base darts
        out = moves.spider_move(g, w, g.face_of_dart(base.face_by_id(f).darts[0]), tag="s%d" % i)
        g, w = out.graph, out.weights
        _assert_same_as_full_build(g)
    for i, v in enumerate(sorted(v for v in g.vertices if len(g.rotations[v]) == 2)):
        out = moves.contract_vertex(g, w, v, tag="c%d" % i)
        g, w = out.graph, out.weights
        _assert_same_as_full_build(g)
    assert len(g.vertices) == len(base.vertices) and len(g.edges) == len(base.edges)
    assert moves.find_closing_isomorphism(g, base) is not None


def test_contraction_that_shifts_displacements_matches_full_build():
    """square_lattice with edge h1,0 cut in three across the domain boundary.

    Contracting the cut's black vertex moves w1,0 onto wx, which shifts the
    displacement of the three other edges at w1,0: zig-zag paths through them
    keep their darts and change their lift positions.
    """
    g = tg.catalog("square_lattice").graph
    b, w, d = g.edges["h1,0"]
    edges = dict(g.edges)
    del edges["h1,0"]
    edges.update(ea=(b, "wx", (0, 0)), eb=("bx", "wx", poly.vsub((0, 0), d)), ec=("bx", w, (0, 0)))
    rotations = dict(g.rotations, wx=("ea", "eb"), bx=("eb", "ec"))
    for v, new in ((b, "ea"), (w, "ec")):
        rotations[v] = tuple(new if e == "h1,0" else e for e in rotations[v])
    g = tg.TorusGraph(dict(g.vertices, wx="w", bx="b"), edges, rotations)
    out = moves.contract_vertex(g, tg.all_ones_weights(g), "bx")
    assert [out.graph.disp(e) != g.disp(e) for e in g.rotations[w] if e != "ec"] == [True] * 3
    _assert_same_as_full_build(out.graph)


def test_expand_with_empty_arc_leaves_a_pendant_edge():
    """An empty first arc is accepted: the new vertex is 1-valent, and its
    face and zig-zag path each run over the new edge in both directions."""
    g = tg.catalog("honeycomb").graph
    rot = list(g.rotations["b0"])
    out = moves.expand_vertex(g, tg.all_ones_weights(g), "b0", [], rot, tag="x")
    h = out.graph
    _assert_same_as_full_build(h)
    assert h.rotations["xa"] == ("xe1",)
    both = [("xe1", 1), ("xe1", -1)]
    for of in (h.face_of_dart, h.zigzag_of_dart):
        assert of(both[0]) == of(both[1])
    assert len(h.faces()) == len(g.faces())
    assert sorted(z.homology for z in h.zigzags()) == sorted(z.homology for z in g.zigzags())


@pytest.mark.parametrize("kind", ["spider", "contract", "expand"])
def test_move_keeps_no_reference_to_its_parent(kind):
    """A move's graph copies what it needs, so a script does not keep every graph alive."""
    g = tg.catalog("square_lattice_2").graph
    rot = g.rotations["b0,0"]
    split = ("b0,0", list(rot[:2]), list(rot[2:]))
    if kind == "contract":
        g = moves.expand_vertex(g, tg.all_ones_weights(g), *split, tag="x").graph
    ref = weakref.ref(g)
    w = tg.all_ones_weights(g)
    if kind == "spider":
        out = moves.spider_move(g, w, "f0")
    elif kind == "contract":
        out = moves.contract_vertex(g, w, "xv")
    else:
        out = moves.expand_vertex(g, w, *split)
    del g
    gc.collect()
    assert ref() is None
    _assert_same_as_full_build(out.graph)
