"""Randomized move walks: structural invariants must survive every rewrite."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from dimermod import intlin, moves, polygon as poly, torusgraph as tg
from dimermod.suites import bundled_script, spider_cross_checks
from smith_oracle import smith_normal_form as smith_oracle
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


def _advance_anchor_on_path(g, path, anchor, bad_darts, avoid_darts):
    """The anchor moved forward along its current path to a safe dart, as every anchor once was."""
    darts = path.darts
    i = darts.index(anchor.dart)
    translate = anchor.translate
    for _ in range(len(darts)):
        d = darts[i]
        if d not in bad_darts and d not in avoid_darts:
            return moves.Anchor(dart=d, translate=translate)
        translate = poly.vadd(translate, g.dart_disp(d))
        i = (i + 1) % len(darts)
    raise moves.StrandMatchAmbiguous("no surviving dart on path %s" % path.id)


def track_all_strands(base, weights, script_moves):
    """Oracle for moves._track_strands: after each move, advance every anchor and check every strand."""
    anchors = {z.id: moves.Anchor(dart=z.darts[0], translate=(0, 0)) for z in base.zigzags()}
    strand_class = {z.id: z.homology for z in base.zigzags()}
    g, w = base, dict(weights)
    for i, move in enumerate(script_moves):
        current = {zid: g.zigzag_by_id(g.zigzag_of_dart(a.dart)) for zid, a in anchors.items()}
        outcome = moves._apply_move(g, w, move, tag="m%d" % i)
        for zid, a in anchors.items():
            anchors[zid] = _advance_anchor_on_path(
                g, current[zid], a, outcome.removed_darts, outcome.avoid_darts
            )
        g, w = outcome.graph, outcome.weights
        seen = {}
        for zid, a in anchors.items():
            pid = g.zigzag_of_dart(a.dart)
            if pid in seen:
                raise moves.StrandMatchAmbiguous(
                    "strands %s and %s merged after move %d" % (seen[pid], zid, i)
                )
            seen[pid] = zid
            if g.zigzag_by_id(pid).homology != strand_class[zid]:
                raise moves.StrandMatchAmbiguous(
                    "strand %s changed homology class after move %d" % (zid, i)
                )
    return g, w, anchors


def run_sequence_all_strands(script, weights):
    """Oracle for moves.run_sequence, tracking strands by track_all_strands."""
    base = tg.resolve_graph(script.graph)
    base_poly, labels = tg.newton_polygon(base)
    g, w, anchors = track_all_strands(base, weights, script.moves)
    return moves._close(script.closing, base, base_poly, labels, g, w, anchors)


def test_random_walk_strand_tracking_stays_bijective():
    for step, g, w, move, out in random_walks(*STRAND_WALK):
        if step == 0:
            anchors = {z.id: moves.Anchor(dart=z.darts[0], translate=(0, 0)) for z in g.zigzags()}
            classes = {z.id: z.homology for z in g.zigzags()}
        current = {
            zid: g.zigzag_by_id(g.zigzag_of_dart(a.dart)) for zid, a in anchors.items()
        }
        for zid, a in anchors.items():
            anchors[zid] = _advance_anchor_on_path(
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


def test_strand_tracking_matches_all_strands_on_the_seeded_walk():
    """The seeded strand walk, replayed with the tags run_sequence gives; compared after every move."""
    walk = list(random_walks(STRAND_WALK[0], STRAND_WALK[1], STRAND_WALK[2], "m%d"))
    base, weights = walk[0][1], walk[0][2]
    script_moves = [move for _, _, _, move, _ in walk]
    for n in range(1, len(script_moves) + 1):
        g, w, anchors = moves._track_strands(base, weights, script_moves[:n])
        g0, w0, anchors0 = track_all_strands(base, weights, script_moves[:n])
        assert anchors == anchors0 and w == w0
        assert (g.vertices, g.edges, g.rotations) == (g0.vertices, g0.edges, g0.rotations)


def domino_shuffle(k):
    """The k-fold domino shuffle of square_lattice_k: spider one checkerboard class of faces, then contract every 2-valent vertex.

    Yields (move, outcome) per move, applied with the tags run_sequence gives.
    """
    base = tg.catalog("square_lattice" if k == 1 else "square_lattice_%d" % k).graph
    eps = tg.seed_of(base).epsilon
    parity, stack = {}, [(base.faces()[0].id, 0)]
    while stack:
        f, p = stack.pop()
        if f not in parity:
            parity[f] = p
            stack.extend((h, 1 - p) for h, v in eps[f].items() if v)
    g, w = base, tg.all_ones_weights(base)
    i = 0
    # faces of one class share no edge, so each is still the face of its base darts
    for f in sorted(f for f, p in parity.items() if p == 0):
        move = {"spider": g.face_of_dart(base.face_by_id(f).darts[0])}
        out = moves._apply_move(g, w, move, tag="m%d" % i)
        yield move, out
        g, w, i = out.graph, out.weights, i + 1
    for v in sorted(v for v in g.vertices if len(g.rotations[v]) == 2):
        move = {"contract": v}
        out = moves._apply_move(g, w, move, tag="m%d" % i)
        yield move, out
        g, w, i = out.graph, out.weights, i + 1


def domino_shuffle_script(k):
    """The k-fold domino shuffle as a script, closed by search."""
    name = "square_lattice" if k == 1 else "square_lattice_%d" % k
    steps = list(domino_shuffle(k))
    closing = moves.find_closing_isomorphism(steps[-1][1].graph, tg.catalog(name).graph)
    return moves.MoveScript(name, [m for m, _ in steps], closing)


ROUND_TRIPS = ((3, "square_lattice", 4), (1, "square_lattice_2", 4), (0, "honeycomb_3", 3))


def round_trip_script(seed, name, trips):
    """A seeded script of round trips, closed by search onto its catalog graph.

    A round trip is a spider move at a random quad face, the spider move at
    the face it recreates and the contraction of the four vertices the first
    one made; or an expansion at a random vertex along a random split of its
    rotation, then the contraction of the new middle vertex.  So the script
    uses every kind of move, and its last graph is isomorphic to its first.
    """
    rng = random.Random(seed)
    base = tg.resolve_graph(name)
    g, w = base, tg.all_ones_weights(base)
    steps = []

    def apply(move):
        nonlocal g, w
        out = moves._apply_move(g, w, move, tag="m%d" % len(steps))
        steps.append(move)
        g, w = out.graph, out.weights

    for _ in range(trips):
        quads = [
            f.id for f in g.faces()
            if len(f.darts) == 4 and len({g.dart_tail(d) for d in f.darts}) == 4
        ]
        if quads and rng.random() < 0.6:
            tag = "m%ds" % len(steps)
            apply({"spider": rng.choice(quads)})
            apply({"spider": next(
                f.id for f in g.faces() if all(d[0].startswith(tag + "q") for d in f.darts)
            )})
            for i in range(4):
                apply({"contract": "%sn%d" % (tag, i)})
        else:
            v = rng.choice(sorted(v for v, r in g.rotations.items() if len(r) >= 2))
            rot = list(g.rotations[v])
            i, n = rng.randrange(len(rot)), rng.randrange(1, len(rot))
            rot = rot[i:] + rot[:i]
            tag = "m%dx" % len(steps)
            apply({"expand": {"vertex": v, "first": rot[:n], "second": rot[n:]}})
            apply({"contract": tag + "v"})
    closing = moves.find_closing_isomorphism(g, base)
    assert closing is not None, (seed, name)
    return moves.MoveScript(name, steps, closing)


@pytest.mark.parametrize(
    "script",
    ["domino_shuffle", "translation_x", "translation_y", 1, 2, 3],
    ids=lambda s: s if isinstance(s, str) else "shuffle_k%d" % s,
)
def test_run_sequence_matches_all_strands(script):
    """Weights, fates, profile and Abel shift equal those of the all-strands oracle."""
    if isinstance(script, str):
        script = moves.load_script(bundled_script(script))
    else:
        script = domino_shuffle_script(script)
    base = tg.resolve_graph(script.graph)
    weights = tg.random_weights(base, random.Random(5))
    got, want = moves.run_sequence(script, weights), run_sequence_all_strands(script, weights)
    assert got.weights == want.weights
    assert got.fates == want.fates
    assert got.profile.to_json() == want.profile.to_json()
    assert moves.abel_shift(got) == moves.abel_shift(want)


def _swap_edge_labels(g, weights, pair, tag=None):
    """Not a move: g with the labels of two edges exchanged, weights and all.

    The graph is isomorphic to g, but darts keep their labels, so an anchor
    on one of the two edges now lies on the path through the other.
    """
    e1, e2 = pair.split()
    swap = {e1: e2, e2: e1}
    edges = {swap.get(e, e): ends for e, ends in g.edges.items()}
    rotations = {v: tuple(swap.get(e, e) for e in r) for v, r in g.rotations.items()}
    changed = {v for e in (e1, e2) for v in g.edges[e][:2]}
    out = tg.TorusGraph(dict(g.vertices), edges, rotations, parent=g, changed=changed)
    w = {swap.get(e, e): x for e, x in weights.items()}
    # no recipe relabels edges; this one is never replayed, as both trackers raise at this move
    recipe = ("expand", e1, e2)
    return moves.MoveOutcome(graph=out, weights=w, removed_darts=set(), avoid_darts=set(), recipe=recipe)


@pytest.mark.parametrize("same_class", [True, False])
def test_strand_errors_match_all_strands(monkeypatch, same_class):
    """A rewrite that moves strand a's anchor onto the path of a later strand c fails the same check in both trackers.

    Valid moves keep every strand, so the rewrite is an edge-label swap put
    in place of the spider move: a's anchor edge, which carries no other
    anchor, and an edge on c with the sign of that anchor, on no anchor and
    not on a.
    """
    base = tg.catalog("honeycomb_3").graph
    zs = base.zigzags()
    anchor_edges = {z.darts[0][0] for z in zs}
    a, c, e2 = next(
        (a, c, e)
        for i, a in enumerate(zs)
        for c in zs[i + 1:]
        if (a.homology == c.homology) == same_class
        and sum(z.darts[0][0] == a.darts[0][0] for z in zs) == 1
        and a.darts[0][0] not in c.edge_ids()
        for e, s in c.darts
        if s == a.darts[0][1] and e not in anchor_edges and e not in a.edge_ids()
    )
    if same_class:
        message = "strands %s and %s merged after move 0" % (a.id, c.id)
    else:
        message = "strand %s changed homology class after move 0" % a.id
    script = moves.MoveScript("honeycomb_3", [{"spider": "%s %s" % (a.darts[0][0], e2)}], {})
    monkeypatch.setattr(moves, "spider_move", _swap_edge_labels)
    weights = tg.all_ones_weights(base)
    for run in (moves.run_sequence, run_sequence_all_strands):
        with pytest.raises(moves.StrandMatchAmbiguous) as err:
            run(script, weights)
        assert str(err.value) == message


def _monodromies_one_solve_per_target(g, weights):
    """torus_monodromies as it was with one pivoting Smith form per target class."""
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
        for c, h in zip(smith_oracle(mat).solve(list(target)), hols):
            m *= h ** c
        out.append(m)
    return tuple(out)


def _crossing_class_pairs(g):
    """The ordered pairs (h_a, h_b) of classes of the two paths through an edge, path a first."""
    index = {z.id: (k, z.homology) for k, z in enumerate(g.zigzags())}
    pairs = set()
    for e in g.edges:
        (_, ha), (_, hb) = sorted(index[g.zigzag_of_dart((e, s))] for s in (1, -1))
        pairs.add((ha, hb))
    return pairs


def test_minimality_takes_one_lattice_per_class_pair(monkeypatch):
    """One Hermite form and no Smith form per ordered pair of classes, and the windowed search's answer."""
    for g in [tg.catalog(n).graph for n in tg.CATALOG_NAMES] + [g for g, _ in walk_graphs()]:
        check_minimality_against_window(g)
    forms = []
    for name in ("column_hermite", "smith_normal_form"):
        monkeypatch.setattr(intlin, name, lambda b, name=name, f=getattr(intlin, name): forms.append(name) or f(b))
    for name, count in (("square_lattice_4", 8), ("honeycomb_8", 4)):
        g = tg.catalog(name).graph
        assert len(_crossing_class_pairs(g)) == count
        for _ in range(2):  # the forms are taken again on every call
            forms.clear()
            assert tg.check_minimality(g) == (True, None)
            assert forms == ["column_hermite"] * count, name


def test_torus_monodromies_match_one_solve_per_target(monkeypatch):
    rng = random.Random(41)
    names = ["honeycomb", "square_lattice"] + [
        "%s_%d" % (family, k) for family in ("honeycomb", "square_lattice") for k in range(2, 5)
    ]
    graphs = [(g, tg.random_weights(g, rng)) for g in (tg.catalog(n).graph for n in names)]
    for g, w in graphs + list(walk_graphs(every=1)):
        assert tg.torus_monodromies(g, w) == _monodromies_one_solve_per_target(g, w)
    forms = []
    for name in ("column_hermite", "smith_normal_form"):
        monkeypatch.setattr(intlin, name, lambda b, name=name, f=getattr(intlin, name): forms.append(name) or f(b))
    tg.torus_monodromies(*graphs[-1])
    assert forms == ["column_hermite"]


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
    for _, out in domino_shuffle(k):
        g = out.graph
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


def test_orbit_work_per_move_does_not_grow_with_the_graph(monkeypatch):
    """Orbits traced and records made per move are bounded by the disk, not the graph.

    Counted over the k = 2 and k = 4 domino shuffles: a move that ranks or
    rebuilds every orbit again makes the k = 4 maximum larger.
    """
    made, per_move = [], []
    update, apply_move = tg._Orbits.update, moves._apply_move

    def counted_update(self, dirty, edges):
        new = update(self, dirty, edges)
        made.extend(new)
        return new

    def counted_move(*args, **kwargs):
        before = len(made)
        out = apply_move(*args, **kwargs)
        per_move.append(len(made) - before)
        return out

    monkeypatch.setattr(tg._Orbits, "update", counted_update)
    monkeypatch.setattr(moves, "_apply_move", counted_move)
    for name in ("Face", "ZigZagPath"):
        monkeypatch.setattr(tg, name, lambda *args, cls=getattr(tg, name), **kw: made.append(cls) or cls(*args, **kw))
    most = {}
    for k in (2, 4):
        per_move.clear()
        for _ in domino_shuffle(k):
            pass
        most[k] = max(per_move)
    assert most[2] == most[4]
