"""Elementary transformations, move sequences, and the translation profile."""

import os
import random
from fractions import Fraction

import pytest

from dimermod import intlin, moves, polygon as poly, spectral as sp, torusgraph as tg
from dimermod.groups import build_j, pair
from dimermod.suites import bundled_script, spider_cross_checks
from smith_oracle import mat_vec

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _square():
    return tg.catalog("square_lattice").graph


def test_unknown_face_and_zigzag_ids():
    g = _square()
    assert g.face_by_id("f2") is g.faces()[2] and g.zigzag_by_id("z1") is g.zigzags()[1]
    with pytest.raises(tg.GraphError, match="no face f99"):
        moves.spider_move(g, tg.all_ones_weights(g), "f99")
    with pytest.raises(tg.GraphError, match="no zig-zag path z99"):
        g.zigzag_by_id("z99")


def test_spider_rejects_non_quad():
    g = tg.catalog("honeycomb").graph
    with pytest.raises(moves.NotQuadFace):
        moves.spider_move(g, tg.all_ones_weights(g), "f0")


def test_spider_rejects_zero_delta():
    g = _square()
    face = g.face_by_id("f0")
    w = tg.all_ones_weights(g)
    w[face.darts[0][0]] = Fraction(-1)  # Delta = (-1)(1) + (1)(1)
    with pytest.raises(moves.MoveNotApplicable, match="face f0"):
        moves.spider_move(g, w, "f0")


def test_spider_all_ones_delta():
    g = _square()
    out = moves.spider_move(g, tg.all_ones_weights(g), "f0", tag="t")
    quad_weights = sorted(w for e, w in out.weights.items() if e.startswith("tq"))
    assert quad_weights == [Fraction(1, 2)] * 4
    legs = [w for e, w in out.weights.items() if e.startswith("tl")]
    assert legs == [Fraction(1)] * 4


def test_spider_inverts_central_face_variable():
    rng = random.Random(31)
    g = _square()
    w = tg.random_weights(g, rng)
    xs, _ = tg.face_variables(g, w)
    out = moves.spider_move(g, w, "f0", tag="t")
    xs2, _ = tg.face_variables(out.graph, out.weights)
    inner = [f.id for f in out.graph.faces() if all(d[0].startswith("tq") for d in f.darts)]
    assert len(inner) == 1
    assert xs2[inner[0]] == 1 / xs["f0"]


def test_spider_cross_checks_random():
    rng = random.Random(32)
    g = _square()
    for _ in range(5):
        w = tg.random_weights(g, rng)
        for f in g.faces():
            assert spider_cross_checks(g, w, f.id) == []


def test_mutate_x_examples():
    eps = {"a": {"a": 0, "k": 1}, "k": {"a": -1, "k": 0}}
    xs = {"a": Fraction(10), "k": Fraction(1)}
    out = moves.mutate_x(eps, xs, "k")
    assert out["a"] == Fraction(5)  # halved at pairing 1, X_k = 1
    assert out["k"] == Fraction(1)
    eps0 = {"a": {"a": 0, "k": 0}, "k": {"a": 0, "k": 0}}
    assert moves.mutate_x(eps0, xs, "k")["a"] == Fraction(10)


def test_mutate_x_involution():
    rng = random.Random(33)
    g = _square()
    seed = tg.seed_of(g)
    for _ in range(10):
        w = tg.random_weights(g, rng)
        xs, _ = tg.face_variables(g, w)
        once = moves.mutate_x(seed.epsilon, xs, "f1")
        eps2 = moves.mutate_epsilon(seed.epsilon, "f1")
        twice = moves.mutate_x(eps2, once, "f1")
        assert twice == xs


def test_contract_requires_two_valent():
    g = _square()
    with pytest.raises(moves.NotTwoValent):
        moves.contract_vertex(g, tg.all_ones_weights(g), "w0,1")
    for missing in ("nope", ["w0,1"]):
        with pytest.raises(moves.MoveNotApplicable, match="no vertex"):
            moves.contract_vertex(g, tg.all_ones_weights(g), missing)
        with pytest.raises(moves.MoveNotApplicable, match="no vertex"):
            moves.expand_vertex(g, tg.all_ones_weights(g), missing, [], [])


def _contract_white(g, weights, v, tag):
    if g.color(v) != tg.WHITE:
        raise moves.NotTwoValent("%s is not white" % v)
    return moves.contract_vertex(g, weights, v, tag)


def _contract_black(g, weights, v, tag):
    if g.color(v) != tg.BLACK:
        raise moves.NotTwoValent("%s is not black" % v)
    return moves.contract_vertex(g, weights, v, tag)


def _weight_class_fingerprint(g, w):
    """Face variables plus zig-zag monodromies, tagged by invariant data.

    Zig-zag classes span the torus homology, so together with the face
    variables these pin the gauge class of the weights; unlike the
    BFS-canonical torus cycles they correspond across elementary moves.
    """
    xs, _ = tg.face_variables(g, w)
    faces = sorted(xs.values())
    zz = sorted((z.homology, tg.zigzag_monodromy(g, w, z)) for z in g.zigzags())
    return faces, zz


def test_contract_preserves_weight_class():
    rng = random.Random(34)
    g = _square()
    w = tg.random_weights(g, rng)
    fp0 = _weight_class_fingerprint(g, w)
    # make a 2-valent white by expanding, then contract it back
    out = moves.expand_vertex(g, w, "w0,1", ["h0,1", "v0,1"], ["h1,1", "v0,0"], tag="x")
    assert _weight_class_fingerprint(out.graph, out.weights)[0] == fp0[0]
    assert _weight_class_fingerprint(out.graph, out.weights)[1] == fp0[1]
    back = moves.contract_vertex(out.graph, out.weights, "xv", tag="c")
    assert _weight_class_fingerprint(back.graph, back.weights) == fp0
    iso = moves.find_closing_isomorphism(back.graph, g)
    assert iso is not None


def test_expand_black_gives_white_middle():
    # expanding a black vertex inserts a 2-valent white; contracting the
    # insertion undoes the expansion exactly
    rng = random.Random(35)
    g = _square()
    w = tg.random_weights(g, rng)
    fp0 = _weight_class_fingerprint(g, w)
    out = moves.expand_vertex(g, w, "b0,0", ["h0,0", "v0,0"], ["h1,0", "v0,1"], tag="x")
    assert out.graph.color("xv") == tg.WHITE
    assert _weight_class_fingerprint(out.graph, out.weights) == fp0
    back = _contract_white(out.graph, out.weights, "xv", tag="c")
    assert _weight_class_fingerprint(back.graph, back.weights) == fp0
    with pytest.raises(moves.NotTwoValent):
        _contract_black(out.graph, out.weights, "xv", tag="c2")


def test_expand_requires_partition():
    g = _square()
    with pytest.raises(moves.MoveNotApplicable):
        moves.expand_vertex(g, tg.all_ones_weights(g), "w0,1", ["h0,1"], ["v0,1"], tag="x")
    with pytest.raises(moves.MoveNotApplicable):
        # not contiguous in the ccw rotation (E, N, W, S)
        moves.expand_vertex(
            g, tg.all_ones_weights(g), "w0,1", ["h0,1", "h1,1"], ["v0,1", "v0,0"], tag="x"
        )


def test_identity_sequence():
    g = _square()
    ident = {
        "graph": "square_lattice",
        "moves": [],
        "closing": {
            "vertex_map": {v: v for v in g.vertices},
            "edge_map": {e: e for e in g.edges},
            "translation": [0, 0],
        },
    }
    res = moves.run_sequence(moves.load_script(ident), tg.all_ones_weights(g))
    assert all(v == 0 for v in res.profile.per_strand.values())
    assert all(v == 0 for v in res.profile.per_edge.values())
    assert moves.is_trivial(res)
    assert all(v == 0 for v in moves.abel_shift(res).values())


def test_translation_profile_matches_pairing():
    g = _square()
    for name, m in (("translation_x", (1, 0)), ("translation_y", (0, 1))):
        script = moves.load_script(bundled_script(name))
        res = moves.run_sequence(script, tg.all_ones_weights(g))
        for z in g.zigzags():
            assert res.profile.per_strand[z.id] == pair(z.homology, m)
        b = build_j(res.polygon)
        jm = mat_vec(b, list(m))
        assert [res.profile.per_edge[r] for r in range(4)] == jm
        assert all(c == 0 for c in res.profile.reduced)
        assert moves.is_trivial(res)
        abel = sp.discrete_abel_map(g)
        assert moves.abel_shift(res) == abel.shift(m)


def test_translation_on_genus_zero_graph_trivial():
    g = tg.catalog("honeycomb").graph
    script = {
        "graph": "honeycomb",
        "moves": [],
        "closing": {
            "vertex_map": {v: v for v in g.vertices},
            "edge_map": {e: e for e in g.edges},
            "translation": [2, 1],
        },
    }
    res = moves.run_sequence(moves.load_script(script), tg.all_ones_weights(g))
    assert res.genus == 0
    assert moves.is_trivial(res)


def test_closing_isomorphism_validation():
    g = _square()
    bad = {
        "graph": "square_lattice",
        "moves": [],
        "closing": {
            "vertex_map": {v: v for v in g.vertices},
            "edge_map": dict(
                {e: e for e in g.edges}, **{"h0,0": "h1,0", "h1,0": "h0,0"}
            ),
            "translation": [0, 0],
        },
    }
    with pytest.raises(moves.ClosingIsomorphismInvalid):
        moves.run_sequence(moves.load_script(bad), tg.all_ones_weights(g))


@pytest.mark.parametrize(
    "name, edge",
    [("square_lattice", "v0,1"), ("square_lattice_2", "v0,2"), ("honeycomb_3", "e2_0,1")],
)
def test_closing_rejects_sheared_displacements(name, edge):
    """Identity maps onto the same graph with every disp sheared by (x, y) -> (x + y, y).

    Colors, incidences and rotations agree, so only the deck corrections fail;
    the error names the first non-tree edge, in walk order, that breaks them.
    """
    base = tg.catalog(name).graph
    sheared = tg.TorusGraph(
        base.vertices,
        {e: (b, w, (d[0] + d[1], d[1])) for e, (b, w, d) in base.edges.items()},
        base.rotations,
    )
    identity = {"vertex_map": {v: v for v in base.vertices}, "edge_map": {e: e for e in base.edges}}
    for final, target in ((sheared, base), (base, sheared)):
        with pytest.raises(moves.ClosingIsomorphismInvalid) as exc:
            moves._check_closing(final, target, identity)
        assert str(exc.value) == "displacements are incompatible along edge %s" % edge


def test_domino_shuffle_profile():
    g = _square()
    script = moves.load_script(bundled_script("domino_shuffle"))
    res = moves.run_sequence(script, tg.all_ones_weights(g))
    assert sum(res.profile.per_edge.values()) == 0
    assert sorted(res.profile.per_edge.values()) == [-1, 0, 0, 1]
    assert not moves.is_trivial(res)
    assert any(c != 0 for c in res.profile.reduced)
    shift = moves.abel_shift(res)
    assert sorted(shift.values()) == [-1, 0, 0, 1]
    # the moved labels are adjacent sides of the Newton polygon
    moved = sorted(res.labels[z] for z, c in shift.items() if c)
    assert (moved[1] - moved[0]) % 4 in (1, 3)


def test_domino_shuffle_weight_action_is_nontrivial():
    rng = random.Random(36)
    g = _square()
    script = moves.load_script(bundled_script("domino_shuffle"))
    w = tg.random_weights(g, rng)
    res = moves.run_sequence(script, w)
    xs0, _ = tg.face_variables(g, w)
    xs1, _ = tg.face_variables(g, res.weights)
    assert xs0 != xs1


def _simulate(script_graph, move_list, weights):
    g = tg.resolve_graph(script_graph)
    w = dict(weights)
    for i, mv in enumerate(move_list):
        out = moves._apply_move(g, w, mv, tag="m%d" % i)
        g, w = out.graph, out.weights
    return g, w


def test_psi_additive_over_shuffle_and_translation():
    g = _square()
    base_script = bundled_script("domino_shuffle")
    res1 = moves.run_sequence(moves.load_script(base_script), tg.all_ones_weights(g))
    b = build_j(res1.polygon)
    for m in ((1, 0), (0, 1), (2, -1)):
        composed = {
            "graph": base_script["graph"],
            "moves": base_script["moves"],
            "closing": dict(base_script["closing"], translation=list(m)),
        }
        res2 = moves.run_sequence(moves.load_script(composed), tg.all_ones_weights(g))
        jm = mat_vec(b, list(m))
        got = [res2.profile.per_edge[r] for r in range(4)]
        want = [res1.profile.per_edge[r] + jm[r] for r in range(4)]
        assert got == want
        assert res2.profile.reduced == res1.profile.reduced


def test_psi_additive_over_double_shuffle():
    # run the shuffle, then run it again through the closing relabeling;
    # psi of the composite must be the reduction of twice the g-vector
    base_script = bundled_script("domino_shuffle")
    g = _square()
    n_first = len(base_script["moves"])
    g1, _ = _simulate("square_lattice", base_script["moves"], tg.all_ones_weights(g))
    ecorr = {k: v for v, k in base_script["closing"]["edge_map"].items()}
    vcorr = {k: v for v, k in base_script["closing"]["vertex_map"].items()}

    second = []
    orig_g, orig_w = g, tg.all_ones_weights(g)
    rep_g, rep_w = g1, {e: Fraction(1) for e in g1.edges}
    for i, mv in enumerate(base_script["moves"]):
        orig_tag, rep_tag = "m%d" % i, "m%d" % (n_first + i)
        if "spider" in mv:
            d = orig_g.face_by_id(mv["spider"]).darts[0]
            step = {"spider": rep_g.face_of_dart((ecorr[d[0]], d[1]))}
        else:
            step = {"contract": vcorr[mv["contract"]]}
        second.append(step)
        out_o = moves._apply_move(orig_g, orig_w, mv, tag=orig_tag)
        out_r = moves._apply_move(rep_g, rep_w, step, tag=rep_tag)
        for e in out_o.graph.edges:
            if e.startswith(orig_tag):
                ecorr[e] = rep_tag + e[len(orig_tag):]
        for v in out_o.graph.vertices:
            if v.startswith(orig_tag):
                vcorr[v] = rep_tag + v[len(orig_tag):]
        orig_g, orig_w = out_o.graph, out_o.weights
        rep_g, rep_w = out_r.graph, out_r.weights

    closing2 = moves.find_closing_isomorphism(rep_g, g)
    assert closing2 is not None
    double = {
        "graph": "square_lattice",
        "moves": base_script["moves"] + second,
        "closing": closing2,
    }
    res2 = moves.run_sequence(moves.load_script(double), tg.all_ones_weights(g))
    res1 = moves.run_sequence(moves.load_script(base_script), tg.all_ones_weights(g))
    b = build_j(res1.polygon)
    doubled = [2 * res1.profile.per_edge[r] for r in range(4)]
    assert intlin.reduce_mod_image(doubled, b) == tuple(res2.profile.reduced)
    assert not moves.is_trivial(res2)


def _spider_involution_parts():
    """Spider twice (face, then the recreated inner face), shrink the pendants."""
    base = _square()
    w = tg.all_ones_weights(base)
    mv = [{"spider": "f0"}]
    out = moves.spider_move(base, w, "f0", tag="m0s")
    g, wt = out.graph, out.weights
    inner = [f.id for f in g.faces() if all(d[0].startswith("m0s") for d in f.darts)][0]
    mv.append({"spider": inner})
    out = moves.spider_move(g, wt, inner, tag="m1s")
    g, wt = out.graph, out.weights
    for i, v in enumerate(sorted(v for v in g.vertices if len(g.rotations[v]) == 2)):
        out = moves.contract_vertex(g, wt, v, tag="m%dc" % (2 + i))
        mv.append({"contract": v})
        g, wt = out.graph, out.weights
    return base, g, mv


def _canonical_involution_closing(base, final):
    f0 = base.face_by_id("f0")
    corners = [base.dart_tail(d) for d in f0.darts]
    f0_edges = [d[0] for d in f0.darts]
    vmap = {}
    for v in final.vertices:
        if v in base.vertices:
            vmap[v] = v
            continue
        olds = set()
        for e in final.rotations[v]:
            if e in base.edges:
                olds.update(base.edges[e][:2])
        cand = {c for c in olds & set(corners) if base.color(c) == final.color(v)}
        assert len(cand) == 1
        vmap[v] = cand.pop()
    emap = {}
    for e in final.edges:
        if e in base.edges:
            emap[e] = e
        else:
            b, wv, _ = final.edges[e]
            ends = {vmap[b], vmap[wv]}
            (old,) = [x for x in f0_edges if set(base.edges[x][:2]) == ends]
            emap[e] = old
    return {"vertex_map": vmap, "edge_map": emap, "translation": [0, 0]}


def psi(result, polygon):
    """The reduced translation class in Z^{E_N}_0 / j H_1, of a sequence run against this Newton polygon (up to translation)."""
    assert poly.translation_equal(polygon, result.polygon)
    return result.profile.reduced


def test_spider_involution_sequence_is_trivial():
    base, final, mv = _spider_involution_parts()
    closing = _canonical_involution_closing(base, final)
    script = moves.MoveScript(graph="square_lattice", moves=mv, closing=closing)
    res = moves.run_sequence(script, tg.all_ones_weights(base))
    assert all(v == 0 for v in res.profile.per_edge.values())
    assert moves.is_trivial(res)
    assert all(v == 0 for v in moves.abel_shift(res).values())
    assert psi(res, res.polygon) == (0, 0, 0, 0)


def test_involution_with_twisted_closing_is_torsion():
    # closing through the half-period automorphism instead of the canonical
    # re-identification realizes the 2-torsion class of the modular group
    base, final, mv = _spider_involution_parts()
    twisted = moves.find_closing_isomorphism(final, base)
    assert twisted is not None
    script = moves.MoveScript(graph="square_lattice", moves=mv, closing=twisted)
    res = moves.run_sequence(script, tg.all_ones_weights(base))
    assert not moves.is_trivial(res)
    b = build_j(res.polygon)
    doubled = [2 * res.profile.per_edge[r] for r in range(4)]
    assert not any(intlin.reduce_mod_image(doubled, b))


def test_refined_lattice_shuffle_with_permuting_families(monkeypatch):
    # one shuffle step on the 4x4 lattice: spider every even face, contract
    # the sixteen 2-valent vertices; the two strands of each moved family
    # swap, so the strip offsets are half-integers summing to integers
    base = tg.catalog("square_lattice_2").graph
    w = tg.all_ones_weights(base)
    seed = tg.seed_of(base)
    parity = {}
    stack = [(base.faces()[0].id, 0)]
    while stack:
        f, p = stack.pop()
        if f in parity:
            continue
        parity[f] = p
        for h, v in seed.epsilon[f].items():
            if v != 0:
                stack.append((h, 1 - p))
    even = sorted(f for f, p in parity.items() if p == 0)
    mv = []
    g, wt = base, dict(w)
    for f in even:
        d = base.face_by_id(f).darts[0]
        mv.append({"spider": g.face_of_dart(d)})
        out = moves._apply_move(g, wt, mv[-1], tag="m%d" % (len(mv) - 1))
        g, wt = out.graph, out.weights
    for v in sorted(v for v in g.vertices if len(g.rotations[v]) == 2):
        mv.append({"contract": v})
        out = moves._apply_move(g, wt, mv[-1], tag="m%d" % (len(mv) - 1))
        g, wt = out.graph, out.weights
    closing = moves.find_closing_isomorphism(g, base)
    assert closing is not None
    script = moves.MoveScript(graph="square_lattice_2", moves=mv, closing=closing)
    builds = []
    build = sp._abel_map
    monkeypatch.setattr(sp, "_abel_map", lambda g, v=None: builds.append(v) or build(g, v))
    res = moves.run_sequence(script, tg.all_ones_weights(base), base)
    moved = {z for z, v in res.profile.per_strand.items() if v}
    assert all(abs(res.profile.per_strand[z]) == Fraction(1, 2) for z in moved)
    assert all(res.fates[z].target != z for z in moved)
    assert sorted(res.profile.per_edge.values()) == [-1, 0, 0, 1]
    assert sum(res.profile.per_edge.values()) == 0
    assert not moves.is_trivial(res)
    shift = moves.abel_shift(res)
    assert sum(shift.values()) == 0 and any(shift.values())
    # the permuted families needed the Abel map; the base graph keeps it for
    # the default base vertex only, and another base vertex gets its own map
    whites = sorted(v for v, c in base.vertices.items() if c == tg.WHITE)
    assert builds == [None] and sp.discrete_abel_map(base).base_vertex == whites[0]
    assert moves.abel_shift(res) == shift and builds == [None]
    assert moves.abel_shift(res, base_vertex=whites[-1]) == moves.abel_shift(res, base_vertex=whites[-1])
    assert builds == [None] + [whites[-1]] * 2


def test_translation_on_refined_lattice_families():
    base = tg.catalog("square_lattice_2").graph
    ident = {
        "graph": "square_lattice_2",
        "moves": [],
        "closing": {
            "vertex_map": {v: v for v in base.vertices},
            "edge_map": {e: e for e in base.edges},
            "translation": [1, 0],
        },
    }
    res = moves.run_sequence(moves.load_script(ident), tg.all_ones_weights(base))
    for z in base.zigzags():
        assert res.profile.per_strand[z.id] == pair(z.homology, (1, 0))
    b = build_j(res.polygon)
    assert [res.profile.per_edge[i] for i in range(4)] == mat_vec(b, [1, 0])
    assert moves.is_trivial(res)


def test_honeycomb_block_cell_shift_is_torsion():
    # the doubled-triangle model has modular group Z/2 + Z/2; shifting the
    # 2x2 block by one cell is an automorphism whose family sums are odd, so
    # the divisibility criterion reports it nontrivial, while the full deck
    # translation (its square) is trivial
    g = tg.catalog("honeycomb_2").graph
    vmap, emap = {}, {}
    for i in range(2):
        for j in range(2):
            vmap["b%d,%d" % (i, j)] = "b%d,%d" % ((i + 1) % 2, j)
            vmap["w%d,%d" % (i, j)] = "w%d,%d" % ((i + 1) % 2, j)
            for t in range(3):
                emap["e%d_%d,%d" % (t, i, j)] = "e%d_%d,%d" % (t, (i + 1) % 2, j)
    shift = {
        "graph": "honeycomb_2",
        "moves": [],
        "closing": {"vertex_map": vmap, "edge_map": emap, "translation": [0, 0]},
    }
    res = moves.run_sequence(moves.load_script(shift), tg.all_ones_weights(g))
    assert res.genus == 0
    assert sorted(res.profile.per_edge.values()) == [-1, 0, 1]
    assert not moves.is_trivial(res)

    deck = {
        "graph": "honeycomb_2",
        "moves": [],
        "closing": {
            "vertex_map": {v: v for v in g.vertices},
            "edge_map": {e: e for e in g.edges},
            "translation": [1, 0],
        },
    }
    res2 = moves.run_sequence(moves.load_script(deck), tg.all_ones_weights(g))
    assert sorted(res2.profile.per_edge.values()) == [-2, 0, 2]
    assert moves.is_trivial(res2)


def test_abel_shift_independent_of_base_vertex():
    g = _square()
    script = moves.load_script(bundled_script("domino_shuffle"))
    res = moves.run_sequence(script, tg.all_ones_weights(g))
    whites = sorted(v for v, c in g.vertices.items() if c == tg.WHITE)
    shifts = [moves.abel_shift(res, base_vertex=w) for w in whites]
    assert all(s == shifts[0] for s in shifts)


def test_abel_shift_family_sums_are_the_profile_for_every_base_vertex(monkeypatch):
    """Summed over each family of parallel zig-zags, the Abel shift is profile.per_edge.

    The per-strand shift of a shuffle that permutes a family depends on the
    base vertex; its family sums do not.  Each script runs twice, so the
    second result, and the map kept for the default base vertex, come from
    its trace.
    """
    monkeypatch.syspath_prepend(BENCH)
    import bench_inputs

    scripts = [bundled_script(n) for n in ("domino_shuffle", "translation_x", "translation_y")]
    scripts += [bench_inputs.shuffle_script(k) for k in (1, 2, 3, 4)]
    for data in scripts:
        script = moves.load_script(data)
        base = tg.resolve_graph(script.graph)
        for res in (moves.run_sequence(script, tg.all_ones_weights(base)) for _ in range(2)):
            families = moves._family_members(res.labels)
            whites = sorted(v for v, c in base.vertices.items() if c == tg.WHITE)
            for v in [None] + whites:
                shift = moves.abel_shift(res, base_vertex=v)
                sums = {rho: sum(shift[z] for z in members) for rho, members in families.items()}
                assert sums == res.profile.per_edge, (data["graph"], v)


def test_mutate_epsilon_involution():
    g = _square()
    eps = tg.seed_of(g).epsilon
    for f in eps:
        assert moves.mutate_epsilon(moves.mutate_epsilon(eps, f), f) == eps


def test_sequence_weight_errors():
    """Each error names an edge at fault: the least missing one, else the least unknown one, else the least zero one."""
    g = _square()
    script = moves.load_script(bundled_script("translation_x"))
    cover = "weights must cover exactly the base edges: "
    with pytest.raises(moves.MoveError, match="^%sno weight for edge h0,0$" % cover):
        moves.run_sequence(script, {})
    w = tg.all_ones_weights(g)
    with pytest.raises(moves.MoveError, match="^%sno weight for edge v0,1$" % cover):
        moves.run_sequence(script, {e: x for e, x in w.items() if e not in ("v0,1", "v1,1")} | {"zz": Fraction(1)})
    with pytest.raises(moves.MoveError, match="^%sedge a9 is not in the base$" % cover):
        moves.run_sequence(script, dict(w, zz=Fraction(1), a9=Fraction(2)))
    w["v1,0"] = w["h1,1"] = Fraction(0)
    for _ in range(2):  # a miss, then with the script traced
        with pytest.raises(moves.MoveError, match="^weights must be nonzero: edge h1,1 has weight 0$"):
            moves.run_sequence(script, w)
        moves.run_sequence(script, tg.all_ones_weights(g))
