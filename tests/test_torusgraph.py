"""Torus graph invariants, zig-zag paths, seeds, and the catalog."""

import random
from fractions import Fraction

import pytest

from dimermod import intlin, polygon as poly, torusgraph as tg


def test_catalog_square_lattice_shape():
    g = tg.catalog("square_lattice").graph
    assert len(g.vertices) == 4 and len(g.edges) == 8 and len(g.faces()) == 4
    assert all(len(f.darts) == 4 for f in g.faces())


def test_catalog_honeycomb_shape():
    g = tg.catalog("honeycomb").graph
    assert len(g.vertices) == 2 and len(g.edges) == 3 and len(g.faces()) == 1
    assert len(g.faces()[0].darts) == 6


def test_catalog_unknown():
    with pytest.raises(tg.UnknownCatalogEntry):
        tg.catalog("aztec")


def test_json_round_trip():
    g = tg.catalog("square_lattice").graph
    again = tg.validate_graph(g.to_json())
    assert again.to_json() == g.to_json()


def test_corrupted_displacement_rejected():
    data = tg.catalog("square_lattice").graph.to_json()
    data["edges"][0]["disp"] = [1, 1]
    with pytest.raises(tg.NonContractibleFace):
        tg.validate_graph(data)


def test_non_integer_displacement_rejected():
    for bad in ([1.5, 0], [1.0, 0], [True, 0], [1], [1, 0, 0], "10", None):
        data = tg.catalog("honeycomb").graph.to_json()
        data["edges"][1]["disp"] = bad
        with pytest.raises(tg.GraphError, match="edge e1"):
            tg.validate_graph(data)


def test_duplicate_ids_rejected():
    for key, named in (("vertices", "vertex b0"), ("edges", "edge e0")):
        data = tg.catalog("honeycomb").graph.to_json()
        data[key].append(dict(data[key][0]))
        with pytest.raises(tg.GraphError, match="%s is listed twice" % named):
            tg.validate_graph(data)


def test_cycle_classes_must_span_the_torus():
    # one face and V - E + F = 0, so the constructor accepts both and measures
    # the span; the file loader rejects them
    for disps, index, named in ((([2, 0], [0, 1]), 2, "index 2"), (([1, 0], [2, 0]), None, "infinite index")):
        data = tg.catalog("honeycomb").graph.to_json()
        data["edges"][1]["disp"], data["edges"][2]["disp"] = disps
        g = tg.TorusGraph(
            {v["id"]: v["color"] for v in data["vertices"]},
            {e["id"]: (e["black"], e["white"], e["disp"]) for e in data["edges"]},
            data["rotations"],
        )
        assert g.span_index == index
        with pytest.raises(tg.GraphError, match="sublattice of " + named):
            tg.validate_graph(data)


def test_graph_file_is_checked_in_one_walk(monkeypatch):
    walks = []
    walk = tg.TorusGraph.spanning_tree
    monkeypatch.setattr(tg.TorusGraph, "spanning_tree", lambda g, root: walks.append(root) or walk(g, root))
    data = tg.catalog("square_lattice_2").graph.to_json()
    walks.clear()
    assert tg.validate_graph(data).span_index == 1
    assert len(walks) == 1


def test_span_index_matches_the_cokernel():
    # the Hermite pivots against the order of Z^2 / span of the cycle classes
    rng = random.Random(9)
    seen = set()
    for _ in range(300):
        g = _random_torus_graph(rng)
        if g is None:
            continue
        pos, _, nontree = g.spanning_tree(min(g.vertices))
        classes = [g.cycle_class(pos, e) for e in nontree]
        want = intlin.cokernel([[c[0] for c in classes], [c[1] for c in classes]], rows=2).order()
        assert g.span_index == want
        seen.add(want)
    assert {None, 1} < seen, seen


def test_not_bipartite_rejected():
    data = tg.catalog("honeycomb").graph.to_json()
    data["vertices"][0]["color"] = "w"
    with pytest.raises(tg.NotBipartite):
        tg.validate_graph(data)


def test_disconnected_rejected():
    hc = tg.catalog("honeycomb").graph.to_json()
    data = {
        "vertices": hc["vertices"] + [{"id": "b9", "color": "b"}, {"id": "w9", "color": "w"}],
        "edges": hc["edges"]
        + [
            {"id": "x%d" % i, "black": "b9", "white": "w9", "disp": d}
            for i, d in enumerate([[0, 0], [1, 0], [0, 1]])
        ],
        "rotations": dict(
            hc["rotations"], b9=["x0", "x1", "x2"], w9=["x0", "x1", "x2"]
        ),
    }
    with pytest.raises(tg.Disconnected):
        tg.validate_graph(data)


def test_sphere_embedding_rejected():
    # reversing one rotation turns the honeycomb into a planar theta graph
    with pytest.raises(tg.EulerMismatch):
        tg.TorusGraph(
            {"b0": "b", "w0": "w"},
            {
                "e0": ("b0", "w0", (0, 0)),
                "e1": ("b0", "w0", (1, 0)),
                "e2": ("b0", "w0", (0, 1)),
            },
            {"b0": ("e0", "e1", "e2"), "w0": ("e0", "e2", "e1")},
        )


def test_bad_rotation_rejected():
    data = tg.catalog("honeycomb").graph.to_json()
    data["rotations"]["b0"] = ["e0", "e1"]
    with pytest.raises(tg.InvalidRotation):
        tg.validate_graph(data)


def test_zigzag_double_cover_and_zero_sum():
    for name in tg.CATALOG_NAMES:
        g = tg.catalog(name).graph
        count = {}
        total = (0, 0)
        for z in g.zigzags():
            total = poly.vadd(total, z.homology)
            for e, _ in z.darts:
                count[e] = count.get(e, 0) + 1
        assert total == (0, 0)
        assert all(c == 2 for c in count.values())
        assert set(count) == set(g.edges)


def test_square_lattice_classes():
    g = tg.catalog("square_lattice").graph
    assert sorted(z.homology for z in g.zigzags()) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


def test_newton_polygon_matches_catalog():
    for name in tg.CATALOG_NAMES:
        entry = tg.catalog(name)
        got, labels = tg.newton_polygon(entry.graph)
        want = entry.newton
        base = min(want.vertices)
        assert poly.translation_equal(got, want.translate((-base[0], -base[1])))
        assert poly.genus(got) == entry.genus
        # each side sees exactly multiplicity-many paths
        per_side = {}
        for z in entry.graph.zigzags():
            per_side[labels[z.id]] = per_side.get(labels[z.id], 0) + 1
        assert per_side == {d.index: d.multiplicity for d in got.edge_data()}


def test_minimality_of_catalog():
    for name in tg.CATALOG_NAMES + ("honeycomb_3", "square_lattice_3"):
        assert check_minimality_against_window(tg.catalog(name).graph) is None, name


def _doubled_edge(g, e):
    """g with a twin of edge e just clockwise of it at the black end, so the two bound a bigon face."""
    data = g.to_json()
    black, white, disp = g.edges[e]
    data["edges"].append({"id": "dup", "black": black, "white": white, "disp": list(disp)})
    rot = data["rotations"]
    rot[black].insert(rot[black].index(e), "dup")
    rot[white].insert(rot[white].index(e) + 1, "dup")
    return tg.validate_graph(data)


def test_doubled_edge_not_minimal():
    g = _doubled_edge(tg.catalog("square_lattice").graph, "h0,0")
    assert len(g.faces()) == 5
    ok, cert = tg.check_minimality(g)
    assert not ok
    assert cert["kind"] in ("parallel_bigon", "self_intersection")


def test_parallel_bigon_certificate():
    # two of the three strands have class (1,0) and share an edge, so their
    # like-oriented lifts intersect periodically: a parallel bigon
    g = tg.TorusGraph(
        {"b0": "b", "w0": "w"},
        {
            "e0": ("b0", "w0", (1, 1)),
            "e1": ("b0", "w0", (-1, 1)),
            "e2": ("b0", "w0", (0, 1)),
        },
        {"b0": ("e1", "e2", "e0"), "w0": ("e1", "e2", "e0")},
    )
    classes = sorted(z.homology for z in g.zigzags())
    assert classes == [(-2, 0), (1, 0), (1, 0)]
    ok, cert = tg.check_minimality(g)
    assert not ok
    assert cert["kind"] == "parallel_bigon"


def _white_end(g, d, pos):
    """Lift position of the white end of the edge under dart d, whose tail lies at pos."""
    return pos if d[1] > 0 else poly.vadd(pos, g.dart_disp(d))


def _window_crossings(g, za, zb):
    """Crossings of the lift A0 of za with translates B + m of zb, over a window of lift shifts.

    Returns ({m: sorted [(index along A0, index along B + m)]}, inner); only
    crossings with |index along A0| <= inner are far enough from the window's
    edge to be judged.
    """
    pa, pb = len(za.darts), len(zb.darts)
    window = pa + pb + 2
    buckets = {}
    for i, (da, pos_a) in enumerate(zip(za.darts, za.positions)):
        for j, (db, pos_b) in enumerate(zip(zb.darts, zb.positions)):
            if da[0] != db[0]:
                continue
            qa, qb = _white_end(g, da, pos_a), _white_end(g, db, pos_b)
            for s in range(-window, window + 1):
                for t in range(-window, window + 1):
                    m = (
                        qa[0] + s * za.homology[0] - qb[0] - t * zb.homology[0],
                        qa[1] + s * za.homology[1] - qb[1] - t * zb.homology[1],
                    )
                    buckets.setdefault(m, []).append((i + s * pa, j + t * pb))
    for matches in buckets.values():
        matches.sort()
    return buckets, min(pa, pb) * (window - 2)


def _window_bigon(matches, inner):
    """Two crossings within inner, consecutive along A0 and along B + m, in the same order."""
    for (ta1, tb1), (ta2, tb2) in zip(matches, matches[1:]):
        if abs(ta1) > inner or abs(ta2) > inner or ta1 == ta2 or tb2 <= tb1:
            continue
        if not any(tb1 < tb < tb2 for _, tb in matches):
            return True
    return False


def windowed_minimality(g):
    """Reference for check_minimality: every pair of paths over a grid of lift shifts."""
    zigzags = g.zigzags()
    for z in zigzags:
        if z.homology == (0, 0):
            return False, {"kind": "trivial_zigzag", "path": z.id}
        seen = set()
        for d in z.darts:
            if d[0] in seen:
                return False, {"kind": "self_intersection", "path": z.id, "edge": d[0]}
            seen.add(d[0])
    for ai, za in enumerate(zigzags):
        for zb in zigzags[ai + 1 :]:
            buckets, inner = _window_crossings(g, za, zb)
            for m, matches in buckets.items():
                if _window_bigon(matches, inner):
                    return False, {"kind": "parallel_bigon", "paths": [za.id, zb.id], "offset": list(m)}
    return True, None


def check_minimality_against_window(g):
    """check_minimality agrees with the windowed search, and a bigon shows at its offset."""
    ok, cert = tg.check_minimality(g)
    ref_ok, ref = windowed_minimality(g)
    drop = lambda c: c and {k: v for k, v in c.items() if k != "offset"}
    assert (ok, drop(cert)) == (ref_ok, drop(ref)), g.to_json()
    if cert and cert["kind"] == "parallel_bigon":
        za, zb = (g.zigzag_by_id(z) for z in cert["paths"])
        buckets, inner = _window_crossings(g, za, zb)
        assert _window_bigon(buckets.get(tuple(cert["offset"]), []), inner), cert
    return cert


def test_minimality_equals_the_windowed_search_on_catalog_and_doubled_graphs():
    """The whole answer, certificate included, on larger graphs than the fuzz reaches."""
    names = ["square_lattice"] + ["square_lattice_%d" % k for k in range(2, 5)]
    names += ["honeycomb"] + ["honeycomb_%d" % k for k in range(2, 9)]
    for name in names:
        g = tg.catalog(name).graph
        assert tg.check_minimality(g) == windowed_minimality(g) == (True, None), name
    for name in ("square_lattice_2", "honeycomb_4"):
        base = tg.catalog(name).graph
        for e in base.edges:
            g = _doubled_edge(base, e)
            assert tg.check_minimality(g) == windowed_minimality(g), (name, e)


def _random_torus_graph(rng):
    """1-3 black and 1-3 white vertices, random edges, rotations and disps; None if invalid."""
    nb, nw = rng.randint(1, 3), rng.randint(1, 3)
    vertices = {"b%d" % i: "b" for i in range(nb)}
    vertices.update({"w%d" % i: "w" for i in range(nw)})
    edges = {
        "e%d" % k: (
            "b%d" % rng.randrange(nb),
            "w%d" % rng.randrange(nw),
            (rng.randint(-2, 2), rng.randint(-2, 2)),
        )
        for k in range(rng.randint(3, 3 * nb + 2))
    }
    rotations = {v: [] for v in vertices}
    for e, (b, w, _) in edges.items():
        rotations[b].append(e)
        rotations[w].append(e)
    for r in rotations.values():
        rng.shuffle(r)
    try:
        return tg.TorusGraph(vertices, edges, rotations)
    except tg.GraphError:
        return None


def test_minimality_matches_window_on_random_graphs():
    rng = random.Random(5)
    kinds = {}
    while sum(kinds.values()) < 1200:
        g = _random_torus_graph(rng)
        if g is None:
            continue
        cert = check_minimality_against_window(g)
        kind = cert["kind"] if cert else "minimal"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds["parallel_bigon"] >= 10 and kinds["minimal"] >= 100, kinds
    assert kinds["self_intersection"] and kinds["trivial_zigzag"], kinds


def test_parallel_paths_with_several_crossings_per_period():
    # z0 and z2 both have class (-1, -1) and cross at e1, e2 and e4 in every
    # period; the crossings alternate, so there is no bigon, but the class of
    # each crossing must be taken modulo <h_a, h_b> for the three to be compared
    g = tg.TorusGraph(
        {"b0": "b", "b1": "b", "w0": "w", "w1": "w"},
        {
            "e0": ("b0", "w0", (0, 2)),
            "e1": ("b1", "w0", (-1, -1)),
            "e2": ("b1", "w1", (-2, 0)),
            "e3": ("b0", "w0", (-2, 0)),
            "e4": ("b0", "w1", (-2, 2)),
        },
        {"b0": ("e0", "e4", "e3"), "b1": ("e2", "e1"), "w0": ("e3", "e0", "e1"), "w1": ("e4", "e2")},
    )
    assert [z.homology for z in g.zigzags()] == [(-1, -1), (2, 2), (-1, -1)]
    assert check_minimality_against_window(g) is None


def test_parallel_bigon_rule():
    bigon = tg._has_parallel_bigon
    # finitely many crossings: neighbours along A must be neighbours along B, in the same order
    assert bigon([(1, 1), (0, 0)], None)
    assert not bigon([(0, 1), (1, 0)], None)
    assert not bigon([(0, 0), (1, 2), (2, 1)], None)
    assert bigon([(0, 3), (1, 0), (2, 1)], None)
    # periodic crossings, compared along B modulo the B part of the period
    assert bigon([(7, 4)], (3, 2))
    assert not bigon([(7, 4)], (3, -2))
    assert bigon([(0, 0), (1, 1)], (2, 4))
    assert not bigon([(0, 0), (1, 5)], (2, 4))
    assert bigon([(0, 0), (1, 3)], (2, -4))
    assert not bigon([(0, 1), (1, 0)], (2, -4))


def test_parallel_bigon_rule_matches_unrolled_periods():
    """One period tested cyclically decides as the window rule does on many unrolled periods."""
    rng = random.Random(3)
    for _ in range(500):
        pa = rng.randint(1, 6)
        pb = rng.choice([-1, 1]) * rng.randint(pa, 8)
        n = rng.randint(1, pa)
        crossings = []
        for ra, rb in zip(rng.sample(range(pa), n), rng.sample(range(abs(pb)), n)):
            k = rng.randint(-2, 2)
            crossings.append((ra + k * pa, rb + abs(pb) * rng.randint(-2, 2) + k * pb))
        unrolled = sorted((ta + k * pa, tb + k * pb) for ta, tb in crossings for k in range(-40, 41))
        expect = _window_bigon(unrolled, 2 * pa)
        assert tg._has_parallel_bigon(list(crossings), (pa, pb)) == expect, (crossings, pa, pb)
        assert tg._has_parallel_bigon(list(crossings), None) == _window_bigon(
            sorted(crossings), float("inf")
        )


def test_trivial_zigzag_rejected_by_newton():
    # valid torus graph whose third strand is homologically trivial
    g = tg.TorusGraph(
        {"b0": "b", "w0": "w"},
        {
            "e0": ("b0", "w0", (0, 0)),
            "e1": ("b0", "w0", (1, 0)),
            "e2": ("b0", "w0", (1, 0)),
        },
        {"b0": ("e0", "e1", "e2"), "w0": ("e0", "e1", "e2")},
    )
    assert any(z.homology == (0, 0) for z in g.zigzags())
    with pytest.raises(tg.TrivialZigZag):
        tg.newton_polygon(g)


def test_seed_square_lattice():
    g = tg.catalog("square_lattice").graph
    seed = tg.seed_of(g)
    vals = set()
    for f in seed.face_ids:
        row = seed.epsilon[f]
        assert sum(row.values()) == 0
        for h in seed.face_ids:
            assert row[h] == -seed.epsilon[h][f]
            vals.add(row[h])
    assert vals == {0, 2, -2}


def test_seed_honeycomb():
    seed = tg.seed_of(tg.catalog("honeycomb").graph)
    assert seed.epsilon == {"f0": {"f0": 0}}


def test_seed_skew_and_zero_rows_random_catalog():
    g = tg.catalog("square_lattice_2").graph
    seed = tg.seed_of(g)
    for f in seed.face_ids:
        assert sum(seed.epsilon[f].values()) == 0
        for h in seed.face_ids:
            assert seed.epsilon[f][h] == -seed.epsilon[h][f]


def test_face_variables_product_one():
    rng = random.Random(1)
    g = tg.catalog("square_lattice").graph
    for _ in range(10):
        w = tg.random_weights(g, rng)
        xs, (mx, my) = tg.face_variables(g, w)
        total = Fraction(1)
        for x in xs.values():
            total *= x
        assert total == 1


def test_face_variables_all_ones():
    g = tg.catalog("square_lattice").graph
    xs, (mx, my) = tg.face_variables(g, tg.all_ones_weights(g))
    assert all(x == 1 for x in xs.values())
    assert mx == 1 and my == 1


def test_honeycomb_face_variables():
    g = tg.catalog("honeycomb").graph
    w = {"e0": Fraction(2), "e1": Fraction(3), "e2": Fraction(5)}
    xs, (mx, my) = tg.face_variables(g, w)
    # the single face walks every edge once per direction
    assert list(xs.values()) == [Fraction(1)]
    # the cycle of class (1,0) alternates e1 against e0, and (0,1) uses e2
    assert (mx, my) == (Fraction(3, 2), Fraction(5, 2))


def test_gauge_invariance():
    rng = random.Random(14)
    g = tg.catalog("square_lattice").graph
    w = tg.random_weights(g, rng)
    xs, ms = tg.face_variables(g, w)
    for v in g.vertices:
        w2 = dict(w)
        lam = Fraction(7, 3)
        for e in g.rotations[v]:
            w2[e] = w2[e] * lam
        xs2, ms2 = tg.face_variables(g, w2)
        assert xs2 == xs and ms2 == ms


def test_zigzag_monodromy_gauge_invariant():
    rng = random.Random(15)
    g = tg.catalog("square_lattice").graph
    w = tg.random_weights(g, rng)
    base = sorted((z.id, tg.zigzag_monodromy(g, w, z)) for z in g.zigzags())
    w2 = {e: w[e] * (Fraction(5, 2) if "w0,1" in g.edges[e][:2] else 1) for e in w}
    assert base == sorted((z.id, tg.zigzag_monodromy(g, w2, z)) for z in g.zigzags())


def test_square_lattice_2_is_refined_diamond():
    entry = tg.catalog("square_lattice_2")
    assert len(entry.graph.vertices) == 16
    p, _ = tg.newton_polygon(entry.graph)
    assert sorted(d.multiplicity for d in p.edge_data()) == [2, 2, 2, 2]
    assert poly.genus(p) == 5


def test_honeycomb_3_metadata():
    entry = tg.catalog("honeycomb_3")
    p, _ = tg.newton_polygon(entry.graph)
    base = min(entry.newton.vertices)
    assert poly.translation_equal(p, entry.newton.translate((-base[0], -base[1])))
    assert poly.genus(p) == entry.genus == 1
    ok, _ = tg.check_minimality(entry.graph)
    assert ok


def test_honeycomb_2_is_doubled_triangle():
    entry = tg.catalog("honeycomb_2")
    g = entry.graph
    assert (len(g.vertices), len(g.edges), len(g.faces())) == (8, 12, 4)
    p, _ = tg.newton_polygon(g)
    assert p.vertices == ((0, 0), (2, 0), (0, 2))
    assert [d.multiplicity for d in p.edge_data()] == [2, 2, 2]
    assert poly.genus(p) == 0
    ok, _ = tg.check_minimality(g)
    assert ok


def test_parse_weights():
    assert tg.parse_weights({"a": "3/-6", "b": 4, "c": "-7"}) == {
        "a": Fraction(-1, 2),
        "b": Fraction(4),
        "c": Fraction(-7),
    }
    assert tg.parse_weights({"a": "+3/+9", "b": "-0", "c": "007/-14", "d": 10**40}) == {
        "a": Fraction(1, 3),
        "b": Fraction(0),
        "c": Fraction(-1, 2),
        "d": Fraction(10**40),
    }
    lenient = ("1_000", " 3 ", "3 ", "\t3", "3\n", "1 /2", "1/ 2", "\u0663/\u0664", "\u0663", "\uff13", "\u00bd", "\u00b2")
    for bad in ("1/0", "0/0", "x", "1/2/3", "", 0.5, True, None) + lenient + ("+", "-/3", "3/", "/3", "++3", "0x10", "1e3", "3.0", [3]):
        with pytest.raises(ValueError, match="edge e7"):
            tg.parse_weights({"e0": "1", "e7": bad})
    with pytest.raises(ValueError):
        tg.parse_weights(["1"])
