"""Traced move scripts: a cache hit gives what a full run gives, and a graph's traces live as long as it."""

import dataclasses
import functools
import gc
import os
import json
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from math import gcd

import pytest

from dimermod import DimermodError, moves, spectral as sp, torusgraph as tg
from dimermod.suites import bundled_script
from test_fuzz_moves import (
    ROUND_TRIPS,
    STRAND_WALK,
    random_walks,
    round_trip_script,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


@pytest.fixture(autouse=True)
def fresh_catalog_graphs():
    """Each test starts from catalog graphs that have traced nothing yet."""
    tg._catalog_graph.cache_clear()


def traces(graph):
    """The trace table a graph, or the catalog graph of that name, keeps."""
    g = tg.resolve_graph(graph) if isinstance(graph, str) else graph
    return g.derived(moves._trace_table)


def _text(script):
    return repr((script.moves, script.closing))


def run_sequence_uncached(script, weights):
    """Oracle: moves.run_sequence as it was before scripts were traced, every move on every call."""
    base = tg.resolve_graph(script.graph)
    if sorted(weights) != sorted(base.edges):
        raise moves.MoveError("weights must cover exactly the base edges")
    if any(w == 0 for w in weights.values()):
        raise moves.MoveError("weights must be nonzero")
    base_poly, labels = tg.newton_polygon(base)
    g, w, anchors = moves._track_strands(base, weights, script.moves)
    return moves._close(script.closing, base, base_poly, labels, g, w, anchors)


@functools.lru_cache(maxsize=None)
def bench_shuffle_script(k):
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(BENCH)
        import bench_inputs

    return bench_inputs.shuffle_script(k)


def strand_walk_script():
    """The seeded strand walk as a script; no closing maps its last graph onto the base."""
    walk = random_walks(STRAND_WALK[0], STRAND_WALK[1], STRAND_WALK[2], "m%d")
    steps = [move for _, _, _, move, _ in walk]
    return moves.MoveScript("square_lattice", steps, {"vertex_map": {}, "edge_map": {}})


SCRIPTS = {
    **{name: lambda name=name: moves.load_script(bundled_script(name))
       for name in ("domino_shuffle", "translation_x", "translation_y")},
    **{"shuffle_k%d" % k: lambda k=k: moves.load_script(bench_shuffle_script(k)) for k in (1, 2, 3, 4)},
    **{"round_trips_%d_%s" % (seed, name): lambda t=(seed, name, trips): round_trip_script(*t)
       for seed, name, trips in ROUND_TRIPS},
    "strand_walk": strand_walk_script,
}


def _outcome(run, script, weights):
    """Everything a caller reads off a run, or the type and text of its error."""
    try:
        res = run(script, weights)
    except DimermodError as exc:
        return type(exc), str(exc)
    return (
        res.weights, res.profile.to_json(), res.fates, moves.abel_shift(res),
        res.labels, res.genus, res.polygon,
    )


def _recipes(script, weights):
    recipes = []
    moves._track_strands(tg.resolve_graph(script.graph), weights, script.moves, recipes)
    return recipes


def _zero_delta_weights(recipes, weights, i):
    """weights with one side of spider move i changed so that its Delta = ac + bd is 0.

    Spider i must act on base edges that no earlier move read or wrote, so
    that they still carry their base weights when it runs.
    """
    _, _, sides, _, _ = recipes[i]
    w = dict(weights)
    a, b, c, d = sides
    w[a] = -w[b] * w[d] / w[c]
    return w


def _untouched_spiders(recipes, base):
    """The spider moves whose four sides are base edges no earlier move read or wrote."""
    touched, out = set(), []
    for i, r in enumerate(recipes):
        if r[0] == "spider" and not touched & set(r[2]) and set(r[2]) <= set(base.edges):
            out.append(i)
        for part in r[1:]:
            touched.update(part if isinstance(part, tuple) else (part,))
    return out


def _draws(script, rng):
    """Four signed weight draws, and two with Delta = 0 at a spider move when the script allows it."""
    def signed():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))

    base = tg.resolve_graph(script.graph)
    draws = [({e: signed() for e in sorted(base.edges)}, None) for _ in range(4)]
    recipes = _recipes(script, tg.all_ones_weights(base))
    spiders = _untouched_spiders(recipes, base)
    for _ in range(2):
        w = draws[len(draws) % 4][0]
        if spiders:
            i = rng.choice(spiders)
            draws.append((_zero_delta_weights(recipes, w, i), recipes[i][1]))
        else:
            draws.append(({e: -x for e, x in w.items()}, None))
    return draws


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_hit_and_miss_match_the_uncached_run(name):
    """Cold call, cache hit and the uncached oracle agree on every draw: results, or error type and text."""
    script = SCRIPTS[name]()
    ones = tg.all_ones_weights(tg.resolve_graph(script.graph))
    for weights, zero_at in _draws(script, random.Random(name)):
        traces(script.graph).clear()
        cold = _outcome(moves.run_sequence, script, weights)
        _outcome(moves.run_sequence, script, ones)
        assert len(traces(script.graph)) == (name != "strand_walk")
        hit = _outcome(moves.run_sequence, script, weights)
        want = _outcome(run_sequence_uncached, script, weights)
        assert cold == want and hit == want
        if zero_at is not None:
            assert want == (moves.MoveNotApplicable, "face %s has Delta = ac + bd = 0" % zero_at)


@pytest.mark.parametrize("name", ["domino_shuffle", "translation_x", "translation_y"] + ["shuffle_k%d" % k for k in (1, 2, 3, 4)])
def test_a_script_keeps_the_spectral_curve_and_every_strand_monodromy(name):
    """The laws of G_N acting on X_N, on a miss and on a hit, for a positive and a signed draw.

    With w' the result's weights on the base edges: P(base, w') equals
    P(base, w) up to normalization, and the monodromy under w' of the
    strand a base strand z ends on, fates[z].target, is z's under w.  A
    draw that meets Delta = 0 is drawn again from the same generator.
    """
    script = SCRIPTS[name]()
    base = tg.resolve_graph(script.graph)
    rng = random.Random("conservation " + name)
    draws = (
        lambda: tg.random_weights(base, rng),
        lambda: {e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for e in sorted(base.edges)},
    )
    for draw in draws:
        while True:
            weights = draw()
            traces(base).clear()
            try:
                miss = moves.run_sequence(script, weights)
            except moves.MoveNotApplicable:
                continue
            break
        assert len(traces(base)) == 1
        hit = moves.run_sequence(script, weights)
        curve = sp.normalized_poly(sp.kasteleyn_polynomial(base, weights))
        for res in (miss, hit):
            assert sp.normalized_poly(sp.kasteleyn_polynomial(base, res.weights)) == curve
            for z in base.zigzags():
                target = base.zigzag_by_id(res.fates[z.id].target)
                assert tg.zigzag_monodromy(base, res.weights, target) == tg.zigzag_monodromy(base, weights, z)


def _push_fractions(recipe, w):
    """Oracle: a recipe pushed through Fraction weights, as the moves did before weights were integer pairs."""
    if recipe[0] == "spider":
        _, _, sides, legs, quads = recipe
        a, b, c, d = old = [w.pop(e) for e in sides]
        for i in range(4):
            w[legs[i]] = Fraction(1)
            w[quads[i]] = old[(i + 2) % 4] / (a * c + b * d)
    elif recipe[0] == "contract":
        _, f1, f2, arc_u, arc_x = recipe
        w1, w2 = w.pop(f1), w.pop(f2)
        for arc, x in ((arc_u, w2), (arc_x, w1)):
            for e in arc:
                w[e] *= x
    else:
        w[recipe[1]] = w[recipe[2]] = Fraction(1)


def expand_contract_script():
    """A base with a 2-valent vertex, from one expansion of square_lattice, and a script that contracts it and expands back.

    Unlike the shuffles, whose contractions only scale by weight-1 legs, the
    contraction scales by the base weights of the two edges it removes.
    """
    g = tg.catalog("square_lattice").graph
    v = min(v for v, c in g.vertices.items() if c == tg.BLACK)
    base = moves.expand_vertex(g, tg.all_ones_weights(g), v, list(g.rotations[v][:2]), list(g.rotations[v][2:]), tag="x").graph
    _, _, _, arc_u, arc_x = moves._apply_move(base, tg.all_ones_weights(base), {"contract": "xv"}, tag="m0").recipe
    steps = [{"contract": "xv"}, {"expand": {"vertex": "m0cm", "first": list(arc_u), "second": list(arc_x)}}]
    final, _, _ = moves._track_strands(base, tg.all_ones_weights(base), steps)
    return moves.MoveScript("square_lattice", steps, moves.find_closing_isomorphism(final, base)), base


PAIR_SCRIPTS = {
    **{name: lambda name=name: (SCRIPTS[name](), None) for name in ("domino_shuffle", "translation_x", "translation_y")},
    **{"shuffle_k%d" % k: lambda k=k: (SCRIPTS["shuffle_k%d" % k](), None) for k in (1, 2, 3, 4)},
    "expand_contract": expand_contract_script,
}


@pytest.mark.parametrize("name", sorted(PAIR_SCRIPTS))
def test_every_stored_pair_is_in_lowest_terms(name, monkeypatch):
    """After each recipe, on a miss and on a hit, every weight is an int pair (n, d) with d > 0 and gcd 1.

    On the hit, each pair equals what the Fraction oracle holds after that
    recipe, and the result's weights are Fractions equal to the miss's, for
    positive and signed draws alike.
    """
    script, base = PAIR_SCRIPTS[name]()
    base = base or tg.resolve_graph(script.graph)
    rng = random.Random(name)
    signed = {e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)) for e in sorted(base.edges)}
    push, pushes, oracle = moves._push_weights, [], {}

    def checked(recipe, w):
        push(recipe, w)
        pushes.append(recipe)
        for n, d in w.values():
            assert type(n) is int and type(d) is int and d > 0 and gcd(n, d) == 1, (recipe, n, d)
        if oracle:
            _push_fractions(recipe, oracle)
            assert {e: Fraction(n, d) for e, (n, d) in w.items()} == oracle, recipe

    monkeypatch.setattr(moves, "_push_weights", checked)
    for weights in (tg.random_weights(base, rng), signed):
        base.derived(moves._trace_table).clear()
        oracle.clear()
        del pushes[:]
        miss = moves.run_sequence(script, weights, base)  # each move pushes the entries it reads
        assert len(pushes) == len(script.moves) and len(base.derived(moves._trace_table)) == 1
        oracle.update(weights)
        del pushes[:]
        hit = moves.run_sequence(script, weights, base)
        assert len(pushes) == len(script.moves)
        assert hit.weights == miss.weights and {type(x) for x in hit.weights.values()} == {Fraction}


def test_zero_delta_on_a_hit_raises_under_optimize_flag(tmp_path):
    """python -O keeps the Delta = 0 raise of the pair replay: its type and text on a miss and on a hit."""
    data = bench_shuffle_script(2)
    script = moves.load_script(data)
    ones = tg.all_ones_weights(tg.resolve_graph(script.graph))
    recipes = _recipes(script, ones)
    i = _untouched_spiders(recipes, tg.resolve_graph(script.graph))[1]
    weights = _zero_delta_weights(recipes, ones, i)
    s, w = tmp_path / "s.json", tmp_path / "w.json"
    s.write_text(json.dumps(data))
    w.write_text(json.dumps(tg.weights_to_json(weights)))
    code = (
        "import json, sys\n"
        "from dimermod import moves, torusgraph as tg\n"
        "script = moves.load_script(json.load(open(%r)))\n"
        "base = tg.resolve_graph(script.graph)\n"
        "zero = tg.parse_weights(json.load(open(%r)))\n"
        "out = [sys.flags.optimize]\n"
        "for weights in (zero, tg.all_ones_weights(base), zero):\n"
        "    try:\n"
        "        moves.run_sequence(script, weights)\n"
        "        out.append(None)\n"
        "    except moves.MoveNotApplicable as exc:\n"
        "        out.append([type(exc).__name__, str(exc), len(base.derived(moves._trace_table))])\n"
        "print(json.dumps(out))\n"
    ) % (str(s), str(w))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True)
    error = ["MoveNotApplicable", "face %s has Delta = ac + bd = 0" % recipes[i][1]]
    assert json.loads(out.stdout) == [1, error + [0], None, error + [1]]


def test_zero_delta_before_a_bad_move_wins_on_every_call():
    """Delta = 0 at move i comes before a missing vertex at move j > i, on the first call and on the next.

    A script with a bad move is never kept, so every call runs the full path.
    """
    data = dict(bench_shuffle_script(2))
    data["moves"] = data["moves"] + [{"contract": "nope"}]
    script = moves.load_script(data)
    base = tg.resolve_graph(script.graph)
    ones = tg.all_ones_weights(base)
    recipes = _recipes(moves.load_script(bench_shuffle_script(2)), ones)
    i = _untouched_spiders(recipes, base)[2]
    weights = _zero_delta_weights(recipes, ones, i)
    message = "face %s has Delta = ac + bd = 0" % recipes[i][1]
    for run in (moves.run_sequence, moves.run_sequence, run_sequence_uncached):
        with pytest.raises(moves.MoveNotApplicable) as err:
            run(script, weights)
        assert str(err.value) == message
    for run in (moves.run_sequence, run_sequence_uncached):
        with pytest.raises(moves.MoveNotApplicable) as err:
            run(script, ones)
        assert str(err.value) == "no vertex nope to contract"
    assert traces(script.graph) == {}


def test_a_result_changed_by_its_caller_leaves_the_next_call_unchanged():
    script = moves.load_script(bench_shuffle_script(2))
    weights = tg.random_weights(tg.resolve_graph(script.graph), random.Random(3))
    want = _outcome(run_sequence_uncached, script, weights)
    for _ in range(3):  # a miss, then hits
        res = moves.run_sequence(script, weights)
        assert _outcome(lambda s, w: res, script, weights) == want
        zid = min(res.fates)
        res.weights.clear()
        res.profile.per_strand[zid] = Fraction(7)
        res.profile.per_edge.clear()
        res.fates[zid] = moves.StrandFate(target=zid, offset=(5, 5))
        res.labels.clear()
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.fates[max(res.fates)].offset = (1, 1)


def test_the_cache_keeps_at_most_its_bound_least_recently_used_out():
    """Translations by distinct deck vectors are distinct scripts; the bound is per graph."""
    base = tg.resolve_graph("square_lattice")
    identity = {
        "vertex_map": {v: v for v in base.vertices},
        "edge_map": {e: e for e in base.edges},
    }
    scripts = [
        moves.MoveScript("square_lattice", [], dict(identity, translation=[m, 0]))
        for m in range(moves._TRACES_KEPT + 8)
    ]
    ones = tg.all_ones_weights(base)
    for script in scripts:
        moves.run_sequence(script, ones)
        moves.run_sequence(scripts[0], ones)  # the first script stays the most recently used
    kept = traces(base)
    assert len(kept) == moves._TRACES_KEPT
    assert _text(scripts[0]) in kept
    assert _text(scripts[1]) not in kept
    assert _text(scripts[-1]) in kept
    h = tg.resolve_graph("honeycomb")
    own = {"vertex_map": {v: v for v in h.vertices}, "edge_map": {e: e for e in h.edges}}
    moves.run_sequence(moves.MoveScript("honeycomb", [], own), tg.all_ones_weights(h))
    assert len(traces("honeycomb")) == 1 and len(traces(base)) == moves._TRACES_KEPT
    assert _text(scripts[0]) in traces(base)


def test_a_callers_own_base_keeps_its_traces_and_they_die_with_it(monkeypatch):
    script = moves.load_script(bundled_script("domino_shuffle"))
    own = tg.catalog(script.graph).graph
    weights = tg.all_ones_weights(own)
    want = _outcome(run_sequence_uncached, script, weights)
    tracked = []
    track = moves._track_strands
    monkeypatch.setattr(moves, "_track_strands", lambda *args: tracked.append(1) or track(*args))
    first = moves.run_sequence(script, weights, own)
    assert list(traces(own)) == [_text(script)] and traces(script.graph) == {}
    assert _outcome(lambda s, w: first, script, weights) == want
    assert _outcome(lambda s, w: moves.run_sequence(s, w, own), script, weights) == want
    assert len(tracked) == 1
    ref = weakref.ref(own)
    del own, first
    gc.collect()
    assert ref() is None


def test_a_graph_keeps_its_plan_traces_and_abel_map_while_it_lives():
    """A graph the caller built keeps what it derived; a move's graph starts with none of it."""
    g = tg.catalog("square_lattice").graph
    weights = tg.random_weights(g, random.Random(5))
    p = sp.kasteleyn_polynomial(g, weights)
    plan = g.derived(sp._Plan)
    assert plan.region is not None and sp.kasteleyn_polynomial(g, weights) == p
    assert g.derived(sp._Plan) is plan
    abel = sp.discrete_abel_map(g)
    assert sp.discrete_abel_map(g) is abel and abel.graph is g
    moves.run_sequence(moves.load_script(bundled_script("domino_shuffle")), weights, g)
    assert len(traces(g)) == 1
    out = moves.spider_move(g, weights, "f0").graph
    assert out._derived == {}
    assert sp.discrete_abel_map(out) is not abel and out.derived(sp._Plan) is not plan
    ref = weakref.ref(g)
    del g, plan, abel
    gc.collect()
    assert ref() is None


def test_a_catalog_graph_evicted_from_the_catalog_cache_is_collectable():
    """Its traces hold no reference that outlives it, so a graph no call can reach again is freed."""
    script = moves.load_script(bundled_script("domino_shuffle"))
    moves.run_sequence(script, tg.all_ones_weights(tg.resolve_graph(script.graph)))
    ref = weakref.ref(tg.resolve_graph(script.graph))
    assert len(traces(ref())) == 1
    for k in range(2, tg._catalog_graph.cache_info().maxsize + 2):
        tg.resolve_graph("honeycomb_%d" % k)
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize(
    "name", ["domino_shuffle", "translation_x", "translation_y"] + ["shuffle_k%d" % k for k in (1, 2, 3, 4)]
)
def test_abel_shift_is_kept_with_the_trace(name, monkeypatch):
    """The cold call, the hit and the uncached run agree; the trace computes the default shift once."""
    script = SCRIPTS[name]()
    base = tg.resolve_graph(script.graph)
    weights = tg.random_weights(base, random.Random(name))
    want = moves.abel_shift(run_sequence_uncached(script, weights))
    lifts = []
    lift = moves._black_tail_lift
    monkeypatch.setattr(moves, "_black_tail_lift", lambda *args: lifts.append(args) or lift(*args))
    cold = moves.run_sequence(script, weights)
    shifts = [moves.abel_shift(cold)]
    assert shifts == [want] and lifts
    lifts.clear()
    hits = [moves.run_sequence(script, weights) for _ in range(2)]
    shifts += [moves.abel_shift(r) for r in hits + [cold]]
    assert shifts == [want] * 4 and lifts == []
    assert len({id(s) for s in shifts}) == 4
    shifts[1][min(want)] += 1  # each caller owns its dict
    assert moves.abel_shift(hits[0]) == want
    # an explicit base vertex computes as before
    least_white = min(v for v, c in base.vertices.items() if c == tg.WHITE)
    assert moves.abel_shift(hits[1], base_vertex=least_white) == want and lifts
    # fates a caller changed are not read from the trace, and the error comes on every call
    abel = moves.discrete_abel_map(base)
    zid = next(z for z, f in hits[0].fates.items() if abel.shift((1, 0))[f.target])
    fate = hits[0].fates[zid]
    hits[0].fates[zid] = moves.StrandFate(fate.target, (fate.offset[0] + 1, fate.offset[1]))
    for _ in range(2):
        with pytest.raises(moves.StrandMatchAmbiguous, match="nonzero degree"):
            moves.abel_shift(hits[0])
    assert moves.abel_shift(hits[1]) == want
