"""Verification suites shared by the CLI `verify-all` and the acceptance tests.

Every check function returns a list of failure strings; an empty list means
the check passed.  A suite is a list of named checks, each run on the seed.
All randomness is driven by the caller's seed so reports are reproducible
byte for byte.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from . import intlin, moves, polygon as poly, spectral as sp, torusgraph as tg
from .groups import (
    ambient_quotient,
    build_j,
    cluster_modular_group,
    max_translation_polygon,
    pair,
    pic0_stack_presentation,
    torsion_lattice,
)

DIAMOND = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def random_polygon_corpus(seed, want_g1=200, want_g0=50, bound=8):
    rng = random.Random(seed)
    g1, g0 = [], []
    while len(g1) < want_g1 or len(g0) < want_g0:
        p = poly.random_convex_polygon(rng, bound=bound)
        if poly.genus(p) >= 1:
            if len(g1) < want_g1:
                g1.append(p)
        elif len(g0) < want_g0:
            g0.append(p)
    return g1, g0


def check_worked_example():
    """The four-sided polygon with one interior point, end to end."""
    fails = []
    p = poly.validate_polygon(DIAMOND)
    j = build_j(p)
    if j != [[-1, -1], [1, -1], [1, 1], [-1, 1]]:
        fails.append("embedding matrix mismatch: %r" % (j,))
    factors = intlin.smith_normal_form(j)
    if factors != [1, 2]:
        fails.append("Smith diagonal mismatch: %r" % factors)
    a = ambient_quotient(p)
    if (a.rank, a.torsion) != (2, (2,)):
        fails.append("ambient quotient mismatch: %s" % a)
    gn = cluster_modular_group(p)
    if (gn.group.rank, gn.group.torsion) != (1, (2,)):
        fails.append("cluster modular group mismatch: %s" % gn.group)
    lat = torsion_lattice(p)
    expect = ((Fraction(1), Fraction(0)), (Fraction(-1, 2), Fraction(1, 2)))
    if lat.basis != expect:
        fails.append("torsion lattice basis mismatch: %r" % (lat.basis,))
    mt = max_translation_polygon(p)
    if list(mt.w_rows) != [(0, 1), (-1, -1), (0, -1), (1, 1)]:
        fails.append("w-matrix mismatch: %r" % (mt.w_rows,))
    return fails


def check_rank_law(seed):
    fails = []
    g1, g0 = random_polygon_corpus(seed)
    for p in g1:
        r = cluster_modular_group(p)
        if r.group.rank != len(p.vertices) - 3:
            fails.append("rank != |E|-3 for %r" % (p.vertices,))
    for p in g0:
        r = cluster_modular_group(p)
        if r.group.rank != 0:
            fails.append("nonzero rank for g=0 polygon %r" % (p.vertices,))
    return fails


def _finite_group_invariants_by_enumeration(mults):
    """Oracle for the no-interior-point formula by direct coset enumeration.

    The quotient embeds in the product of Z/m_rho as the residue tuples whose
    integer lifts can be made sum-zero; the invariant factors are recovered
    from the multiset of element orders.
    """
    import itertools
    from math import gcd as _gcd

    g = 0
    for m in mults:
        g = _gcd(g, m)
    elements = [
        t for t in itertools.product(*[range(m) for m in mults]) if sum(t) % g == 0
    ]

    def order(t):
        k = 1
        cur = t
        while any(cur):
            cur = tuple((a + b) % m for a, b, m in zip(cur, t, mults))
            k += 1
        return k

    orders = sorted(order(t) for t in elements)
    n = len(elements)

    def chains(total, prev):
        if total == 1:
            yield ()
            return
        for d in range(max(2, prev), total + 1):
            if total % d == 0 and d % prev == 0:
                for rest in chains(total // d, d):
                    yield (d,) + rest

    for chain in chains(n, 1):
        got = sorted(
            _order_in_product(chain, t)
            for t in itertools.product(*[range(d) for d in chain])
        )
        if got == orders:
            return tuple(chain)
    raise AssertionError("no invariant-factor chain matches the element orders")


def _order_in_product(chain, t):
    from math import gcd as _gcd

    o = 1
    for d, x in zip(chain, t):
        k = d // _gcd(d, x) if x else 1
        o = o * k // _gcd(o, k)
    return o


def check_genus_zero_formula():
    fails = []
    tri = poly.validate_polygon([(0, 0), (1, 0), (0, 1)])
    r = cluster_modular_group(tri)
    if r.group != intlin.FgAbelianGroup(rank=0, torsion=()):
        fails.append("unit triangle group not trivial: %s" % r.group)
    big = poly.validate_polygon([(0, 0), (2, 0), (0, 2)])
    r2 = cluster_modular_group(big)
    mults = [d.multiplicity for d in big.edge_data()]
    oracle = _finite_group_invariants_by_enumeration(mults)
    if r2.group.rank != 0 or r2.group.torsion != oracle:
        fails.append(
            "doubled triangle mismatch: got %s, enumeration says %r" % (r2.group, oracle)
        )
    return fails


def check_pic0(seed):
    fails = []
    g1, _ = random_polygon_corpus(seed)
    for p in g1:
        pres = pic0_stack_presentation(p)
        ref = cluster_modular_group(p)
        if pres.group != ref.group:
            fails.append("Pic0 mismatch for %r" % (p.vertices,))
    return fails


def check_building_blocks(seed):
    fails = []
    g1, _ = random_polygon_corpus(seed)
    for p in g1:
        bb = poly.find_building_block(p)
        g, _ = poly.interior_lattice_points(bb)
        pts = len(bb.lattice_points())
        if g != 1 or pts > 5 or len(bb.vertices) > 4:
            fails.append("bad building block %r for %r" % (bb.vertices, p.vertices))
        if not all(p.contains(v) for v in bb.vertices):
            fails.append("building block escapes %r" % (p.vertices,))
    return fails


def check_newton_extraction():
    fails = []
    for name in ("square_lattice", "honeycomb"):
        entry = tg.catalog(name)
        got, _ = tg.newton_polygon(entry.graph)
        want = entry.newton
        base = min(want.vertices)
        want = want.translate((-base[0], -base[1]))
        if not poly.translation_equal(got, want):
            fails.append("%s Newton polygon mismatch: %r" % (name, got.vertices))
        ok, cert = tg.check_minimality(entry.graph)
        if not ok:
            fails.append("%s flagged non-minimal: %r" % (name, cert))
    return fails


def check_abel_map():
    fails = []
    g = tg.catalog("square_lattice").graph
    abel = sp.discrete_abel_map(g)
    base = abel.base_vertex
    if any(abel.values[base][z] != 0 for z in abel.values[base]):
        fails.append("d(w0) != 0")
    _, labels = tg.newton_polygon(g)
    by_label = {labels[z.id]: z.id for z in g.zigzags()}
    chi_x = abel.shift((1, 0))
    chi_y = abel.shift((0, 1))
    want_x = {0: -1, 1: 1, 2: 1, 3: -1}
    want_y = {0: -1, 1: -1, 2: 1, 3: 1}
    for rho in range(4):
        z = by_label[rho]
        if chi_x[z] != want_x[rho]:
            fails.append("div chi^(1,0) wrong at side %d" % rho)
        if chi_y[z] != want_y[rho]:
            fails.append("div chi^(0,1) wrong at side %d" % rho)
    # equivariance against the pairing, on every path
    for z in g.zigzags():
        if chi_x[z.id] != pair(z.homology, (1, 0)) or chi_y[z.id] != pair(z.homology, (0, 1)):
            fails.append("equivariance shift disagrees with the pairing at %s" % z.id)
    return fails


def check_kasteleyn_oracle(seed, draws=20):
    fails = []
    rng = random.Random(seed)
    for name in tg.CATALOG_NAMES:
        entry = tg.catalog(name)
        if len(entry.graph.edges) > 12:
            continue
        for _ in range(draws):
            w = tg.random_weights(entry.graph, rng)
            det = sp.kasteleyn_polynomial(entry.graph, w)
            oracle = sp.matching_polynomial(entry.graph, w)
            if det != oracle:
                fails.append("%s: determinant disagrees with matching sum" % name)
                break
    return fails


def _match_faces(g, g2, removed):
    fmap = {}
    for f in g.faces():
        surviving = [d for d in f.darts if d not in removed]
        if not surviving:
            continue
        ids = {g2.face_of_dart(d) for d in surviving}
        if len(ids) != 1:
            raise AssertionError("face %s split by the move" % f.id)
        fmap[f.id] = ids.pop()
    return fmap


def spider_cross_checks(g, weights, face_id, spectral=True):
    """Cross-checks A (mutation), B (monodromies), C (normalized spectrum)."""
    fails = []
    seed = tg.seed_of(g)
    xs, _ = tg.face_variables(g, weights)
    out = moves.spider_move(g, weights, face_id, tag="cc")
    g2, w2 = out.graph, out.weights
    xs2, _ = tg.face_variables(g2, w2)
    fmap = _match_faces(g, g2, out.removed_darts)
    inner = [fid for fid in (f.id for f in g2.faces()) if fid not in fmap.values()]
    if len(inner) != 1:
        return ["could not identify the mutated face"]
    fmap[face_id] = inner[0]
    mutated = moves.mutate_x(seed.epsilon, xs, face_id)
    for f in g.faces():
        if xs2[fmap[f.id]] != mutated[f.id]:
            fails.append("mutation formula fails at %s" % f.id)
    seed2 = tg.seed_of(g2)
    want_eps = moves.mutate_epsilon(seed.epsilon, face_id)
    for f in g.faces():
        for h in g.faces():
            if seed2.epsilon[fmap[f.id]][fmap[h.id]] != want_eps[f.id][h.id]:
                fails.append("exchange matrix mutation fails at (%s, %s)" % (f.id, h.id))
    zz1 = sorted((z.homology, tg.zigzag_monodromy(g, weights, z)) for z in g.zigzags())
    zz2 = sorted((z.homology, tg.zigzag_monodromy(g2, w2, z)) for z in g2.zigzags())
    if zz1 != zz2:
        fails.append("zig-zag monodromies not preserved")
    if spectral:
        p1 = sp.normalized_poly(sp.kasteleyn_polynomial(g, weights))
        p2 = sp.normalized_poly(sp.kasteleyn_polynomial(g2, w2))
        if p1 != p2:
            fails.append("normalized characteristic polynomial changed")
    return fails


def check_move_invariance(seed, assignments=100):
    fails = []
    rng = random.Random(seed)
    g = tg.catalog("square_lattice").graph
    quads = [f.id for f in g.faces() if len(f.darts) == 4]
    per_face = max(1, assignments // len(quads))
    for _ in range(per_face):
        w = tg.random_weights(g, rng)
        tg.face_variables(g, w)  # asserts the product relation
        for fid in quads:
            fails.extend(spider_cross_checks(g, w, fid))
            if fails:
                return fails
    # single-edge adjacency (exponent 1) coverage on the refined lattice
    g2 = tg.catalog("square_lattice_2").graph
    quads2 = [f.id for f in g2.faces() if len(f.darts) == 4][:2]
    for _ in range(2):
        w = tg.random_weights(g2, rng)
        for fid in quads2:
            fails.extend(spider_cross_checks(g2, w, fid))
            if fails:
                return fails
    return fails


def check_domino_shuffle():
    fails = []
    base = tg.catalog("square_lattice").graph
    script = moves.load_script(bundled_script("domino_shuffle"))
    res = moves.run_sequence(script, tg.all_ones_weights(base))
    if sum(res.profile.per_edge.values()) != 0:
        fails.append("family sums do not vanish")
    if moves.is_trivial(res):
        fails.append("shuffle reported trivial")
    shift = moves.abel_shift(res)
    moved = {z: c for z, c in shift.items() if c}
    if sorted(moved.values()) != [-1, 1]:
        fails.append("Abel shift is not a difference of two labels: %r" % shift)
    else:
        rhos = sorted(res.labels[z] for z in moved)
        n = len(res.polygon.vertices)
        if (rhos[1] - rhos[0]) % n not in (1, n - 1):
            fails.append("Abel shift labels are not adjacent sides: %r" % rhos)
    for name in ("translation_x", "translation_y"):
        s = moves.load_script(bundled_script(name))
        r = moves.run_sequence(s, tg.all_ones_weights(base))
        if any(res_c != 0 for res_c in r.profile.reduced) or not moves.is_trivial(r):
            fails.append("%s not trivial" % name)
        m = (1, 0) if name.endswith("x") else (0, 1)
        for z in base.zigzags():
            if r.profile.per_strand[z.id] != pair(z.homology, m):
                fails.append("%s per-strand offsets wrong" % name)
                break
        abel = sp.discrete_abel_map(base)
        if moves.abel_shift(r) != abel.shift(m):
            fails.append("%s Abel shift is not div chi^m" % name)
    return fails


def bundled_script(name):
    import json
    from importlib import resources

    with resources.files("dimermod.data").joinpath(name + ".json").open() as fh:
        return json.load(fh)


SUITES = {
    "group": (
        ("worked_example", lambda seed: check_worked_example()),
        ("rank_law", check_rank_law),
        ("genus_zero_formula", lambda seed: check_genus_zero_formula()),
        ("pic0", check_pic0),
    ),
    "moves": (
        ("move_invariance", check_move_invariance),
        ("domino_shuffle", lambda seed: check_domino_shuffle()),
    ),
    "spectral": (
        ("newton_extraction", lambda seed: check_newton_extraction()),
        ("abel_map", lambda seed: check_abel_map()),
        ("kasteleyn_oracle", check_kasteleyn_oracle),
    ),
    "appendix": (("building_blocks", check_building_blocks),),
}


def run_suite(name, seed=0):
    """The failures of every check of the suite, in order, and each check's time in ms."""
    fails, timing = [], {}
    for check, run in SUITES[name]:
        t = time.perf_counter()
        fails += run(seed)
        timing[check] = int((time.perf_counter() - t) * 1000)
    return fails, timing
