"""Output checkers for the benchmark, written apart from dimermod.

Nothing here imports the package under test.  Each checker takes one parsed
CLI output and the input it was produced from, and raises CheckError when the
output is wrong.  The checks are either recomputed here from first principles
(Pick's theorem, determinantal divisors, face and zig-zag tracing, a
perfect-matching dynamic program) or are properties the method must have
(Goncharov-Kenyon, arXiv:1107.5588: the Newton polygon of the Kasteleyn
determinant is the zig-zag polygon, and a minimal graph has 2*Area(N) faces).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd


class CheckError(AssertionError):
    pass


def require(cond, msg, *args):
    if not cond:
        raise CheckError(msg % args if args else msg)


# -- lattice polygons ------------------------------------------------------------


def cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def pair(a, b):
    """Intersection pairing a.y*b.x - a.x*b.y, the convention of dimermod."""
    return a[1] * b[0] - a[0] * b[1]


def hull(points):
    """Counterclockwise convex hull without collinear points (monotone chain)."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) < 3:
        return pts

    def half(seq):
        out = []
        for q in seq:
            while len(out) >= 2 and cross(
                (out[-1][0] - out[-2][0], out[-1][1] - out[-2][1]),
                (q[0] - out[-2][0], q[1] - out[-2][1]),
            ) <= 0:
                out.pop()
            out.append(q)
        return out

    return half(pts)[:-1] + half(pts[::-1])[:-1]


def normalize(vertices):
    """Convex vertex list, counterclockwise, starting at the lex-smallest vertex."""
    vs = hull(vertices)
    require(len(vs) == len(vertices) and len(vs) >= 3, "not a strictly convex polygon: %r", vertices)
    i = vs.index(min(vs))
    return vs[i:] + vs[:i]


def translate_to_origin(vertices):
    vs = normalize(vertices)
    x0, y0 = vs[0]
    return [(x - x0, y - y0) for x, y in vs]


def edges_of(vs):
    return [(vs[(i + 1) % len(vs)][0] - vs[i][0], vs[(i + 1) % len(vs)][1] - vs[i][1]) for i in range(len(vs))]


def area2(vs):
    return sum(cross(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))


def multiplicities(vs):
    return [abs(gcd(*e)) for e in edges_of(vs)]


def pick_genus(vs):
    """Interior lattice points by Pick's theorem: (area2 - B + 2) / 2."""
    return (area2(vs) - sum(multiplicities(vs)) + 2) // 2


def inside(vs, p):
    n = len(vs)
    return all(
        cross((vs[(i + 1) % n][0] - vs[i][0], vs[(i + 1) % n][1] - vs[i][1]), (p[0] - vs[i][0], p[1] - vs[i][1])) >= 0
        for i in range(n)
    )


def divisors_rank2(rows):
    """(d1, d2) of an integer matrix with two columns and rank 2.

    d1 is the gcd of the entries and d1*d2 the gcd of the 2x2 minors; these
    are the invariant factors of its Smith form.
    """
    d1 = 0
    for a, b in rows:
        d1 = gcd(d1, gcd(a, b))
    minors = 0
    for i in range(len(rows)):
        for k in range(i + 1, len(rows)):
            minors = gcd(minors, rows[i][0] * rows[k][1] - rows[i][1] * rows[k][0])
    require(d1 > 0 and minors > 0, "matrix is not of rank 2")
    return d1, minors // d1


def j_rows(vs):
    return [(pair(e, (1, 0)), pair(e, (0, 1))) for e in edges_of(vs)]


def expected_group(vs):
    """(rank, torsion) of G_N computed without Smith forms."""
    n = len(vs)
    if pick_genus(vs) >= 1:
        rows = j_rows(vs)
        partial, acc = [], (0, 0)
        for r in rows[:-1]:
            acc = (acc[0] + r[0], acc[1] + r[1])
            partial.append(acc)
        d1, d2 = divisors_rank2(partial)
        return n - 3, [d for d in (d1, d2) if d > 1]
    ms = multiplicities(vs)
    order = 1
    g = 0
    for m in ms:
        order *= m
        g = gcd(g, m)
    return 0, order // g


def check_group_output(out, vs, label):
    rank, torsion = expected_group(vs)
    require(out["rank"] == rank, "%s: rank %s, expected %s", label, out["rank"], rank)
    got = list(out["torsion"])
    require(all(d >= 2 for d in got), "%s: torsion factor below 2: %r", label, got)
    require(all(got[i + 1] % got[i] == 0 for i in range(len(got) - 1)), "%s: %r is not a divisibility chain", label, got)
    if pick_genus(vs) >= 1:
        require(got == torsion, "%s: torsion %r, expected %r", label, got, torsion)
    else:
        order = 1
        for d in got:
            order *= d
        require(order == torsion, "%s: group order %s, expected %s", label, order, torsion)


def check_group_compute(out, vertices):
    vs = normalize(vertices)
    check_group_output(out, vs, "group compute")
    case = "interior_point" if pick_genus(vs) >= 1 else "no_interior_point"
    require(out["case"] == case, "group compute: case %r, expected %r", out["case"], case)
    rows = j_rows(vs)
    require([tuple(r) for r in out["embedding_matrix"]] == rows, "group compute: embedding matrix differs")
    d1, d2 = divisors_rank2(rows)
    amb = out["ambient_quotient"]
    require(amb["rank"] == len(vs) - 2, "ambient quotient rank %s", amb["rank"])
    require(list(amb["torsion"]) == [d for d in (d1, d2) if d > 1], "ambient quotient torsion %r", amb["torsion"])


def check_pic0(out, vertices):
    vs = normalize(vertices)
    check_group_output(out, vs, "group pic0")
    require(len(out["generators"]) == len(vs), "group pic0: %d generators for %d sides", len(out["generators"]), len(vs))


def torsion_index(vs):
    d1, d2 = divisors_rank2(j_rows(vs))
    return d1 * d2


def check_torsion_lattice(out, vertices):
    vs = normalize(vertices)
    index = torsion_index(vs)
    require(out["index_over_H1"] == index, "torsion lattice: index %s, expected %s", out["index_over_H1"], index)
    (a, b), (c, d) = [[Fraction(x) for x in v] for v in out["basis"]]
    require(abs(a * d - b * c) == Fraction(1, index), "torsion lattice: basis covolume is not 1/%d", index)


def check_max_translation(out, vertices):
    vs = normalize(vertices)
    got = normalize([tuple(v) for v in out["polygon"]["vertices"]])
    ratio = area2(vs)
    require(area2(got) * torsion_index(vs) == ratio, "max-translation polygon: area2 %d times index does not give %d", area2(got), ratio)
    require(sum(r[0] for r in out["w_rows"]) == 0 and sum(r[1] for r in out["w_rows"]) == 0, "w_rows do not sum to zero")


def check_building_block(out, vertices):
    vs = normalize(vertices)
    bb = normalize([tuple(v) for v in out["vertices"]])
    require(all(inside(vs, v) for v in bb), "building block leaves the polygon")
    interior = pick_genus(bb)
    total = interior + sum(multiplicities(bb))
    require(interior == 1, "building block has %d interior points", interior)
    require(total <= 5, "building block has %d lattice points", total)


POLYGON_CHECKS = {
    "compute": check_group_compute,
    "torsion-lattice": check_torsion_lattice,
    "pic0": check_pic0,
    "max-translation-polygon": check_max_translation,
    "find": check_building_block,
}


# -- torus graphs ------------------------------------------------------------------


class Graph:
    """Faces and zig-zag paths of a torus graph JSON, traced independently."""

    def __init__(self, data):
        self.color = {v["id"]: v["color"] for v in data["vertices"]}
        self.edges = {e["id"]: (e["black"], e["white"], tuple(e["disp"])) for e in data["edges"]}
        self.rot = {v: list(r) for v, r in data["rotations"].items()}
        self.faces = self._orbits(self._face_step)
        self.zigzags = self._orbits(self._zigzag_step)
        self.zigzag_class = {
            "z%d" % i: self._cycle_class(c) for i, c in enumerate(self.zigzags)
        }

    def _head(self, d):
        b, w, _ = self.edges[d[0]]
        return b if d[1] > 0 else w

    def _leave(self, v, e):
        return (e, 1 if self.color[v] == "w" else -1)

    def _turn(self, v, e, delta):
        r = self.rot[v]
        return r[(r.index(e) + delta) % len(r)]

    def _face_step(self, d):
        v = self._head(d)
        return self._leave(v, self._turn(v, d[0], -1))

    def _zigzag_step(self, d):
        v = self._head(d)
        return self._leave(v, self._turn(v, d[0], -1 if self.color[v] == "b" else 1))

    def _orbits(self, step):
        todo = {(e, s) for e in self.edges for s in (1, -1)}
        out = []
        while todo:
            d0 = min(todo)
            cyc, d = [d0], step(d0)
            todo.discard(d0)
            while d != d0:
                todo.remove(d)
                cyc.append(d)
                d = step(d)
            out.append(cyc)
        out.sort(key=lambda c: c[0])
        return out

    def dart_disp(self, d):
        dx, dy = self.edges[d[0]][2]
        return (dx, dy) if d[1] > 0 else (-dx, -dy)

    def _cycle_class(self, cyc):
        x = y = 0
        for d in cyc:
            dx, dy = self.dart_disp(d)
            x, y = x + dx, y + dy
        return (x, y)

    def zigzag_polygon(self):
        """Polygon whose sides are the zig-zag classes in angular order."""
        pts, acc = [(0, 0)], (0, 0)
        vecs = sorted(self.zigzag_class.values(), key=cmp_to_key(_angle_cmp))
        for v in vecs[:-1]:
            acc = (acc[0] + v[0], acc[1] + v[1])
            pts.append(acc)
        return translate_to_origin(hull(pts))

    def zigzag_monodromies(self, weights):
        """Sorted multiset of (class, product of weights along the path)."""
        out = []
        for i, cyc in enumerate(self.zigzags):
            m = Fraction(1)
            for e, s in cyc:
                m = m * weights[e] if s > 0 else m / weights[e]
            out.append((self.zigzag_class["z%d" % i], m))
        return sorted(out)


def _angle_cmp(a, b):
    """Exact counterclockwise order of directions, starting at angle 0."""
    ha = 0 if (a[1] > 0 or (a[1] == 0 and a[0] > 0)) else 1
    hb = 0 if (b[1] > 0 or (b[1] == 0 and b[0] > 0)) else 1
    if ha != hb:
        return ha - hb
    c = cross(a, b)
    return 0 if c == 0 else (-1 if c > 0 else 1)


def check_graph_check(out, ctx):
    g = ctx["graph"]
    nv, ne, nf = len(g.color), len(g.edges), len(g.faces)
    require(out["vertices"] == nv and out["edges"] == ne, "graph check: vertex/edge counts differ")
    require(len(out["faces"]) == nf, "graph check: %d faces, traced %d", len(out["faces"]), nf)
    require(nv - ne + len(out["faces"]) == 0, "graph check: V - E + F != 0")
    got_z = {z: tuple(d["homology"]) for z, d in out["zigzags"].items()}
    require(got_z == g.zigzag_class, "graph check: zig-zag classes differ from the traced ones")
    if ctx["minimal"]:
        require(out["minimal"] is True and "certificate" not in out, "graph check: minimal graph reported non-minimal")
        require(nf == ctx["area2"], "graph check: %d faces but 2*Area(N) = %d", nf, ctx["area2"])
    else:
        require(out["minimal"] is False, "graph check: non-minimal graph reported minimal")
        cert = out.get("certificate") or {}
        require(cert.get("kind") in ("parallel_bigon", "self_intersection", "trivial_zigzag"), "graph check: no certificate for a non-minimal graph")


def check_graph_newton(out, ctx):
    g = ctx["graph"]
    got = translate_to_origin([tuple(v) for v in out["polygon"]["vertices"]])
    require(got == ctx["newton"], "graph newton: polygon %r, expected %r", got, ctx["newton"])
    require(area2(got) == len(g.faces), "graph newton: area2 %d but %d faces", area2(got), len(g.faces))
    sides = edges_of(normalize([tuple(v) for v in out["polygon"]["vertices"]]))
    sums = [(0, 0)] * len(sides)
    for z, rho in out["labels"].items():
        c = g.zigzag_class[z]
        sums[rho] = (sums[rho][0] + c[0], sums[rho][1] + c[1])
    require(sums == sides, "graph newton: zig-zag classes do not add up to the sides")


def check_abel_map(out, ctx):
    g = ctx["graph"]
    base = out["base"]
    require(all(v == 0 for v in out["values"][base].values()), "abel map: d(w0) != 0")
    for key, m in (("div_chi_10", (1, 0)), ("div_chi_01", (0, 1))):
        want = {z: pair(c, m) for z, c in g.zigzag_class.items()}
        require(out[key] == want, "abel map: %s is not the pairing with %r", key, m)


GRAPH_CHECKS = {"check": check_graph_check, "newton": check_graph_newton, "map": check_abel_map}


# -- Kasteleyn polynomials --------------------------------------------------------


def matching_sums(graph, weights):
    """{homology class: weighted sum of perfect matchings of that class}.

    Dynamic program over black vertices in order; the state is the set of
    white vertices used so far and the class collected so far.  A state whose
    unused white vertex has no unprocessed black neighbour is dropped.
    Weights at each black vertex are scaled to integers and the common factor
    is divided out at the end.
    """
    blacks = sorted(v for v, c in graph.color.items() if c == "b")
    whites = sorted(v for v, c in graph.color.items() if c == "w")
    require(len(blacks) == len(whites), "unbalanced graph")
    wi = {w: i for i, w in enumerate(whites)}
    adj = {b: [] for b in blacks}
    for e, (b, w, d) in graph.edges.items():
        adj[b].append((1 << wi[w], d, weights[e]))
    last = {}
    for t, b in enumerate(blacks):
        for bit, _, _ in adj[b]:
            last[bit] = t
    scale = Fraction(1)
    states = {(0, 0, 0): 1}
    for t, b in enumerate(blacks):
        den = 1
        for _, _, wt in adj[b]:
            den = den * wt.denominator // gcd(den, wt.denominator)
        scale *= den
        moves = [(bit, d, int(wt * den)) for bit, d, wt in adj[b]]
        must = 0
        for bit, s in last.items():
            if s == t:
                must |= bit
        nxt = {}
        for (mask, x, y), val in states.items():
            for bit, (dx, dy), wt in moves:
                if mask & bit:
                    continue
                m2 = mask | bit
                if m2 & must != must:
                    continue
                key = (m2, x + dx, y + dy)
                nxt[key] = nxt.get(key, 0) + val * wt
        states = nxt
    return {(x, y): Fraction(v) / scale for (_, x, y), v in states.items()}


def parse_terms(out):
    terms = {}
    for t in out["terms"]:
        terms[(t["z"], t["w"])] = Fraction(t["coeff"])
    return terms


def check_spectral_poly(out, ctx):
    sums = ctx["matchings"]
    terms = parse_terms(out)
    if ctx["normalized"]:
        corner = min(sums)
        base = sums[corner]
        want = {(i - corner[0], j - corner[1]): s / base for (i, j), s in sums.items()}
        require(terms.get((0, 0)) == 1, "spectral poly: normalized form is not monic at the origin")
    else:
        want = sums
    require(set(terms) == set(want), "spectral poly: support differs from the matching classes")
    for k, c in terms.items():
        require(abs(c) == want[k], "spectral poly: |coefficient| at %r is %s, matchings give %s", k, abs(c), want[k])
    newton = translate_to_origin(hull(list(terms)))
    require(newton == ctx["graph"].zigzag_polygon(), "spectral poly: Newton polygon is not the zig-zag polygon")


# -- move sequences ----------------------------------------------------------------


def parse_weights(data):
    return {e: Fraction(v) for e, v in data.items()}


def check_shuffle_apply(out, ctx):
    g = ctx["graph"]
    shift = out["abel_shift"]
    require(sum(shift.values()) == 0, "shuffle apply: Abel shift has degree %d", sum(shift.values()))
    per_edge = out["profile"]["per_edge"]
    require(sum(per_edge.values()) == 0, "shuffle apply: family sums do not add to 0")
    final = parse_weights(out["weights"])
    require(set(final) == set(ctx["weights"]), "shuffle apply: output weights name other edges")
    require(
        g.zigzag_monodromies(final) == g.zigzag_monodromies(ctx["weights"]),
        "shuffle apply: zig-zag monodromies changed",
    )
    m = ctx["translation"]
    if ctx["kind"] == "translation":
        require(out["trivial"] is True, "shuffle apply: a translation is reported non-trivial")
        want = {z: pair(c, m) for z, c in g.zigzag_class.items()}
        got = {z: Fraction(v) for z, v in out["profile"]["per_strand"].items()}
        require(got == want, "shuffle apply: strand offsets are not pair(class, m)")
        require(shift == want, "shuffle apply: Abel shift is not div chi^m")
    else:
        require(out["trivial"] is False, "shuffle apply: domino shuffle reported trivial")
        require(any(per_edge.values()), "shuffle apply: family sums are all zero")
        ref = ctx["family_sums"]
        require(ref.setdefault("value", per_edge) == per_edge, "shuffle apply: family sums %r differ from %r", per_edge, ref.get("value"))
