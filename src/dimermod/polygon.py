"""Convex integral polygons: edge data, lattice counts, building blocks.

Vertices are (x, y) int tuples on the homology lattice of the torus.  A
polygon is stored in absolute coordinates; equality up to lattice translation
is a separate predicate, because Newton polygons of spectral polynomials are
only defined up to translation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import gcd

from . import DimermodError


class PolygonError(DimermodError):
    pass


class NotConvex(PolygonError):
    pass


class NotClosed(PolygonError):
    pass


class RepeatedVertex(PolygonError):
    pass


class NoInteriorPoint(PolygonError):
    pass


def cross(a, b):
    """Standard planar cross product a.x*b.y - a.y*b.x."""
    return a[0] * b[1] - a[1] * b[0]


def vsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def vadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def primitive(v):
    g = gcd(v[0], v[1])
    if g == 0:
        raise ValueError("zero vector has no primitive direction")
    return (v[0] // g, v[1] // g)


@dataclass(frozen=True)
class EdgeDatum:
    """One side of the polygon: E_rho = multiplicity * primitive_direction."""

    index: int
    vector: tuple
    primitive_direction: tuple
    multiplicity: int
    inward_normal: tuple


@dataclass(frozen=True)
class ConvexIntegralPolygon:
    """A convex polygon by its vertices and its sides, both counterclockwise.

    Side i is the edge vector from vertex i to vertex i + 1 (mod n), as
    `validate_polygon` computed it with its checks; everything about the
    sides is read from this tuple.
    """

    vertices: tuple
    sides: tuple = field(compare=False, repr=False)

    def __len__(self):
        return len(self.vertices)

    def edge_data(self):
        out = []
        for i, (x, y) in enumerate(self.sides):
            m = gcd(x, y)
            p = (x // m, y // m)
            # interior lies to the left of each ccw edge
            out.append(
                EdgeDatum(index=i, vector=(x, y), primitive_direction=p, multiplicity=m, inward_normal=(-p[1], p[0]))
            )
        return out

    def multiplicities(self):
        """Lattice length of each side: the gcd of its edge vector."""
        return [gcd(x, y) for x, y in self.sides]

    def area2(self):
        """Twice the area (shoelace, cross(v_i, v_i+1) = cross(v_i, side i)); positive for ccw polygons."""
        return sum(x * ey - y * ex for (x, y), (ex, ey) in zip(self.vertices, self.sides))

    def bounding_box(self):
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return (min(xs), min(ys)), (max(xs), max(ys))

    def contains(self, p, strict=False):
        """Point-in-polygon with exact arithmetic; strict excludes the boundary."""
        for v, e in zip(self.vertices, self.sides):
            c = cross(e, vsub(p, v))
            if c < 0 or (strict and c == 0):
                return False
        return True

    def lattice_points(self):
        """All lattice points of the closed polygon, sorted."""
        (x0, y0), (x1, y1) = self.bounding_box()
        return [
            (x, y)
            for x in range(x0, x1 + 1)
            for y in range(y0, y1 + 1)
            if self.contains((x, y))
        ]

    def boundary_lattice_points(self):
        """Boundary lattice points in ccw cyclic order starting at vertex 0."""
        out = []
        for v, e in zip(self.vertices, self.sides):
            k = gcd(e[0], e[1])
            step = (e[0] // k, e[1] // k)
            for t in range(k):
                out.append((v[0] + t * step[0], v[1] + t * step[1]))
        return out

    def translate(self, t):
        return ConvexIntegralPolygon(tuple(vadd(v, t) for v in self.vertices), self.sides)

    def to_json(self):
        return {"vertices": [list(v) for v in self.vertices]}


def is_int_pair(v):
    """True iff v is a list or tuple of two ints (bools excluded)."""
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        return False
    x, y = v
    return isinstance(x, int) and isinstance(y, int) and not isinstance(x, bool) and not isinstance(y, bool)


def validate_polygon(vertices):
    """Check convexity and normalize the start vertex to the lex-smallest.

    Clockwise input is re-oriented counterclockwise; genuinely non-convex or
    degenerate input raises.  Three consecutive collinear vertices are
    rejected so that sides and their multiplicities are well defined.  The
    sides are built once, in one pass, and every check after the repeated
    vertices reads them: the turn at a vertex is the cross product of the
    sides into and out of it.  Each error names the vertex at fault by its
    index in the input and its point.
    """
    if not isinstance(vertices, (list, tuple)):
        raise PolygonError("vertices must be a list of integer pairs")
    vs = [tuple(v) for v in vertices if is_int_pair(v)]
    if len(vs) != len(vertices):
        i, v = next((i, v) for i, v in enumerate(vertices) if not is_int_pair(v))
        raise PolygonError("vertex %d %r is not a pair of integers" % (i, v))
    n = len(vs)
    if n < 3:
        raise NotConvex("a polygon needs at least 3 vertices")
    if len(set(vs)) != n:
        j, i = _first_repeat(vs)
        raise RepeatedVertex("repeated vertex in input: vertices %d and %d are both %s" % (j, i, list(vs[i])))
    sides = [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1])]
    turns = [a[0] * b[1] - a[1] * b[0] for a, b in zip(sides[-1:] + sides[:-1], sides)]
    if 0 in turns:
        i = turns.index(0)
        raise NotConvex(
            "three consecutive vertices are collinear: vertex %d %s is on the line through its neighbours"
            % (i, list(vs[i]))
        )
    if max(turns) < 0:
        vs.reverse()
        sides = [(-x, -y) for x, y in sides[-2::-1] + sides[-1:]]
    elif min(turns) < 0:
        i = _first_minority_turn(turns)
        raise NotConvex(
            "vertex sequence is not convex: vertex %d %s turns against the others" % (i, list(vs[i]))
        )
    windings = _full_turns(sides)
    if windings != 1:
        raise NotConvex("side directions turn %d times around, not once" % windings)
    start = vs.index(min(vs))
    return ConvexIntegralPolygon(tuple(vs[start:] + vs[:start]), tuple(sides[start:] + sides[:start]))


def _first_repeat(vs):
    """(j, i), j < i, for the first vertex i that repeats an earlier vertex j."""
    first = {}
    for i, v in enumerate(vs):
        j = first.setdefault(v, i)
        if j != i:
            return j, i


def _first_minority_turn(turns):
    """The first vertex whose nonzero turn has the sign fewer vertices take (right turns on a tie)."""
    left = sum(t > 0 for t in turns)
    right = len(turns) - left
    return next(i for i, t in enumerate(turns) if (t > 0 if left < right else t < 0))


def _full_turns(sides):
    """How many times side directions that always turn left go once around.

    Each turn is less than a half turn, so the directions pass the positive
    x-axis once per full turn, each time from the lower half-plane (y < 0,
    or y = 0 and x < 0) into the upper one.
    """
    upper = [s[1] > 0 or (s[1] == 0 and s[0] > 0) for s in sides]
    return sum(1 for i in range(len(sides)) if not upper[i - 1] and upper[i])


def polygon_from_edge_vectors(vectors):
    """Assemble edge vectors (sorted by angle, parallel ones merged) into a polygon.

    Raises NotClosed when the vectors do not sum to zero.  The result is
    normalized so its lex-smallest vertex is at the origin.
    """
    vecs = [tuple(v) for v in vectors if v != (0, 0)]
    if not vecs:
        raise NotConvex("no nonzero edge vectors")
    total = (sum(v[0] for v in vecs), sum(v[1] for v in vecs))
    if total != (0, 0):
        raise NotClosed("edge vectors sum to %r, not zero" % (total,))

    def angle_cmp(a, b):
        ha = 0 if (a[1] > 0 or (a[1] == 0 and a[0] > 0)) else 1
        hb = 0 if (b[1] > 0 or (b[1] == 0 and b[0] > 0)) else 1
        if ha != hb:
            return ha - hb
        c = cross(a, b)
        return 0 if c == 0 else (-1 if c > 0 else 1)

    vecs.sort(key=functools.cmp_to_key(angle_cmp))
    merged = []
    for v in vecs:
        if merged and cross(merged[-1], v) == 0:
            merged[-1] = vadd(merged[-1], v)
        else:
            merged.append(v)
    pts = [(0, 0)]
    for v in merged[:-1]:
        pts.append(vadd(pts[-1], v))
    poly = validate_polygon(pts)
    base = min(poly.vertices)
    return poly.translate((-base[0], -base[1]))


def _interior_points_by_column(p):
    """The strict interior lattice points of p in (x, y) order, one column at a time.

    Each column's range is read off the sides: a side (e_x, e_y) from v keeps
    the points with e_x (y - v_y) > e_y (x - v_x), a lower bound on y when
    e_x > 0 and an upper bound when e_x < 0.  A vertical side lies at the
    least or greatest x, where no point is interior.  Nothing scans the
    bounding box, and the walk stops when its caller does.
    """
    sides = list(zip(p.vertices, p.sides))
    lower = [(v, e) for v, e in sides if e[0] > 0]
    upper = [(v, e) for v, e in sides if e[0] < 0]
    (x0, _), (x1, _) = p.bounding_box()
    for x in range(x0 + 1, x1):
        lo = max(vy + ey * (x - vx) // ex + 1 for (vx, vy), (ex, ey) in lower)
        hi = min(vy - ey * (x - vx) // -ex - 1 for (vx, vy), (ex, ey) in upper)
        for y in range(lo, hi + 1):
            yield (x, y)


def interior_lattice_points(p):
    """(g, interior points in (x, y) order), cross-checked against Pick.

    Only for callers that list the points themselves (`polygon info`, the
    building-block check of `verify-all`); counts come from `genus` and
    `lattice_point_count` in O(#vertices).
    """
    pts = list(_interior_points_by_column(p))
    boundary = sum(p.multiplicities())
    # Pick: 2*Area = 2*I + B - 2, exactly.
    if p.area2() != 2 * len(pts) + boundary - 2:
        raise AssertionError("Pick's theorem violated; polygon data corrupt")
    return len(pts), pts


def _pick_counts(area2, boundary):
    """(lattice points, interior points) of a closed lattice polygon with this
    2A and B, by Pick's theorem: 2A = 2I + B - 2."""
    return (area2 + boundary + 2) // 2, (area2 - boundary + 2) // 2


def genus(p):
    """Number of interior lattice points, by Pick's theorem."""
    return _pick_counts(p.area2(), sum(p.multiplicities()))[1]


def lattice_point_count(p):
    """Number of lattice points of the closed polygon, I + B, by Pick's theorem."""
    return _pick_counts(p.area2(), sum(p.multiplicities()))[0]


def translation_equal(p, q):
    if len(p.vertices) != len(q.vertices):
        return False
    t = vsub(q.vertices[0], p.vertices[0])
    return all(vadd(v, t) == w for v, w in zip(p.vertices, q.vertices))


def _polygon_from_boundary_chain(points):
    """Polygon through a cyclic chain of points, dropping interior-of-edge ones."""
    n = len(points)
    corners = []
    for i in range(n):
        a, b, c = points[i - 1], points[i], points[(i + 1) % n]
        if cross(vsub(b, a), vsub(c, b)) != 0:
            corners.append(b)
    if len(corners) < 3:
        raise NotConvex("degenerate chain")
    return validate_polygon(corners)


def _chord_cut(ring, count):
    """The first admissible piece cut off by a chord of the polygon with this
    ring of boundary points, or None.

    Chords (a, b), a < b, are taken in lexicographic order.  With the ring
    r_0..r_(n-1) and the prefix sums of cross(r_t, r_t+1), the piece from
    r_i counterclockwise to r_j, closed by the chord, has
    2A = (sum of cross(r_t, r_t+1) from t = i to j - 1) + cross(r_j, r_i)
    and B = ((j - i) mod n) + gcd(r_i - r_j), so Pick's theorem counts it in
    O(1).  A chord along one side cuts off a piece with 2A = 0 and is
    skipped.  Only the piece of the chord taken becomes a polygon, the one
    with fewer points; both are built only on a tie, which their vertex
    tuples break.
    """
    n = len(ring)
    at = {r: t for t, r in enumerate(ring)}
    swept = [0]
    for t in range(n):
        swept.append(swept[-1] + cross(ring[t], ring[(t + 1) % n]))
    total = swept[n]
    order = sorted(ring)
    for s, a in enumerate(order):
        i = at[a]
        for b in order[s + 1 :]:
            j = at[b]
            area_ij = swept[j] - swept[i] + cross(b, a) + (total if j < i else 0)
            area_ji = total - area_ij
            if area_ij == 0 or area_ji == 0:
                continue
            g = gcd(a[0] - b[0], a[1] - b[1])
            arcs = []
            for area2, lo, hi in ((area_ij, i, j), (area_ji, j, i)):
                points, interior = _pick_counts(area2, (hi - lo) % n + g)
                if points < count and interior >= 1:
                    arcs.append((points, ring[lo : hi + 1] if lo <= hi else ring[lo:] + ring[: hi + 1]))
            if arcs:
                fewest = min(points for points, _ in arcs)
                pieces = [_polygon_from_boundary_chain(arc) for points, arc in arcs if points == fewest]
                return min(pieces, key=lambda c: c.vertices)
    return None


def _triangle_cut(q, ring, count):
    """The first admissible triangle (a, b, y): y an interior point of q, a-b a
    chord between points of its boundary ring.

    Interior points are taken in (x, y) order and, for each, the chords in
    lexicographic order; each triangle is counted by Pick's theorem, with
    2A = |cross(b - a, y - a)| and B the sum of the gcds of its three sides.
    """
    order = sorted(ring)
    for y in _interior_points_by_column(q):
        for s, a in enumerate(order):
            ay = (y[0] - a[0], y[1] - a[1])
            g_ay = gcd(*ay)
            for b in order[s + 1 :]:
                ab = (b[0] - a[0], b[1] - a[1])
                area2 = abs(cross(ab, ay))
                if area2 == 0:
                    continue
                boundary = gcd(*ab) + gcd(y[0] - b[0], y[1] - b[1]) + g_ay
                points, interior = _pick_counts(area2, boundary)
                if points < count and interior >= 1:
                    return validate_polygon([a, b, y])
    return None


def find_building_block(p):
    """Shrink p to a building block polygon contained in it.

    Shrinks by constructive cuts: first try
    chords between boundary lattice points (edge-count reduction and
    splitting off boundary points), and when no chord is admissible, cut a
    triangle through an interior lattice point and two boundary points (the
    step that isolates one interior point when the boundary has no spare
    lattice points).  A cut is admissible when its piece has an interior
    point and fewer lattice points than the polygon it cuts, so the loop
    terminates; candidates are scanned in lexicographic order, and among the
    two pieces of a chord the one with fewer points (then the smaller vertex
    tuple) is taken, so the result is reproducible.  Every candidate is
    counted by Pick's theorem from its boundary, and the interior points of
    the fallback are walked column by column; no bounding box is scanned.
    Each polygon of the loop is counted once.
    """
    q = p
    while True:
        count, interior = _pick_counts(q.area2(), sum(q.multiplicities()))
        if interior < 1:  # only p itself: every cut keeps an interior point
            raise NoInteriorPoint("polygon has no interior lattice point")
        if interior == 1 and count <= 5:
            return q
        ring = q.boundary_lattice_points()
        q = _chord_cut(ring, count) or _triangle_cut(q, ring, count)
        if q is None:
            raise AssertionError("no admissible cut found; should be impossible for convex input")


def random_convex_polygon(rng, bound=8, min_points=3, max_points=8):
    """Convex hull of random lattice points inside [0, bound]^2."""
    while True:
        k = rng.randint(min_points, max_points)
        pts = {(rng.randint(0, bound), rng.randint(0, bound)) for _ in range(k)}
        hull = convex_hull(list(pts))
        if len(hull) >= 3:
            try:
                return validate_polygon(hull)
            except PolygonError:
                continue


def convex_hull(points):
    """Andrew monotone chain; returns ccw hull vertices without collinear points."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def half(seq):
        out = []
        for q in seq:
            while len(out) >= 2 and cross(vsub(out[-1], out[-2]), vsub(q, out[-2])) <= 0:
                out.pop()
            out.append(q)
        return out

    lower = half(pts)
    upper = half(list(reversed(pts)))
    return lower[:-1] + upper[:-1]


def load_polygon(data):
    """The polygon of a decoded JSON value `{"vertices": [[x, y], ...]}`; cw input is auto-reversed."""
    if not isinstance(data, dict) or "vertices" not in data:
        raise PolygonError('a polygon is a JSON object {"vertices": [[x, y], ...]}')
    return validate_polygon(data["vertices"])
