"""Bipartite torus graphs as combinatorial maps with homology displacements.

A graph is a rotation system: for each vertex, the counterclockwise cyclic
order of its incident edges.  The torus structure lives entirely in per-edge
displacement vectors: disp(e) is the deck translate gained when the edge is
traversed from its white end to its black end.  A dart is (edge_id, sign)
with sign +1 for white->black.

Conventions pinned here and relied on everywhere else:

  * faces: from a dart, the next boundary dart leaves the head along the
    previous edge in ccw order; orbits then run counterclockwise with the
    face on the left, so every dart lies in exactly one face.
  * zig-zag paths: at a black head take the next edge clockwise, at a white
    head the next edge counterclockwise ("maximally right at black,
    maximally left at white").  The global swap would reverse all paths; the
    choice is the one whose square-lattice homology classes match the
    published character-divisor signs.
"""

from __future__ import annotations

import functools
import json
import re
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import DimermodError, intlin, polygon as poly


class GraphError(DimermodError):
    pass


class NotBipartite(GraphError):
    pass


class Disconnected(GraphError):
    pass


class NonContractibleFace(GraphError):
    pass


class EulerMismatch(GraphError):
    pass


class InvalidRotation(GraphError):
    pass


class TrivialZigZag(GraphError):
    pass


class UnknownCatalogEntry(GraphError):
    pass


class UnbalancedColors(GraphError):
    pass


BLACK = "b"
WHITE = "w"


@dataclass(frozen=True)
class Face:
    id: str
    darts: tuple


@dataclass(frozen=True)
class ZigZagPath:
    id: str
    darts: tuple
    homology: tuple
    positions: tuple  # lift position of each dart's tail, starting at (0, 0)

    def edge_ids(self):
        return [e for e, _ in self.darts]


def _face_record(fid, darts, total):
    return Face(fid, darts)


class _Orbits:
    """One dart permutation as a step table, with its orbits keyed by their least darts.

    `key` maps each dart to the least dart of its orbit, `at` maps that dart
    to the orbit's darts, which start there, and to their total
    displacement, and `least` lists the least darts in order.  The id of an
    orbit is `prefix` followed by the rank of its least dart in `least`,
    found by bisection when a caller asks for it, so tracing a few orbits
    again renames no other orbit.  `records` holds the records (a Face or a
    ZigZagPath) made for callers, which belong to this graph's ids only.
    """

    def __init__(self, prefix, parent=None):
        self.prefix = prefix
        self.step = parent.step.copy() if parent else {}
        self.key = parent.key.copy() if parent else {}
        self.at = parent.at.copy() if parent else {}
        self.least = parent.least.copy() if parent else []
        self.records = {}

    def id_of(self, d):
        k = self.key[d]
        r = self.records.get(k)
        return r.id if r is not None else "%s%d" % (self.prefix, bisect_left(self.least, k))

    def find(self, rid):
        """The least dart of the orbit whose id is rid, or None if there is none."""
        n = rid[len(self.prefix):] if isinstance(rid, str) and rid.startswith(self.prefix) else ""
        if n.isascii() and n.isdigit() and str(int(n)) == n and int(n) < len(self.least):
            return self.least[int(n)]
        return None

    def record(self, k, make, rank=None):
        """The record of the orbit at least dart k: make(id, darts, total displacement), made once."""
        r = self.records.get(k)
        if r is None:
            rid = "%s%d" % (self.prefix, bisect_left(self.least, k) if rank is None else rank)
            r = self.records[k] = make(rid, *self.at[k])
        return r

    def all(self, make):
        """Every record, in order of id."""
        return tuple(self.record(k, make, i) for i, k in enumerate(self.least))

    def update(self, dirty, edges):
        """Trace again every orbit through a dart of dirty; return the least darts of the new orbits.

        Orbits that meet dirty are dropped; their live darts and those of
        dirty are traced in sorted order, so each new orbit starts at its
        least dart.  The total displacement of each new orbit is summed over
        the displacements of `edges` as it is traced.
        """
        step, key, at, least = self.step, self.key, self.at, self.least
        starts = {d for d in dirty if d in step}
        for k in {key[d] for d in dirty if d in key}:
            del least[bisect_left(least, k)]
            for d in at.pop(k)[0]:
                del key[d]
                if d in step:
                    starts.add(d)
        new = []
        for d0 in sorted(starts):
            if d0 in key:
                continue
            cycle = []
            x = y = 0
            d = d0
            while True:
                cycle.append(d)
                e, s = d
                dx, dy = edges[e][2]
                x, y = (x + dx, y + dy) if s > 0 else (x - dx, y - dy)
                d = step[d]
                if d == d0:
                    break
            key.update(dict.fromkeys(cycle, d0))
            at[d0] = (tuple(cycle), (x, y))
            insort(least, d0)
            new.append(d0)
        return new


class TorusGraph:
    """Immutable after construction; faces and zig-zag paths are orbits of two dart permutations.

    Each permutation is stored as a step table, and each orbit is keyed by
    its least dart; ids rank the orbits by that dart and are made when asked
    for, as are the Face and ZigZagPath records (the lift positions of a
    zig-zag path too), once per graph.  A local move passes its `parent`
    graph, the vertices it `changed` (those whose rotation or incident edges
    are new) and the edges it `removed`, and hands over the vertex, edge and
    rotation dicts it built, which the graph keeps.  Then only the step
    entries at the changed vertices are recomputed, and only the orbits
    through a removed dart, a dart whose step changed or (for zig-zag paths)
    a dart whose edge changed its displacement are traced again and checked;
    `traced_zigzags` lists the least darts of the zig-zag paths so traced.
    Every other orbit carries over, and so do the connectivity, the
    incidence and `span_index` (the index in H_1 of the span of the cycle
    classes, None if infinite), which a local move preserves.  The graph
    copies its parent's orbit tables and keeps no reference to its parent.
    So a move costs the copies, which are linear in the graph but cheap,
    and the zig-zag paths through its disk, which it traces again in full.

    What the graph alone determines (its Kasteleyn plan, its default Abel
    map, the traces of scripts run from it) is kept by `derived` as long as
    the graph lives; a move's graph starts with none of it.  Catalog graphs
    are shared: `resolve_graph` builds each one once per process and hands
    the same object to every caller, so it carries its derived data while
    the catalog cache keeps it, no caller may mutate a graph, and a move
    copies what it changes.  A graph file is read afresh on every call.
    """

    def __init__(self, vertices, edges, rotations, parent=None, changed=(), removed=()):
        self._face = _Orbits("f", parent and parent._face)
        self._zz = _Orbits("z", parent and parent._zz)
        if parent is None:
            self.vertices = dict(vertices)
            self.edges = {e: (b, w, tuple(d)) for e, (b, w, d) in edges.items()}
            self.rotations = {v: tuple(r) for v, r in rotations.items()}
            self._validate_incidence()
            self.span_index = _span_index(self._check_connected())
            dirty_f, dirty_z = self._set_steps(self.vertices)
        else:
            # a move hands over its new dicts of tuples, and keeps incidence, connectivity and span
            self.vertices, self.edges, self.rotations = vertices, edges, rotations
            self.span_index = parent.span_index
            dirty_f, dirty_z = self._set_steps(changed)
            self._forget(parent, changed, removed, dirty_f, dirty_z)
        self._check_topology(self._face.update(dirty_f, self.edges))
        self.traced_zigzags = self._zz.update(dirty_z, self.edges)
        self._faces = self._zigzags = None
        self._derived = {}

    def derived(self, make):
        """make(self), made at most once per graph and kept as long as it lives; a raise keeps nothing."""
        if make not in self._derived:
            self._derived[make] = make(self)
        return self._derived[make]

    # -- basic dart algebra -------------------------------------------------

    def color(self, v):
        return self.vertices[v]

    def black(self, e):
        return self.edges[e][0]

    def white(self, e):
        return self.edges[e][1]

    def disp(self, e):
        return self.edges[e][2]

    def dart_tail(self, d):
        e, s = d
        return self.white(e) if s > 0 else self.black(e)

    def dart_disp(self, d):
        e, s = d
        dx, dy = self.disp(e)
        return (dx, dy) if s > 0 else (-dx, -dy)

    def _set_steps(self, vs):
        """Set the step entries of the darts into the vertices vs.

        A dart into v along the i-th edge of its rotation continues along its
        face by the previous edge, and along its zig-zag path by the next
        edge clockwise at a black v and counterclockwise at a white v.
        Returns the darts whose face step and whose zig-zag step changed.
        """
        next_face, next_zz = self._face.step, self._zz.step
        moved_f, moved_z = [], []
        for v in vs:
            rot = self.rotations[v]
            s = 1 if self.vertices[v] == WHITE else -1  # sign of the darts leaving v
            n = len(rot)
            for i, e in enumerate(rot):
                d = (e, -s)
                f, z = (rot[i - 1], s), (rot[(i + s) % n], s)
                if next_face.get(d) != f:
                    next_face[d] = f
                    moved_f.append(d)
                if next_zz.get(d) != z:
                    next_zz[d] = z
                    moved_z.append(d)
        return moved_f, moved_z

    def _forget(self, parent, changed, removed, dirty_f, dirty_z):
        """Drop the steps of the removed edges, and mark their darts dirty.

        Darts of an edge at a changed vertex whose displacement changed are
        dirty for zig-zag paths too, whose homology and lift positions they
        shift.  Every edge keeps two step entries in each table, or a
        removed edge was not named.
        """
        for e in removed:
            for d in ((e, 1), (e, -1)):
                del self._face.step[d], self._zz.step[d]
                dirty_f.append(d)
                dirty_z.append(d)
        if len(self._face.step) != 2 * len(self.edges):
            raise GraphError("a move removed edges it did not name")
        for v in changed:
            for e in self.rotations[v]:
                old = parent.edges.get(e)
                if old is not None and old[2] != self.edges[e][2]:
                    dirty_z += ((e, 1), (e, -1))

    # -- validation ----------------------------------------------------------

    def _validate_incidence(self):
        for e, (b, w, d) in self.edges.items():
            if b not in self.vertices or w not in self.vertices:
                raise NotBipartite("edge %s has an unknown endpoint" % e)
            if self.vertices[b] != BLACK or self.vertices[w] != WHITE:
                raise NotBipartite("edge %s must join black to white" % e)
            if len(d) != 2:
                raise InvalidRotation("edge %s displacement must be a pair" % e)
        incident = {v: [] for v in self.vertices}
        for e, (b, w, _) in self.edges.items():
            incident[b].append(e)
            incident[w].append(e)
        for v in self.vertices:
            rot = self.rotations.get(v)
            if rot is None or sorted(rot) != sorted(incident[v]):
                raise InvalidRotation("rotation at %s does not list its edges" % v)
            if len(set(rot)) != len(rot):
                raise InvalidRotation("rotation at %s repeats an edge" % v)

    def spanning_tree(self, root):
        """Breadth-first spanning tree from root: (pos, steps, nontree).

        pos maps each reached vertex to a lift position, root at (0, 0), so
        that pos[black] - pos[white] == disp on every tree edge.  steps lists
        the tree edges as (parent, edge, child) in the order the walk finds
        them; nontree lists every other edge in the order the walk first
        meets it.
        """
        pos = {root: (0, 0)}
        steps, nontree, met = [], [], set()
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for e in self.rotations[v]:
                if e in met:
                    continue
                met.add(e)
                b, w, d = self.edges[e]
                other = w if v == b else b
                if other in pos:
                    nontree.append(e)
                    continue
                pos[other] = poly.vadd(pos[v], d) if v == w else poly.vsub(pos[v], d)
                steps.append((v, e, other))
                queue.append(other)
        return pos, steps, nontree

    def cycle_class(self, pos, e):
        """Homology class of the cycle that closes edge e through the tree with lift positions pos."""
        b, w, d = self.edges[e]
        return poly.vsub(poly.vadd(pos[w], d), pos[b])

    def _check_connected(self):
        """The cycle classes of the non-tree edges of one spanning tree, which must reach every vertex."""
        if not self.vertices:
            raise Disconnected("empty graph")
        pos, _, nontree = self.spanning_tree(min(self.vertices))
        if len(pos) != len(self.vertices):
            raise Disconnected("graph is not connected")
        return [self.cycle_class(pos, e) for e in nontree]

    def _check_topology(self, traced):
        """Euler's formula, and that each face in traced (least darts) has zero displacement."""
        v, e, f = len(self.vertices), len(self.edges), len(self._face.least)
        if v - e + f != 0:
            raise EulerMismatch("V-E+F = %d, expected 0 on the torus" % (v - e + f))
        for k in traced:
            total = self._face.at[k][1]
            if total != (0, 0):
                raise NonContractibleFace("face %s has displacement %r" % (self._face.id_of(k), total))

    def _zigzag(self, zid, darts, homology):
        """The record of a zig-zag path, with the lift positions of its darts' tails from (0, 0)."""
        x = y = 0
        pos = []
        for e, s in darts:
            pos.append((x, y))
            dx, dy = self.edges[e][2]
            x, y = (x + dx, y + dy) if s > 0 else (x - dx, y - dy)
        return ZigZagPath(id=zid, darts=darts, homology=homology, positions=tuple(pos))

    # -- views, made on demand --------------------------------------------------

    def faces(self):
        if self._faces is None:
            self._faces = self._face.all(_face_record)
        return self._faces

    def face_of_dart(self, d):
        return self._face.id_of(d)

    def face_by_id(self, fid):
        k = self._face.find(fid)
        if k is None:
            raise GraphError("no face %s" % fid)
        return self._face.record(k, _face_record)

    def zigzags(self):
        if self._zigzags is None:
            self._zigzags = self._zz.all(self._zigzag)
        return self._zigzags

    def zigzag_of_dart(self, d):
        return self._zz.id_of(d)

    def zigzag_by_id(self, zid):
        k = self._zz.find(zid)
        if k is None:
            raise GraphError("no zig-zag path %s" % zid)
        return self._zz.record(k, self._zigzag)

    def zigzag_orbit(self, d):
        """(darts, homology) of the zig-zag path through dart d, its darts from its least one."""
        return self._zz.at[self._zz.key[d]]

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        return {
            "vertices": [
                {"id": v, "color": self.vertices[v]} for v in sorted(self.vertices)
            ],
            "edges": [
                {
                    "id": e,
                    "black": self.edges[e][0],
                    "white": self.edges[e][1],
                    "disp": list(self.edges[e][2]),
                }
                for e in sorted(self.edges)
            ],
            "rotations": {v: list(self.rotations[v]) for v in sorted(self.rotations)},
        }


def _span_index(classes):
    """Index of the span of the cycle classes in H_1 of the torus, Z^2, or None if infinite.

    It is the product of the pivots of the Hermite basis of the lattice the
    classes span (`intlin.row_lattice_basis`).
    """
    h = intlin.row_lattice_basis(classes)
    return h[0][0] * h[1][1] if len(h[0]) == 2 else None


def is_id_list(x):
    """True iff x is a list of strings, the JSON form of a list of vertex or edge ids."""
    return isinstance(x, list) and all(isinstance(s, str) for s in x)


def _record_id(kind, i, rec, seen):
    """The string id of the i-th vertex or edge record; GraphError if it has none or repeats one."""
    rid = rec.get("id") if isinstance(rec, dict) else None
    if not isinstance(rid, str):
        raise GraphError("%s record %d has no string id" % (kind, i))
    if rid in seen:
        raise GraphError("%s %s is listed twice" % (kind, rid))
    return rid


def validate_graph(data):
    """Build a TorusGraph from the JSON dict shape; all invariants checked.

    The constructor checks all but one; a file must also have cycle classes
    that span H_1 of the torus, which the constructor measures but allows.
    """
    if not isinstance(data, dict):
        raise GraphError("a graph must be a JSON object")
    for key, kind, name in (
        ("vertices", list, "a list"),
        ("edges", list, "a list"),
        ("rotations", dict, "an object"),
    ):
        if not isinstance(data.get(key), kind):
            raise GraphError("graph key %r must be %s" % (key, name))
    vertices = {}
    for i, v in enumerate(data["vertices"]):
        vid = _record_id("vertex", i, v, vertices)
        if v.get("color") not in (BLACK, WHITE):
            raise GraphError("vertex %s: color %r is not 'b' or 'w'" % (vid, v.get("color")))
        vertices[vid] = v["color"]
    edges = {}
    for i, e in enumerate(data["edges"]):
        eid = _record_id("edge", i, e, edges)
        if not (isinstance(e.get("black"), str) and isinstance(e.get("white"), str)):
            raise GraphError("edge %s: black and white must be vertex ids" % eid)
        if not poly.is_int_pair(e.get("disp")):
            raise GraphError("edge %s: disp %r is not a pair of integers" % (eid, e.get("disp")))
        edges[eid] = (e["black"], e["white"], tuple(e["disp"]))
    for v, r in data["rotations"].items():
        if v not in vertices:
            raise GraphError("rotation at %s: no such vertex" % v)
        if not is_id_list(r):
            raise GraphError("rotation at %s: %r is not a list of edge ids" % (v, r))
    rotations = {v: tuple(r) for v, r in data["rotations"].items()}
    g = TorusGraph(vertices, edges, rotations)
    if g.span_index != 1:
        span = "infinite index" if g.span_index is None else "index %d" % g.span_index
        raise GraphError("cycle classes span a sublattice of %s in H_1 of the torus" % span)
    return g


def newton_polygon(g):
    """Polygon assembled from zig-zag homology classes, plus path -> side labels."""
    classes = []
    for z in g.zigzags():
        if z.homology == (0, 0):
            raise TrivialZigZag("zig-zag %s is homologically trivial" % z.id)
        classes.append(z.homology)
    p = poly.polygon_from_edge_vectors(classes)
    labels = {}
    dirs = {d.primitive_direction: d.index for d in p.edge_data()}
    for z in g.zigzags():
        labels[z.id] = dirs[poly.primitive(z.homology)]
    return p, labels


# -- minimality ------------------------------------------------------------


def check_minimality(g):
    """(is_minimal, certificate), decided in one pass over the edges.

    Self-intersections: a zig-zag path that uses some edge twice per period
    lifts either to a self-crossing curve or to two parallel lifts sharing an
    edge; both are violations.  Otherwise each edge is one crossing of two
    paths A and B, at index i along A and j along B.  On the lift A0 of A
    from (0, 0) it is a crossing with the translate B + m, where
    m = q_a + s*h_a - q_b - t*h_b for lift shifts s, t (q: lift of the edge's
    white end), at index i + s*|A| along A0 and j + t*|B| along B + m.  Pairs
    of lifts up to deck translation are the classes of m modulo <h_a, h_b>,
    and m is the canonical representative of its class.  The lattice depends
    only on the ordered pair of classes (h_a, h_b), so one Hermite form of it
    stacked over the identity is taken per ordered pair of classes that
    occurs (`intlin.stacked_hermite`): 8 on `square_lattice_k` and 4 on
    `honeycomb_k` for every k >= 2.  Reducing (c, 0, 0) by it, c = q_a - q_b,
    gives (m, s, t) at once, and for parallel paths its kernel column is the
    period of the pair of lifts.  Transverse lifts that cross once hold no
    bigon, so such a pair of lifts is not searched.
    """
    zigzags = g.zigzags()
    for z in zigzags:
        if z.homology == (0, 0):
            # a trivial class bounds a disk, which always forces crossings
            return False, {"kind": "trivial_zigzag", "path": z.id}
        seen = set()
        for d in z.darts:
            if d[0] in seen:
                return False, {"kind": "self_intersection", "path": z.id, "edge": d[0]}
            seen.add(d[0])

    at = {}  # dart -> (path index, index along the path, lift of the edge's white end)
    for k, z in enumerate(zigzags):
        for i, (d, p) in enumerate(zip(z.darts, z.positions)):
            at[d] = (k, i, p if d[1] > 0 else poly.vadd(p, g.dart_disp(d)))
    lattices = {}  # (h_a, h_b) -> stacked Hermite form of <h_a, h_b>
    classes = {}
    for e in g.edges:
        (a, i, qa), (b, j, qb) = sorted((at[(e, 1)], at[(e, -1)]))
        za, zb = zigzags[a], zigzags[b]
        pair = za.homology, zb.homology
        form = lattices.get(pair)
        if form is None:
            form = lattices[pair] = intlin.stacked_hermite(_lift_lattice(*pair))
        m0, m1, s, t = intlin.reduce_mod_hermite((*poly.vsub(qa, qb), 0, 0), *form)
        classes.setdefault((a, b, (m0, m1)), []).append((i + s * len(za.darts), j + t * len(zb.darts)))
    for (a, b, m), crossings in sorted(classes.items()):
        za, zb = zigzags[a], zigzags[b]
        period = None
        if poly.cross(za.homology, zb.homology) == 0:
            # parallel paths: shifting A0 by s*h_a and B + m by t*h_b maps the pair of
            # lifts to itself, for (s, t) the kernel column of the stacked form
            h = lattices[za.homology, zb.homology][0]
            s, t = h[2][1], h[3][1]
            period = (abs(s) * len(za.darts), (t if s > 0 else -t) * len(zb.darts))
        elif len(crossings) == 1:
            continue
        if _has_parallel_bigon(crossings, period):
            return False, {"kind": "parallel_bigon", "paths": [za.id, zb.id], "offset": list(m)}
    return True, None


def _lift_lattice(ha, hb):
    """The map (s, t) -> s*h_a - t*h_b, as the matrix with columns h_a and -h_b."""
    return [[ha[0], -hb[0]], [ha[1], -hb[1]]]


def _has_parallel_bigon(crossings, period):
    """True iff two crossings are consecutive along A and along B, in the same order.

    crossings lists (index along A, index along B) for one pair of lifts, one
    per edge, so no two share an index.  Parallel lifts cross again after
    every index shift `period`; then one period along A is tested cyclically,
    and positions along B are compared modulo the B part of the shift.
    """
    if period:
        pa, pb = period
        crossings = [(ta % pa, tb - ta // pa * pb) for ta, tb in crossings]
    crossings = sorted(crossings)
    key = (lambda tb: tb % abs(pb)) if period else (lambda tb: tb)
    bs = sorted(key(tb) for _, tb in crossings)
    after = crossings[1:]
    if period:
        after.append((crossings[0][0] + pa, crossings[0][1] + pb))
        bs.append(bs[0] + abs(pb))
    step_b = {x: y - x for x, y in zip(bs, bs[1:])}  # distance to the next crossing along B
    return any(tb2 - tb1 == step_b.get(key(tb1)) for (_, tb1), (_, tb2) in zip(crossings, after))


# -- seed and face variables -------------------------------------------------


@dataclass(frozen=True)
class Seed:
    face_ids: tuple
    epsilon: dict


def seed_of(g):
    """Exchange form from shared-edge orientation counts.

    For every edge, the face containing the white->black dart is the one on
    the crossing's left.  eps[F][G] counts shared edges with G on the left
    minus those with F on the left; this is the orientation under which the
    mutation cross-check holds with the standard sign-split formula.
    """
    fids = tuple(f.id for f in g.faces())
    eps = {f: {h: 0 for h in fids} for f in fids}
    for e in g.edges:
        left = g.face_of_dart((e, 1))
        right = g.face_of_dart((e, -1))
        if left == right:
            continue
        eps[right][left] += 1
        eps[left][right] -= 1
    return Seed(face_ids=fids, epsilon=eps)


def face_variable(g, weights, cycle):
    """Weights multiplied along the white->black darts of a face or zig-zag path, divided along the others."""
    x = Fraction(1)
    for e, s in cycle.darts:
        x = x * weights[e] if s > 0 else x / weights[e]
    return x


zigzag_monodromy = face_variable


def _weight_potentials(g, weights):
    """Spanning-tree lift positions, alternating-product potentials, non-tree edges."""
    root = min(g.vertices)
    pos, steps, nontree = g.spanning_tree(root)
    phi = {root: Fraction(1)}
    for v, e, child in steps:
        phi[child] = phi[v] * weights[e] if v == g.white(e) else phi[v] / weights[e]
    return pos, phi, nontree


def torus_monodromies(g, weights):
    """Monodromies along fixed cycles of class (1,0) and (0,1).

    The cycles are combinations of spanning-tree fundamental cycles; the integer
    combinations are solved from one stacked Hermite form of their classes
    (`intlin.stacked_hermite`), so they are deterministic for a given graph.
    """
    pos, phi, nontree = _weight_potentials(g, weights)
    hols = []
    classes = []
    for e in sorted(nontree):
        b, w, _ = g.edges[e]
        classes.append(g.cycle_class(pos, e))
        hols.append(phi[w] * weights[e] / phi[b])
    form = intlin.stacked_hermite([[c[0] for c in classes], [c[1] for c in classes]])
    out = []
    for target in ((1, 0), (0, 1)):
        x = intlin.solve_stacked(target, *form)
        if x is None:
            raise GraphError("homology classes of cycles do not span the torus")
        m = Fraction(1)
        for c, h in zip(x, hols):
            m *= h ** c
        out.append(m)
    return tuple(out)


def face_variables(g, weights):
    """All face monodromies plus the two torus monodromies.

    The product of the face variables is 1 exactly, because each edge enters
    once in each direction across the collection of faces.
    """
    xs = {f.id: face_variable(g, weights, f) for f in g.faces()}
    total = Fraction(1)
    for x in xs.values():
        total *= x
    if total != 1:
        raise AssertionError("face variables do not multiply to 1")
    return xs, torus_monodromies(g, weights)


# -- weights -----------------------------------------------------------------


def all_ones_weights(g):
    return {e: Fraction(1) for e in g.edges}


def random_weights(g, rng, max_val=9):
    """Positive random rationals; positivity keeps spider deltas nonzero."""
    return {
        e: Fraction(rng.randint(1, max_val), rng.randint(1, max_val)) for e in g.edges
    }


def parse_weights(data):
    """Edge weights from their JSON object, each value read by `_parse_rational`."""
    if not isinstance(data, dict):
        raise ValueError("weights must be a JSON object mapping edge ids to rationals")
    return {e: _parse_rational(v, e) for e, v in data.items()}


# ASCII digits only: int() alone would also take " 3 ", "1_000" and other scripts' digits
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[+-]?[0-9]+)?")


def _parse_rational(s, edge):
    """An int, or a string "p" or "p/q" (ASCII digits, each with an optional sign), as an exact Fraction.

    A ValueError names the edge whose weight s is.
    """
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    p, _, q = s.partition("/") if isinstance(s, str) and _RATIONAL.fullmatch(s) else ("", "", "")
    try:
        p, q = int(p), int(q or 1)
    except ValueError:  # outside the grammar, or more digits than int() converts
        raise ValueError("edge %s: %r is not an integer or a string p/q" % (edge, s)) from None
    if q == 0:
        raise ValueError("edge %s: zero denominator in %r" % (edge, s))
    return Fraction(p, q)


def weights_to_json(weights):
    return {e: str(w) for e, w in sorted(weights.items())}


# -- catalog -----------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    graph: TorusGraph
    newton: poly.ConvexIntegralPolygon
    genus: int


def _square_lattice_graph(k):
    """Grid Z^2 mod 2k with checkerboard coloring; deck units are 2k steps."""
    n = 2 * k
    vertices = {}
    edges = {}
    rotations = {}

    def vid(i, j):
        color = BLACK if (i + j) % 2 == 0 else WHITE
        return "%s%d,%d" % (color, i, j)

    for i in range(n):
        for j in range(n):
            vertices[vid(i, j)] = BLACK if (i + j) % 2 == 0 else WHITE
    for i in range(n):
        for j in range(n):
            a, b = vid(i, j), vid((i + 1) % n, j)
            deck = (1, 0) if i + 1 == n else (0, 0)
            black, white = (a, b) if vertices[a] == BLACK else (b, a)
            # disp is black lift minus white lift, in deck units
            d = deck if black == b else (-deck[0], -deck[1])
            edges["h%d,%d" % (i, j)] = (black, white, d)
            a, b = vid(i, j), vid(i, (j + 1) % n)
            deck = (0, 1) if j + 1 == n else (0, 0)
            black, white = (a, b) if vertices[a] == BLACK else (b, a)
            d = deck if black == b else (-deck[0], -deck[1])
            edges["v%d,%d" % (i, j)] = (black, white, d)
    for i in range(n):
        for j in range(n):
            rotations[vid(i, j)] = (
                "h%d,%d" % (i, j),
                "v%d,%d" % (i, j),
                "h%d,%d" % ((i - 1) % n, j),
                "v%d,%d" % (i, (j - 1) % n),
            )
    return TorusGraph(vertices, edges, rotations)


def _honeycomb_graph():
    vertices = {"b0": BLACK, "w0": WHITE}
    edges = {
        "e0": ("b0", "w0", (0, 0)),
        "e1": ("b0", "w0", (1, 0)),
        "e2": ("b0", "w0", (0, 1)),
    }
    rotations = {"b0": ("e0", "e1", "e2"), "w0": ("e0", "e1", "e2")}
    return TorusGraph(vertices, edges, rotations)


def _honeycomb_block_graph(k):
    """Hexagonal lattice with a k x k block of cells per fundamental domain."""
    vertices = {}
    edges = {}
    rotations = {}
    for i in range(k):
        for j in range(k):
            vertices["b%d,%d" % (i, j)] = BLACK
            vertices["w%d,%d" % (i, j)] = WHITE
    for i in range(k):
        for j in range(k):
            b = "b%d,%d" % (i, j)
            edges["e0_%d,%d" % (i, j)] = (b, "w%d,%d" % (i, j), (0, 0))
            deck = (1, 0) if i + 1 == k else (0, 0)
            edges["e1_%d,%d" % (i, j)] = (b, "w%d,%d" % ((i + 1) % k, j), deck)
            deck = (0, 1) if j + 1 == k else (0, 0)
            edges["e2_%d,%d" % (i, j)] = (b, "w%d,%d" % (i, (j + 1) % k), deck)
    for i in range(k):
        for j in range(k):
            rotations["b%d,%d" % (i, j)] = (
                "e0_%d,%d" % (i, j),
                "e1_%d,%d" % (i, j),
                "e2_%d,%d" % (i, j),
            )
            rotations["w%d,%d" % (i, j)] = (
                "e0_%d,%d" % (i, j),
                "e1_%d,%d" % ((i - 1) % k, j),
                "e2_%d,%d" % (i, (j - 1) % k),
            )
    return TorusGraph(vertices, edges, rotations)


def _refinement(name, prefix):
    """k for the catalog name prefix_k, 1 for the bare prefix.

    The suffix must be k written as str(k) writes it, k >= 1: no sign,
    space, leading zero or non-ASCII digit.  Any other name is not a
    catalog name, so `resolve_graph` reads it as a file path.
    """
    if name == prefix:
        return 1
    if name.startswith(prefix + "_"):
        suffix = name[len(prefix) + 1 :]
        try:
            k = int(suffix)
        except ValueError:
            raise UnknownCatalogEntry(name)
        if k >= 1 and str(k) == suffix:
            return k
    raise UnknownCatalogEntry(name)


def catalog(name):
    """Bundled minimal graphs; synthesis from arbitrary polygons is out of scope."""
    if name == "honeycomb":
        g = _honeycomb_graph()
        p = poly.validate_polygon([(0, 0), (1, 0), (0, 1)])
        return CatalogEntry(name=name, graph=g, newton=p, genus=0)
    if name.startswith("honeycomb"):
        k = _refinement(name, "honeycomb")
        g = _honeycomb_block_graph(k)
        p = poly.validate_polygon([(0, 0), (k, 0), (0, k)])
        return CatalogEntry(name=name, graph=g, newton=p, genus=(k - 1) * (k - 2) // 2)
    k = _refinement(name, "square_lattice")
    g = _square_lattice_graph(k)
    p = poly.validate_polygon([(k, 0), (0, k), (-k, 0), (0, -k)])
    return CatalogEntry(name=name, graph=g, newton=p, genus=2 * k * k - 2 * k + 1)


CATALOG_NAMES = ("honeycomb", "honeycomb_2", "square_lattice", "square_lattice_2")


@functools.lru_cache(maxsize=32)
def _catalog_graph(name):
    return catalog(name).graph


def resolve_graph(name_or_path):
    """Catalog name or a JSON file path -> TorusGraph.

    A catalog graph is built once per process and the same object is
    returned to every caller, so no caller may change it; a graph file is
    read and validated on every call.
    """
    try:
        return _catalog_graph(name_or_path)
    except UnknownCatalogEntry:
        with open(name_or_path) as fh:
            return validate_graph(json.load(fh))
