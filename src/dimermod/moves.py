"""Elementary transformations, strand tracking and the translation profile.

A move sequence owns a working graph; each rewrite produces a new validated
TorusGraph.  Strand identity is carried by anchors: a lifted dart
(dart, translate) known to lie on the tracked lift of the strand.  Local
rewrites deform strands inside a disk, so anchors parked on surviving darts
keep both their dart and their translate; all net translation enters through
the closing isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd

from . import DimermodError, intlin, polygon as poly
from .groups import build_j, pair
from .spectral import discrete_abel_map
from .torusgraph import (
    BLACK,
    WHITE,
    TorusGraph,
    is_id_list,
    newton_polygon,
    resolve_graph,
)


class MoveError(DimermodError):
    pass


class MoveNotApplicable(MoveError):
    pass


class NotQuadFace(MoveNotApplicable):
    pass


class WrongColorPattern(MoveNotApplicable):
    pass


class NotTwoValent(MoveNotApplicable):
    pass


class ClosingIsomorphismInvalid(MoveError):
    pass


class StrandMatchAmbiguous(MoveError):
    pass


def _fresh(g, candidate):
    if candidate in g.vertices or candidate in g.edges:
        raise MoveError("generated id %r collides with the graph" % candidate)
    return candidate


@dataclass
class MoveOutcome:
    graph: TorusGraph
    weights: dict
    removed_darts: set
    avoid_darts: set
    recipe: tuple  # what the move does to weights: see _push_weights


def _push_weights(recipe, w):
    """Push the edge weights w through one move, in place, by the move's recipe.

    A weight is an integer pair (n, d), the rational n/d in lowest terms
    with d > 0; each value written is reduced again, so it is exactly the
    size its Fraction would be, and no Fraction is built here.

    A recipe is what a move does to weights, read off the graph alone:
    ("spider", face, sides a b c d, legs, new sides) takes out the four
    sides, gives each leg weight 1 and new side i the weight of side i + 2
    over Delta = ac + bd; ("contract", f1, f2, arc_u, arc_x) takes out f1 and
    f2 and scales arc_u by the weight of f2, arc_x by that of f1;
    ("expand", e1, e2) gives both new edges weight 1.  The moves and the
    replay of a traced script both come here, so each formula has one home.
    """
    kind = recipe[0]
    if kind == "spider":
        _, face_id, sides, legs, quads = recipe
        old = [w[e] for e in sides]
        (an, ad), (bn, bd), (cn, cd), (dn, dd) = old
        p, q = ad * cd, bd * dd
        top = an * cn * q + bn * dn * p  # Delta = top / (p q)
        if top == 0:
            raise MoveNotApplicable("face %s has Delta = ac + bd = 0" % face_id)
        bottom, sign = p * q, 1 if top > 0 else -1
        for e in sides:
            del w[e]
        for i in range(4):
            n, d = old[(i + 2) % 4]
            n, d = n * bottom, d * top
            g = sign * gcd(n, d)
            w[legs[i]] = (1, 1)
            w[quads[i]] = (n // g, d // g)
    elif kind == "contract":
        _, f1, f2, arc_u, arc_x = recipe
        x1, x2 = w.pop(f1), w.pop(f2)
        for arc, (m, q) in ((arc_u, x2), (arc_x, x1)):
            for e in arc:
                n, d = w[e]
                n, d = n * m, d * q
                g = gcd(n, d)
                w[e] = (n // g, d // g)
    else:
        _, ea, eb = recipe
        w[ea] = (1, 1)
        w[eb] = (1, 1)


def _pushed(recipe, weights, reads):
    """A copy of the Fraction weights after one move's recipe.

    Only the entries in reads, the ones the recipe reads, become integer
    pairs and go through `_push_weights`; what it writes comes back as
    Fractions, in the order a push on the whole dict would give.
    """
    w = {e: weights[e].as_integer_ratio() for e in reads}
    _push_weights(recipe, w)
    out = weights.copy()
    for e in reads:
        if e not in w:
            del out[e]
    for e, (n, d) in w.items():
        out[e] = Fraction(n, d)
    return out


def spider_move(g, weights, face_id, tag="sp"):
    """Urban renewal at a quadrilateral face.

    The face boundary is deleted; a new quadrilateral with opposite corner
    colors is joined to the old corners by weight-1 pendant edges, and each
    new side carries (opposite old side)/Delta with Delta = ac + bd.  The
    contract for this rewrite is the mutation/monodromy/spectral cross-check
    suite, not the formula itself.
    """
    face = g.face_by_id(face_id)
    darts = face.darts
    if len(darts) != 4:
        raise NotQuadFace("face %s has degree %d" % (face_id, len(darts)))
    corners = [g.dart_tail(d) for d in darts]
    if len(set(corners)) != 4:
        raise WrongColorPattern("face %s revisits a corner" % face_id)
    old_edges = [d[0] for d in darts]
    offsets = [(0, 0)]
    for d in darts[:3]:
        offsets.append(poly.vadd(offsets[-1], g.dart_disp(d)))

    vertices = g.vertices.copy()
    edges = g.edges.copy()
    rotations = g.rotations.copy()
    for e in old_edges:
        del edges[e]

    n_ids, leg_ids, quad_ids = [], [], []
    for i in range(4):
        n_ids.append(_fresh(g, "%sn%d" % (tag, i)))
        leg_ids.append(_fresh(g, "%sl%d" % (tag, i)))
        quad_ids.append(_fresh(g, "%sq%d" % (tag, i)))
    for i in range(4):
        vertices[n_ids[i]] = WHITE if g.color(corners[i]) == BLACK else BLACK

    recipe = ("spider", face_id, tuple(old_edges), tuple(leg_ids), tuple(quad_ids))
    new_weights = _pushed(recipe, weights, old_edges)
    for i in range(4):
        ci, ni = corners[i], n_ids[i]
        if g.color(ci) == BLACK:
            edges[leg_ids[i]] = (ci, ni, (0, 0))
        else:
            edges[leg_ids[i]] = (ni, ci, (0, 0))
        na, nb = n_ids[i], n_ids[(i + 1) % 4]
        oa, ob = offsets[i], offsets[(i + 1) % 4]
        if vertices[na] == BLACK:
            edges[quad_ids[i]] = (na, nb, poly.vsub(oa, ob))
        else:
            edges[quad_ids[i]] = (nb, na, poly.vsub(ob, oa))

    for i in range(4):
        ci = corners[i]
        e_out, e_in = old_edges[i], old_edges[(i - 1) % 4]
        rot = list(rotations[ci])
        idx = rot.index(e_in)
        if rot[(idx - 1) % len(rot)] != e_out:
            raise MoveNotApplicable("face edges are not adjacent at corner %s" % ci)
        others = [rot[(idx + 1 + t) % len(rot)] for t in range(len(rot) - 2)]
        rotations[ci] = tuple([leg_ids[i]] + others)
    for i in range(4):
        rotations[n_ids[i]] = (quad_ids[i], quad_ids[(i - 1) % 4], leg_ids[i])

    out = TorusGraph(vertices, edges, rotations, parent=g, changed=corners + n_ids, removed=old_edges)
    removed = {(e, s) for e in old_edges for s in (1, -1)}
    return MoveOutcome(
        graph=out, weights=new_weights, removed_darts=removed, avoid_darts=set(), recipe=recipe
    )


def _rotation(g, v, move):
    """The rotation at v; MoveNotApplicable names v when g has no such vertex."""
    rot = g.rotations.get(v) if isinstance(v, str) else None
    if rot is None:
        raise MoveNotApplicable("no vertex %s to %s" % (v, move))
    return rot


def contract_vertex(g, weights, v, tag="ct"):
    """Shrink a 2-valent vertex, fusing its two neighbors.

    Weights on the two sides are rescaled by the opposite deleted edge's
    weight, which keeps every face variable and both torus monodromies
    unchanged (it is the matching-weight pushforward).
    """
    rot = _rotation(g, v, "contract")
    if len(rot) != 2:
        raise NotTwoValent("%s has degree %d" % (v, len(rot)))
    f1, f2 = rot
    b1, w1, d1 = g.edges[f1]
    b2, w2, d2 = g.edges[f2]
    if g.color(v) == WHITE:
        u, x = b1, b2
        shift = poly.vsub(d2, d1)  # position of x relative to u
    else:
        u, x = w1, w2
        shift = poly.vsub(d1, d2)
    if u == x:
        raise NotTwoValent("both edges at %s reach the same neighbor" % v)

    merged = _fresh(g, "%sm" % tag)
    vertices = g.vertices.copy()
    rotations = g.rotations.copy()
    for k in (v, u, x):
        del vertices[k], rotations[k]
    vertices[merged] = g.color(u)

    def arc_after(vertex, skip):
        r = g.rotations[vertex]
        i = r.index(skip)
        return r[i + 1:] + r[:i]

    # only the edges at u and x change: they move to the merged vertex and
    # are rescaled by the weight of the opposite deleted edge
    arc_u, arc_x = arc_after(u, f1), arc_after(x, f2)
    edges = g.edges.copy()
    for e in (f1, f2):
        del edges[e]
    for e in arc_u:
        b, w, d = edges[e]
        edges[e] = (merged, w, d) if b == u else (b, merged, d)
    for e in arc_x:
        b, w, d = edges[e]
        edges[e] = (merged, w, poly.vsub(d, shift)) if b == x else (b, merged, poly.vadd(d, shift))
    rotations[merged] = arc_u + arc_x
    recipe = ("contract", f1, f2, arc_u, arc_x)
    new_weights = _pushed(recipe, weights, (f1, f2) + arc_u + arc_x)

    out = TorusGraph(vertices, edges, rotations, parent=g, changed=(merged,), removed=(f1, f2))
    removed = {(e, s) for e in (f1, f2) for s in (1, -1)}
    avoid = {(e, 1 if g.color(x) == WHITE else -1) for e in arc_x}
    return MoveOutcome(
        graph=out, weights=new_weights, removed_darts=removed, avoid_darts=avoid, recipe=recipe
    )


def expand_vertex(g, weights, v, first, second, tag="ex"):
    """Inverse of contract: split v in two along contiguous rotation arcs,
    joined through a fresh 2-valent vertex of the opposite color."""
    rot = list(_rotation(g, v, "expand"))
    if sorted(first + second) != sorted(rot):
        raise MoveNotApplicable("split arcs must partition the rotation at %s" % v)
    joined = list(first) + list(second)
    n = len(rot)
    if not any(all(joined[t] == rot[(i + t) % n] for t in range(n)) for i in range(n)):
        raise MoveNotApplicable("split arcs must be contiguous in the rotation at %s" % v)

    va, vb = _fresh(g, "%sa" % tag), _fresh(g, "%sb" % tag)
    mid = _fresh(g, "%sv" % tag)
    ea, eb = _fresh(g, "%se1" % tag), _fresh(g, "%se2" % tag)
    col = g.color(v)
    vertices = g.vertices.copy()
    del vertices[v]
    vertices[va] = vertices[vb] = col
    vertices[mid] = WHITE if col == BLACK else BLACK

    edges = g.edges.copy()
    for arc, end in ((first, va), (second, vb)):
        for e in arc:
            b, w, d = edges[e]
            edges[e] = (end, w, d) if col == BLACK else (b, end, d)
    if col == BLACK:
        edges[ea] = (va, mid, (0, 0))
        edges[eb] = (vb, mid, (0, 0))
    else:
        edges[ea] = (mid, va, (0, 0))
        edges[eb] = (mid, vb, (0, 0))

    rotations = g.rotations.copy()
    del rotations[v]
    rotations[va] = tuple([ea] + list(first))
    rotations[vb] = tuple([eb] + list(second))
    rotations[mid] = (ea, eb)

    recipe = ("expand", ea, eb)
    new_weights = _pushed(recipe, weights, ())
    out = TorusGraph(vertices, edges, rotations, parent=g, changed=(va, vb, mid))
    return MoveOutcome(
        graph=out, weights=new_weights, removed_darts=set(), avoid_darts=set(), recipe=recipe
    )


def mutate_x(epsilon, face_vars, k):
    """Face-variable mutation at face k, independent of any edge-level path.

    The exponent is read from the exchange form with the sign split of the
    standard X-mutation; the one-line formula without the split fails the
    urban-renewal cross-check, which is the authoritative contract here.
    """
    out = {}
    for f, x in face_vars.items():
        if f == k:
            out[f] = 1 / x
            continue
        e = epsilon[f][k]
        if e > 0:
            out[f] = x * (1 + 1 / face_vars[k]) ** (-e)
        elif e < 0:
            out[f] = x * (1 + face_vars[k]) ** (-e)
        else:
            out[f] = x
    return out


def mutate_epsilon(epsilon, k):
    """Standard exchange-matrix mutation at k."""
    out = {}
    for i in epsilon:
        out[i] = {}
        for j in epsilon[i]:
            if i == k or j == k:
                out[i][j] = -epsilon[i][j]
            else:
                a, b = epsilon[i][k], epsilon[k][j]
                out[i][j] = epsilon[i][j] + (abs(a) * b + a * abs(b)) // 2
    return out


# -- sequences ---------------------------------------------------------------


@dataclass
class Anchor:
    dart: tuple
    translate: tuple


@dataclass(frozen=True)
class StrandFate:
    """Where a base strand ended up after closing: a lift of `target`."""

    target: str
    offset: tuple


@dataclass
class TranslationProfile:
    per_strand: dict
    per_edge: dict
    reduced: tuple

    def to_json(self):
        return {
            "per_strand": {k: str(v) for k, v in sorted(self.per_strand.items())},
            "per_edge": {str(k): v for k, v in sorted(self.per_edge.items())},
            "reduced": list(self.reduced),
        }


@dataclass
class SequenceResult:
    base_graph: TorusGraph
    polygon: object
    labels: dict
    weights: dict
    profile: TranslationProfile
    fates: dict
    genus: int
    # a traced script's default-base-vertex Abel shift, shared by every run of the trace
    shift_memo: list = field(default=None, compare=False, repr=False)
    # base_graph, polygon and shift_memo may be shared with other calls and must not be changed


class MoveScript:
    def __init__(self, graph, moves, closing):
        self.graph = graph
        self.moves = list(moves)
        self.closing = closing


def load_script(data):
    """The script of a decoded JSON value; MoveError names the key or move at fault."""
    _check_script_shape(data)
    return MoveScript(graph=data["graph"], moves=data["moves"], closing=data["closing"])


def _check_script_shape(data):
    if not isinstance(data, dict):
        raise MoveError("a script must be a JSON object")
    for key, kind, name in (
        ("graph", str, "a string"),
        ("moves", list, "a list"),
        ("closing", dict, "an object"),
    ):
        if not isinstance(data.get(key), kind):
            raise MoveError("script key %r must be %s" % (key, name))
    for i, move in enumerate(data["moves"]):
        kind = next(iter(move)) if isinstance(move, dict) and len(move) == 1 else None
        if kind not in ("spider", "contract", "expand"):
            raise MoveError("move %d: %r is not one of spider, contract or expand" % (i, move))
        arg = move[kind]
        if kind != "expand" and not isinstance(arg, str):
            raise MoveError("move %d: %s needs a string id, not %r" % (i, kind, arg))
        if kind == "expand" and not (
            isinstance(arg, dict)
            and isinstance(arg.get("vertex"), str)
            and is_id_list(arg.get("first"))
            and is_id_list(arg.get("second"))
        ):
            raise MoveError("move %d: expand needs a string vertex and id lists first, second" % i)
    closing = data["closing"]
    for key in ("vertex_map", "edge_map"):
        m = closing.get(key)
        if not (isinstance(m, dict) and is_id_list(list(m) + list(m.values()))):
            raise MoveError("closing key %r must map ids to ids" % key)
    if not poly.is_int_pair(closing.get("translation", [0, 0])):
        raise MoveError("closing key 'translation' is not a pair of integers")


def _advance_anchor(g, anchor, cut):
    """Move the anchor forward along its zig-zag path in g to a dart not in cut."""
    darts, _ = g.zigzag_orbit(anchor.dart)
    i = darts.index(anchor.dart)
    translate = anchor.translate
    for _ in range(len(darts)):
        d = darts[i]
        if d not in cut:
            return Anchor(dart=d, translate=translate)
        translate = poly.vadd(translate, g.dart_disp(d))
        i = (i + 1) % len(darts)
    raise StrandMatchAmbiguous("no surviving dart on path %s" % g.zigzag_of_dart(anchor.dart))


def _apply_move(g, weights, move, tag):
    if "spider" in move:
        return spider_move(g, weights, move["spider"], tag=tag + "s")
    if "contract" in move:
        return contract_vertex(g, weights, move["contract"], tag=tag + "c")
    if "expand" in move:
        detail = move["expand"]
        return expand_vertex(
            g, weights, detail["vertex"], detail["first"], detail["second"], tag=tag + "x"
        )
    raise MoveNotApplicable("unknown move %r" % (move,))


def _check_closing(g_final, g_base, closing):
    vmap = dict(closing["vertex_map"])
    emap = dict(closing["edge_map"])
    tau = tuple(closing.get("translation", (0, 0)))
    if sorted(vmap) != sorted(g_final.vertices) or sorted(vmap.values()) != sorted(
        g_base.vertices
    ):
        raise ClosingIsomorphismInvalid("vertex map is not a bijection onto the base")
    if sorted(emap) != sorted(g_final.edges) or sorted(emap.values()) != sorted(g_base.edges):
        raise ClosingIsomorphismInvalid("edge map is not a bijection onto the base")
    for v, img in vmap.items():
        if g_final.color(v) != g_base.color(img):
            raise ClosingIsomorphismInvalid("color mismatch at %s" % v)
    for e, (b, w, _) in g_final.edges.items():
        ib, iw, _ = g_base.edges[emap[e]]
        if ib != vmap[b] or iw != vmap[w]:
            raise ClosingIsomorphismInvalid("incidence mismatch at edge %s" % e)
    for v, img in vmap.items():
        rot = [emap[e] for e in g_final.rotations[v]]
        target = list(g_base.rotations[img])
        n = len(target)
        if len(rot) != n or not any(
            all(rot[(i + t) % n] == target[t] for t in range(n)) for i in range(n)
        ):
            raise ClosingIsomorphismInvalid("rotation mismatch at %s" % v)
    # displacement compatibility: solve for the per-vertex deck correction.
    # The lifted edge (w, c) -> (b, c+d) maps to (W, c+k(w)) -> (B, c+k(w)+dd),
    # so k(b) - k(w) = dd - d: fixed along the tree, checked on the rest.
    root = min(g_final.vertices)
    _, steps, nontree = g_final.spanning_tree(root)
    kappa = {root: tau}

    def jump(e):
        return poly.vsub(g_base.disp(emap[e]), g_final.disp(e))

    for v, e, child in steps:
        if v == g_final.black(e):
            kappa[child] = poly.vsub(kappa[v], jump(e))
        else:
            kappa[child] = poly.vadd(kappa[v], jump(e))
    for e in nontree:
        b, w, _ = g_final.edges[e]
        if poly.vsub(kappa[b], kappa[w]) != jump(e):
            raise ClosingIsomorphismInvalid("displacements are incompatible along edge %s" % e)
    return vmap, emap, kappa


def run_sequence(script, weights, base=None):
    """Push weights and strand anchors through the script and close up.

    `base` is the script's graph when the caller has already loaded it.
    Returns the translation profile: per-strand strip offsets, their family
    sums g(E_rho), and the canonical reduced class modulo j H_1.

    Of the result, only the final weights depend on the weights; the graphs
    the script passes through, the strand fates, the profile and the Abel
    shift do not.  So the base graph keeps the trace of each script run from
    it (`TorusGraph.derived`; the 32 most recently used), and a later call
    only pushes its weights through each move's recipe, where Delta = 0 is
    the one check left to fail.  The replay turns the weights into integer
    pairs once, pushes them through every recipe, and builds one Fraction
    per final weight.  A shared catalog graph keeps its traces while the
    catalog cache keeps it; a graph file is read afresh, so its script is
    traced on every call, and a one-shot shell call still pays.
    """
    if base is None:
        base = resolve_graph(script.graph)
    if weights.keys() != base.edges.keys():
        missing, unknown = base.edges.keys() - weights.keys(), weights.keys() - base.edges.keys()
        fault = "no weight for edge %s" % min(missing) if missing else "edge %s is not in the base" % min(unknown)
        raise MoveError("weights must cover exactly the base edges: " + fault)
    if not all(weights.values()):
        zero = min(e for e, x in weights.items() if x == 0)
        raise MoveError("weights must be nonzero: edge %s has weight 0" % zero)
    traces, key = base.derived(_trace_table), repr((script.moves, script.closing))
    trace = traces.pop(key, None)
    if trace is None:
        base_poly, labels = newton_polygon(base)
        recipes = []
        g, w, anchors = _track_strands(base, weights, script.moves, recipes)
        res = replace(_close(script.closing, base, base_poly, labels, g, w, anchors), shift_memo=[])
        traces[key] = _Trace(tuple(recipes), dict(script.closing["edge_map"]), _with_weights(res, None))
        if len(traces) > _TRACES_KEPT:
            del traces[next(iter(traces))]
        return res
    traces[key] = trace  # now the most recently used
    w = {e: x.as_integer_ratio() for e, x in weights.items()}
    for recipe in trace.recipes:
        _push_weights(recipe, w)
    edge_map = trace.edge_map
    return _with_weights(trace.result, {edge_map[e]: Fraction(n, d) for e, (n, d) in w.items()})


@dataclass(frozen=True)
class _Trace:
    """A script's run with the weights left out: each move's recipe and the closing's edge map."""

    recipes: tuple
    edge_map: dict
    result: SequenceResult  # with weights None


_TRACES_KEPT = 32  # per base graph


def _trace_table(base):
    """A base graph's traces: script text -> _Trace, least recently used first."""
    return {}


def _with_weights(res, weights):
    """res with these final weights and its own labels, profile and fates, which a caller may change."""
    p = res.profile
    return replace(
        res,
        labels=dict(res.labels),
        weights=weights,
        profile=TranslationProfile(dict(p.per_strand), dict(p.per_edge), p.reduced),
        fates=dict(res.fates),
    )


def _track_strands(base, weights, script_moves, recipes=None):
    """Apply the moves; return the last graph, its weights and each base strand's anchor.

    Each move's weight recipe is appended to `recipes` when it is a list.

    Only the anchors whose dart a move removes or avoids are advanced, found
    through a dart -> strand map.  Only a zig-zag path the move traced again
    can carry two anchors or a new homology class, so only those are
    checked, strand by strand in the order of the base paths, so that the
    first error is the one a check of every strand would meet first.
    """
    zs = base.zigzags()
    strands = [z.id for z in zs]
    anchors = {z.id: Anchor(dart=z.darts[0], translate=(0, 0)) for z in zs}
    strand_class = {z.id: z.homology for z in zs}
    strand_at = {z.darts[0]: n for n, z in enumerate(zs)}
    g, w = base, dict(weights)
    for i, move in enumerate(script_moves):
        outcome = _apply_move(g, w, move, tag="m%d" % i)
        if recipes is not None:
            recipes.append(outcome.recipe)
        cut = outcome.removed_darts | outcome.avoid_darts
        for n in sorted(strand_at.pop(d) for d in cut if d in strand_at):
            a = anchors[strands[n]] = _advance_anchor(g, anchors[strands[n]], cut)
            strand_at[a.dart] = n
        g, w = outcome.graph, outcome.weights
        met = []
        for k in g.traced_zigzags:
            darts, homology = g.zigzag_orbit(k)
            met += [(strand_at[d], k, homology) for d in darts if d in strand_at]
        seen = {}
        for n, k, homology in sorted(met):
            zid = strands[n]
            if k in seen:
                raise StrandMatchAmbiguous(
                    "strands %s and %s merged after move %d" % (seen[k], zid, i)
                )
            seen[k] = zid
            if homology != strand_class[zid]:
                raise StrandMatchAmbiguous(
                    "strand %s changed homology class after move %d" % (zid, i)
                )
    return g, w, anchors


def _close(closing, base, base_poly, labels, g, w, anchors):
    """The SequenceResult of strands tracked to g, mapped back onto base by the closing."""
    vmap, emap, kappa = _check_closing(g, base, closing)
    final_weights = {emap[e]: wt for e, wt in w.items()}

    fates = {}
    for zid, a in anchors.items():
        e, s = a.dart
        tail = g.dart_tail(a.dart)
        mapped = (emap[e], s)
        c = poly.vadd(a.translate, kappa[tail])
        target = base.zigzag_of_dart(mapped)
        tz = base.zigzag_by_id(target)
        if tz.homology != base.zigzag_by_id(zid).homology:
            raise ClosingIsomorphismInvalid(
                "closing maps strand %s onto a different homology class" % zid
            )
        idx = tz.darts.index(mapped)
        offset = poly.vsub(c, tz.positions[idx])
        fates[zid] = StrandFate(target=target, offset=offset)

    return SequenceResult(
        base_graph=base,
        polygon=base_poly,
        labels=labels,
        weights=final_weights,
        profile=_profile_from_fates(base, base_poly, labels, fates),
        fates=fates,
        genus=poly.genus(base_poly),
    )


def _family_members(labels):
    fam = {}
    for zid, rho in labels.items():
        fam.setdefault(rho, []).append(zid)
    for members in fam.values():
        members.sort()
    return fam


def _black_tail_lift(g, z, translate):
    """A black vertex lying on the given lift of z, with its lift position."""
    for d, q in zip(z.darts, z.positions):
        if g.color(g.dart_tail(d)) == BLACK:
            return g.dart_tail(d), poly.vadd(q, translate)
    raise StrandMatchAmbiguous("path %s has no black vertex" % z.id)


def _profile_from_fates(base, base_poly, labels, fates):
    """The translation profile; a permuted family reads the Abel map of base."""
    families = _family_members(labels)
    per_strand = {}
    for rho, members in families.items():
        k = len(members)
        permuted = any(fates[z].target != z for z in members)
        if not permuted:
            for z in members:
                h = base.zigzag_by_id(z).homology
                per_strand[z] = Fraction(pair(h, fates[z].offset))
        else:
            abel = discrete_abel_map(base)

            def family_index(path_id, translate):
                z = base.zigzag_by_id(path_id)
                v, lift = _black_tail_lift(base, z, translate)
                vals = abel.value(v, lift)
                return sum(vals[m] for m in members)

            shifts = []
            for z in members:
                f0 = family_index(z, (0, 0))
                f1 = family_index(fates[z].target, fates[z].offset)
                shifts.append(f1 - f0)
            if len(set(shifts)) != 1:
                raise StrandMatchAmbiguous(
                    "family %d does not translate rigidly: %r" % (rho, shifts)
                )
            for z in members:
                per_strand[z] = Fraction(shifts[0], k)
    per_edge = {}
    for rho, members in families.items():
        total = sum(per_strand[z] for z in members)
        if total.denominator != 1:
            raise StrandMatchAmbiguous("family sum for edge %d is not integral" % rho)
        per_edge[rho] = int(total)
    if sum(per_edge.values()) != 0:
        raise StrandMatchAmbiguous("family sums do not add to zero")

    n = len(base_poly.vertices)
    gvec = [per_edge.get(rho, 0) for rho in range(n)]
    reduced = intlin.reduce_mod_image(gvec, build_j(base_poly))
    return TranslationProfile(per_strand=per_strand, per_edge=per_edge, reduced=reduced)


def is_trivial(result):
    """Triviality of the cluster transformation, split by the genus case."""
    if result.genus >= 1:
        return all(c == 0 for c in result.profile.reduced)
    mults = [d.multiplicity for d in result.polygon.edge_data()]
    return all(
        result.profile.per_edge.get(rho, 0) % m == 0 for rho, m in enumerate(mults)
    )


def abel_shift(result, base_vertex=None):
    """The formal divisor d(w0) - d_t(w0) read off the strand fates.

    For each strand, the level of its tracked lift before and after the
    sequence is the coefficient of its own label in the Abel map at a black
    vertex on the lift; the shift collects the differences.  A translation
    by m yields exactly div chi^m.  The default base vertex's map is the one
    kept on the base graph, and the default-base-vertex shift of a traced
    script is kept with its trace; each call gets its own dict.
    """
    memo = result.shift_memo if base_vertex is None else None
    if memo and memo[0] == result.fates:  # the fates a caller may have changed
        return dict(memo[1])
    base = result.base_graph
    abel = discrete_abel_map(base, base_vertex)
    shift = {}
    for zid, fate in result.fates.items():
        z0 = base.zigzag_by_id(zid)
        v0, q0 = _black_tail_lift(base, z0, (0, 0))
        level0 = abel.value(v0, q0)[zid]
        z1 = base.zigzag_by_id(fate.target)
        v1, q1 = _black_tail_lift(base, z1, fate.offset)
        level1 = abel.value(v1, q1)[fate.target]
        shift[zid] = level1 - level0
    if sum(shift.values()) != 0:
        raise StrandMatchAmbiguous("Abel shift has nonzero degree")
    if memo is not None:
        memo[:] = (dict(result.fates), dict(shift))
    return shift


# -- brute-force closing helper ------------------------------------------------


def find_closing_isomorphism(g_final, g_base, translation=(0, 0)):
    """Search for a closing isomorphism between desk-scale graphs.

    Returns a closing dict usable in a script, or None.  The search roots the
    map at one dart image and propagates through rotations, so it is linear
    per candidate root.
    """
    if len(g_final.vertices) != len(g_base.vertices) or len(g_final.edges) != len(
        g_base.edges
    ):
        return None
    e0 = min(g_final.edges)
    for be0 in sorted(g_base.edges):
        vmap, emap = {}, {}
        ok = True
        stack = [(e0, be0)]
        while stack and ok:
            e, be = stack.pop()
            if e in emap:
                ok = emap[e] == be
                continue
            emap[e] = be
            ends = list(zip(g_final.edges[e][:2], g_base.edges[be][:2]))
            for v, bv in ends:
                if v in vmap:
                    if vmap[v] != bv:
                        ok = False
                        break
                    continue
                rot, brot = g_final.rotations[v], g_base.rotations[bv]
                if len(rot) != len(brot):
                    ok = False
                    break
                vmap[v] = bv
                i, bi = rot.index(e), brot.index(be)
                for t in range(1, len(rot)):
                    stack.append((rot[(i + t) % len(rot)], brot[(bi + t) % len(brot)]))
        if not ok or len(vmap) != len(g_final.vertices) or len(emap) != len(g_final.edges):
            continue
        closing = {
            "vertex_map": vmap,
            "edge_map": emap,
            "translation": list(translation),
        }
        try:
            _check_closing(g_final, g_base, closing)
        except ClosingIsomorphismInvalid:
            continue
        return closing
    return None
