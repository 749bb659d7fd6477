"""Kasteleyn characteristic polynomial and the discrete Abel map.

Laurent polynomials in (z, w) are sparse maps from integer exponent pairs to
exact rationals.  det K(z, w) is found by evaluation (`_scaled_det`, on the
rows the graph's `_Plan` builds): after a monomial shift and a rational scale
per row, K has integer polynomial entries, whose exponent spans bound the
support by a box and whose coefficients bound every coefficient of the
determinant.  If the box, times the bits of that bound, is small
(`PACK_BITS`), one integer determinant (Bareiss) at a packed node z = 2^B,
w = z^(Dz+1) holds every coefficient as a base-2^B digit (Kronecker
substitution).  Otherwise integer determinants at small integer
nodes are interpolated exactly, row of w-exponents by row: until a call with
positive weights has learned the support, its matching polygon, which holds
the support for any weights, calls on a graph evaluate on the box, and after
it only on the support, which the graph keeps with its plan.  The cost is
polynomial in the number of vertices; nothing is floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import DimermodError, intlin, polygon as poly
from .torusgraph import GraphError, UnbalancedColors, WHITE

# The largest packed node of `_scaled_det`, (Dz+1)(Dw+1)B bits, that it takes
# instead of the node loop.  Measured crossover (2 vCPU, Python 3.11): the
# packed node is 1.2x faster at 8.3 k bits (honeycomb_8, weights 1) and 0.9x
# at 12.3 k (square_lattice_5); CPython's long division is quadratic, so
# bigger nodes lose.
PACK_BITS = 8192


class ZeroPolynomial(DimermodError):
    pass


class NoValidSignAssignment(GraphError):
    pass


class InconsistentAbelMap(GraphError):
    pass


class LaurentPoly2:
    """Finite-support map (i, j) -> Fraction with no explicit zeros."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, c in terms.items():
                c = Fraction(c)
                if c:
                    self.terms[k] = c

    @classmethod
    def monomial(cls, coeff, i, j):
        return cls({(i, j): coeff})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, LaurentPoly2) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, Fraction(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        p = LaurentPoly2()
        p.terms = out
        return p

    def __mul__(self, other):
        out = {}
        for (a, b), c in self.terms.items():
            for (x, y), d in other.terms.items():
                k = (a + x, b + y)
                s = out.get(k, Fraction(0)) + c * d
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        p = LaurentPoly2()
        p.terms = out
        return p

    def to_json(self):
        return {
            "terms": [
                {"z": i, "w": j, "coeff": str(c)}
                for (i, j), c in sorted(self.terms.items())
            ]
        }

    def __repr__(self):
        bits = []
        for (i, j), c in sorted(self.terms.items()):
            bits.append("%s*z^%d*w^%d" % (c, i, j))
        return " + ".join(bits) or "0"


def normalized_poly(p):
    """Kill the scalar/monomial/sign-sector gauge of a characteristic polynomial.

    Translates the lex-min support point, always a vertex of the Newton
    polygon, to the origin and makes it monic.  On the torus, Kasteleyn sign
    solutions also differ by the H^1(T, Z_2) twists (z, w) -> (+-z, +-w), so
    the normalization additionally picks the lexicographically smallest of
    the four twisted forms.  A twist keeps the origin's coefficient 1, so
    each form is the monic one with some signs flipped.  Two twists give the
    same form up to the first term, in sorted order, on which their signs
    differ, and there the smaller form is the negative one; so the least
    form is found by that rule, term by term, and its signs are flipped once.
    """
    if p.is_zero():
        raise ZeroPolynomial("cannot normalize the zero polynomial")
    ci, cj = min(p.terms)
    lead = p.terms[ci, cj]
    monic = sorted(((i - ci, j - cj), c / lead) for (i, j), c in p.terms.items())
    twists = [(False, False), (False, True), (True, False), (True, True)]  # flip odd i, flip odd j
    for (i, j), c in monic:
        if len(twists) == 1:
            break
        negative = [(fx, fy) for fx, fy in twists if (c < 0) != ((fx and i % 2 == 1) != (fy and j % 2 == 1))]
        twists = negative or twists
    fx, fy = twists[0]
    out = LaurentPoly2()
    out.terms = {(i, j): -c if (fx and i % 2 == 1) != (fy and j % 2 == 1) else c for (i, j), c in monic}
    return out


def kasteleyn_signs(g):
    """Edge signs with product (-1)^(k+1) around every degree-2k face.

    Solved exactly over GF(2) with deterministic pivoting, on int bitmasks:
    bit c of a face's row is edge c in sorted order, and the bit above the
    edges is the right-hand side.  A failure would mean the face data is
    inconsistent, which validation already excludes.
    """
    edge_ids = sorted(g.edges)
    idx = {e: i for i, e in enumerate(edge_ids)}
    rhs = 1 << len(edge_ids)
    rows = []
    for f in g.faces():
        vec = 0
        for e, _ in f.darts:
            vec ^= 1 << idx[e]
        if (len(f.darts) // 2 + 1) % 2:
            vec |= rhs
        rows.append(vec)
    # GF(2) elimination
    pivots = []
    r = 0
    for c in range(len(edge_ids)):
        bit = 1 << c
        sel = next((i for i in range(r, len(rows)) if rows[i] & bit), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        top = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] & bit:
                rows[i] ^= top
        pivots.append(c)
        r += 1
    if any(row & rhs for row in rows[r:]):
        raise NoValidSignAssignment("face sign conditions are inconsistent")
    negative = {edge_ids[c] for i, c in enumerate(pivots) if rows[i] & rhs}
    return {e: -1 if e in negative else 1 for e in edge_ids}


class _Plan:
    """What det K(z, w) needs of a graph besides its weights, kept on the graph (`TorusGraph.derived`).

    `signs` are the Kasteleyn signs, `blacks` and `whites` the sorted row
    and column vertices, and `template[r]` lists black row r's edges as
    (white column, z-exponent, w-exponent, sign, edge).  `region` is None
    until a call with every weight positive sets it to that call's support,
    as (w-exponent, least z-exponent, greatest z-exponent) rows.
    """

    __slots__ = ("signs", "blacks", "whites", "template", "region")

    def __init__(self, g):
        self.blacks = sorted(v for v, c in g.vertices.items() if c == "b")
        self.whites = sorted(v for v, c in g.vertices.items() if c == "w")
        if len(self.blacks) != len(self.whites):
            raise UnbalancedColors("need equal numbers of black and white vertices")
        self.signs = kasteleyn_signs(g)
        bi = {v: i for i, v in enumerate(self.blacks)}
        wi = {v: i for i, v in enumerate(self.whites)}
        self.template = [[] for _ in self.blacks]
        for e, (b, w, d) in g.edges.items():
            self.template[bi[b]].append((wi[w], d[0], d[1], self.signs[e], e))
        self.region = None

    def scaled_rows(self, weights):
        """K's rows, each as (integer terms, m), and whether every weight is positive.

        K(z, w) has a row per black vertex and a column per white vertex,
        both sorted; entry (b, w) sums sign(e) * weight(e) * z^i w^j over
        the edges e from b to w with displacement (i, j).  Row r times the
        lcm m of its weights' denominators has the terms (column, i, j, c),
        c != 0: the edges of one entry and displacement are summed.
        """
        rows, positive = [], True
        for edges in self.template:
            ws = [weights[e] for *_, e in edges]
            m = lcm(*(x.denominator for x in ws))
            terms = {}
            for (col, i, j, s, _), x in zip(edges, ws):
                terms[col, i, j] = terms.get((col, i, j), 0) + s * x.numerator * (m // x.denominator)
                positive = positive and x.numerator > 0
            rows.append(([(col, i, j, c) for (col, i, j), c in terms.items() if c], m))
        return rows, positive


def kasteleyn_polynomial(g, weights):
    """det K(z, w) for the signed, homology-graded Kasteleyn matrix.

    The integer rows are built from the graph's plan, kept on the graph.
    A small determinant is read from one packed node (`_scaled_det`).  On
    the node path a call evaluates on the degree box until a call with every
    weight positive has learned the support; after that, on the support's
    rows alone.  That is exact by Kenyon-Okounkov-Sheffield (Dimers and amoebae,
    section 3): with Kasteleyn signs on the torus, all perfect matchings of
    one homology class carry the same sign in det K.  So under positive
    weights every class has a nonzero coefficient, and under any weights the
    support lies among the classes.  An empty support means the graph has no
    perfect matching, and every later determinant is 0.
    """
    plan = g.derived(_Plan)
    rows, positive = plan.scaled_rows(weights)
    p = _scaled_det(rows, plan.region)
    if positive and plan.region is None:
        support = {}
        for i, j in p.terms:
            lo, hi = support.get(j, (i, i))
            support[j] = (min(lo, i), max(hi, i))
        plan.region = tuple((j, lo, hi) for j, (lo, hi) in sorted(support.items()))
    return p


def _scaled_det(scaled, region):
    """Exact determinant of the square matrix whose row r is (integer terms, m_r), on the rows of `region`.

    Row r is the sum of c z^i w^j over its terms (column, i, j, c), divided
    by m_r.  It is multiplied by z^-a_r w^-b_r (its least exponents), which
    leaves integer polynomials.  Every term of the determinant takes one
    entry from each row, so its degrees are at most the sums Dz, Dw of the
    rows' exponent spans.  The determinant's coefficients are at most
    prod_r sum_t |c_rt| in size, over the rows' integer coefficients c_rt,
    so below 2^(B-1) with B that bound's bit length plus one.  If
    (Dz+1)(Dw+1)B <= PACK_BITS, the determinant is taken once, at z = 2^B
    and w = 2^(B(Dz+1)), where it is the sum of c_ik 2^(B(i + (Dz+1)k))
    over the coefficients c_ik of z^i w^k: its balanced base-2^B digits,
    read from the lowest, are the coefficients, and a value left over beyond
    the box raises ArithmeticError.  Else the determinant is evaluated on a
    region given by rows: for w-exponent j, the z-exponents lo_j..hi_j.
    `region` holds them in absolute exponents, one (j, lo_j, hi_j) per
    w-exponent, and is clipped to the box; if it is None the region is the
    box (0..Dz) x (0..Dw), all of whose rows are 0..Dz.  The caller vouches
    that the support lies in the region.  Dividing by prod m_r and
    multiplying by z^(sum a_r) w^(sum b_r) undoes the row scaling.

    With f_j(z) = z^lo_j g_j(z) the coefficient of w^j, g_j has degree
    W_j = hi_j - lo_j, so the z-nodes are a = 1..max W_j + 1, and at node a
    the rows with W_j < a - 1 are finished: g_j is interpolated, so f_j(a)
    is known.  The open rows span j1..j2; the integer determinant is taken
    at w-nodes b = 1..j2-j1+1, the finished rows are subtracted, and the
    rest, divided by b^j1, is interpolated in w; each open row's value,
    divided by a^lo_j, is g_j(a).  So on this node path the region costs
    sum_j (W_j + 1) determinants, not (Dz+1)(Dw+1); the packed node, which
    does not read the region, costs one.  Every division is exact, and each is
    checked with an ArithmeticError, as is a zero coefficient at each
    finished or absent row between j1 and j2.

    The determinants share one Bareiss elimination, staged by what a row
    depends on: the rows free of z and w are eliminated once, the rows in z
    alone once per z-node, and only the remaining rows at every node.  Each
    stage reduces once every column that a later row uses, so it reduces a
    later row by summing over the row's few entries.  Dependent constant
    rows make the determinant 0; rows in z alone that are dependent at a
    z-node make that node's values 0.
    """
    shift_z = shift_w = dz = dw = 0
    scale = 1
    stages = ([], [], [])  # (row index, integer terms): constant, in z alone, the rest
    for r, (terms, m) in enumerate(scaled):
        if not terms:
            return LaurentPoly2()
        lo_i, hi_i = min(t[1] for t in terms), max(t[1] for t in terms)
        lo_j, hi_j = min(t[2] for t in terms), max(t[2] for t in terms)
        shift_z += lo_i
        shift_w += lo_j
        dz += hi_i - lo_i
        dw += hi_j - lo_j
        scale *= m
        stage = 2 if hi_j > lo_j else 1 if hi_i > lo_i else 0
        stages[stage].append((r, [(col, i - lo_i, j - lo_j, c) for col, i, j, c in terms]))
    const, zonly, rest = ([terms for _, terms in stage] for stage in stages)
    # With no steps taken, reduce_sum writes a row out over all the columns.
    whole = intlin.Elimination(range(len(scaled)))
    first = whole.extend([whole.reduce_sum(_evaluate(t, [1], [1]).items()) for t in const])
    if first is None:
        return LaurentPoly2()
    sign = _perm_sign([r for stage in stages for r, _ in stage]) * first.sign

    def z_stage(pa):
        """`first` continued by the rows in z alone at these powers of z, or None if they are dependent."""
        return first.continued().extend([first.reduce_sum(_evaluate(t, pa, [1]).items()) for t in zonly])

    def det_at(second, pa, pb):
        """The integer determinant at the node with these powers of z and w, from its `z_stage`."""
        if second is None:
            return 0
        third = second.continued().extend([second.reduce_sum(_evaluate(t, pa, pb).items()) for t in rest])
        return 0 if third is None else sign * second.sign * third.sign * third.pivot

    bits = _coefficient_bound(scaled).bit_length() + 1
    if (dz + 1) * (dw + 1) * bits <= PACK_BITS:
        # Kronecker substitution: at z = 2^bits, w = z^(Dz+1) the determinant
        # is sum_k c_k 2^(bits k) with c_k the coefficient of z^(k mod (Dz+1))
        # w^(k div (Dz+1)), read back as balanced base-2^bits digits.
        pa = [1 << bits * k for k in range(dz + 1)]
        v = det_at(z_stage(pa), pa, [1 << bits * (dz + 1) * k for k in range(dw + 1)])
        digits = _balanced_digits(v, bits, (dz + 1) * (dw + 1))
        return LaurentPoly2(
            {(k % (dz + 1) + shift_z, k // (dz + 1) + shift_w): Fraction(c, scale) for k, c in enumerate(digits) if c}
        )
    if region is None:
        rows = [(j, 0, dz) for j in range(dw + 1)]
    else:
        rows = [
            (j - shift_w, max(lo - shift_z, 0), min(hi - shift_z, dz))
            for j, lo, hi in sorted(region)
            if shift_w <= j <= shift_w + dw and lo - shift_z <= dz and hi >= shift_z
        ]
    if not rows:
        return LaurentPoly2()
    values = {j: [] for j, _, _ in rows}  # g_j(1), g_j(2), ...
    found = []  # (j, lo_j, coefficients of g_j), once interpolated
    for a in range(1, max(hi - lo for _, lo, hi in rows) + 2):
        pa = [a**k for k in range(dz + 1)]
        second = z_stage(pa)
        live = [(j, lo) for j, lo, hi in rows if hi - lo >= a - 1]
        j1, j2 = live[0][0], live[-1][0]
        known = [(j, sum(c * pa[lo + k] for k, c in enumerate(g))) for j, lo, g in found]
        at_b = []
        for b in range(1, j2 - j1 + 2):
            pb = [b**k for k in range(dw + 1)]
            at_b.append(_exact_div(det_at(second, pa, pb) - sum(f * pb[j] for j, f in known), pb[j1]))
        h = _interpolate(at_b)
        open_rows = {j for j, _ in live}
        if any(h[j - j1] for j in range(j1, j2 + 1) if j not in open_rows):
            raise ArithmeticError("det K has support outside its evaluation region")
        for j, lo in live:
            values[j].append(_exact_div(h[j - j1], pa[lo]))
        found += [(j, lo, _interpolate(values[j])) for j, lo, hi in rows if hi - lo == a - 1]
    out = {}
    for j, lo, g in sorted(found):
        for k, c in enumerate(g):
            if c:
                out[(lo + k + shift_z, j + shift_w)] = Fraction(c, scale)
    return LaurentPoly2(out)


def _coefficient_bound(scaled):
    """prod_r sum_t |c_rt| over the rows' integer terms: each coefficient of their determinant is at most this in size.

    A coefficient is a signed sum of products that take one term from each
    row, and expanding the product of the rows' sums gives each such
    product, in size, once.
    """
    bound = 1
    for terms, _ in scaled:
        bound *= sum(abs(t[3]) for t in terms)
    return bound


def _balanced_digits(v, bits, count):
    """The digits d_k in [-2^(bits-1), 2^(bits-1)) with v = sum_k d_k 2^(bits k), lowest first.

    Raises ArithmeticError (a check that python -O keeps) if `count` digits
    do not hold v.
    """
    mask, half = (1 << bits) - 1, 1 << bits - 1
    digits = []
    for _ in range(count):
        d = v & mask
        if d >= half:
            d -= mask + 1
        digits.append(d)
        v = (v - d) >> bits
    if v:
        raise ArithmeticError("det K has a coefficient beyond its bound")
    return digits


def _evaluate(terms, pa, pb):
    """A row's integer terms at a node, as column -> value; pa, pb hold the powers."""
    out = {}
    for col, i, j, c in terms:
        out[col] = out.get(col, 0) + c * pa[i] * pb[j]
    return out


def _exact_div(x, d):
    """x / d, raising ArithmeticError unless d divides x (a check that python -O keeps)."""
    q, r = divmod(x, d)
    if r:
        raise ArithmeticError("inexact division of %d by %d" % (x, d))
    return q


def _interpolate(values):
    """Coefficients of the integer polynomial f of degree < len(values) with f(x) = values[x - 1].

    The forward differences give f = sum_k c_k (x-1)(x-2)...(x-k) with
    c_k = (Delta^k f)(1) / k!, an integer because f has integer coefficients;
    Horner's rule in that basis then yields the monomial coefficients.
    """
    d = list(values)
    for k in range(1, len(d)):
        for x in range(len(d) - 1, k - 1, -1):
            d[x] -= d[x - 1]
    newton = []
    fact = 1
    for k, v in enumerate(d):
        if k:
            fact *= k
        newton.append(_exact_div(v, fact))
    coeffs = []
    for k in range(len(newton) - 1, -1, -1):
        # coeffs <- coeffs * (x - k - 1) + newton[k]
        coeffs = [0] + coeffs
        for t in range(len(coeffs) - 1):
            coeffs[t] -= (k + 1) * coeffs[t + 1]
        coeffs[0] += newton[k]
    return coeffs


def matching_polynomial(g, weights):
    """Brute-force oracle: signed sum over perfect matchings graded by homology.

    Shares the graph's plan (sign assignment and vertex order) with the
    determinant route but none of its algebra: matchings are enumerated
    directly and each contributes sgn(permutation) * prod(sign * weight) * z^a w^b.
    """
    plan = g.derived(_Plan)
    blacks, signs = plan.blacks, plan.signs
    wi = {v: i for i, v in enumerate(plan.whites)}
    by_black = {b: [] for b in blacks}
    for e, (b, w, d) in g.edges.items():
        by_black[b].append((e, w, d))
    for b in by_black:
        by_black[b].sort()

    total = LaurentPoly2()
    n = len(blacks)
    used = [False] * n
    perm = [0] * n

    def rec(i, coeff, cls):
        nonlocal total
        if i == n:
            sgn = _perm_sign(perm)
            total = total + LaurentPoly2.monomial(coeff * sgn, cls[0], cls[1])
            return
        for e, w, d in by_black[blacks[i]]:
            j = wi[w]
            if used[j]:
                continue
            used[j] = True
            perm[i] = j
            rec(i + 1, coeff * signs[e] * weights[e], (cls[0] + d[0], cls[1] + d[1]))
            used[j] = False

    rec(0, Fraction(1), (0, 0))
    return total


def _perm_sign(perm):
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# -- discrete Abel map --------------------------------------------------------


@dataclass(frozen=True)
class AbelMap:
    """Vertex-indexed divisors at infinity, with the lattice equivariance rule.

    `base_positions[v]` is the spanning-tree lift at which `values[v]` holds;
    `shift_x`/`shift_y` extend to all lifts:
    value(v, c) = values[v] + (c - base) paired into the shifts.
    """

    graph: object
    base_vertex: str
    base_positions: dict
    values: dict
    shift_x: dict
    shift_y: dict

    def value(self, v, lift=None):
        base = self.base_positions[v]
        if lift is None:
            lift = base
        dx, dy = lift[0] - base[0], lift[1] - base[1]
        out = {}
        for z in self.values[v]:
            c = self.values[v][z] + dx * self.shift_x[z] + dy * self.shift_y[z]
            out[z] = c
        return out

    def shift(self, m):
        return {z: m[0] * self.shift_x[z] + m[1] * self.shift_y[z] for z in self.shift_x}

    def to_json(self):
        """Copies of the tables, in their own key order; the CLI writer sorts the keys."""
        return {
            "base": self.base_vertex,
            "values": {v: dict(row) for v, row in self.values.items()},
            "lifts": {v: list(self.base_positions[v]) for v in self.values},
            "div_chi_10": dict(self.shift_x),
            "div_chi_01": dict(self.shift_y),
        }


def _edge_nu(g, e):
    """The two zig-zag labels through an edge (with multiplicity)."""
    return [g.zigzag_of_dart((e, 1)), g.zigzag_of_dart((e, -1))]


def discrete_abel_map(g, base_vertex=None):
    """Propagate d(w) = d(b) - nu(alpha) - nu(beta) from the base white vertex.

    A spanning tree rooted at the base vertex fixes one lift per vertex; the
    remaining edges determine the equivariance shifts and must satisfy them
    exactly, otherwise the graph data is corrupt and InconsistentAbelMap is
    raised.  The map from the default base vertex, the least white one, is
    kept on the graph (`TorusGraph.derived`); callers must not change it.
    """
    if base_vertex is None:
        return g.derived(_abel_map)
    return _abel_map(g, base_vertex)


def _abel_map(g, base_vertex=None):
    if base_vertex is None:
        base_vertex = min(v for v, c in g.vertices.items() if c == WHITE)
    zids = [z.id for z in g.zigzags()]
    pos, steps, nontree = g.spanning_tree(base_vertex)
    val = {base_vertex: {z: 0 for z in zids}}
    for v, e, child in steps:
        sign = 1 if v == g.white(e) else -1
        nxt = dict(val[v])
        for z in _edge_nu(g, e):
            nxt[z] += sign
        val[child] = nxt

    # Each non-tree edge sees the black lift at pos(w) + disp; the defect
    # against the tree lift of the black end pins the equivariance shift.
    equations = []
    for e in nontree:
        b, w, _ = g.edges[e]
        m = g.cycle_class(pos, e)
        nu = _edge_nu(g, e)
        rhs = {}
        for z in zids:
            want = val[w][z] + (1 if z == nu[0] else 0) + (1 if z == nu[1] else 0)
            rhs[z] = want - val[b][z]
        equations.append((m, rhs))

    shift_x, shift_y = _solve_shifts(zids, equations)
    return AbelMap(
        graph=g,
        base_vertex=base_vertex,
        base_positions=pos,
        values=val,
        shift_x=shift_x,
        shift_y=shift_y,
    )


def _solve_shifts(zids, equations):
    best = None
    for i in range(len(equations)):
        for j in range(i + 1, len(equations)):
            (m1, _), (m2, _) = equations[i], equations[j]
            det = m1[0] * m2[1] - m1[1] * m2[0]
            if det != 0:
                best = (i, j, det)
                break
        if best:
            break
    if best is None:
        raise InconsistentAbelMap("cycle classes do not span the torus")
    i, j, det = best
    (m1, r1), (m2, r2) = equations[i], equations[j]
    sx, sy = {}, {}
    for z in zids:
        num_x = r1[z] * m2[1] - r2[z] * m1[1]
        num_y = r2[z] * m1[0] - r1[z] * m2[0]
        if num_x % det or num_y % det:
            raise InconsistentAbelMap("equivariance shifts are not integral")
        sx[z], sy[z] = num_x // det, num_y // det
    for m, rhs in equations:
        for z in zids:
            if rhs[z] != m[0] * sx[z] + m[1] * sy[z]:
                raise InconsistentAbelMap("Abel map is path dependent")
    return sx, sy


def newton_polygon_of_poly(p):
    hull = poly.convex_hull(list(p.terms))
    if len(hull) < 3:
        raise ZeroPolynomial("polynomial support is degenerate")
    q = poly.validate_polygon(hull)
    base = min(q.vertices)
    return q.translate((-base[0], -base[1]))
