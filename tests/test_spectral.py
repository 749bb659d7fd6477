"""Kasteleyn polynomial, the matching oracle, and the discrete Abel map."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dimermod import intlin, polygon as poly, spectral as sp, torusgraph as tg
from dimermod.groups import pair
from test_fuzz_moves import walk_graphs


def test_laurent_arithmetic():
    p = sp.LaurentPoly2({(0, 0): 1, (1, 0): 2})
    q = sp.LaurentPoly2({(0, 0): 1, (1, 0): -2})
    assert (p + q) == sp.LaurentPoly2({(0, 0): 2})
    assert (p * q) == sp.LaurentPoly2({(0, 0): 1, (2, 0): -4})


def test_kasteleyn_signs_face_rule():
    for name in tg.CATALOG_NAMES:
        g = tg.catalog(name).graph
        signs = sp.kasteleyn_signs(g)
        for f in g.faces():
            prod = 1
            for e, _ in f.darts:
                prod *= signs[e]
            k = len(f.darts) // 2
            assert prod == (-1) ** (k + 1)


def test_honeycomb_trinomial():
    g = tg.catalog("honeycomb").graph
    w = {"e0": Fraction(2), "e1": Fraction(3), "e2": Fraction(5)}
    p = sp.kasteleyn_polynomial(g, w)
    assert len(p.terms) == 3
    support = sorted(p.terms)
    assert support == [(0, 0), (0, 1), (1, 0)]
    assert {abs(c) for c in p.terms.values()} == {2, 3, 5}


def _one_black_two_whites():
    """A valid torus graph with one black and two white vertices, and one face."""
    return tg.TorusGraph(
        {"b0": "b", "w0": "w", "w1": "w"},
        {
            "e0": ("b0", "w0", (0, 0)),
            "e1": ("b0", "w0", (1, 0)),
            "e2": ("b0", "w1", (0, 0)),
            "e3": ("b0", "w1", (0, 1)),
        },
        {"b0": ("e0", "e2", "e1", "e3"), "w0": ("e0", "e1"), "w1": ("e2", "e3")},
    )


def test_unbalanced_colors_rejected():
    g = _one_black_two_whites()
    with pytest.raises(tg.UnbalancedColors):
        sp.kasteleyn_polynomial(g, tg.all_ones_weights(g))


def test_no_valid_sign_assignment():
    # the one face runs along each edge twice, so its sign product is +1 under
    # every assignment, while the rule for 8 darts asks for (-1)^(4+1) = -1
    g = _one_black_two_whites()
    assert len(g.faces()) == 1 and len(g.vertices) % 2 == 1
    with pytest.raises(sp.NoValidSignAssignment):
        sp.kasteleyn_signs(g)


def test_determinant_matches_matching_oracle():
    rng = random.Random(21)
    for name in ("honeycomb", "square_lattice"):
        g = tg.catalog(name).graph
        for _ in range(10):
            w = tg.random_weights(g, rng)
            assert sp.kasteleyn_polynomial(g, w) == sp.matching_polynomial(g, w)


def _rows(g, weights):
    """K's integer rows, (terms, m) each, as the graph's plan gives them to `_scaled_det`."""
    return g.derived(sp._Plan).scaled_rows(weights)[0]


def _laurent_matrix(rows):
    """The square matrix of Laurent polynomials that integer rows (terms, m) stand for."""
    mat = [[sp.LaurentPoly2() for _ in rows] for _ in rows]
    for r, (terms, m) in enumerate(rows):
        for col, i, j, c in terms:
            mat[r][col] = mat[r][col] + sp.LaurentPoly2.monomial(Fraction(c, m), i, j)
    return mat


def _det_laplace(mat):
    """Reference determinant over the Laurent ring by subset-memoized expansion.

    Time and memory grow as 2^n; keep it to n <= 18.
    """
    n = len(mat)
    one, minus_one = sp.LaurentPoly2.monomial(1, 0, 0), sp.LaurentPoly2.monomial(-1, 0, 0)
    if n == 0:
        return one
    cache = {(): one}

    def minor(cols):
        if cols in cache:
            return cache[cols]
        row = n - len(cols)
        acc = sp.LaurentPoly2()
        for pos, c in enumerate(cols):
            entry = mat[row][c]
            if entry.is_zero():
                continue
            rest = cols[:pos] + cols[pos + 1 :]
            term = entry * minor(rest)
            acc = acc + (term if pos % 2 == 0 else term * minus_one)
        cache[cols] = acc
        return acc

    return minor(tuple(range(n)))


def _signed_weights(g, rng):
    """Random p/q weights of both signs, with one edge weighted 0."""
    w = {
        e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        for e in sorted(g.edges)
    }
    w[rng.choice(sorted(g.edges))] = Fraction(0)
    return w


@pytest.mark.parametrize(
    "name",
    [
        "honeycomb",
        "honeycomb_2",
        "honeycomb_3",
        "honeycomb_4",
        "square_lattice",
        "square_lattice_2",
        "square_lattice_3",
    ],
)
def test_interpolated_determinant_matches_laplace(name, monkeypatch):
    """kasteleyn_polynomial on both paths, on the box (signed weights) and on the region the positive draw teaches."""
    rng = random.Random(name)
    g = tg.catalog(name).graph
    for weights in (_signed_weights(g, rng), tg.random_weights(g, rng)):
        want = _det_laplace(_laurent_matrix(_rows(g, weights)))
        assert _both_paths(monkeypatch, sp.kasteleyn_polynomial, g, weights) == want
    assert g.derived(sp._Plan).region == _support_rows(want)


def test_scaled_det_small_matrices():
    rng = random.Random(5)
    for n in range(5):
        for _ in range(20):
            rows = []
            for _ in range(n):
                terms = {}
                for col in range(n):
                    for _ in range(rng.randint(0, 3)):
                        terms[col, rng.randint(-2, 2), rng.randint(-2, 2)] = rng.randint(-4, 4)
                rows.append(([(col, i, j, c) for (col, i, j), c in terms.items() if c], rng.randint(1, 12)))
            assert sp._scaled_det(rows, None) == _det_laplace(_laurent_matrix(rows))
    # a zero row, and a rank-one matrix whose entries do not vanish
    x = ([(col, i, j, c) for col in (0, 1) for i, j, c in ((1, -1, 6), (0, 3, -1))], 3)
    assert sp._scaled_det([x, ([], 1)], None).is_zero()
    assert sp._scaled_det([x, x], None).is_zero()


def _bareiss_det(a):
    """Integer determinant by Bareiss elimination with row swaps, kept apart from intlin's."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _det_box(scaled):
    """Reference determinant of integer rows (terms, m): one full Bareiss determinant per node of the degree box.

    The same row shift, box and interpolation (nodes 1, 2, ...) as
    `_scaled_det` with no region, and no staging: every node's integer
    matrix is built and eliminated whole.
    """
    shift_z = shift_w = dz = dw = 0
    scale = 1
    rows = []
    for terms, m in scaled:
        if not terms:
            return sp.LaurentPoly2()
        lo_i = min(t[1] for t in terms)
        lo_j = min(t[2] for t in terms)
        shift_z += lo_i
        shift_w += lo_j
        dz += max(t[1] for t in terms) - lo_i
        dw += max(t[2] for t in terms) - lo_j
        scale *= m
        rows.append([(col, i - lo_i, j - lo_j, c) for col, i, j, c in terms])
    n = len(rows)
    by_z = []
    for a in range(1, dz + 2):
        values = []
        for b in range(1, dw + 2):
            num = [[0] * n for _ in range(n)]
            for r, terms in enumerate(rows):
                for col, i, j, c in terms:
                    num[r][col] += c * a**i * b**j
            values.append(_bareiss_det(num))
        by_z.append(sp._interpolate(values))
    out = {}
    for j in range(dw + 1):
        for i, c in enumerate(sp._interpolate([coeffs[j] for coeffs in by_z])):
            if c:
                out[(i + shift_z, j + shift_w)] = Fraction(c, scale)
    return sp.LaurentPoly2(out)


NODE, PACKED = 0, 1 << 62  # PACK_BITS that force the node path and the packed node


def _both_paths(monkeypatch, f, *args):
    """f(*args) on the packed node and on the node path: the two must be equal."""
    monkeypatch.setattr(sp, "PACK_BITS", PACKED)
    packed = f(*args)
    monkeypatch.setattr(sp, "PACK_BITS", NODE)
    node = f(*args)
    assert repr(packed) == repr(node)
    return packed


# exponent offsets a row of each kind draws from, after its own monomial shift
_ROW_KINDS = {
    "constant": ([0], [0]),
    "z": ([0, 1, 2], [0]),
    "w": ([0], [0, 1, 2]),
    "mixed": ([0, 1], [0, 1]),
}


def _random_row(rng, n, kind):
    """An integer row (terms, m) of n columns: about 60 % of its entries have 1..3 terms."""
    zs, ws = _ROW_KINDS[kind]
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    terms = {}
    for col in range(n):
        if rng.random() < 0.6:
            for _ in range(rng.randint(1, 3)):
                terms[col, a + rng.choice(zs), b + rng.choice(ws)] = rng.randint(-12, 12)
    return [(col, i, j, c) for (col, i, j), c in terms.items() if c], rng.randint(1, 12)


def test_staged_det_matches_box_on_mixed_rows(monkeypatch):
    rng = random.Random(31)
    kinds = sorted(_ROW_KINDS)
    for n in range(7):
        for _ in range(200):
            rows = [_random_row(rng, n, rng.choice(kinds)) for _ in range(n)]
            assert _both_paths(monkeypatch, sp._scaled_det, rows, None) == _det_box(rows)


def test_staged_det_dependent_constant_rows(monkeypatch):
    rng = random.Random(32)
    for n in range(2, 6):
        for _ in range(10):
            rows = [_random_row(rng, n, "constant")] + [
                _random_row(rng, n, rng.choice(("z", "w", "mixed"))) for _ in range(n - 2)
            ]
            # a second constant row, the first times -3/2 z w^-1
            terms, m = rows[0]
            rows.insert(rng.randint(1, n - 1), ([(col, i + 1, j - 1, -3 * c) for col, i, j, c in terms], 2 * m))
            assert _det_box(rows).is_zero()
            assert _both_paths(monkeypatch, sp._scaled_det, rows, None).is_zero()


def test_staged_det_z_row_singular_at_one_node(monkeypatch):
    """(z - 1) e_c vanishes at the z-node 1 alone, and so does the determinant."""
    rng = random.Random(33)
    nonzero = 0
    for n in range(1, 6):
        for _ in range(10):
            c = rng.randrange(n)
            rows = [_random_row(rng, n, rng.choice(sorted(_ROW_KINDS))) for _ in range(n - 1)]
            rows.insert(rng.randint(0, n - 1), ([(c, 1, 0, 1), (c, 0, 0, -1)], 1))
            got = _both_paths(monkeypatch, sp._scaled_det, rows, None)
            assert got == _det_box(rows)
            # z = 1 is a root: at each power of w the coefficients sum to 0
            for j in {j for _, j in got.terms}:
                assert sum(x for (_, jj), x in got.terms.items() if jj == j) == 0
            nonzero += not got.is_zero()
    assert nonzero >= 10
    # two rows in z alone, dependent exactly at z = 2, under a mixed row:
    # [[z, 1, 0], [2, z - 1, 0], [1, z, z w]]
    rows = [
        ([(0, 1, 0, 1), (1, 0, 0, 1)], 1),
        ([(0, 0, 0, 2), (1, 1, 0, 1), (1, 0, 0, -1)], 1),
        ([(0, 0, 0, 1), (1, 1, 0, 1), (2, 1, 1, 1)], 1),
    ]
    want = sp.LaurentPoly2({(3, 1): 1, (2, 1): -1, (1, 1): -2})  # z w (z - 2)(z + 1)
    assert _both_paths(monkeypatch, sp._scaled_det, rows, None) == _det_box(rows) == want


def test_staged_det_zero_rows():
    rng = random.Random(34)
    for n in range(1, 6):
        for kind in sorted(_ROW_KINDS):
            rows = [_random_row(rng, n, kind) for _ in range(n)]
            rows[rng.randrange(n)] = ([], rng.randint(1, 12))
            assert sp._scaled_det(rows, None).is_zero()
    assert sp._scaled_det([], None) == _det_box([]) == sp.LaurentPoly2({(0, 0): 1})


@pytest.mark.parametrize(
    "name",
    ["honeycomb_%d" % k for k in range(2, 7)]
    + ["honeycomb", "square_lattice"]
    + ["square_lattice_%d" % k for k in range(2, 5)],
)
def test_staged_det_matches_box_on_catalog(name, monkeypatch):
    rng = random.Random("box " + name)
    g = tg.catalog(name).graph
    weights = _signed_weights(g, rng)
    assert _both_paths(monkeypatch, sp.kasteleyn_polynomial, g, weights) == _det_box(_rows(g, weights))


def test_staged_det_matches_box_on_walk_graphs(monkeypatch):
    """The walks' moves leave displacements that are not the catalog pattern."""
    rng = random.Random(35)
    for g, w in walk_graphs():
        for weights in (w, _signed_weights(g, rng)):
            assert _both_paths(monkeypatch, sp.kasteleyn_polynomial, g, weights) == _det_box(_rows(g, weights))


def _reduce_every_step(e, row, counts):
    """Elimination.reduce as it was: every step runs over the whole row, rescale-only ones too.

    Counts the steps in counts[0] and those with a nonzero entry in counts[1].
    """
    prev = e.start
    for k, p, top in e.steps:
        x = row[k]
        counts[0] += 1
        counts[1] += x != 0
        rest = row[:k] + row[k + 1 :]
        row = [(a * p - x * u) // prev for a, u in zip(rest, top)]
        prev = p
    return row


class _CountedRow(list):
    """A pivot row that counts the steps which read it."""

    reads = 0

    def __iter__(self):
        _CountedRow.reads += 1
        return super().__iter__()


def _checked_reduce(monkeypatch):
    """Patch Elimination.reduce to equal _reduce_every_step on every call, and count its steps.

    Returns [steps, steps with a nonzero entry, steps that read their pivot row].
    """
    counts = [0, 0, 0]
    reduce = intlin.Elimination.reduce

    def checked(self, row):
        want = _reduce_every_step(self, row, counts)
        steps = self.steps
        self.steps = tuple((k, p, _CountedRow(top)) for k, p, top in steps)
        reads = _CountedRow.reads
        try:
            got = reduce(self, row)
        finally:
            self.steps = steps
        counts[2] += _CountedRow.reads - reads
        assert got == want
        return got

    monkeypatch.setattr(intlin.Elimination, "reduce", checked)
    return counts


def test_reduce_skips_rescale_steps_on_the_matrix_corpus(monkeypatch):
    """Each reduction equals the every-step one, each determinant the box oracle's, and only steps with a nonzero entry do arithmetic."""
    counts = _checked_reduce(monkeypatch)
    rng = random.Random(36)
    mats = [
        [_random_row(rng, n, rng.choice(sorted(_ROW_KINDS))) for _ in range(n)]
        for n in range(7)
        for _ in range(30)
    ]
    for name in ["honeycomb_%d" % k for k in range(2, 6)] + ["square_lattice_2", "square_lattice_3"]:
        g = tg.catalog(name).graph
        mats.append(_rows(g, _signed_weights(g, rng)))
    mats += [_rows(g, w) for g, w in walk_graphs()]
    for rows in mats:
        assert sp._scaled_det(rows, None) == _det_box(rows)
    steps, nonzero, reads = counts
    assert reads == nonzero < steps


def test_reduce_step_count_on_honeycomb_8(monkeypatch):
    """Of the 5152 steps of the honeycomb_8 determinant on its box (all weights 1), the 2046 with a zero entry do no arithmetic.

    The nodes start at 1, where no entry of a row vanishes for being a
    multiple of z or w.  The node path is forced, though its packed box
    (8343 bits) is past PACK_BITS anyway.
    """
    monkeypatch.setattr(sp, "PACK_BITS", NODE)
    counts = _checked_reduce(monkeypatch)
    g = tg.catalog("honeycomb_8").graph
    sp.kasteleyn_polynomial(g, tg.all_ones_weights(g))  # the first call on g, so on its box
    assert counts == [5152, 5152 - 2046, 5152 - 2046]


# -- the plan: signs, integer rows and the learned region ---------------------


def _kasteleyn_signs_lists(g):
    """kasteleyn_signs as it was, with GF(2) rows as lists of 0/1: same columns, same pivots."""
    edge_ids = sorted(g.edges)
    idx = {e: i for i, e in enumerate(edge_ids)}
    rows = []
    for f in g.faces():
        vec = [0] * (len(edge_ids) + 1)
        for e, _ in f.darts:
            vec[idx[e]] ^= 1
        vec[-1] = (len(f.darts) // 2 + 1) % 2
        rows.append(vec)
    pivots = []
    r = 0
    for c in range(len(edge_ids)):
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if any(row[-1] for row in rows[r:]):
        raise sp.NoValidSignAssignment("face sign conditions are inconsistent")
    x = [0] * len(edge_ids)
    for i, c in enumerate(pivots):
        x[c] = rows[i][-1]
    return {e: (-1) ** x[idx[e]] for e in edge_ids}


def test_bitmask_signs_equal_the_list_elimination():
    names = list(tg.CATALOG_NAMES) + ["honeycomb_%d" % k for k in range(3, 7)] + ["square_lattice_%d" % k for k in (3, 4)]
    graphs = [tg.catalog(name).graph for name in names] + [g for g, _ in walk_graphs()]
    for g in graphs:
        assert sp.kasteleyn_signs(g) == _kasteleyn_signs_lists(g)
    with pytest.raises(sp.NoValidSignAssignment):
        _kasteleyn_signs_lists(_one_black_two_whites())


def _doubled_edge(g, e):
    """g with a parallel twin of edge e beside it, bounding a bigon face: a non-minimal graph."""
    b, w, d = g.edges[e]
    rot = dict(g.rotations)
    i, j = rot[b].index(e), rot[w].index(e)
    rot[b] = rot[b][:i] + ("dup",) + rot[b][i:]
    rot[w] = rot[w][: j + 1] + ("dup",) + rot[w][j + 1 :]
    return tg.TorusGraph(g.vertices, dict(g.edges, dup=(b, w, d)), rot)


def _sparse_weights(g, rng):
    """Signed p/q weights with about a third of the edges weighted 0, which shrinks the box."""
    w = _signed_weights(g, rng)
    for e in rng.sample(sorted(g.edges), len(g.edges) // 3):
        w[e] = Fraction(0)
    return w


def test_scaled_rows_are_the_kasteleyn_matrix():
    """The plan's rows over m are K: entry (b, w) sums sign * weight * z^i w^j over the edges from b to w, parallel ones too."""
    rng = random.Random(43)
    graphs = [tg.catalog(name).graph for name in ("honeycomb", "honeycomb_3", "square_lattice", "square_lattice_2")]
    graphs += [_doubled_edge(g, e) for g in graphs for e in sorted(g.edges)[:2]]
    graphs += [g for g, _ in walk_graphs()]
    for g in graphs:
        plan = g.derived(sp._Plan)
        bi = {v: r for r, v in enumerate(plan.blacks)}
        wi = {v: c for c, v in enumerate(plan.whites)}
        for weights in (tg.random_weights(g, rng), _sparse_weights(g, rng)):
            want = [[sp.LaurentPoly2() for _ in plan.whites] for _ in plan.blacks]
            for e, (b, w, d) in g.edges.items():
                want[bi[b]][wi[w]] += sp.LaurentPoly2.monomial(plan.signs[e] * weights[e], *d)
            assert _laurent_matrix(_rows(g, weights)) == want


def test_a_region_without_a_row_of_the_support_raises(monkeypatch):
    """On the node path a coefficient between the region's rows, outside them, is an ArithmeticError, not a wrong polynomial."""
    monkeypatch.setattr(sp, "PACK_BITS", NODE)
    g = tg.catalog("square_lattice_2").graph
    rows = _rows(g, tg.all_ones_weights(g))
    region = _support_rows(_det_box(rows))
    assert len(region) >= 3
    with pytest.raises(ArithmeticError, match="support outside its evaluation region"):
        sp._scaled_det(rows, region[:1] + region[2:])


def _region_mismatches(pack_bits):
    """Per graph, learn the region from positive weights, then compare signed, sparse and positive draws with the box oracle.

    Runs at this PACK_BITS: only the node path reads the region.  Returns
    (cases compared, labels of the mismatches); uses no assert, so that it
    checks the same under python -O.
    """
    default, sp.PACK_BITS = sp.PACK_BITS, pack_bits
    try:
        return _region_cases()
    finally:
        sp.PACK_BITS = default


def _region_cases():
    names = ["honeycomb_%d" % k for k in range(2, 6)] + ["honeycomb", "square_lattice"]
    names += ["square_lattice_%d" % k for k in (2, 3)]
    rng = random.Random(37)
    graphs = [(name, tg.catalog(name).graph) for name in names]
    graphs += [("doubled " + name, _doubled_edge(g, rng.choice(sorted(g.edges)))) for name, g in graphs]
    graphs += [("walk %d" % k, g) for k, (g, _) in enumerate(walk_graphs())]
    cases, bad = 0, []
    for label, g in graphs:
        draws = [tg.random_weights(g, rng), _signed_weights(g, rng), _sparse_weights(g, rng)]
        draws.append(tg.random_weights(g, rng))
        for n, weights in enumerate(draws):
            cases += 1
            if sp.kasteleyn_polynomial(g, weights) != _det_box(_rows(g, weights)):
                bad.append("%s draw %d" % (label, n))
            if g.derived(sp._Plan).region is None:
                bad.append("%s learned nothing" % label)
    return cases, bad


def test_region_det_matches_box_oracle():
    for pack_bits in (NODE, sp.PACK_BITS):
        cases, bad = _region_mismatches(pack_bits)
        assert bad == [] and cases == 4 * 29


def test_region_det_matches_box_oracle_under_python_O():
    """The exact-division checks are raises, not asserts: the differential holds with asserts stripped."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    code = "import sys, test_spectral as t; print(sys.flags.optimize, *t._region_mismatches(t.NODE))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    flag, cases, bad = out.stdout.split(" ", 2)
    assert flag == "1" and int(cases) == 4 * 29 and bad.strip() == "[]"


def _support_rows(p):
    rows = {}
    for i, j in p.terms:
        rows.setdefault(j, []).append(i)
    return tuple((j, min(xs), max(xs)) for j, xs in sorted(rows.items()))


def test_region_det_on_the_support_of_random_matrices(monkeypatch):
    """Any matrix's determinant, evaluated on its own support's rows or on randomly widened ones, is the box's.

    Random supports leave rows out, and random widths leave the open rows at
    a z-node apart, so finished rows are subtracted from inside their span.
    """
    rng = random.Random(41)
    kinds = sorted(_ROW_KINDS)
    for n in range(1, 6):
        for _ in range(60):
            rows = [_random_row(rng, n, rng.choice(kinds)) for _ in range(n)]
            want = _det_box(rows)
            region = _support_rows(want)
            wider = tuple((j, lo - rng.randint(0, 2), hi + rng.randint(0, 2)) for j, lo, hi in region)
            assert _both_paths(monkeypatch, sp._scaled_det, rows, region) == _both_paths(monkeypatch, sp._scaled_det, rows, wider) == want


def test_only_positive_weights_teach_the_region():
    g = tg.catalog("square_lattice_2").graph
    rng = random.Random(39)
    negative = {e: -x for e, x in tg.random_weights(g, rng).items()}
    for weights in (_signed_weights(g, rng), negative):
        assert sp.kasteleyn_polynomial(g, weights) == _det_box(_rows(g, weights))
        assert g.derived(sp._Plan).region is None
    positive = tg.random_weights(g, rng)
    want = _det_box(_rows(g, positive))
    assert sp.kasteleyn_polynomial(g, positive) == want
    assert g.derived(sp._Plan).region == _support_rows(want)
    assert sum(hi - lo + 1 for _, lo, hi in g.derived(sp._Plan).region) == len(want.terms) == 13


def _no_perfect_matching():
    """The honeycomb with pendant blacks b1, b2 at w0 and pendant whites w1, w2 at b0: balanced, no perfect matching."""
    g = tg.catalog("honeycomb").graph
    rot = dict(g.rotations, b1=("p1",), b2=("p2",), w1=("p3",), w2=("p4",))
    rot["w0"] += ("p1", "p2")
    rot["b0"] += ("p3", "p4")
    edges = dict(g.edges, p1=("b1", "w0", (0, 0)), p2=("b2", "w0", (0, 0)))
    edges.update(p3=("b0", "w1", (0, 0)), p4=("b0", "w2", (0, 0)))
    return tg.TorusGraph(dict(g.vertices, b1="b", b2="b", w1="w", w2="w"), edges, rot)


def test_no_perfect_matching_learns_the_empty_region(monkeypatch):
    g = _no_perfect_matching()
    rng = random.Random(40)
    assert sp.matching_polynomial(g, tg.all_ones_weights(g)).is_zero()
    assert _both_paths(monkeypatch, sp.kasteleyn_polynomial, g, tg.random_weights(g, rng)).is_zero()
    assert g.derived(sp._Plan).region == ()
    for weights in (_signed_weights(g, rng), tg.random_weights(g, rng), tg.all_ones_weights(g)):
        assert _both_paths(monkeypatch, sp.kasteleyn_polynomial, g, weights).is_zero()
        assert _det_box(_rows(g, weights)).is_zero()


# -- the packed node: Kronecker substitution against the node loop -----------

def _last_stage_nodes(monkeypatch):
    """The list that each last-stage `_evaluate` call appends its (z, w) node to."""
    nodes = []
    evaluate = sp._evaluate

    def counted(terms, pa, pb):
        if len(pb) > 1:  # a (z, w) node of the last stage
            nodes.append((pa[1], pb[1]))
        return evaluate(terms, pa, pb)

    monkeypatch.setattr(sp, "_evaluate", counted)
    return nodes


def _packed_box_bits(g, weights):
    """(Dz+1)(Dw+1) times the digit width of K's integer rows, from the prod of their sum |c| bound."""
    rows, _ = g.derived(sp._Plan).scaled_rows(weights)
    dz = sum(max(t[1] for t in terms) - min(t[1] for t in terms) for terms, _ in rows)
    dw = sum(max(t[2] for t in terms) - min(t[2] for t in terms) for terms, _ in rows)
    bound = 1
    for terms, _ in rows:
        bound *= sum(abs(t[3]) for t in terms)
    return (dz + 1) * (dw + 1) * (bound.bit_length() + 1)


@pytest.mark.parametrize(
    "name",
    ["honeycomb", "square_lattice"]
    + ["honeycomb_%d" % k for k in range(2, 9)]
    + ["square_lattice_%d" % k for k in range(2, 5)],
)
def test_packed_node_equals_the_node_path_and_the_oracles(name, monkeypatch):
    """Signed, positive and all-ones weights: packed == node == box oracle, and == the matching sum where that is small.

    The signed call comes first, so the node path runs on the box; the
    positive one teaches the region, and the all-ones one runs on it.
    """
    rng = random.Random("packed " + name)
    g = tg.catalog(name).graph
    for weights in (_signed_weights(g, rng), tg.random_weights(g, rng), tg.all_ones_weights(g)):
        got = _both_paths(monkeypatch, sp.kasteleyn_polynomial, g, weights)
        assert got == _det_box(_rows(g, weights)) and not got.is_zero()
        if len(g.derived(sp._Plan).blacks) <= 16:
            assert got == sp.matching_polynomial(g, weights)
    assert g.derived(sp._Plan).region is not None


@pytest.mark.parametrize(
    "name, ones, packed",
    [("square_lattice_3", False, True), ("honeycomb_7", True, True), ("honeycomb_8", True, False), ("honeycomb_6", False, False)],
)
def test_the_threshold_picks_the_path(name, ones, packed, monkeypatch):
    """At the default PACK_BITS a packed box of at most that many bits takes one last-stage node, a larger one the node loop."""
    g = tg.catalog(name).graph
    weights = tg.all_ones_weights(g) if ones else tg.random_weights(g, random.Random(name))
    sp.kasteleyn_polynomial(g, weights)  # learns the region
    assert (_packed_box_bits(g, weights) <= sp.PACK_BITS) == packed
    nodes = _last_stage_nodes(monkeypatch)
    p = sp.kasteleyn_polynomial(g, weights)
    assert len(set(nodes)) == (1 if packed else len(p.terms))


def _decode_guard():
    """The name of what the packed node raises with the coefficient bound patched to 1, on a polynomial whose top coefficient is 3^8.

    Two-bit digits cannot hold it, so the last digit spills beyond the box.
    """
    bound, bits = sp._coefficient_bound, sp.PACK_BITS
    sp._coefficient_bound, sp.PACK_BITS = (lambda scaled: 1), PACKED
    try:
        g = tg.catalog("square_lattice_2").graph
        sp.kasteleyn_polynomial(g, {e: Fraction(3) for e in g.edges})
    except ArithmeticError as exc:
        return type(exc).__name__
    finally:
        sp._coefficient_bound, sp.PACK_BITS = bound, bits
    return "nothing"


def test_packed_node_checks_its_digits():
    assert _decode_guard() == "ArithmeticError"


def test_packed_node_checks_its_digits_under_python_O():
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    code = "import sys, test_spectral as t; print(sys.flags.optimize, t._decode_guard())"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout.split()) == (0, ["1", "ArithmeticError"]), out.stderr


@pytest.mark.parametrize("name, box, polygon", [("square_lattice_3", 49, 25), ("honeycomb_5", 36, 21)])
def test_nodes_on_the_box_then_on_the_matching_polygon(name, box, polygon, monkeypatch):
    """On the node path, the first call evaluates at every node of the box, later ones at one node per lattice point of N."""
    monkeypatch.setattr(sp, "PACK_BITS", NODE)
    nodes = _last_stage_nodes(monkeypatch)
    g = tg.catalog(name).graph
    weights = tg.random_weights(g, random.Random(name))
    p = sp.kasteleyn_polynomial(g, weights)
    first = len(set(nodes))
    nodes.clear()
    assert sp.kasteleyn_polynomial(g, weights) == p
    assert (first, len(set(nodes)), len(p.terms)) == (box, polygon, polygon)


def test_newton_polygon_of_characteristic_polynomial():
    rng = random.Random(17)
    names = (
        "honeycomb",
        "square_lattice",
        "square_lattice_2",
        "square_lattice_4",
        "honeycomb_6",
        "square_lattice_5",
        "honeycomb_8",
    )
    for name in names:
        entry = tg.catalog(name)
        for weights in (tg.all_ones_weights(entry.graph), tg.random_weights(entry.graph, rng)):
            p = sp.kasteleyn_polynomial(entry.graph, weights)
            got = sp.newton_polygon_of_poly(p)
            want, _ = tg.newton_polygon(entry.graph)
            assert poly.translation_equal(got, want)
            assert sorted(d.multiplicity for d in got.edge_data()) == sorted(
                d.multiplicity for d in want.edge_data()
            )


def test_normalized_honeycomb_monic_at_corner():
    g = tg.catalog("honeycomb").graph
    w = {"e0": Fraction(2), "e1": Fraction(3), "e2": Fraction(5)}
    n = sp.normalized_poly(sp.kasteleyn_polynomial(g, w))
    assert n.terms[(0, 0)] == 1
    assert min(sorted(n.terms)) == (0, 0)


def test_normalized_kills_scalar_and_monomial():
    g = tg.catalog("square_lattice").graph
    p = sp.kasteleyn_polynomial(g, tg.all_ones_weights(g))
    n1 = sp.normalized_poly(p)
    assert n1 == sp.normalized_poly(p * sp.LaurentPoly2.monomial(Fraction(-7, 3), 2, -5))
    with pytest.raises(sp.ZeroPolynomial):
        sp.normalized_poly(sp.LaurentPoly2())


def test_normalized_invariant_under_gauge():
    rng = random.Random(23)
    g = tg.catalog("square_lattice").graph
    w = tg.random_weights(g, rng)
    n1 = sp.normalized_poly(sp.kasteleyn_polynomial(g, w))
    w2 = dict(w)
    for e in g.rotations["b0,0"]:
        w2[e] *= Fraction(9, 4)
    assert sp.normalized_poly(sp.kasteleyn_polynomial(g, w2)) == n1


def test_normalized_invariant_under_displacement_representatives():
    rng = random.Random(24)
    g = tg.catalog("square_lattice").graph
    w = tg.random_weights(g, rng)
    n1 = sp.normalized_poly(sp.kasteleyn_polynomial(g, w))
    # shift the lift of one black vertex by (1, -2)
    m = (1, -2)
    data = g.to_json()
    for e in data["edges"]:
        if e["black"] == "b1,1":
            e["disp"] = [e["disp"][0] + m[0], e["disp"][1] + m[1]]
    g2 = tg.validate_graph(data)
    assert sp.normalized_poly(sp.kasteleyn_polynomial(g2, w)) == n1


def _normalized_poly_by_hull(p):
    """normalized_poly as it was: corner from the convex hull, each twisted form built and made monic."""
    corner = min(poly.convex_hull(list(p.terms)))
    base = p * sp.LaurentPoly2.monomial(1, -corner[0], -corner[1])
    best = None
    for sx in (1, -1):
        for sy in (1, -1):
            twisted = sp.LaurentPoly2(
                {
                    (i, j): c * (sx if i % 2 else 1) * (sy if j % 2 else 1)
                    for (i, j), c in base.terms.items()
                }
            )
            monic = twisted * sp.LaurentPoly2.monomial(1 / twisted.terms[(0, 0)], 0, 0)
            key = tuple(sorted(monic.terms.items()))
            if best is None or key < best[0]:
                best = (key, monic)
    return best[1]


def test_normalized_equals_the_hull_and_twist_oracle():
    rng = random.Random(42)
    polys = []
    for _ in range(500):
        terms = {
            (rng.randint(-3, 3), rng.randint(-3, 3)): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(rng.randint(1, 8))
        }
        polys.append(sp.LaurentPoly2(terms))
    for name in ("honeycomb_3", "square_lattice_2"):
        g = tg.catalog(name).graph
        polys += [sp.kasteleyn_polynomial(g, _signed_weights(g, rng)) for _ in range(5)]
    for p in polys:
        if not p.is_zero():
            got, want = sp.normalized_poly(p), _normalized_poly_by_hull(p)
            assert got == want and got.to_json() == want.to_json()


def _normalized_by_four_forms(p):
    """The definition: translate the lex-least term to the origin, make it 1, and take the least of the four twisted sorted term lists."""
    ci, cj = min(p.terms)
    lead = p.terms[ci, cj]
    forms = []
    for sx in (1, -1):
        for sy in (1, -1):
            forms.append(
                sorted(((i - ci, j - cj), c / lead * sx ** ((i - ci) % 2) * sy ** ((j - cj) % 2)) for (i, j), c in p.terms.items())
            )
    return sp.LaurentPoly2(dict(min(forms)))


_coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), _coefficients, min_size=1, max_size=12),
    st.sampled_from([1, -1]),
    st.sampled_from([1, -1]),
)
def test_normalized_equals_the_four_form_definition(terms, sx, sy):
    """Also on polynomials that some twist, a sign flip of the odd terms in z or in w, leaves fixed."""
    p = sp.LaurentPoly2(terms)
    twisted = sp.LaurentPoly2({(i, j): c * (sx if i % 2 else 1) * (sy if j % 2 else 1) for (i, j), c in terms.items()})
    got = sp.normalized_poly(p)
    assert got == _normalized_by_four_forms(p) == sp.normalized_poly(twisted)
    assert list(got.terms) == sorted(got.terms)


def test_abel_map_square_lattice():
    g = tg.catalog("square_lattice").graph
    abel = sp.discrete_abel_map(g)
    assert all(c == 0 for c in abel.values[abel.base_vertex].values())
    _, labels = tg.newton_polygon(g)
    by_label = {labels[z.id]: z.id for z in g.zigzags()}
    assert abel.shift((1, 0)) == {
        by_label[0]: -1,
        by_label[1]: 1,
        by_label[2]: 1,
        by_label[3]: -1,
    }
    assert abel.shift((0, 1)) == {
        by_label[0]: -1,
        by_label[1]: -1,
        by_label[2]: 1,
        by_label[3]: 1,
    }


def test_abel_map_local_rule_everywhere():
    # d(w) = d(b) - nu(alpha) - nu(beta) for every edge and every lift
    for name in tg.CATALOG_NAMES:
        g = tg.catalog(name).graph
        abel = sp.discrete_abel_map(g)
        for e, (b, w, d) in g.edges.items():
            lift_w = abel.base_positions[w]
            lift_b = poly.vadd(lift_w, d)
            dw = abel.value(w, lift_w)
            db = abel.value(b, lift_b)
            nu = [g.zigzag_of_dart((e, 1)), g.zigzag_of_dart((e, -1))]
            for z in dw:
                want = db[z] - (1 if z == nu[0] else 0) - (1 if z == nu[1] else 0)
                assert dw[z] == want


def test_abel_map_equivariance_is_the_pairing():
    for name in tg.CATALOG_NAMES:
        g = tg.catalog(name).graph
        abel = sp.discrete_abel_map(g)
        for m in ((1, 0), (0, 1), (2, -3)):
            shifts = abel.shift(m)
            for z in g.zigzags():
                assert shifts[z.id] == pair(z.homology, m)


def test_abel_map_inconsistent_data_detected(monkeypatch):
    # corrupting one displacement by a full period keeps faces contractible
    # on the doubled cell but breaks path independence of the Abel map
    data = tg.catalog("square_lattice_2").graph.to_json()
    for e in data["edges"]:
        if e["disp"] != [0, 0]:
            e["disp"] = [e["disp"][0] * -1, e["disp"][1] * -1]
            break
    graphs = []
    try:
        graphs.append(tg.validate_graph(data))
    except tg.GraphError:
        pass  # already rejected upstream, which is fine
    # the constructor allows cycle classes that do not span H_1; the Abel
    # map does not: an index-2 span and a span of rank 0 both reach it
    h = tg.catalog("honeycomb").graph
    for scale in ((2, 1), (0, 0)):
        edges = {e: (b, w, (scale[0] * d[0], scale[1] * d[1])) for e, (b, w, d) in h.edges.items()}
        graphs.append(tg.TorusGraph(h.vertices, edges, h.rotations))
    builds = []
    build = sp._abel_map
    monkeypatch.setattr(sp, "_abel_map", lambda g, v=None: builds.append(v) or build(g, v))
    for g in graphs:
        builds.clear()
        for _ in range(2):  # a failed build keeps nothing, so the next call builds and fails again
            with pytest.raises(sp.InconsistentAbelMap):
                sp.discrete_abel_map(g)
        assert builds == [None, None]
