"""Kasteleyn polynomial, the matching oracle, and the discrete Abel map."""

import random
from fractions import Fraction

import pytest

from dimermod import polygon as poly, spectral as sp, torusgraph as tg
from dimermod.groups import pair


def test_laurent_arithmetic():
    p = sp.LaurentPoly2({(0, 0): 1, (1, 0): 2})
    q = sp.LaurentPoly2({(0, 0): 1, (1, 0): -2})
    assert (p + q) == sp.LaurentPoly2({(0, 0): 2})
    assert (p * q) == sp.LaurentPoly2({(0, 0): 1, (2, 0): -4})
    assert p.shift(-1, 2).terms == {(-1, 2): Fraction(1), (0, 2): Fraction(2)}
    assert sp.LaurentPoly2.from_json(p.to_json()) == p


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


def _det_laplace(mat):
    """Reference determinant over the Laurent ring by subset-memoized expansion.

    Time and memory grow as 2^n; keep it to n <= 18.
    """
    n = len(mat)
    if n == 0:
        return sp.LaurentPoly2.monomial(1, 0, 0)
    cache = {(): sp.LaurentPoly2.monomial(1, 0, 0)}

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
            acc = acc + (term if pos % 2 == 0 else term.scale(-1))
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
def test_interpolated_determinant_matches_laplace(name):
    rng = random.Random(name)
    g = tg.catalog(name).graph
    for weights in (tg.random_weights(g, rng), _signed_weights(g, rng)):
        mat = sp.kasteleyn_matrix(g, weights)
        assert sp.laurent_det(mat) == _det_laplace(mat)


def test_laurent_det_small_matrices():
    rng = random.Random(5)
    for n in range(5):
        for _ in range(20):
            mat = [
                [
                    sp.LaurentPoly2(
                        {
                            (rng.randint(-2, 2), rng.randint(-2, 2)): Fraction(
                                rng.randint(-4, 4), rng.randint(1, 4)
                            )
                            for _ in range(rng.randint(0, 3))
                        }
                    )
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            assert sp.laurent_det(mat) == _det_laplace(mat)
    # a zero row, and a rank-one matrix whose entries do not vanish
    x = sp.LaurentPoly2({(1, -1): 2, (0, 3): Fraction(-1, 3)})
    assert sp.laurent_det([[x, x], [sp.LaurentPoly2(), sp.LaurentPoly2()]]).is_zero()
    assert sp.laurent_det([[x, x], [x, x]]).is_zero()


def test_laurent_json_rejects_bad_coefficients():
    for coeff in ("1/0", "x", "1/2/3", 0.5, None):
        with pytest.raises(ValueError, match="coefficient of z\\^1 w\\^-2"):
            sp.LaurentPoly2.from_json({"terms": [{"z": 1, "w": -2, "coeff": coeff}]})


def test_newton_polygon_of_characteristic_polynomial():
    rng = random.Random(17)
    names = ("honeycomb", "square_lattice", "square_lattice_2", "square_lattice_4", "honeycomb_6")
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
    assert min(n.support()) == (0, 0)


def test_normalized_kills_scalar_and_monomial():
    g = tg.catalog("square_lattice").graph
    p = sp.kasteleyn_polynomial(g, tg.all_ones_weights(g))
    n1 = sp.normalized_poly(p)
    assert n1 == sp.normalized_poly(p.scale(Fraction(-7, 3)).shift(2, -5))
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


def test_abel_map_inconsistent_data_detected():
    # corrupting one displacement by a full period keeps faces contractible
    # on the doubled cell but breaks path independence of the Abel map
    data = tg.catalog("square_lattice_2").graph.to_json()
    g = tg.validate_graph(data)
    bad = None
    for e in data["edges"]:
        if e["disp"] != [0, 0]:
            e["disp"] = [e["disp"][0] * -1, e["disp"][1] * -1]
            bad = e["id"]
            break
    try:
        g2 = tg.validate_graph(data)
    except tg.GraphError:
        return  # already rejected upstream, which is fine
    with pytest.raises(sp.InconsistentAbelMap):
        sp.discrete_abel_map(g2)
