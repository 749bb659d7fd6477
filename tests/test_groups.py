"""Group computations from the polygon: the worked example and the laws."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest

from dimermod import groups, intlin, polygon as poly, suites
from dimermod.groups import (
    ambient_quotient,
    build_j,
    cluster_modular_group,
    max_translation_polygon,
    pair,
    pic0_stack_presentation,
    torsion_lattice,
)
from smith_oracle import divisibility_sublattice_columns, mat_vec, smith_normal_form as smith_oracle
from test_polygon import apply_sl2

DIAMOND = poly.validate_polygon([(1, 0), (0, 1), (-1, 0), (0, -1)])
UNIT_TRIANGLE = poly.validate_polygon([(0, 0), (1, 0), (0, 1)])


def _random_g1(rng):
    while True:
        p = poly.random_convex_polygon(rng, bound=8)
        if poly.genus(p) >= 1:
            return p


def test_embedding_matrix_diamond():
    j = build_j(DIAMOND)
    assert j == [[-1, -1], [1, -1], [1, 1], [-1, 1]]


def test_embedding_columns_sum_zero_and_injective():
    rng = random.Random(2)
    for _ in range(25):
        p = poly.random_convex_polygon(rng)
        b = build_j(p)
        assert all(sum(col) == 0 for col in zip(*b))
        assert len(intlin.smith_normal_form(b)) == 2


def test_ambient_quotient():
    assert ambient_quotient(DIAMOND) == intlin.FgAbelianGroup(rank=2, torsion=(2,))
    assert ambient_quotient(UNIT_TRIANGLE) == intlin.FgAbelianGroup(rank=1, torsion=())


def test_cluster_modular_group_diamond():
    res = cluster_modular_group(DIAMOND)
    assert res.case_tag == "interior_point"
    assert res.group == intlin.FgAbelianGroup(rank=1, torsion=(2,))


def test_cluster_modular_group_unit_triangle():
    res = cluster_modular_group(UNIT_TRIANGLE)
    assert res.case_tag == "no_interior_point"
    assert res.group == intlin.FgAbelianGroup(rank=0, torsion=())


def test_side_two_square():
    # invariant factors checked by hand: the pairing matrix has rows
    # (0,-2),(2,0),(0,2),(-2,0); all entries share 2 and all 2x2 minors are
    # +-4, so the Smith diagonal is (2,2)
    p = poly.validate_polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
    assert ambient_quotient(p) == intlin.FgAbelianGroup(rank=2, torsion=(2, 2))
    res = cluster_modular_group(p)
    assert res.group == intlin.FgAbelianGroup(rank=1, torsion=(2, 2))


def test_cluster_modular_group_doubled_triangle():
    p = poly.validate_polygon([(0, 0), (2, 0), (0, 2)])
    res = cluster_modular_group(p)
    assert res.group == intlin.FgAbelianGroup(rank=0, torsion=(2, 2))


def test_rank_law_sample():
    rng = random.Random(4)
    for _ in range(30):
        p = _random_g1(rng)
        res = cluster_modular_group(p)
        assert res.group.rank == len(p.vertices) - 3


def test_torsion_lattice_diamond():
    lat = torsion_lattice(DIAMOND)
    assert lat.basis == (
        (Fraction(1), Fraction(0)),
        (Fraction(-1, 2), Fraction(1, 2)),
    )
    assert lat.index_over_standard() == 2


def test_torsion_lattice_maps_onto_the_saturation():
    # j(L) is the saturation of j(H_1) in Z^4: (0, -1, 0, 1) = j(-1/2, 1/2)
    # lies in it but not in the image of H_1
    b = build_j(DIAMOND)
    images = [mat_vec(b, v) for v in torsion_lattice(DIAMOND).basis]
    assert images == [[-1, 1, 1, -1], [0, -1, 0, 1]]
    target = [0, -1, 0, 1]
    assert not any(intlin.reduce_mod_image(target, [list(r) for r in zip(*images)]))
    assert any(intlin.reduce_mod_image(target, b))


def test_torsion_lattice_against_enumeration():
    # L is {x in Q^2 : j(x) integral}, and N L lies in Z^2 for N the largest
    # torsion factor of A, so L / Z^2 is enumerated on the grid (1/N) Z^2
    g1, _ = suites.random_polygon_corpus(0)
    for p in g1:
        lat = torsion_lattice(p)
        a = ambient_quotient(p)
        n = a.torsion[-1] if a.torsion else 1
        order = 1
        for d in a.torsion:
            order *= d
        rows = build_j(p)
        found = 0
        for x in itertools.product([Fraction(i, n) for i in range(n)], repeat=2):
            integral = all((r[0] * x[0] + r[1] * x[1]).denominator == 1 for r in rows)
            assert lat.contains(x) == integral, (p.vertices, x)
            found += integral
        assert lat.index_over_standard() == found == order, p.vertices


def test_torsion_lattice_needs_interior_point():
    with pytest.raises(poly.NoInteriorPoint):
        torsion_lattice(UNIT_TRIANGLE)


def test_torsion_lattice_index_matches_torsion():
    rng = random.Random(6)
    for _ in range(25):
        p = _random_g1(rng)
        lat = torsion_lattice(p)
        a = ambient_quotient(p)
        order = 1
        for d in a.torsion:
            order *= d
        assert lat.index_over_standard() == order
        assert lat.contains((1, 0)) and lat.contains((0, 1))
        if not a.torsion:
            assert lat.basis == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_max_translation_polygon_diamond():
    mt = max_translation_polygon(DIAMOND)
    assert list(mt.w_rows) == [(0, 1), (-1, -1), (0, -1), (1, 1)]


def test_max_translation_trivial_torsion_gives_back_n():
    # with L = H_1 the edge vectors come out as -E_rho, so the polygon is
    # the point reflection of N
    rng = random.Random(8)
    seen = 0
    while seen < 10:
        p = _random_g1(rng)
        if ambient_quotient(p).torsion:
            continue
        seen += 1
        mt = max_translation_polygon(p)
        reflected = apply_sl2(p, [[-1, 0], [0, -1]])
        base = min(reflected.vertices)
        assert poly.translation_equal(mt.polygon, reflected.translate((-base[0], -base[1])))


def test_max_translation_rows_sum_zero():
    rng = random.Random(10)
    for _ in range(15):
        p = _random_g1(rng)
        mt = max_translation_polygon(p)
        assert tuple(map(sum, zip(*mt.w_rows))) == (0, 0)


def _cluster_group_alternate_basis(p):
    """Same quotient computed in the basis e_1 - e_i of the sum-zero lattice."""
    b = build_j(p)
    n = len(b)
    cols = []
    for j in range(2):
        col = [row[j] for row in b]
        # coordinates in the basis {e_0 - e_i : i = 1..n-1}: c_i = -col_i for
        # i >= 1, using sum(col) = 0
        cols.append([-col[i] for i in range(1, n)])
    b0 = [[cols[j][i] for j in range(2)] for i in range(n - 1)]
    return intlin.cokernel(b0)


def test_cluster_group_basis_independent():
    rng = random.Random(21)
    for _ in range(30):
        p = _random_g1(rng)
        assert cluster_modular_group(p).group == _cluster_group_alternate_basis(p)


def _ambient_by_smith(cols, n):
    """Z^n / span(cols), by the Smith oracle."""
    factors = smith_oracle([list(r) for r in zip(*cols)]).invariant_factors()
    return intlin.FgAbelianGroup(rank=n - len(factors), torsion=tuple(d for d in factors if d > 1))


def test_torsion_of_group_matches_ambient():
    # torsion elements have degree zero, so the sum-zero quotient and the
    # ambient quotient share their torsion subgroup, and A = G_N + Z: with an
    # interior point A is Z^{E_N} / j H_1, without one Z^{E_N} over the
    # divisibility sublattice
    rng = random.Random(11)
    g1, g0 = suites.random_polygon_corpus(0)
    for p in [_random_g1(rng) for _ in range(40)] + g1:
        group, a = cluster_modular_group(p).group, ambient_quotient(p)
        assert (group.rank + 1, group.torsion) == (a.rank, a.torsion), p.vertices
    for p in g0:
        group = cluster_modular_group(p).group
        a = _ambient_by_smith(divisibility_sublattice_columns(p.multiplicities()), len(p.vertices))
        assert (group.rank + 1, group.torsion) == (a.rank, a.torsion), p.vertices


def _genus_zero_group_by_sublattice(p):
    """G_N of a polygon without interior point as Z^n_0 / D, D the divisibility sublattice."""
    return groups._sum_zero_cokernel(divisibility_sublattice_columns(p.multiplicities()), len(p.vertices))


def _lattice_width_one_polygons(rng, trials):
    """Genus-0 quadrilaterals and triangles on two adjacent lines, long sides up to 10^6, in SL2 images."""
    for trial in range(trials):
        hi = (3, 40, 10**6)[trial % 3]
        a = rng.randint(1, hi)
        b = rng.randint(0, hi)
        c = b if trial % 4 == 0 else rng.randint(b + 1, b + hi)
        pts = [(0, 0), (a, 0), (c, 1), (b, 1)][: 3 if c == b else 4]
        yield apply_sl2(poly.validate_polygon(pts), SL2[trial % len(SL2)])


def test_genus_zero_closed_form_matches_the_sublattice_cokernel():
    # the invariant factors of diag(m) past the least against Z^n_0 / D,
    # the route G_N took before the closed form
    polygons = [p for seed in range(6) for p in suites.random_polygon_corpus(seed)[1]]
    polygons += list(_lattice_width_one_polygons(random.Random(26), 240))
    groups_seen = set()
    for p in polygons:
        assert poly.genus(p) == 0, p.vertices
        res = cluster_modular_group(p)
        assert res.case_tag == "no_interior_point"
        assert res.group == _genus_zero_group_by_sublattice(p), p.vertices
        groups_seen.add(res.group.torsion)
    assert max(max(p.multiplicities()) for p in polygons) > 10**5
    assert len(groups_seen) > 100 and (2, 2) in groups_seen


def _partial_sums_cokernel(cols, n):
    """Z^{n-1} / span(cols) for sum-zero columns in Z^n, in the basis e_i - e_{i+1} of Z^n_0."""
    assert all(sum(c) == 0 for c in cols)
    sums = [list(itertools.accumulate(c))[:-1] for c in cols]
    return intlin.cokernel([list(r) for r in zip(*sums)], rows=n - 1)


def test_sum_zero_cokernel_matches_the_partial_sums_route():
    """The columns of j, of the divisibility sublattice and of the character divisors, on a ladder of bounds."""
    rng = random.Random(21)
    cases = 0
    for bound in (3, 8, 16, 32, 64, 128):
        for _ in range(15):
            p = poly.random_convex_polygon(rng, bound=bound)
            n = len(p.vertices)
            scaled = [(d.multiplicity * u[0], d.multiplicity * u[1]) for d in p.edge_data() for u in [d.inward_normal]]
            for cols in (
                list(zip(*build_j(p))),
                divisibility_sublattice_columns(p.multiplicities()),
                [[pair(v, m) for v in scaled] for m in ((1, 0), (0, 1))],
            ):
                assert groups._sum_zero_cokernel(cols, n) == _partial_sums_cokernel(cols, n), p.vertices
                cases += 1
    assert cases == 3 * 6 * 15


def test_pic0_matches_cluster_group():
    rng = random.Random(12)
    for _ in range(20):
        p = _random_g1(rng)
        pres = pic0_stack_presentation(p)
        assert pres.group == cluster_modular_group(p).group
        assert len(pres.generators) == len(p.vertices)


def test_pic0_guarded_for_genus_zero():
    with pytest.raises(poly.NoInteriorPoint):
        pic0_stack_presentation(UNIT_TRIANGLE)


def test_pairing_orientation():
    # the fixed pairing, spelled out once: <a, b> = a.y b.x - a.x b.y
    assert pair((1, 0), (0, 1)) == -1
    assert pair((0, 1), (1, 0)) == 1


def test_cluster_group_by_determinantal_divisors():
    # G_N = Z^{n-1} / B0 with B0 the (n-1) x 2 partial-sum matrix of j; its
    # invariant factors are d1 = gcd(entries) and d2 = gcd(2x2 minors) / d1
    rng = random.Random(13)
    for _ in range(40):
        p = _random_g1(rng)
        n = len(p)
        j = build_j(p)
        x, y = ([sum(r[k] for r in j[: i + 1]) for i in range(n - 1)] for k in range(2))
        d1 = gcd(*x, *y)
        d2 = gcd(*(x[i] * y[k] - x[k] * y[i] for i in range(n - 1) for k in range(i))) // d1
        want = intlin.FgAbelianGroup(rank=n - 3, torsion=tuple(d for d in (d1, d2) if d > 1))
        assert cluster_modular_group(p).group == want


def test_large_triangle_pinned():
    # out of reach of a bounding-box scan: 4.5 million interior points
    p = poly.validate_polygon([(0, 0), (3000, 0), (0, 3000)])
    res = cluster_modular_group(p)
    assert res.group == intlin.FgAbelianGroup(rank=0, torsion=(3000, 3000))
    assert res.genus == poly.genus(p) == 4495501
    assert poly.lattice_point_count(p) == 4504501
    assert torsion_lattice(p).index_over_standard() == 9000000
    assert pic0_stack_presentation(p).group == res.group


# -- the Smith/Fraction path that the Hermite path replaced, kept as an oracle --


def _canonical_basis_of_fractions(gens):
    """The earlier normalization: scale two Q^2 generators to integers,
    triangularize by swapping Euclid on columns, reduce the off-diagonal entry
    into [-d/2, d/2)."""
    den = 1
    for v in gens:
        for c in v:
            den = den * c.denominator // gcd(den, c.denominator)
    cols = [[int(c * den) for c in v] for v in gens]
    m = [[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]]
    while m[1][0] != 0:
        if m[1][1] == 0:
            m[0][0], m[0][1] = m[0][1], m[0][0]
            m[1][0], m[1][1] = m[1][1], m[1][0]
            continue
        q = m[1][0] // m[1][1]
        m[0][0] -= q * m[0][1]
        m[1][0] -= q * m[1][1]
        m[0][0], m[0][1] = m[0][1], m[0][0]
        m[1][0], m[1][1] = m[1][1], m[1][0]
    if m[0][0] < 0:
        m[0][0], m[1][0] = -m[0][0], -m[1][0]
    if m[1][1] < 0:
        m[0][1], m[1][1] = -m[0][1], -m[1][1]
    a = m[0][0]
    m[0][1] = (m[0][1] + a // 2) % a - a // 2 if a else m[0][1]
    return (
        (Fraction(m[0][0], den), Fraction(m[1][0], den)),
        (Fraction(m[0][1], den), Fraction(m[1][1], den)),
    )


def _torsion_basis_by_smith(p):
    """With U j V = D, column i of V over d_i maps onto the i-th generator of
    the saturation of j(H_1), so those columns generate L."""
    snf = smith_oracle(build_j(p))
    gens = [tuple(Fraction(row[i], d) for row in snf.v) for i, d in enumerate(snf.invariant_factors())]
    return _canonical_basis_of_fractions(gens)


def _contains_by_fractions(basis, v):
    d = basis[0][0] * basis[1][1] - basis[0][1] * basis[1][0]
    a = (Fraction(v[0]) * basis[1][1] - Fraction(v[1]) * basis[1][0]) / d
    b = (Fraction(v[1]) * basis[0][0] - Fraction(v[0]) * basis[0][1]) / d
    return a.denominator == 1 and b.denominator == 1


def _index_by_fractions(basis):
    return int(1 / abs(basis[0][0] * basis[1][1] - basis[0][1] * basis[1][0]))


def _w_rows_by_fractions(p, basis):
    imgs = []
    for vec in basis:
        img = [sum(Fraction(row[j]) * vec[j] for j in range(2)) for row in build_j(p)]
        if any(c.denominator != 1 for c in img):
            raise AssertionError("j(basis) must be integral")
        imgs.append([int(c) for c in img])
    j1, j2 = imgs
    return tuple((j2[r], -j1[r]) for r in range(len(j1)))


SL2 = ([[1, 0], [0, 1]], [[0, -1], [1, 0]], [[2, 1], [1, 1]], [[1, -3], [0, 1]], [[-1, 0], [-4, -1]])


def _oracle_polygons():
    """Corpus seeds 0-9 with one SL2 image each, and the pinned s = 3000 triangle."""
    for seed in range(10):
        g1, _ = suites.random_polygon_corpus(seed)
        for i, p in enumerate(g1):
            yield p
            yield apply_sl2(p, SL2[i % len(SL2)])
    yield poly.validate_polygon([(0, 0), (3000, 0), (0, 3000)])


def test_torsion_lattice_and_w_rows_match_the_smith_oracle():
    for p in _oracle_polygons():
        lat = torsion_lattice(p)
        assert lat.basis == _torsion_basis_by_smith(p), p.vertices
        assert lat.index_over_standard() == _index_by_fractions(lat.basis)
        mt = max_translation_polygon(p)
        assert mt.basis == lat.basis
        assert mt.w_rows == _w_rows_by_fractions(p, lat.basis), p.vertices


def test_contains_matches_the_fraction_oracle():
    g1, _ = suites.random_polygon_corpus(1)
    for p in g1[:60]:
        lat = torsion_lattice(p)
        basis = lat.basis
        q = max(c.denominator for v in basis for c in v)
        for v in [(1, 0), (0, 1), *basis] + [
            (Fraction(x, 2 * q), Fraction(y, 2 * q)) for x in range(-2, 3) for y in range(-2, 3)
        ]:
            assert lat.contains(v) == _contains_by_fractions(basis, v), (p.vertices, v)


def test_max_translation_polygon_with_explicit_basis():
    # any basis of L gives the oracle's rows; a basis outside L raises in both
    for seed in range(10):
        g1, _ = suites.random_polygon_corpus(seed)
        for p in g1[:20]:
            g, h = torsion_lattice(p).basis
            q = max(c.denominator for c in g + h)
            for basis in (
                (g, h),
                ((g[0] + h[0], g[1] + h[1]), h),
                (h, (-g[0], -g[1])),
                ((1, 0), (0, 1)),
            ):
                mt = max_translation_polygon(p, basis=basis)
                assert mt.w_rows == _w_rows_by_fractions(p, basis)
                assert mt.basis == tuple(basis)
            outside = ((Fraction(1, 2 * q), Fraction(0)), h)
            with pytest.raises(AssertionError, match="j.basis. must be integral"):
                _w_rows_by_fractions(p, outside)
            with pytest.raises(AssertionError, match="j.basis. must be integral"):
                max_translation_polygon(p, basis=outside)


def test_pic0_check_survives_optimize_flag():
    # the agreement check is an explicit raise, so python -O keeps it
    code = (
        "from dimermod import groups, intlin, polygon as poly\n"
        "groups.cluster_modular_group = lambda p: groups.ClusterModularGroupResult("
        "group=intlin.FgAbelianGroup(rank=7, torsion=()), genus=1, case_tag='interior_point')\n"
        "try:\n"
        "    groups.pic0_stack_presentation(poly.validate_polygon([(1, 0), (0, 1), (-1, 0), (0, -1)]))\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(groups.__file__)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.startswith("raised: stack presentation")


def test_lattice_checks_survive_optimize_flag():
    # the integrality check of max_translation_polygon and the containment
    # check of torsion_lattice are explicit raises, so python -O keeps them
    code = (
        "from fractions import Fraction\n"
        "from dimermod import groups, polygon as poly\n"
        "p = poly.validate_polygon([(1, 0), (0, 1), (-1, 0), (0, -1)])\n"
        "try:\n"
        "    groups.max_translation_polygon(p, basis=((Fraction(1, 4), 0), (0, 1)))\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
        "groups.TorsionLattice.contains = lambda self, v: False\n"
        "try:\n"
        "    groups.torsion_lattice(p)\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(groups.__file__)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == [
        "raised: j(basis) must be integral",
        "raised: torsion lattice does not contain H_1(T, Z)",
    ]
