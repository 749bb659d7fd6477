"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every check is exact (tolerance zero); the stated wall-clock budgets are
asserted where the criteria carry one.  Run with `pytest -s` to see the
per-criterion lines.
"""

import time
from fractions import Fraction

import pytest

from dimermod import intlin, polygon as poly, spectral as sp, suites
from dimermod import torusgraph as tg
from dimermod.groups import (
    ambient_quotient,
    build_j,
    cluster_modular_group,
    max_translation_polygon,
    pic0_stack_presentation,
    torsion_lattice,
)

SEED = 2024


@pytest.fixture(scope="module")
def corpus():
    return suites.random_polygon_corpus(SEED, want_g1=200, want_g0=50)


def _report(num, text):
    print("ACCEPTANCE %2d PASS: %s" % (num, text))


def test_criterion_01_worked_example():
    t0 = time.monotonic()
    p = poly.validate_polygon([(1, 0), (0, 1), (-1, 0), (0, -1)])
    j = build_j(p)
    assert j == [[-1, -1], [1, -1], [1, 1], [-1, 1]]
    assert intlin.smith_normal_form(j) == [1, 2]
    assert ambient_quotient(p) == intlin.FgAbelianGroup(rank=2, torsion=(2,))
    lat = torsion_lattice(p)
    assert lat.basis == ((Fraction(1), Fraction(0)), (Fraction(-1, 2), Fraction(1, 2)))
    mt = max_translation_polygon(p)
    assert list(mt.w_rows) == [(0, 1), (-1, -1), (0, -1), (1, 1)]
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, "worked example exact (B, SNF, A, L, w-matrix) in %.3fs" % elapsed)


def test_criterion_02_rank_law(corpus):
    t0 = time.monotonic()
    g1, g0 = corpus
    assert len(g1) >= 200 and len(g0) >= 50
    for p in g1:
        assert cluster_modular_group(p).group.rank == len(p.vertices) - 3
    for p in g0:
        assert cluster_modular_group(p).group.rank == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(
        2,
        "rank law on %d interior-point and %d lattice-free polygons in %.1fs"
        % (len(g1), len(g0), elapsed),
    )


def test_criterion_03_genus_zero_formula():
    tri = poly.validate_polygon([(0, 0), (1, 0), (0, 1)])
    assert cluster_modular_group(tri).group == intlin.FgAbelianGroup(rank=0, torsion=())
    big = poly.validate_polygon([(0, 0), (2, 0), (0, 2)])
    got = cluster_modular_group(big).group
    mults = [d.multiplicity for d in big.edge_data()]
    oracle = suites._finite_group_invariants_by_enumeration(mults)
    assert got.rank == 0 and got.torsion == oracle == (2, 2)
    _report(3, "no-interior-point groups match the enumeration oracle exactly")


def test_criterion_04_newton_extraction():
    fails = suites.check_newton_extraction()
    assert fails == []
    _report(4, "square lattice -> diamond, honeycomb -> unit triangle, both minimal")


def test_criterion_05_abel_map():
    g = tg.catalog("square_lattice").graph
    abel = sp.discrete_abel_map(g)  # raises if any cycle is inconsistent
    assert all(c == 0 for c in abel.values[abel.base_vertex].values())
    # local rule at every edge instance (path independence over all cycles)
    for e, (b, w, d) in g.edges.items():
        lift_w = abel.base_positions[w]
        dw = abel.value(w, lift_w)
        db = abel.value(b, poly.vadd(lift_w, d))
        for z in dw:
            hit = [g.zigzag_of_dart((e, 1)), g.zigzag_of_dart((e, -1))].count(z)
            assert dw[z] == db[z] - hit
    assert suites.check_abel_map() == []
    _report(5, "Abel map: base zero, path independent, character divisors exact")


def test_criterion_06_move_invariance():
    t0 = time.monotonic()
    fails = suites.check_move_invariance(SEED, assignments=100)
    assert fails == []
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(
        6,
        "100 weight draws: mutation, monodromy and spectral cross-checks in %.1fs"
        % elapsed,
    )


def test_criterion_07_domino_shuffle():
    fails = suites.check_domino_shuffle()
    assert fails == []
    _report(7, "bundled shuffle closes, psi nonzero, translations trivial")


def test_criterion_08_kasteleyn_oracle():
    t0 = time.monotonic()
    fails = suites.check_kasteleyn_oracle(SEED, draws=20)
    assert fails == []
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(
        8,
        "determinant matches matching enumeration, 20 draws per catalog graph, %.1fs"
        % elapsed,
    )


def test_criterion_09_building_blocks(corpus):
    g1, _ = corpus
    assert len(g1) >= 200
    for p in g1:
        bb = poly.find_building_block(p)
        g, _ = poly.interior_lattice_points(bb)
        assert g == 1
        assert len(bb.lattice_points()) <= 5
        assert len(bb.vertices) <= 4
        assert all(p.contains(v) for v in bb.vertices)
    _report(9, "building blocks found inside %d random polygons" % len(g1))


def test_criterion_10_pic0_presentation(corpus):
    g1, _ = corpus
    for p in g1:
        assert pic0_stack_presentation(p).group == cluster_modular_group(p).group
    _report(10, "stack Picard presentation matches the cluster group on the corpus")
