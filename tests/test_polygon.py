"""Polygon validation, lattice counts, and building blocks."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from dimermod import polygon as poly

DIAMOND = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def test_validate_diamond():
    p = poly.validate_polygon(DIAMOND)
    assert p.vertices == ((-1, 0), (0, -1), (1, 0), (0, 1))
    assert [d.multiplicity for d in p.edge_data()] == [1, 1, 1, 1]


def test_validate_unit_triangle():
    p = poly.validate_polygon([(0, 0), (1, 0), (0, 1)])
    assert len(p.edges()) == 3
    assert all(d.multiplicity == 1 for d in p.edge_data())


def test_validate_trapezoid_multiplicities():
    p = poly.validate_polygon([(0, 0), (2, 0), (1, 1), (0, 1)])
    mults = {d.vector: d.multiplicity for d in p.edge_data()}
    assert mults == {(2, 0): 2, (-1, 1): 1, (-1, 0): 1, (0, -1): 1}


def test_validate_rejects():
    with pytest.raises(poly.RepeatedVertex):
        poly.validate_polygon([(0, 0), (1, 0), (1, 0), (0, 1)])
    with pytest.raises(poly.NotConvex):
        poly.validate_polygon([(0, 0), (2, 0), (1, 0), (0, 1)])  # collinear
    with pytest.raises(poly.NotConvex):
        poly.validate_polygon([(0, 0), (2, 0), (2, 2), (1, 1), (0, 2)])
    with pytest.raises(poly.NotConvex):
        poly.validate_polygon([(0, 0), (1, 0)])


def test_validate_rejects_non_integer_vertices():
    for bad in (2.5, 2.0, True, "2", None):
        with pytest.raises(poly.PolygonError, match="vertex 1"):
            poly.validate_polygon([(0, 0), (bad, 0), (0, 2)])
    with pytest.raises(poly.PolygonError, match="vertex 2"):
        poly.validate_polygon([(0, 0), (2, 0), (0, 2, 1)])
    with pytest.raises(poly.PolygonError):
        poly.load_polygon({"vertices": 3})


def test_clockwise_input_reversed():
    p = poly.validate_polygon(list(reversed(DIAMOND)))
    assert p.area2() > 0
    assert p.vertices == poly.validate_polygon(DIAMOND).vertices


def test_edge_vectors_close_up():
    p = poly.validate_polygon([(0, 0), (3, 1), (2, 4), (-1, 3)])
    assert tuple(map(sum, zip(*p.edges()))) == (0, 0)


def test_square_side_two_multiplicities():
    p = poly.validate_polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
    assert sorted(d.multiplicity for d in p.edge_data()) == [2, 2, 2, 2]


def test_interior_points():
    assert poly.interior_lattice_points(poly.validate_polygon(DIAMOND)) == (1, [(0, 0)])
    assert poly.interior_lattice_points(poly.validate_polygon([(0, 0), (1, 0), (0, 1)]))[0] == 0
    assert poly.interior_lattice_points(poly.validate_polygon([(0, 0), (3, 0), (0, 3)]))[0] == 1


def test_inward_normals_point_inward():
    p = poly.validate_polygon(DIAMOND)
    for d in p.edge_data():
        v = p.vertices[d.index]
        probe = (v[0] + d.inward_normal[0], v[1] + d.inward_normal[1])
        # moving off an edge endpoint along the inward normal stays inside
        assert p.contains(probe)


def test_apply_sl2():
    p = poly.validate_polygon(DIAMOND)
    assert poly.apply_sl2(p, [[1, 0], [0, 1]]).vertices == p.vertices
    sheared = poly.apply_sl2(p, [[1, 1], [0, 1]])
    assert poly.genus(sheared) == 1
    assert sorted(d.multiplicity for d in sheared.edge_data()) == [1, 1, 1, 1]
    assert sheared.area2() == p.area2()
    with pytest.raises(poly.NotUnimodular):
        poly.apply_sl2(p, [[2, 0], [0, 1]])
    with pytest.raises(poly.NotUnimodular):
        poly.apply_sl2(p, [[0, 1], [1, 0]])


def test_apply_sl2_rotation_of_triangle():
    tri = poly.validate_polygon([(0, 0), (1, 0), (0, 1)])
    rot = poly.apply_sl2(tri, [[0, -1], [1, 0]])
    assert poly.genus(rot) == 0


def test_is_building_block():
    assert poly.is_building_block(poly.validate_polygon(DIAMOND))
    assert not poly.is_building_block(poly.validate_polygon([(0, 0), (1, 0), (0, 1)]))
    assert not poly.is_building_block(poly.validate_polygon([(0, 0), (3, 0), (0, 3)]))


def test_find_building_block_diamond_is_fixed_point():
    p = poly.validate_polygon(DIAMOND)
    assert poly.find_building_block(p).vertices == p.vertices


def test_find_building_block_three_triangle():
    p = poly.validate_polygon([(0, 0), (3, 0), (0, 3)])
    bb = poly.find_building_block(p)
    assert poly.is_building_block(bb)
    assert all(p.contains(v) for v in bb.vertices)


def test_find_building_block_needs_interior_point():
    with pytest.raises(poly.NoInteriorPoint):
        poly.find_building_block(poly.validate_polygon([(0, 0), (1, 0), (0, 1)]))


def test_find_building_block_random():
    rng = random.Random(5)
    done = 0
    while done < 40:
        p = poly.random_convex_polygon(rng, bound=8)
        if poly.genus(p) < 1:
            continue
        bb = poly.find_building_block(p)
        assert poly.is_building_block(bb)
        assert len(bb.vertices) <= 4
        assert all(p.contains(v) for v in bb.vertices)
        done += 1


def test_picks_theorem_random():
    rng = random.Random(9)
    for _ in range(40):
        p = poly.random_convex_polygon(rng, bound=7)
        g, _ = poly.interior_lattice_points(p)  # raises if Pick fails
        b = len(p.boundary_lattice_points())
        assert p.area2() == 2 * g + b - 2


@st.composite
def convex_polygons(draw, bound=40):
    pts = draw(st.lists(st.tuples(st.integers(0, bound), st.integers(0, bound)), min_size=3, max_size=10))
    hull = poly.convex_hull(pts)
    assume(len(hull) >= 3)
    return poly.validate_polygon(hull)


@st.composite
def thin_triangles(draw):
    """Triangles along (a, b) of height at most a few lattice steps."""
    a, b = draw(st.integers(1, 40)), draw(st.integers(-40, 40))
    e, f = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    assume(a * f != b * e)
    return poly.validate_polygon([(0, 0), (a, b), (2 * a + e, 2 * b + f)])


@st.composite
def sheared_polygons(draw):
    p = draw(convex_polygons(bound=12))
    k = draw(st.integers(-4, 4))
    m = draw(st.sampled_from([[[1, k], [0, 1]], [[1, 0], [k, 1]], [[k, -1], [1, 0]]]))
    return poly.apply_sl2(p, m)


@settings(max_examples=300, deadline=None)
@given(st.one_of(convex_polygons(), thin_triangles(), sheared_polygons()))
def test_pick_counts_match_enumeration(p):
    interior = [q for q in p.lattice_points() if p.contains(q, strict=True)]
    assert poly.genus(p) == len(interior)
    assert poly.lattice_point_count(p) == len(p.lattice_points())


def _find_building_block_by_enumeration(p):
    """The building-block search with every count taken by enumeration."""

    def count(q):
        return len(q.lattice_points())

    def interior(q):
        return poly.interior_lattice_points(q)[0]

    def admissible(piece, n):
        return count(piece) < n and interior(piece) >= 1

    q = p
    while not (interior(q) == 1 and count(q) <= 5):
        n = count(q)
        ring = q.boundary_lattice_points()
        chords = sorted((min(a, b), max(a, b)) for i, a in enumerate(ring) for b in ring[i + 1 :])
        step = None
        for a, b in chords:
            try:
                pieces = poly._chord_pieces(q, a, b)
            except poly.PolygonError:
                continue
            found = sorted((pc for pc in pieces if admissible(pc, n)), key=lambda c: (count(c), c.vertices))
            if found:
                step = found[0]
                break
        if step is None:
            cuts = (
                [a, b, y]
                for y in poly.interior_lattice_points(q)[1]
                for a, b in chords
            )
            for tri in cuts:
                try:
                    tri = poly.validate_polygon(tri)
                except poly.PolygonError:
                    continue
                if admissible(tri, n):
                    step = tri
                    break
        q = step
    return q


def test_find_building_block_matches_enumeration_counts():
    rng = random.Random(5)
    done = 0
    while done < 40:
        p = poly.random_convex_polygon(rng, bound=8)
        if poly.genus(p) < 1:
            continue
        assert poly.find_building_block(p).vertices == _find_building_block_by_enumeration(p).vertices
        done += 1


def test_polygon_from_edge_vectors():
    p = poly.polygon_from_edge_vectors([(1, -1), (1, 1), (-1, 1), (-1, -1)])
    assert p.vertices == ((0, 0), (1, -1), (2, 0), (1, 1))
    # parallel vectors merge into one side with multiplicity
    q = poly.polygon_from_edge_vectors([(1, 0), (1, 0), (-2, 1), (0, -1)])
    assert {d.vector: d.multiplicity for d in q.edge_data()}[(2, 0)] == 2
    with pytest.raises(poly.NotClosed):
        poly.polygon_from_edge_vectors([(1, 0), (0, 1)])


def test_translation_equal():
    p = poly.validate_polygon(DIAMOND)
    q = p.translate((3, -2))
    assert poly.translation_equal(p, q)
    assert not poly.translation_equal(p, poly.validate_polygon([(0, 0), (1, 0), (0, 1)]))
