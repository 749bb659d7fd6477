"""Polygon validation, lattice counts, and building blocks."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from dimermod import polygon as poly, suites

DIAMOND = [(1, 0), (0, 1), (-1, 0), (0, -1)]


def is_building_block(p):
    """True iff exactly one interior lattice point and at most five in total."""
    return poly.genus(p) == 1 and poly.lattice_point_count(p) <= 5


def test_validate_diamond():
    p = poly.validate_polygon(DIAMOND)
    assert p.vertices == ((-1, 0), (0, -1), (1, 0), (0, 1))
    assert [d.multiplicity for d in p.edge_data()] == [1, 1, 1, 1]


def test_validate_unit_triangle():
    p = poly.validate_polygon([(0, 0), (1, 0), (0, 1)])
    assert len(p.sides) == 3
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


@pytest.mark.parametrize(
    "vertices, error, message",
    [
        ([(0, 0), (1, 0), (1, 0), (0, 1)], poly.RepeatedVertex, "vertices 1 and 2 are both [1, 0]"),
        # repeats are found before turns, and every pair is checked before them
        ([(0, 0), (2, 0), (1, 0), (0, 0)], poly.RepeatedVertex, "vertices 0 and 3 are both [0, 0]"),
        ([(0, 0), (2, 0), (1, 0), (0, 1)], poly.NotConvex, "collinear: vertex 1 [2, 0] is on the line"),
        ([(0, 0), (1, 0), (2, 0)], poly.NotConvex, "collinear: vertex 0 [0, 0] is on the line"),
        ([(0, 0), (2, 0), (2, 2), (1, 1), (0, 2)], poly.NotConvex, "not convex: vertex 3 [1, 1] turns against"),
        ([(0, 2), (1, 1), (2, 2), (2, 0), (0, 0)], poly.NotConvex, "not convex: vertex 1 [1, 1] turns against"),
        # two left turns and two right turns: the first right turn is named
        ([(0, 0), (2, 2), (2, 0), (0, 2)], poly.NotConvex, "not convex: vertex 1 [2, 2] turns against"),
        ([(0, 0), (1, 0), (1.0, 1)], poly.PolygonError, "vertex 2 (1.0, 1) is not a pair of integers"),
    ],
)
def test_validate_errors_name_the_vertex(vertices, error, message):
    with pytest.raises(error) as exc:
        poly.validate_polygon(vertices)
    assert message in str(exc.value)


STAR = [[25, -9], [-14, 4], [27, -30], [15, -20], [-30, 11], [-11, -23]]


def test_validate_rejects_vertices_winding_twice():
    """Every turn of the star is a left turn, but its sides go twice around."""
    for vs in (STAR, STAR[::-1]):
        with pytest.raises(poly.NotConvex, match="turn 2 times around"):
            poly.validate_polygon(vs)
    pentagram = [(2, 0), (-2, 1), (1, -2), (1, 2), (-2, -1)]
    with pytest.raises(poly.NotConvex, match="turn 2 times around"):
        poly.validate_polygon(pentagram)


def test_validate_accepts_every_rotation_and_reflection_of_a_convex_polygon():
    """The turn count starts nowhere in particular: any start vertex and either orientation pass."""
    vs = [(0, 0), (3, -1), (5, 1), (4, 4), (1, 3), (-1, 1)]
    for i in range(len(vs)):
        for cyc in (vs[i:] + vs[:i], (vs[i:] + vs[:i])[::-1]):
            for m in ((1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 1, 0), (0, -1, -1, 0)):
                image = [(m[0] * x + m[1] * y, m[2] * x + m[3] * y) for x, y in cyc]
                assert len(poly.validate_polygon(image)) == len(vs)


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
    assert tuple(map(sum, zip(*p.sides))) == (0, 0)


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


class NotUnimodular(ValueError):
    pass


def apply_sl2(p, m):
    """The image of the polygon under a det-1 integer matrix, validated again."""
    (a, b), (c, d) = m
    if a * d - b * c != 1:
        raise NotUnimodular("matrix determinant must be 1")
    return poly.validate_polygon([(a * x + b * y, c * x + d * y) for x, y in p.vertices])


def test_apply_sl2():
    p = poly.validate_polygon(DIAMOND)
    assert apply_sl2(p, [[1, 0], [0, 1]]).vertices == p.vertices
    sheared = apply_sl2(p, [[1, 1], [0, 1]])
    assert poly.genus(sheared) == 1
    assert sorted(d.multiplicity for d in sheared.edge_data()) == [1, 1, 1, 1]
    assert sheared.area2() == p.area2()
    with pytest.raises(NotUnimodular):
        apply_sl2(p, [[2, 0], [0, 1]])
    with pytest.raises(NotUnimodular):
        apply_sl2(p, [[0, 1], [1, 0]])


def test_apply_sl2_rotation_of_triangle():
    tri = poly.validate_polygon([(0, 0), (1, 0), (0, 1)])
    rot = apply_sl2(tri, [[0, -1], [1, 0]])
    assert poly.genus(rot) == 0


def test_is_building_block():
    assert is_building_block(poly.validate_polygon(DIAMOND))
    assert not is_building_block(poly.validate_polygon([(0, 0), (1, 0), (0, 1)]))
    assert not is_building_block(poly.validate_polygon([(0, 0), (3, 0), (0, 3)]))


def test_find_building_block_diamond_is_fixed_point():
    p = poly.validate_polygon(DIAMOND)
    assert poly.find_building_block(p).vertices == p.vertices


def test_find_building_block_three_triangle():
    p = poly.validate_polygon([(0, 0), (3, 0), (0, 3)])
    bb = poly.find_building_block(p)
    assert is_building_block(bb)
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
        assert is_building_block(bb)
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
    return apply_sl2(p, m)


@settings(max_examples=300, deadline=None)
@given(st.one_of(convex_polygons(), thin_triangles(), sheared_polygons()))
def test_pick_counts_match_enumeration(p):
    interior = [q for q in p.lattice_points() if p.contains(q, strict=True)]
    assert poly.genus(p) == len(interior)
    assert poly.lattice_point_count(p) == len(p.lattice_points())
    assert p.multiplicities() == [d.multiplicity for d in p.edge_data()]


def _interior_by_scan(q):
    """The interior lattice points of q, by scanning its bounding box."""
    return [y for y in q.lattice_points() if q.contains(y, strict=True)]


def _chord_pieces(p, a, b):
    """Split p along the chord a-b into its two closed pieces."""
    ring = p.boundary_lattice_points()
    ia, ib = ring.index(a), ring.index(b)
    arc1 = ring[ia : ib + 1] if ia <= ib else ring[ia:] + ring[: ib + 1]
    arc2 = ring[ib : ia + 1] if ib <= ia else ring[ib:] + ring[: ia + 1]
    return poly._polygon_from_boundary_chain(arc1), poly._polygon_from_boundary_chain(arc2)


def _admissible(piece, count):
    return poly.lattice_point_count(piece) < count and poly.genus(piece) >= 1


def _chords(q):
    ring = q.boundary_lattice_points()
    return sorted((min(a, b), max(a, b)) for i, a in enumerate(ring) for b in ring[i + 1 :])


def _chord_cut_reference(q, count):
    """The first admissible chord piece, building and validating every candidate.

    A chord along one side is rejected by the `NotConvex` its degenerate
    piece raises.
    """
    for a, b in _chords(q):
        try:
            pieces = _chord_pieces(q, a, b)
        except poly.PolygonError:
            continue
        found = [pc for pc in pieces if _admissible(pc, count)]
        if found:
            found.sort(key=lambda c: (poly.lattice_point_count(c), c.vertices))
            return found[0]
    return None


def _triangle_cut_reference(q, count):
    """The first admissible triangle, over the interior points the bounding box scan lists."""
    for y in _interior_by_scan(q):
        for a, b in _chords(q):
            try:
                tri = poly.validate_polygon([a, b, y])
            except poly.PolygonError:
                continue
            if _admissible(tri, count):
                return tri
    return None


def _find_building_block_reference(p):
    """The building-block search before cuts were counted by Pick's theorem.

    `find_building_block` must return the same block.
    """
    if poly.genus(p) < 1:
        raise poly.NoInteriorPoint("polygon has no interior lattice point")
    q = p
    while not is_building_block(q):
        count = poly.lattice_point_count(q)
        q = _chord_cut_reference(q, count) or _triangle_cut_reference(q, count)
    return q


def _find_building_block_by_enumeration(p):
    """The building-block search with every count taken by enumeration."""

    def count(q):
        return len(q.lattice_points())

    def interior(q):
        return len(_interior_by_scan(q))

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
                pieces = _chord_pieces(q, a, b)
            except poly.PolygonError:
                continue
            found = sorted((pc for pc in pieces if admissible(pc, n)), key=lambda c: (count(c), c.vertices))
            if found:
                step = found[0]
                break
        if step is None:
            cuts = ([a, b, y] for y in _interior_by_scan(q) for a, b in chords)
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


def _building_block_corpus():
    """Polygons for the differential test: corpus, random hulls, dilates, shears, triangles."""
    g1, g0 = suites.random_polygon_corpus(0)
    yield from g1 + g0
    rng = random.Random(11)
    for bound in range(3, 41):
        for _ in range(2):
            p = poly.random_convex_polygon(rng, bound=bound)
            yield p
            if bound <= 12:
                for f in (2, 3):
                    yield poly.validate_polygon([(f * x, f * y) for x, y in p.vertices])
                for m in ([[1, 2], [0, 1]], [[1, 0], [-3, 1]], [[2, -1], [1, 0]]):
                    yield apply_sl2(p, m)
    for s in list(range(1, 41)) + list(range(48, 81, 8)):
        yield poly.validate_polygon([(0, 0), (s, 0), (0, s)])
    # triangles whose three sides are primitive: no boundary point to cut at
    for a, b in ((33, 43), (41, 3), (17, 15), (7, 13), (59, 27)):
        yield poly.validate_polygon([(0, 0), (a, 1), (2, b)])


def test_find_building_block_matches_reference():
    """Counting each cut by Pick's theorem takes the same cuts as building every piece."""
    for p in _building_block_corpus():
        if poly.genus(p) < 1:
            with pytest.raises(poly.NoInteriorPoint):
                _find_building_block_reference(p)
            with pytest.raises(poly.NoInteriorPoint):
                poly.find_building_block(p)
            continue
        assert poly.find_building_block(p).vertices == _find_building_block_reference(p).vertices, p


def _vertices(piece):
    return piece and piece.vertices


def test_cuts_match_reference():
    """Each kind of cut alone, also where a chord cut would come first, and under
    a tighter count than the search passes, so that some find nothing."""
    rng = random.Random(13)
    done = 0
    while done < 60:
        q = poly.random_convex_polygon(rng, bound=10)
        if poly.genus(q) < 1:
            continue
        ring = q.boundary_lattice_points()
        for count in (poly.lattice_point_count(q), poly.lattice_point_count(q) - 3):
            assert _vertices(poly._chord_cut(ring, count)) == _vertices(_chord_cut_reference(q, count))
            assert _vertices(poly._triangle_cut(q, ring, count)) == _vertices(_triangle_cut_reference(q, count))
        done += 1


# No chord of this triangle is admissible, so the reference scans all 156 thousand
# points of its bounding box to cut it.
PRIMITIVE_TRIANGLE = [(0, 0), (397, 1), (2, 391)]
PRIMITIVE_TRIANGLE_BLOCK = ((0, 0), (1, 194), (2, 391))


def test_find_building_block_primitive_triangle():
    p = poly.validate_polygon(PRIMITIVE_TRIANGLE)
    assert _find_building_block_reference(p).vertices == PRIMITIVE_TRIANGLE_BLOCK
    assert poly.find_building_block(p).vertices == PRIMITIVE_TRIANGLE_BLOCK


@settings(max_examples=100, deadline=None)
@given(st.one_of(convex_polygons(), thin_triangles(), sheared_polygons()))
def test_interior_points_by_column_match_enumeration(p):
    interior = _interior_by_scan(p)
    assert list(poly._interior_points_by_column(p)) == interior
    assert poly.interior_lattice_points(p) == (len(interior), interior)


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
