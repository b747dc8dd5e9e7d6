import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    QUAD,
    SQUARE,
    TRIANGLE,
    box_points_oracle,
    convex_hull,
    random_polygon,
    wide_polygon_images,
)
from latticediam import (
    core,
    Direction,
    PointSet,
    Polygon2,
    ValidationError,
    count_lattice_points_polygon,
    enumerate_lattice_points,
    segment_lattice_count,
)

coords = st.integers(min_value=-60, max_value=60)


class TestDirection:
    def test_canonical_sign_and_reduction(self):
        assert Direction((2, 4)).vec == (1, 2)
        assert Direction((-1, 2)).vec == (1, -2)
        assert Direction((0, -3)).vec == (0, 1)
        assert Direction((-6, 0, -9)).vec == (2, 0, 3)

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            Direction((0, 0))

    def test_ordering_is_total(self):
        us = [Direction(v) for v in ((1, 2), (0, 1), (2, 1), (1, -3))]
        assert sorted(us) == sorted(us, key=lambda u: u.vec)

    @given(st.lists(coords, min_size=2, max_size=4), st.integers(1, 9))
    def test_scaling_invariance(self, vec, k):
        if all(c == 0 for c in vec):
            return
        u = Direction(vec)
        assert Direction([k * c for c in vec]) == u
        assert Direction([-k * c for c in vec]) == u
        assert gcd(*u.vec) == 1
        lead = next(c for c in u.vec if c != 0)
        assert lead > 0


class TestSegmentLatticeCount:
    def test_known_values(self):
        assert segment_lattice_count((0, 0), (4, 8)) == 4
        assert segment_lattice_count((1, 1), (1, 1)) == 0
        assert segment_lattice_count((0, 0, 0), (2, 4, 6)) == 2

    @given(st.tuples(coords, coords), st.tuples(coords, coords))
    def test_matches_point_count_on_segment(self, p, q):
        # gcd distance == lattice points strictly between p and q, plus one
        g = segment_lattice_count(p, q)
        if p == q:
            assert g == 0
            return
        between = 0
        dx, dy = q[0] - p[0], q[1] - p[1]
        for t in range(1, g):
            assert (dx * t) % g == 0 and (dy * t) % g == 0
            between += 1
        assert between == g - 1


class TestPolygonValidation:
    def test_clockwise_rejected(self):
        with pytest.raises(ValidationError):
            Polygon2(((0, 0), (0, 2), (2, 0)))

    def test_collinear_vertex_rejected(self):
        with pytest.raises(ValidationError):
            Polygon2(((0, 0), (1, 0), (2, 0), (1, 1)))

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValidationError):
            Polygon2(((0, 0), (2, 0), (2, 0), (0, 2)))

    def test_too_few_vertices(self):
        with pytest.raises(ValidationError):
            Polygon2(((0, 0), (1, 1)))

    def test_multiply_wound_star_rejected(self):
        # pentagram visiting order: all strict left turns, but winding 2
        star = ((0, 4), (-3, -3), (4, 1), (-4, 1), (3, -3))
        with pytest.raises(ValidationError):
            Polygon2(star)
        # the same five points in convex order are fine
        assert Polygon2(((0, 4), (-4, 1), (-3, -3), (3, -3), (4, 1)))

    def test_non_integer_rejected(self):
        with pytest.raises(ValidationError):
            Polygon2(((0, 0), (1, 0), (1, Fraction(1, 2))))
        with pytest.raises(ValidationError):
            Polygon2(((0, 0), (1, 0), (1, True)))


class TestPolygonGeometry:
    def test_doubled_area(self):
        assert SQUARE.doubled_area() == 8
        assert TRIANGLE.doubled_area() == 3
        assert QUAD.doubled_area() == 28

    def test_boundary_count(self):
        assert SQUARE.boundary_lattice_count() == 8
        assert TRIANGLE.boundary_lattice_count() == 3

    def test_dilate(self):
        assert SQUARE.dilate(3).vertices == ((0, 0), (6, 0), (6, 6), (0, 6))
        assert SQUARE.dilate(2).doubled_area() == 4 * SQUARE.doubled_area()
        with pytest.raises(ValidationError):
            SQUARE.dilate(0)

    def test_halfplanes_are_built_once_and_are_no_field(self):
        # one outward (n, c) per edge, n the edge turned clockwise
        assert SQUARE.halfplanes() == (
            ((0, -2), 0), ((2, 0), 4), ((0, 2), 4), ((-2, 0), 0),
        )
        rng = random.Random(1704)
        for _ in range(50):
            P = random_polygon(rng)
            assert P.halfplanes() is P.halfplanes()
            for (n, c), (a, b) in zip(P.halfplanes(), P.edges(), strict=True):
                assert n == (b[1] - a[1], a[0] - b[0]) and c == n[0] * a[0] + n[1] * a[1]
            # equality, hashing and repr read the vertices alone
            Q = Polygon2(P.vertices)
            assert Q == P and hash(Q) == hash(P)
            assert repr(P) == f"Polygon2(vertices={P.vertices!r})"

    def test_contains(self):
        assert SQUARE.contains((1, 1))
        assert SQUARE.contains((0, 2))
        assert not SQUARE.contains((3, 1))

    def test_enumeration_is_lex_sorted(self):
        pts = list(enumerate_lattice_points(QUAD))
        assert pts == sorted(pts)
        assert (0, 0) in pts and (6, 4) in pts and (3, 2) in pts


@st.composite
def hull_polygons(draw):
    pts = draw(
        st.lists(
            st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
            min_size=3,
            max_size=12,
        )
    )
    verts = convex_hull(pts)
    if verts is None:
        # fall back to a fixed triangle rather than rejecting the draw
        verts = [(0, 0), (1, 0), (0, 1)]
    return Polygon2(tuple(verts))


@given(hull_polygons())
@settings(max_examples=200, deadline=None)
def test_pick_count_matches_enumeration(P):
    assert count_lattice_points_polygon(P) == len(enumerate_lattice_points(P))


@given(hull_polygons())
@settings(max_examples=100, deadline=None)
def test_halfplanes_agree_with_enumeration(P):
    (xlo, ylo), (xhi, yhi) = P.bounding_box()
    inside = set(enumerate_lattice_points(P))
    for x in range(xlo, xhi + 1):
        for y in range(ylo, yhi + 1):
            assert P.contains((x, y)) == ((x, y) in inside)


def scan_calls(monkeypatch) -> list:
    """Record, for every call of the piece kernel made by
    enumerate_lattice_points, its direction and the number of levels (columns
    or rows) its pieces span."""
    calls = []
    kernel = core._level_pieces

    def recorded(P, u):
        anchor, pieces = kernel(P, u)
        calls.append((u, sum(hi + 1 - cut - lo for lo, hi, cut, *_ in pieces)))
        return anchor, pieces

    monkeypatch.setattr(core, "_level_pieces", recorded)
    return calls


class TestEnumeration:
    """enumerate_lattice_points against PointSet(brute-force list): the same
    points tuple, in lexicographic order."""

    def test_random_polygons(self):
        rng = random.Random(10)
        for _ in range(300):
            P = random_polygon(rng, span_hi=rng.choice((4, 12, 30)), coord=60)
            assert enumerate_lattice_points(P).points == PointSet(box_points_oracle(P)).points

    def test_negative_coordinates(self):
        P = Polygon2(((-9, -7), (-2, -8), (-1, -3), (-6, -1)))
        got = enumerate_lattice_points(P)
        assert got.points == PointSet(box_points_oracle(P)).points
        assert got.points[0] == (-9, -7) and all(x < 0 and y < 0 for x, y in got)

    def test_wide_polygons(self):
        # unimodular images: the points of P are the images of the points of
        # the small preimage, found by the box oracle; boxes up to 10^4 on
        # the short side and 10^7 on the long one
        checked = 0
        for small, (a, b, c, d), P in wide_polygon_images(40):
            (xlo, ylo), (xhi, yhi) = P.bounding_box()
            if min(xhi - xlo, yhi - ylo) > 10**4:
                continue
            want = PointSet([(a * x + b * y, c * x + d * y) for x, y in box_points_oracle(small)])
            assert enumerate_lattice_points(P).points == want.points
            checked += 1
        assert checked == 29

    def test_thin_tall_polygon_scans_columns(self, monkeypatch):
        P = Polygon2(((0, 0), (1, 10**6), (1, 10**6 + 1)))
        calls = scan_calls(monkeypatch)
        got = enumerate_lattice_points(P)
        assert calls == [((0, 1), 2)]
        assert got.points == ((0, 0), (1, 10**6), (1, 10**6 + 1))

    def test_thin_wide_polygon_scans_rows(self, monkeypatch):
        # conv{(0,0),(10^6,1),(10^6+1,1)}: 10^6 + 2 columns, 2 rows
        P = Polygon2(((0, 0), (10**6 + 1, 1), (10**6, 1)))
        calls = scan_calls(monkeypatch)
        got = enumerate_lattice_points(P)
        assert calls == [((1, 0), 2)]
        assert got.points == ((0, 0), (10**6, 1), (10**6 + 1, 1))

    def test_orientation_follows_the_shorter_side(self, monkeypatch):
        rng = random.Random(11)
        calls = scan_calls(monkeypatch)
        seen = set()
        for _ in range(100):
            P = random_polygon(rng, span_hi=20)
            # stretch x or y by up to 40 so both orientations come up
            k = rng.randint(1, 40)
            if rng.random() < 0.5:
                P = Polygon2(tuple((k * x, y) for x, y in P.vertices))
            else:
                P = Polygon2(tuple((x, k * y) for x, y in P.vertices))
            (xlo, ylo), (xhi, yhi) = P.bounding_box()
            w, h = xhi - xlo, yhi - ylo
            calls.clear()
            got = enumerate_lattice_points(P)
            assert got.points == PointSet(box_points_oracle(P)).points
            # columns unless they outnumber the rows by more than the sort
            # of the points costs, in levels read
            slack = len(got) // core.SORT_POINTS
            [(u, levels)] = calls
            assert levels <= min(w, h) + 1 + slack
            if w < h:
                assert calls == [((0, 1), w + 1)]
            elif w - h > slack:
                assert calls == [((1, 0), h + 1)]
            seen.add(u)
        assert seen == {(0, 1), (1, 0)}


class TestPointSet:
    def test_sorted_and_deduped(self):
        S = PointSet([(1, 1), (0, 0), (1, 1), (0, 2)])
        assert S.points == ((0, 0), (0, 2), (1, 1))
        assert len(S) == 3
        assert (0, 2) in S

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            PointSet([])

    def test_mixed_dimension_rejected(self):
        with pytest.raises(ValidationError):
            PointSet([(0, 0), (1, 1, 1)])
