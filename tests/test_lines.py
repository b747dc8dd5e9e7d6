import random
from fractions import Fraction
from math import ceil, floor

import pytest
from hypothesis import given, settings, strategies as st

from helpers import QUAD, SQUARE, convex_hull
from latticediam import (
    Direction,
    LatticeLine,
    Polygon2,
    ValidationError,
    clip_line,
    count_lattice_points_polygon,
    lattice_count_on_clip,
    nvol,
)
from latticediam.lines import level_anchor, level_interval


class TestLatticeLine:
    def test_base_is_canonical(self):
        # any lattice point on the line yields the same representation
        a = LatticeLine((0, 1), (1, 0))
        b = LatticeLine((7, 1), (2, 0))
        c = LatticeLine((-3, 1), Direction((-5, 0)))
        assert a == b == c
        assert a.base == (0, 1)

    def test_point_at_roundtrip(self):
        line = LatticeLine((2, 3), (1, 2))
        for t in range(-3, 4):
            p = line.point_at(t)
            assert p in line

    def test_membership(self):
        line = LatticeLine((0, 0), (2, 3))
        assert (4, 6) in line
        assert (-2, -3) in line
        assert (2, 2) not in line
        assert (1, Fraction(3, 2)) not in line

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            LatticeLine((0, 0, 0), (1, 2))


class TestClipLine:
    def test_full_chord(self):
        clip = clip_line(SQUARE, LatticeLine((0, 1), (1, 0)))
        assert clip.a == (0, 1) and clip.b == (2, 1)
        assert nvol(clip) == 2
        assert lattice_count_on_clip(clip) == 3

    def test_missing_line(self):
        assert clip_line(SQUARE, LatticeLine((0, 5), (1, 0))) is None

    def test_tangent_vertex(self):
        clip = clip_line(SQUARE, LatticeLine((0, 0), (1, -1)))
        assert clip.t1 == clip.t2
        assert lattice_count_on_clip(clip) == 1

    def test_quad_middle_chord(self):
        # the widest horizontal chord of the demo quad runs from x=1/3 to x=5
        clip = clip_line(QUAD, LatticeLine((0, 1), (1, 0)))
        assert clip.a == (Fraction(1, 3), 1) and clip.b == (5, 1)
        assert nvol(clip) == Fraction(14, 3)
        assert lattice_count_on_clip(clip) == 5


@st.composite
def polygon_and_line(draw):
    pts = draw(
        st.lists(
            st.tuples(st.integers(-10, 10), st.integers(-10, 10)),
            min_size=3,
            max_size=10,
        )
    )
    verts = convex_hull(pts)
    if verts is None:
        verts = [(0, 0), (3, 0), (0, 3)]
    P = Polygon2(tuple(verts))
    base = draw(st.tuples(st.integers(-12, 12), st.integers(-12, 12)))
    u = draw(
        st.sampled_from(
            ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (3, -2), (1, -3))
        )
    )
    return P, LatticeLine(base, u)


@given(polygon_and_line())
@settings(max_examples=500, deadline=None)
def test_count_sandwich(pair):
    """floor(nvol) <= count <= floor(nvol) + 1, equality forced at integral ends."""
    P, line = pair
    clip = clip_line(P, line)
    if clip is None:
        return
    v = nvol(clip)
    count = lattice_count_on_clip(clip)
    assert floor(v) <= count <= floor(v) + 1
    if clip.t1.denominator == 1 or clip.t2.denominator == 1:
        assert count == floor(v) + 1


@given(polygon_and_line())
@settings(max_examples=300, deadline=None)
def test_clip_count_matches_brute_force(pair):
    P, line = pair
    clip = clip_line(P, line)
    (xlo, ylo), (xhi, yhi) = P.bounding_box()
    brute = 0
    for t in range(-80, 81):
        p = line.point_at(t)
        if xlo <= p[0] <= xhi and ylo <= p[1] <= yhi and P.contains(p):
            brute += 1
    assert brute == (lattice_count_on_clip(clip) if clip else 0)


class TestLevelScan:
    def test_anchor_solves_unit_level(self):
        for a in ((1, 0), (0, 1), (2, 3), (-3, 5), (7, -4)):
            s, step = level_anchor(a)
            assert a[0] * s[0] + a[1] * s[1] == 1
            assert a[0] * step.vec[0] + a[1] * step.vec[1] == 0

    def test_anchor_requires_primitive(self):
        with pytest.raises(ValidationError):
            level_anchor((2, 4))

    def test_interval_on_square(self):
        hps = SQUARE.halfplanes()
        # horizontal sweep along y = 1
        assert level_interval(hps, (0, 1), (1, 0)) == (0, 2)
        # line outside
        assert level_interval(hps, (0, 5), (1, 0)) is None

    def test_interval_unbounded_raises(self):
        with pytest.raises(ValidationError):
            level_interval([((0, 1), 3)], (0, 0), (1, 0))

    def test_rows_of_thin_polygons_at_wide_spans(self):
        # far beyond the span <= 24 of the property tests; no point is listed
        rng = random.Random(20250827)
        for width in (10**2, 10**3, 10**4, 10**5, 10**6) * 8:
            verts = None
            while verts is None:
                ox, oy = rng.randint(-(10**6), 10**6), rng.randint(-50, 50)
                height = rng.randint(1, 12)
                verts = convex_hull(
                    (ox + rng.randint(0, width), oy + rng.randint(0, height))
                    for _ in range(rng.randint(3, 8))
                )
            P = Polygon2(verts)
            hps = P.halfplanes()
            (_, ymin), (_, ymax) = P.bounding_box()
            total = 0
            for y in range(ymin, ymax + 1):
                row = level_interval(hps, (0, y), (1, 0))
                if row is None:
                    continue
                lo, hi = row
                assert P.contains((lo, y)) and P.contains((hi, y))
                assert not P.contains((lo - 1, y))
                assert not P.contains((hi + 1, y))
                total += hi - lo + 1
            assert total == count_lattice_points_polygon(P)

    @given(polygon_and_line())
    @settings(max_examples=300, deadline=None)
    def test_interval_matches_membership(self, pair):
        P, line = pair
        got = level_interval(P.halfplanes(), line.base, line.dir.vec)
        hits = [t for t in range(-80, 81) if P.contains(line.point_at(t))]
        if got is None:
            assert hits == []
        else:
            klo, khi = got
            assert hits == list(range(klo, khi + 1))
