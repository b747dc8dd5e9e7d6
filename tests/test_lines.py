import random
from collections import Counter
from fractions import Fraction
from math import ceil, floor

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    QUAD,
    SQUARE,
    clip_line_oracle,
    convex_hull,
    level_interval_oracle,
    profile_polygons,
)
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
from latticediam.core import line_bounds
from latticediam.diameter import _chord
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


class TestClippingKernel:
    """level_interval, clip_line and the chord read all clip through
    core.line_bounds; each must agree with the loop it replaced."""

    @pytest.fixture(scope="class")
    def polygons(self):
        return profile_polygons()

    def test_agrees_with_the_reference_loops(self, polygons):
        rng = random.Random(909)
        seen = Counter()
        for P in polygons:
            hps = P.halfplanes()
            (xlo, ylo), (xhi, yhi) = P.bounding_box()
            edges = {Direction((b[0] - a[0], b[1] - a[1])).vec for a, b in P.edges()}
            randoms = {
                Direction((rng.randint(-30, 30), rng.randint(1, 30))).vec for _ in range(3)
            }
            # vertices, points of the bounding box and points beyond it
            bases = list(P.vertices) + [
                (rng.randint(xlo - 5, xhi + 5), rng.randint(ylo - 5, yhi + 5))
                for _ in range(4)
            ]
            for x0 in bases:
                for u in edges | randoms:
                    want = level_interval_oracle(hps, x0, u)
                    assert level_interval(hps, x0, u) == want, (P, x0, u)
                    line = LatticeLine(x0, u)
                    clip = clip_line_oracle(P, line)
                    assert clip_line(P, line) == clip, (P, line)
                    if x0 in P.vertices:
                        chord = nvol(clip)
                        assert _chord(hps, x0, u) == (chord.numerator, chord.denominator)
                    outcome = "missed" if clip is None else "empty" if want is None else "met"
                    seen["parallel" if u in edges else "random", outcome] += 1
        assert len(seen) == 6 and min(seen.values()) > 100, seen

    def test_fraction_constants(self, polygons):
        # chamber_decomposition clips against halfplanes with Fraction constants
        rng = random.Random(910)
        nonempty = 0
        for P in polygons[:300]:
            hps = [(n, c + Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                   for n, c in P.halfplanes()]
            (xlo, ylo), (xhi, yhi) = P.bounding_box()
            for _ in range(6):
                x0 = (rng.randint(xlo, xhi), rng.randint(ylo, yhi))
                u = Direction((rng.randint(-5, 5), rng.randint(1, 5))).vec
                want = level_interval_oracle(hps, x0, u)
                assert level_interval(hps, x0, u) == want, (hps, x0, u)
                nonempty += want is not None
        assert nonempty > 1000

    def test_unbounded_line_raises(self):
        strip = [((0, 1), 3), ((0, -1), 0)]  # 0 <= y <= 3, parallel to u = (1, 0)
        half = [((1, 1), Fraction(7, 2))]
        for hps, x0, u in ((strip, (0, 1), (1, 0)), (half, (0, 0), (1, 0)),
                           (half, (0, 0), (2, -1)), ([], (0, 0), (1, 0))):
            for kernel in (level_interval, level_interval_oracle, line_bounds):
                with pytest.raises(ValidationError):
                    kernel(hps, x0, u)
        # a parallel halfplane that misses the line answers before the bounds
        assert level_interval(strip, (0, 5), (1, 0)) is None
        assert line_bounds(strip, (0, 5), (1, 0)) is None
