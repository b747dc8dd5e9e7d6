import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    QUAD,
    SQUARE,
    TRIANGLE,
    cone_picks_oracle,
    convex_hull,
    lattice_circle,
    level_pieces_oracle,
    longest_vertex_chord_oracle,
    opposite_pairs_oracle,
    parabola,
    plateau,
    profile_polygons,
    profile_records_oracle,
    random_polygon,
    ring_polygons,
    sweep_diameter_oracle,
    unimodular,
    unwindowed_counts,
    walk_local_lines,
    wide_polygons,
)
from latticediam import core, diameter, lines
from latticediam import (
    Direction,
    LatticeLine,
    Polygon2,
    ValidationError,
    brute_force_diameter,
    clip_line,
    compute_diameter,
    enumerate_lattice_points,
    lattice_count_on_clip,
    local_diameter_lines,
    nvol,
)
from latticediam.diameter import dilation_profile

T19 = Polygon2(((0, 0), (18, 1), (-1, 19)))


def antipodal_pairs(P: Polygon2) -> list[tuple[tuple, tuple, tuple]]:
    """(edge, vertex, normal) for each (edge, opposite vertex) pair found by
    the rotating pointer of diameter._antipodes, in edge order, opposite
    vertices in vertex-index order: the shape of opposite_pairs_oracle."""
    return [
        ((p, q), v, a)
        for p, q, a, opposite in diameter._antipodes(P.vertices)
        for v in opposite
    ]


class TestOppositePairs:
    def test_square_has_eight(self):
        # each edge of a parallelogram sees both endpoints of the far edge
        pairs = antipodal_pairs(SQUARE)
        assert len(pairs) == 8
        for (a, _), v, (nx, ny) in pairs:
            # vertex minimizes the outward normal over all vertices
            vals = [nx * x + ny * y for x, y in SQUARE.vertices]
            assert nx * v[0] + ny * v[1] == min(vals)
            assert nx * a[0] + ny * a[1] == max(vals)
        assert pairs == opposite_pairs_oracle(SQUARE)

    def test_triangle_has_three_or_more(self):
        pairs = antipodal_pairs(TRIANGLE)
        assert len(pairs) == 3
        assert {v for _, v, _ in pairs} == set(TRIANGLE.vertices)
        assert pairs == opposite_pairs_oracle(TRIANGLE)


def opposite_pair_levels(pair) -> int:
    """J: the number of levels of the normal from the vertex to the edge."""
    ((x, y), _), (vx, vy), (nx, ny) = pair
    return nx * (x - vx) + ny * (y - vy)


def sheared_thin_polygons(n: int):
    """Seeded polygons of height at most 8 and width up to 10^5, sheared by
    (x, y) -> (x + t y, y), with x-spans up to 10^6. Unlike unimodular images
    of small polygons, their (edge, vertex) triangles span up to ~10^5 levels."""
    rng = random.Random(20261018)
    out = []
    while len(out) < n:
        w, h = 10 ** rng.randint(1, 5), rng.randint(1, 8)
        verts = convex_hull(
            [(rng.randint(0, w), rng.randint(0, h)) for _ in range(rng.randint(3, 8))]
        )
        if verts is None:
            continue
        t = rng.randint(-(10 ** rng.randint(0, 5)), 10 ** rng.randint(0, 5))
        P = Polygon2(tuple((x + t * y, y) for x, y in verts))
        (xlo, _), (xhi, _) = P.bounding_box()
        if xhi - xlo <= 10**6:
            out.append(P)
    return out


class TestLocalDiameterLines:
    def test_axis_triangle(self):
        # T = conv{(0,3), (0,0), (3,0)}, scanning up from the right-angle vertex
        lines = local_diameter_lines(((0, 3), (3, 0)), (0, 0), (1, 1))
        assert 1 <= len(lines) <= 3
        for line in lines:
            assert (0, 0) in line

    def test_collinear_triangle(self):
        lines = local_diameter_lines(((0, 0), (4, 0)), (2, 0), (0, 1))
        assert len(lines) == 1
        assert lines[0] == LatticeLine((0, 0), (1, 0))

    def test_vertex_on_edge_level_rejected(self):
        with pytest.raises(ValidationError):
            local_diameter_lines(((0, 0), (4, 0)), (2, 1), (0, 1))

    @pytest.mark.parametrize(
        "edge, vertex, normal",
        [
            (((0, 0, 0), (4, 0, 0)), (2, 1, 0), (0, 1, 0)),
            (((0, 0), (4, 0)), (2, -1), (0, 0)),
            (((0, 0), (4, 1)), (2, -1), (0, 1)),
            (((0, 0), (4, 0)), (2, 1), (0, 1)),
        ],
        ids=["three-dimensional", "zero-normal", "not-perpendicular", "wrong-side"],
    )
    def test_invalid_input_rejected(self, edge, vertex, normal):
        with pytest.raises(ValidationError):
            local_diameter_lines(edge, vertex, normal)

    def test_picks_on_the_edges_leave_empty_sectors(self):
        # From (0,0) toward x = 3: (1,0) and (1,1) lie on the two edges, so
        # the sectors [0, 0) and (1, 1] beyond them are empty.
        lines = local_diameter_lines(((3, 0), (3, 3)), (0, 0), (1, 0))
        assert lines == [
            LatticeLine((0, 0), (1, 0)),
            LatticeLine((0, 0), (1, 1)),
            LatticeLine((0, 0), (2, 1)),
        ]
        P = Polygon2(((0, 0), (3, 0), (3, 3)))
        for pair in opposite_pairs_oracle(P):
            assert local_diameter_lines(*pair) == walk_local_lines(*pair)

    def test_primitive_edge_far_from_the_vertex(self):
        # 12,345 levels between the vertex and a primitive edge
        pair = (((0, 0), (1, 0)), (5000, 12345), (0, -1))
        assert local_diameter_lines(*pair) == walk_local_lines(*pair)

    def test_matches_the_walk(self):
        rng = random.Random(4242)
        polygons = [random_polygon(rng, span_hi=rng.choice((6, 12))) for _ in range(2000)]
        polygons += wide_polygons(150)
        pairs = [pair for P in polygons for pair in opposite_pairs_oracle(P)]
        for pair in pairs:
            assert local_diameter_lines(*pair) == walk_local_lines(*pair), pair
        assert len(pairs) > 10**4

    def test_matches_the_walk_on_sheared_thin_polygons(self):
        walked = []
        for P in sheared_thin_polygons(20):
            for pair in opposite_pairs_oracle(P):
                levels = opposite_pair_levels(pair)
                # the oracle walks every level; skip the few walks too long for a test
                if levels > 3 * 10**5:
                    continue
                walked.append(levels)
                assert local_diameter_lines(*pair) == walk_local_lines(*pair), pair
        assert len(walked) >= 80 and max(walked) > 2 * 10**5


def big_polygons(n: int, rng: random.Random):
    """Hulls of 3 to 10 random points in boxes of side 10^1 to 10^18."""
    out = []
    while len(out) < n:
        reach = 10 ** rng.randint(1, 18)
        verts = convex_hull(
            [(rng.randint(-reach, reach), rng.randint(-reach, reach))
             for _ in range(rng.randint(3, 10))]
        )
        if verts is not None:
            out.append(Polygon2(verts))
    return out


def symmetric_polygons(n: int, rng: random.Random):
    """Centrally symmetric hulls, up to 10^18 wide: every edge has a parallel
    edge, so every edge has two opposite vertices."""
    out = []
    while len(out) < n:
        reach = 10 ** rng.randint(0, 18)
        half = [(rng.randint(-reach, reach), rng.randint(-reach, reach))
                for _ in range(rng.randint(2, 5))]
        cx, cy = rng.randint(-reach, reach), rng.randint(-reach, reach)
        verts = convex_hull([(cx + x, cy + y) for x, y in half]
                            + [(cx - x, cy - y) for x, y in half])
        if verts is not None:
            out.append(Polygon2(verts))
    return out


def random_triangles(n: int, rng: random.Random, top: int = 18):
    """Triangles with vertices in boxes of side 10^0 to 10^top, some of them
    sheared thin by (x, y) -> (x + t y, y)."""
    out = []
    while len(out) < n:
        reach = 10 ** rng.randint(0, top)
        pts = [(rng.randint(-reach, reach), rng.randint(-reach, reach)) for _ in range(3)]
        if rng.random() < 0.3:
            t = rng.randint(-(10**9), 10**9)
            pts = [(x + t * y, y) for x, y in pts]
        verts = convex_hull(pts)
        if verts is not None:
            out.append(Polygon2(verts))
    return out


class TestOneDescentScan:
    """The scan with one descent per cone, its antipodal pointer and its
    chords read from the levels, against the scan it replaced."""

    @pytest.fixture(scope="class")
    def polygons(self):
        rng = random.Random(20261019)
        return (
            big_polygons(1200, rng)
            + sheared_thin_polygons(300)
            + symmetric_polygons(600, rng)
            + random_triangles(900, rng)
            + wide_polygons(200)
        )

    def test_opposite_pairs_match_the_vertex_scan(self, polygons):
        two = 0
        for P in polygons:
            want = opposite_pairs_oracle(P)
            assert antipodal_pairs(P) == want, P
            two += len(want) - len(P)
        assert two > 2000

    def test_picks_match_the_five_descent_oracle(self, polygons):
        cones = [
            (v, p, q, a)
            for P in polygons
            for (p, q), v, a in opposite_pairs_oracle(P)
        ]
        # top up with small triangles, whose descents are short
        for P in random_triangles((10**5 - len(cones)) // 3 + 1, random.Random(1019), 3):
            cones += [(v, p, q, a) for (p, q), v, a in opposite_pairs_oracle(P)]
        assert len(cones) >= 10**5
        for cone in cones:
            J, picks = cone_picks_oracle(*cone)
            # the lemma behind the cap: the first pick lies at a level j <= J
            assert picks[0][0] <= J, cone
            want = (J, [(j, w) for j, w in picks if j <= J])
            assert diameter._cone_picks(*cone) == want, cone

    def test_records_match_the_clipping_oracle(self, polygons):
        for P in polygons:
            assert dilation_profile(P).records == profile_records_oracle(P), P

    def test_records_of_the_skew_triangles(self):
        for e in range(2, 31):
            s = 10**e
            P = Polygon2(((0, 0), (s, 1), (3 * s + 1, 7)))
            assert dilation_profile(P).records == profile_records_oracle(P), s


@pytest.fixture
def kernel_calls(monkeypatch):
    """Calls of the clipping loop (line_bounds, wherever it is looked up),
    of the diameter module's level_interval and of its descent, by name."""
    calls = Counter()
    bounds, kernel, descend = core.line_bounds, diameter.level_interval, diameter._descend

    def counted_bounds(*args):
        calls["line_bounds"] += 1
        return bounds(*args)

    def counted_kernel(*args):
        calls["level_interval"] += 1
        return kernel(*args)

    def counted_descend(*args):
        calls["descend"] += 1
        return descend(*args)

    assert not hasattr(diameter, "line_bounds")
    for module in (core, lines):
        monkeypatch.setattr(module, "line_bounds", counted_bounds)
    monkeypatch.setattr(diameter, "level_interval", counted_kernel)
    monkeypatch.setattr(diameter, "_descend", counted_descend)
    return calls


class TestLocalScanWork:
    def test_local_scan_calls_no_kernel(self, kernel_calls):
        cones = 0
        for P in wide_polygons(20) + sheared_thin_polygons(20):
            for pair in opposite_pairs_oracle(P):
                local_diameter_lines(*pair)
                cones += 1
        assert kernel_calls == {"descend": cones}

    def test_profile_takes_one_descent_per_cone_and_no_clip(self, kernel_calls):
        rng = random.Random(16)
        polygons = (wide_polygons(40) + sheared_thin_polygons(20)
                    + symmetric_polygons(40, rng) + random_triangles(40, rng))
        for P in polygons:
            kernel_calls.clear()
            dilation_profile(P)
            assert kernel_calls == {"descend": len(opposite_pairs_oracle(P))}, P

    @pytest.mark.parametrize(
        "s, ldiam",
        [(10**2, 57), (10**4, 5714), (10**5, 57142), (10**8, 57142857),
         (10**12, 571428571428), (10**30, 571428571428571428571428571428)],
    )
    def test_skew_triangle_work_does_not_grow(self, s, ldiam, kernel_calls):
        report = compute_diameter(Polygon2(((0, 0), (s, 1), (3 * s + 1, 7))))
        assert report.ldiam == ldiam
        assert len(report.lines) == 1
        # one descent per (edge, opposite vertex) cone and one line_bounds
        # call, for the representative segment: the chords of the candidate
        # lines come from the levels, and the count of the one level of the
        # chord window from its piece row, with no clip
        assert kernel_calls == {"descend": 3, "line_bounds": 1}


class TestComputeDiameter:
    def test_quad_regression(self):
        rep = compute_diameter(QUAD)
        assert rep.ldiam == 4
        assert rep.directions == (Direction((1, 0)),)
        assert set(rep.lines) == {
            LatticeLine((0, 1), (1, 0)),
            LatticeLine((0, 2), (1, 0)),
            LatticeLine((0, 3), (1, 0)),
        }
        assert len(rep.representative_segments) == 1

    def test_square_regression(self):
        rep = compute_diameter(SQUARE)
        assert rep.ldiam == 2
        assert [u.vec for u in rep.directions] == [(0, 1), (1, -1), (1, 0), (1, 1)]
        assert len(rep.lines) == 8
        # the two middle lines pass through no vertex but must be found
        assert LatticeLine((1, 0), (0, 1)) in rep.lines
        assert LatticeLine((0, 1), (1, 0)) in rep.lines

    def test_triangle_regression(self):
        rep = compute_diameter(TRIANGLE)
        assert rep.ldiam == 1
        assert len(rep.directions) == 6
        assert len(rep.lines) == 6

    def test_unit_triangle(self):
        rep = compute_diameter(Polygon2(((0, 0), (1, 0), (0, 1))))
        assert rep.ldiam == 1
        assert len(rep.lines) == 3

    def test_every_line_attains_the_diameter(self):
        rep = compute_diameter(QUAD)
        for line in rep.lines:
            clip = clip_line(QUAD, line)
            assert lattice_count_on_clip(clip) == rep.ldiam + 1

    def test_lines_sorted_deterministically(self):
        rep = compute_diameter(SQUARE)
        assert list(rep.lines) == sorted(rep.lines, key=lambda l: (l.dir.vec, l.base))


class TestSweepOracle:
    """compute_diameter, whose sweep reads each window level's count from
    its piece row, against the level_interval sweep it replaced
    (sweep_diameter_oracle)."""

    @staticmethod
    def assert_matches(P):
        got, want = compute_diameter(P), sweep_diameter_oracle(P)
        assert got.ldiam == want.ldiam, P
        assert got.lines == want.lines, P
        assert got.directions == want.directions, P
        assert got.representative_segments == want.representative_segments, P

    def test_random_polygons(self):
        rng = random.Random(2101)
        for _ in range(2000):
            self.assert_matches(random_polygon(rng, span_lo=2, span_hi=14))

    def test_profile_polygons(self):
        for P in profile_polygons():
            self.assert_matches(P)

    def test_lattice_circles(self):
        for m in range(3, 12):
            self.assert_matches(lattice_circle(m))

    def test_dilates(self):
        for P in (QUAD, T19, SQUARE):
            for k in (1, 2, 3, 10, 100):
                self.assert_matches(P.dilate(k))

    def test_plateaus(self):
        for e in range(1, 5):
            self.assert_matches(plateau(10**e))


def u_diameter_line(P: Polygon2, u) -> LatticeLine:
    """A lattice line of direction u holding the most lattice points of P,
    at the smallest level of the perpendicular functional among those.

    The chord of P across the levels of u is concave and bends only at
    vertex levels, so its maximum C is reached on the line through some
    vertex, an end of that chord: that line holds floor(C) + 1 points and no
    line of direction u holds more. So the best count is read from the
    longest vertex chord (longest_vertex_chord_oracle), and the first level
    of the sweep of its chord window holding it is the line.
    """
    d = u if isinstance(u, Direction) else Direction(u)
    halfplanes = P.halfplanes()
    num, den = longest_vertex_chord_oracle(halfplanes, P.vertices, (d.vec,))
    levels = diameter._level_pieces(P.vertices, halfplanes, d.vec)
    return LatticeLine(next(diameter._direction_sweep(levels, num // den + 1)), d)


class TestUDiameterLine:
    """The longest vertex chord gives the best count of a direction, and its
    sweep finds the smallest level holding it (u_diameter_line)."""

    def test_square_directions(self):
        for u, want in (((1, 0), 3), ((0, 1), 3), ((1, 1), 3), ((1, -1), 3), ((1, 2), 2)):
            line = u_diameter_line(SQUARE, u)
            clip = clip_line(SQUARE, line)
            assert lattice_count_on_clip(clip) == want

    def test_maximality_by_scan(self):
        rng = random.Random(99)
        for _ in range(40):
            P = random_polygon(rng, span_hi=8)
            for u in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -2)):
                line = u_diameter_line(P, u)
                best = lattice_count_on_clip(clip_line(P, line))
                # no parallel lattice line may beat it
                (xlo, ylo), (xhi, yhi) = P.bounding_box()
                for x in range(xlo, xhi + 1):
                    for y in range(ylo, yhi + 1):
                        other = clip_line(P, LatticeLine((x, y), u))
                        if other is not None:
                            assert lattice_count_on_clip(other) <= best

    def test_smallest_argmax_of_the_level_walk(self):
        fixed = [Direction(u) for u in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1))]
        walked = 0
        for P in wide_polygons(40):
            dirs = {Direction((b[0] - a[0], b[1] - a[1])) for a, b in P.edges()}
            for u in dirs.union(fixed):
                a = (-u.vec[1], u.vec[0])
                levels = [a[0] * x + a[1] * y for x, y in P.vertices]
                # the oracle walks every level; skip the few walks too long for a test
                if max(levels) - min(levels) > 3 * 10**4:
                    continue
                walked += 1
                counts = unwindowed_counts(P, u)
                want = max(counts, key=lambda beta: (counts[beta], -beta))
                line = u_diameter_line(P, u)
                assert line.dir == u
                assert a[0] * line.base[0] + a[1] * line.base[1] == want, (P, u)
        assert walked >= 250

    @pytest.mark.parametrize(
        "vertices, u, want",
        [
            # a chord window of 4 levels among 100,005
            (((0, 0), (10**5, 1), (10**5, 8), (0, 5)), (1, 1), ((49996, -49996), (1, 1))),
            # best count 1: the chord window holds all 12,000,812 vertex levels
            (
                ((-518421, -31110718), (-558979, -33544625), (-459816, -27593801)),
                (2, -1),
                ((-13529645, -27059292), (2, -1)),
            ),
            # a chord window of 1 level, the widest, among 1,001
            (((0, 0), (50, 500), (0, 1000), (-50, 500)), (1, 0), ((0, 500), (1, 0))),
        ],
        ids=["thin-quad", "thin-triangle", "diamond"],
    )
    def test_bounded_work(self, vertices, u, want, monkeypatch):
        """The sweep tests at most 16 levels before its first hit: every
        level of each chord window it takes from _chord_clip, in order, up
        to the level of the line it returns."""
        windows = []
        clip = diameter._chord_clip

        def recorded(piece, pairs):
            for window in clip(piece, pairs):
                windows.append(window)
                yield window

        monkeypatch.setattr(diameter, "_chord_clip", recorded)
        line = u_diameter_line(Polygon2(vertices), u)
        assert line == LatticeLine(*want)
        beta = u[0] * line.base[1] - u[1] * line.base[0]
        assert windows and windows[-1][2] <= beta <= windows[-1][3]
        assert sum(min(last, beta) - first + 1 for _, _, first, last in windows) <= 16


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_matches_oracle(seed):
    """Algorithm output equals the pair-scan ground truth, direction for direction."""
    rng = random.Random(seed)
    P = random_polygon(rng)
    rep = compute_diameter(P)
    oracle = brute_force_diameter(enumerate_lattice_points(P))
    assert rep.ldiam == oracle.ldiam
    assert rep.directions == oracle.directions


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_line_set_is_complete(seed):
    """Every lattice line attaining ldiam+1 points appears in the report."""
    rng = random.Random(seed)
    P = random_polygon(rng, span_hi=8)
    rep = compute_diameter(P)
    reported = set(rep.lines)
    (xlo, ylo), (xhi, yhi) = P.bounding_box()
    for u in rep.directions:
        for x in range(xlo, xhi + 1):
            for y in range(ylo, yhi + 1):
                line = LatticeLine((x, y), u)
                clip = clip_line(P, line)
                if clip and lattice_count_on_clip(clip) == rep.ldiam + 1:
                    assert line in reported


def test_unimodular_images_keep_the_lines_and_counts():
    """An affine map x -> M x + t with M unimodular maps the lattice points
    and lattice lines of P one to one onto those of the image, and kP onto
    the image's kth dilate, less k t. So the image has the diameter of P,
    the mapped diameter lines and directions, and the diameter line count of
    P at every k. No oracle: the image is checked against the algorithm's
    own output on P, at coordinates far beyond an oracle's reach."""
    rng = random.Random(1800)
    digits = 0
    for _ in range(300):
        P = random_polygon(rng, span_hi=rng.choice((6, 12)))
        a, b, c, d = unimodular(rng, 10 ** rng.randint(0, 9))
        tx, ty = (rng.randint(-(10**18), 10**18) for _ in range(2))

        def linear(x, y):
            return a * x + b * y, c * x + d * y

        def affine(x, y):
            return a * x + b * y + tx, c * x + d * y + ty

        image = Polygon2(tuple(affine(*v) for v in P.vertices))
        digits = max(digits, max(len(str(abs(x))) for v in image.vertices for x in v))
        report, mapped = compute_diameter(P), compute_diameter(image)
        assert mapped.ldiam == report.ldiam, (P, image)
        assert len(mapped.lines) == len(report.lines), (P, image)
        assert mapped.directions == tuple(
            sorted(Direction(linear(*u.vec)) for u in report.directions)
        ), (P, image)
        want = {LatticeLine(affine(*L.base), linear(*L.dir.vec)) for L in report.lines}
        assert set(mapped.lines) == want, (P, image)
        profile, image_profile = dilation_profile(P), dilation_profile(image)
        for k in (2, 3, 7):
            assert image_profile.count(k) == profile.count(k), (P, image, k)
    assert digits >= 30


def piece_windows(P: Polygon2, u: Direction, m: int) -> list[int]:
    """The levels of direction u whose chord through P is at least m: the
    union of the m chord windows of the level pieces, in sweep order."""
    levels = []
    _, pieces = diameter._level_pieces(P.vertices, P.halfplanes(), u.vec)
    for piece in pieces:
        for _, _, first, last in diameter._chord_clip(piece, ((1, m),)):
            levels.extend(range(first, last + 1))
    return levels


class TestChordWindow:
    def test_window_keeps_every_level_that_can_reach_m_plus_one(self):
        spans = []
        for P in wide_polygons(150):
            (xlo, _), (xhi, _) = P.bounding_box()
            spans.append(xhi - xlo)
            report = compute_diameter(P)
            best = report.ldiam + 1
            dirs = set(report.directions)
            dirs.update(Direction((b[0] - a[0], b[1] - a[1])) for a, b in P.edges())
            for u in dirs:
                counts = unwindowed_counts(P, u)
                for m in range(1, best + 1):
                    window = piece_windows(P, u, m)
                    inside = set(window)
                    assert window == sorted(inside), (P, u, m)
                    for beta, count in counts.items():
                        if count >= m + 1:
                            assert beta in inside, (P, u, m, beta)
                    for beta in window:
                        assert counts[beta] >= m, (P, u, m, beta)
        assert max(spans) > 10**5

    def test_zero_chord_window_is_the_vertex_level_range(self):
        for P in wide_polygons(20):
            for a, b in P.edges():
                u = Direction((b[0] - a[0], b[1] - a[1]))
                assert piece_windows(P, u, 0) == list(unwindowed_counts(P, u))


class TestLevelPieces:
    """The merged level pieces and the longest vertex chord read from them
    against the O(n^2) pairing and per-vertex clip they replaced."""

    @pytest.fixture(scope="class")
    def polygons(self):
        rng = random.Random(1700)
        small = [random_polygon(rng, span_hi=rng.choice((6, 12, 25)), coord=10**4)
                 for _ in range(300)]
        large = ([lattice_circle(m) for m in range(2, 9)]
                 + [parabola(n) for n in (3, 8, 40, 150)] + ring_polygons(12, rng))
        assert max(map(len, large)) >= 150
        return small + wide_polygons(60) + large

    def test_merge_matches_the_pairing(self, polygons):
        rng = random.Random(1701)
        cases = 0
        for P in polygons:
            hps = P.halfplanes()
            records = sorted({record.direction for record in dilation_profile(P).records})
            directions = set(rng.sample(records, min(12, len(records))))
            directions |= {
                Direction((b[0] - a[0], b[1] - a[1])).vec for a, b in P.edges()[:6]
            }
            directions |= {
                Direction((rng.randint(-9, 9), rng.randint(1, 9))).vec for _ in range(3)
            }
            for u in directions:
                want = level_pieces_oracle(P.vertices, hps, u)
                assert diameter._level_pieces(P.vertices, hps, u) == want, (P, u)
                cases += 1
        assert cases > 4000

    def test_pieces_split_the_width_at_the_vertex_levels(self, polygons):
        # the level of v in direction u is <(-u_y, u_x), v>, so the pieces run
        # over the lattice width of P for that functional: 2, 4 and 2 here
        for P, u, width in ((SQUARE, (0, 1), 2), (SQUARE, (1, -1), 4),
                            (TRIANGLE, (1, 0), 2)):
            _, pieces = diameter._level_pieces(P.vertices, P.halfplanes(), u)
            assert pieces[-1][1] - pieces[0][0] == width
        rng = random.Random(1703)
        for P in polygons[::4]:
            u = Direction((rng.randint(-9, 9), rng.randint(1, 9))).vec
            _, pieces = diameter._level_pieces(P.vertices, P.halfplanes(), u)
            levels = sorted({u[0] * y - u[1] * x for x, y in P.vertices})
            assert [piece[0] for piece in pieces] == levels[:-1]
            assert [piece[1] for piece in pieces] == levels[1:]
            # half-open pieces, the topmost closed
            assert [piece[2] for piece in pieces] == [1] * (len(pieces) - 1) + [0]

    def test_longest_chord_matches_the_vertex_clips(self, polygons):
        """The profile's longest chord, kept with its chord table, is the
        longest vertex chord over the diameter directions, which the fit
        read before, and over all the record directions. The oracle costs
        O(n^2) per direction, so a polygon of over 100 vertices, with some
        300 to 500 record directions, is checked on 40 of them besides the
        diameter directions."""
        rng = random.Random(1702)
        for P in polygons:
            hps = P.halfplanes()
            profile = dilation_profile(P)
            records = sorted({record.direction for record in profile.records})
            if len(P) > 100:
                records = profile.best(1)[1] + rng.sample(records, 40)
            for directions in (profile.best(1)[1], records):
                want = longest_vertex_chord_oracle(hps, P.vertices, directions)
                assert profile.longest_chord == want, (P, directions)


@pytest.mark.parametrize(
    "P",
    [T19.dilate(k) for k in (10, 100, 1000)]
    + [QUAD.dilate(k) for k in (10, 100, 1000)]
    + [SQUARE.dilate(k) for k in (10, 100, 1000)]
    + [plateau(10**e) for e in range(2, 6)],
    ids=[f"{name}-{k}" for name in ("T19", "QUAD", "SQUARE") for k in (10, 100, 1000)]
    + [f"plateau-1e{e}" for e in range(2, 6)],
)
class TestSweepWork:
    """The sweep reads the count of each window level from its piece row."""

    def test_sweep_clips_nothing(self, P, kernel_calls):
        profile = dilation_profile(P)
        best, vectors = profile.best(1)
        found = sum(
            len(list(diameter._direction_sweep(profile.pieces(u), best)))
            for u in vectors
        )
        # the profile and the sweeps: descents, with no clip at all
        assert set(kernel_calls) == {"descend"}
        assert found == len(compute_diameter(P).lines)

    def test_one_clip_per_diameter_direction(self, P, kernel_calls):
        # the representative segment's clip_line, and nothing else
        report = compute_diameter(P)
        assert kernel_calls["line_bounds"] == len(report.directions)
        assert "level_interval" not in kernel_calls


class TestLongestChord:
    def test_longest_diameter_chord_lies_on_a_vertex_line(self):
        """fit_quasipolynomial takes its period from the vertex lines of the
        diameter directions; they must reach the longest diameter chord."""
        rng = random.Random(7)
        polygons = [random_polygon(rng) for _ in range(60)] + wide_polygons(20)
        for P in polygons:
            report = compute_diameter(P)
            over_lines = max(nvol(clip_line(P, line)) for line in report.lines)
            over_vertices = max(
                nvol(clip_line(P, LatticeLine(v, u)))
                for u in report.directions
                for v in P.vertices
            )
            assert over_lines == over_vertices, P
