import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    QUAD,
    SQUARE,
    TRIANGLE,
    convex_hull,
    random_polygon,
    unwindowed_counts,
    walk_local_lines,
    wide_polygons,
)
from latticediam import core, diameter
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
    opposite_pairs,
    u_diameter_line,
)

T19 = Polygon2(((0, 0), (18, 1), (-1, 19)))


class TestOppositePairs:
    def test_square_has_eight(self):
        # each edge of a parallelogram sees both endpoints of the far edge
        pairs = opposite_pairs(SQUARE)
        assert len(pairs) == 8
        for pair in pairs:
            a, b = pair.edge
            nx, ny = pair.normal
            # vertex minimizes the outward normal over all vertices
            vals = [nx * x + ny * y for x, y in SQUARE.vertices]
            assert nx * pair.vertex[0] + ny * pair.vertex[1] == min(vals)
            assert nx * a[0] + ny * a[1] == max(vals)

    def test_triangle_has_three_or_more(self):
        pairs = opposite_pairs(TRIANGLE)
        assert len(pairs) == 3
        assert {p.vertex for p in pairs} == set(TRIANGLE.vertices)


def opposite_pair_levels(pair) -> int:
    """J: the number of levels of the normal from the vertex to the edge."""
    (nx, ny), (x, y), (vx, vy) = pair.normal, pair.edge[0], pair.vertex
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
        for pair in opposite_pairs(P):
            got = local_diameter_lines(pair.edge, pair.vertex, pair.normal)
            assert got == walk_local_lines(pair.edge, pair.vertex, pair.normal)

    def test_primitive_edge_far_from_the_vertex(self):
        # 12,345 levels between the vertex and a primitive edge
        pair = (((0, 0), (1, 0)), (5000, 12345), (0, -1))
        assert local_diameter_lines(*pair) == walk_local_lines(*pair)

    def test_matches_the_walk(self):
        rng = random.Random(4242)
        polygons = [random_polygon(rng, span_hi=rng.choice((6, 12))) for _ in range(2000)]
        polygons += wide_polygons(150)
        pairs = [pair for P in polygons for pair in opposite_pairs(P)]
        for pair in pairs:
            got = local_diameter_lines(pair.edge, pair.vertex, pair.normal)
            assert got == walk_local_lines(pair.edge, pair.vertex, pair.normal), pair
        assert len(pairs) > 10**4

    def test_matches_the_walk_on_sheared_thin_polygons(self):
        walked = []
        for P in sheared_thin_polygons(20):
            for pair in opposite_pairs(P):
                levels = opposite_pair_levels(pair)
                # the oracle walks every level; skip the few walks too long for a test
                if levels > 3 * 10**5:
                    continue
                walked.append(levels)
                got = local_diameter_lines(pair.edge, pair.vertex, pair.normal)
                assert got == walk_local_lines(pair.edge, pair.vertex, pair.normal), pair
        assert len(walked) >= 80 and max(walked) > 2 * 10**5


class TestLocalScanWork:
    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Calls of the clipping loop (core.line_bounds, wherever it is looked
        up) and of the diameter module's level_interval, by name."""
        calls = Counter()
        bounds, kernel = core.line_bounds, diameter.level_interval

        def counted_bounds(*args):
            calls["line_bounds"] += 1
            return bounds(*args)

        def counted_kernel(*args):
            calls["level_interval"] += 1
            return kernel(*args)

        monkeypatch.setattr(core, "line_bounds", counted_bounds)
        monkeypatch.setattr(diameter, "line_bounds", counted_bounds)
        monkeypatch.setattr(diameter, "level_interval", counted_kernel)
        return calls

    def test_local_scan_calls_no_kernel(self, kernel_calls):
        for P in wide_polygons(20) + sheared_thin_polygons(20):
            for pair in opposite_pairs(P):
                local_diameter_lines(pair.edge, pair.vertex, pair.normal)
        assert kernel_calls == {}

    @pytest.mark.parametrize(
        "s, ldiam",
        [(10**2, 57), (10**4, 5714), (10**5, 57142), (10**8, 57142857),
         (10**12, 571428571428)],
    )
    def test_skew_triangle_work_does_not_grow(self, s, ldiam, kernel_calls):
        report = compute_diameter(Polygon2(((0, 0), (s, 1), (3 * s + 1, 7))))
        assert report.ldiam == ldiam
        assert len(report.lines) == 1
        # one level_interval call, for the one level of the chord window, and
        # one line_bounds call per distinct candidate line (its chord read),
        # under that call and for the representative segment; when 7 divides
        # 3s + 1 the long edge's line is a candidate from both ends
        records = 7 if (3 * s + 1) % 7 == 0 else 8
        assert kernel_calls == {"level_interval": 1, "line_bounds": records + 2}


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


class TestUDiameterLine:
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
        ],
        ids=["thin-quad", "thin-triangle"],
    )
    def test_bounded_work(self, vertices, u, want, monkeypatch):
        calls = []
        kernel = diameter.level_interval

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(diameter, "level_interval", counted)
        assert u_diameter_line(Polygon2(vertices), u) == LatticeLine(*want)
        assert len(calls) <= 16


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


def piece_windows(P: Polygon2, u: Direction, m: int) -> list[int]:
    """The levels of direction u whose chord through P is at least m: the
    union of the m chord windows of the level pieces, in sweep order."""
    levels = []
    _, pieces = diameter._level_pieces(P.vertices, P.halfplanes(), u.vec)
    for lo, hi, closed, upper, lower in pieces:
        first, last = diameter._chord_clip(lo, hi if closed else hi - 1, upper, lower, m)
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


class TestSweepWork:
    @pytest.mark.parametrize("P", [T19, QUAD, SQUARE], ids=["T19", "QUAD", "SQUARE"])
    @pytest.mark.parametrize("k", [10, 100, 1000])
    def test_one_level_call_per_diameter_line(self, P, k, monkeypatch):
        sweep_calls = []
        kernel, sweep = diameter.level_interval, diameter._direction_sweep.__code__

        def counted(*args):
            if sys._getframe(1).f_code is sweep:
                sweep_calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(diameter, "level_interval", counted)
        report = compute_diameter(P.dilate(k))
        assert len(sweep_calls) == len(report.lines)


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
