"""Acceptance gate: every required end-to-end check, one test per line.

Each test states its claim, its sample size and its wall-clock ceiling.
Run with -v to get one pass/fail line per check.
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import floor, gcd

from latticediam import (
    Direction,
    LatticeLine,
    PointSet,
    Polygon2,
    brute_force_diameter,
    build_borsuk_graph,
    chamber_decomposition,
    check_rabinowitz,
    clip_line,
    compute_diameter,
    count_diameter_lines,
    demo_chamber,
    direction_maximal_polytope,
    enumerate_lattice_points,
    exact_borsuk_number,
    fit_quasipolynomial,
    greedy_partition,
    hardness_instance,
    hull_facets,
    lattice_count_on_clip,
    nvol,
    verify_hardness_instance,
    vertex_avoiding_polytope,
)

from helpers import random_point_set, random_polygon

QUAD = Polygon2(((0, 0), (5, 1), (6, 4), (1, 3)))
TRIANGLE = Polygon2(((0, 1), (1, 0), (2, 2)))
SQUARE = Polygon2(((0, 0), (2, 0), (2, 2), (0, 2)))


def test_01_dilation_count_and_fit_regression():
    """Counts (3,4,3,9,8,5) for k = 1..6 on the reference quadrilateral and
    the fitted period-3 pieces 2k+1, 4k/3+4/3, 2k/3+1; exact, < 5 s."""
    start = time.monotonic()
    assert [count_diameter_lines(QUAD, k) for k in range(1, 7)] == [
        3, 4, 3, 9, 8, 5,
    ]
    fit = fit_quasipolynomial(QUAD)
    assert fit.period == 3
    assert set(fit.pieces) == {
        (Fraction(2), Fraction(1)),
        (Fraction(4, 3), Fraction(4, 3)),
        (Fraction(2, 3), Fraction(1)),
    }
    assert time.monotonic() - start < 5.0


def test_02_chamber_table_regression():
    """The reference chamber decomposes with q = 3, w = 2 and per-residue
    rows (1,1,1), (3,0,0), (2,2,2); exact, < 1 s."""
    start = time.monotonic()
    verts, u = demo_chamber()
    block = chamber_decomposition(verts, u)
    assert (block.q, block.w) == (3, 2)
    assert block.per_residue == ((1, 1, 1), (3, 0, 0), (2, 2, 2))
    assert time.monotonic() - start < 1.0


def test_03_diameter_matches_oracle_on_1000_random_polygons():
    """compute_diameter equals the pair-scan oracle on ldiam and the exact
    direction set for 1000 random convex polygons with 3..10 vertices and
    coordinates in [-50, 50]; zero mismatches, < 120 s."""
    start = time.monotonic()
    rng = random.Random(20260819)
    for _ in range(1000):
        P = random_polygon(rng)
        report = compute_diameter(P)
        oracle = brute_force_diameter(enumerate_lattice_points(P))
        assert report.ldiam == oracle.ldiam
        assert report.directions == oracle.directions
    assert time.monotonic() - start < 120.0


def test_04_reference_triangle_and_square_reports():
    """conv{(0,1),(1,0),(2,2)} has ldiam 1 in 6 directions; [0,2]^2 has
    ldiam 2 with 8 diameter lines in 4 directions; exact, < 1 s."""
    start = time.monotonic()
    tri = compute_diameter(TRIANGLE)
    assert tri.ldiam == 1
    assert len(tri.directions) == 6
    sq = compute_diameter(SQUARE)
    assert sq.ldiam == 2
    assert len(sq.lines) == 8
    assert len(sq.directions) == 4
    assert time.monotonic() - start < 1.0


def test_05_interior_diameter_segment_family():
    """For m = 2..5 the six-vertex polytope has ldiam 2(m-1) and the axis
    segment (-(m-1),0,0)->(m-1,0,0) with both endpoints strictly inside
    every facet. For m >= 3 that segment is the unique diameter segment;
    at m = 2 the oracle finds exactly three additional vertex-to-vertex
    segments tying at gcd 2. Exact, < 30 s."""
    start = time.monotonic()
    for m in range(2, 6):
        pts, verts = vertex_avoiding_polytope(m)
        report = brute_force_diameter(pts)
        assert report.ldiam == 2 * (m - 1)
        axis = ((-(m - 1), 0, 0), (m - 1, 0, 0))
        if m >= 3:
            assert report.segments == (axis,)
        else:
            assert report.segments == (
                ((-2, -1, 0), (2, 1, 0)),
                ((-2, 0, -1), (2, 0, 1)),
                ((-1, 0, 0), (1, 0, 0)),
                ((-1, 1, 1), (1, -1, -1)),
            )
        facets = hull_facets(verts)
        for endpoint in axis:
            assert all(
                sum(a * b for a, b in zip(n, endpoint)) < c for n, c in facets
            )
    assert time.monotonic() - start < 30.0


def test_06_hardness_instances_verify():
    """The gadget's lattice diameter is Z - min f with sole direction along
    the last axis: (2,2,5) solvable, min f = 0, ldiam = Z = 9; (3,5,7)
    unsolvable, min f = 1, ldiam = Z - 1 = 11; the d = 4 lift preserves the
    value. Exact, < 60 s per instance."""
    for a, b, c, d, want_z, want_min in (
        (2, 2, 5, 3, 9, 0),
        (3, 5, 7, 3, 12, 1),
        (2, 2, 5, 4, 9, 0),
    ):
        start = time.monotonic()
        check = verify_hardness_instance(hardness_instance(a, b, c, d))
        assert check.z == want_z
        assert check.min_f == want_min
        assert check.ldiam == want_z - want_min
        assert check.direction_ok
        assert check.equivalence_ok
        assert time.monotonic() - start < 60.0


def test_07_direction_maximal_counts():
    """The stacked-triangle polytopes have 2^d lattice points, ldiam 1 and
    binomial(2^d, 2) diameter directions: 6, 28, 120 for d = 2, 3, 4.
    Exact, < 60 s."""
    start = time.monotonic()
    for d, want in ((2, 6), (3, 28), (4, 120)):
        pts, _ = direction_maximal_polytope(d)
        report = brute_force_diameter(pts)
        assert len(pts) == 2**d
        assert report.ldiam == 1
        assert len(report.directions) == want
    assert time.monotonic() - start < 60.0


def test_08_borsuk_partition_suite():
    """(i) diameter-graph max degree <= 2^d - 1 on 5000 random sets each for
    d = 2, 3 and 500 for d = 4 (coordinates bounded by 8); (ii) the greedy
    partition always yields <= 2^d parts of strictly smaller diameter;
    (iii) exact part minimum on {0,1}^d is 2^d for d = 1, 2, 3.
    Zero violations, < 180 s."""
    start = time.monotonic()
    rng = random.Random(48653)
    for d, rounds in ((2, 5000), (3, 5000), (4, 500)):
        for _ in range(rounds):
            S = random_point_set(rng, d)
            if len(S) < 2:
                continue
            graph = build_borsuk_graph(S)
            assert graph.max_degree() <= 2**d - 1
            partition = greedy_partition(graph)
            assert len(partition.parts) <= 2**d
            for part in partition.parts:
                if len(part) >= 2:
                    assert brute_force_diameter(part).ldiam < graph.diam
    for d in (1, 2, 3):
        cube = PointSet([p for p in product((0, 1), repeat=d)])
        assert exact_borsuk_number(build_borsuk_graph(cube)) == 2**d
    assert time.monotonic() - start < 180.0


def test_09_line_count_sandwich_property():
    """For 10000 random (polygon, lattice line) pairs the clipped lattice
    point count c satisfies floor(nvol) <= c <= floor(nvol) + 1, with the
    upper value whenever a clip endpoint is integral. Zero violations,
    < 60 s."""
    start = time.monotonic()
    rng = random.Random(91157)
    pairs = 0
    while pairs < 10_000:
        P = random_polygon(rng, span_lo=3, span_hi=8)
        inside = enumerate_lattice_points(P)
        for _ in range(5):
            base = rng.choice(inside.points)
            ux = rng.randint(-6, 6)
            uy = rng.randint(-6, 6)
            if (ux, uy) == (0, 0):
                ux = 1
            g = gcd(abs(ux), abs(uy))
            line = LatticeLine(base, (ux // g, uy // g))
            clip = clip_line(P, line)
            assert clip is not None
            count = lattice_count_on_clip(clip)
            volume = nvol(clip)
            assert floor(volume) <= count <= floor(volume) + 1
            t1, t2 = clip.t1, clip.t2
            if t1.denominator == 1 or t2.denominator == 1:
                assert count == floor(volume) + 1
            pairs += 1
    assert time.monotonic() - start < 60.0


def test_10_size_bound_property():
    """check_rabinowitz holds on 5000 random (point set, m) instances in
    dimension <= 3: a set with ldiam < m never has more than m^d points.
    Zero violations, < 60 s."""
    start = time.monotonic()
    rng = random.Random(777)
    for _ in range(5000):
        d = rng.choice((1, 2, 3))
        S = random_point_set(rng, d, coord=6, n_hi=15)
        m = rng.randint(1, 8)
        assert check_rabinowitz(S, m)
    assert time.monotonic() - start < 60.0
