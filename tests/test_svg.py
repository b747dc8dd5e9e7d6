"""The SVG picture: byte equality with the Fraction renderer it replaced."""

import random
from fractions import Fraction
from pathlib import Path

from latticediam import (
    Polygon2,
    clip_line,
    compute_diameter,
    load_document,
    polygon_from_document,
)
from latticediam.svg import MARGIN, _fmt, render_diameter_svg

from helpers import (
    _fmt_oracle,
    convex_hull,
    random_polygon,
    render_diameter_svg_oracle,
    wide_polygons,
)

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
MAX_DOTS = 20_000  # keeps the oracle's per-dot Fractions quick


def grid_dots(P) -> int:
    (xlo, ylo), (xhi, yhi) = P.bounding_box()
    return (xhi - xlo + 2 * MARGIN + 1) * (yhi - ylo + 2 * MARGIN + 1)


def test_matches_the_fraction_renderer():
    samples = [
        polygon_from_document(load_document(str(SAMPLES / f"demo-{name}.json")))
        for name in ("quad", "square", "triangle")
    ]
    rng = random.Random(8)
    polygons = samples + [random_polygon(rng) for _ in range(60)]
    polygons += [P for P in wide_polygons(40) if grid_dots(P) <= MAX_DOTS]
    negative = rational = 0
    for P in polygons:
        report = compute_diameter(P)
        assert render_diameter_svg(P, report) == render_diameter_svg_oracle(P, report), P
        negative += any(c < 0 for v in P.vertices for c in v)
        clips = [clip_line(P, line) for line in report.lines]
        rational += any(c.denominator != 1 for clip in clips for c in clip.a + clip.b)
    # the set must exercise negative coordinates and rational segment ends
    assert len(polygons) >= 80 and negative > 20 and rational > 20


def test_integer_rounding_matches_round_of_a_fraction():
    rng = random.Random("svg/fmt")
    values = [(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)) for _ in range(3000)]
    # exact half-cent ties: num * 100 / den ends in .5 when den = 200 or 8
    # and num is odd, with an odd or an even cent below it
    values += [(num, den) for num in range(-401, 402, 2) for den in (200, 8)]
    ties = {"odd": 0, "even": 0}
    for num, den in values:
        assert _fmt(num, den) == _fmt_oracle(Fraction(num, den)), (num, den)
        cents, rest = divmod(num * 100, den)
        if 2 * rest == den:
            ties["odd" if cents % 2 else "even"] += 1
    assert min(ties.values()) > 100
    assert any(num < 0 for num, _ in values)


def test_several_directions_and_axis_parallel_edges():
    # dilates with several diameter lines and directions, and polygons whose
    # vertical or horizontal edges bound no level range of the columns
    quad = Polygon2(((0, 0), (5, 1), (6, 4), (1, 3)))
    square = Polygon2(((0, 0), (2, 0), (2, 2), (0, 2)))
    polygons = [P.dilate(k) for P in (quad, square) for k in (1, 2, 3, 5, 8)]
    rng = random.Random("svg/axis-edges")
    while len(polygons) < 50:
        m, h = rng.randint(1, 15), rng.randint(1, 15)
        # points on the lines x = 0 and x = m, or y = 0 and y = h
        pts = [(x, rng.randint(0, h)) for x in (0, 0, m, m)]
        pts += [(rng.randint(0, m), rng.randint(0, h)) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.5:
            pts = [(y, x) for x, y in pts]
        verts = convex_hull(pts)
        if verts is not None:
            polygons.append(Polygon2(verts))
    vertical = horizontal = several = 0
    for P in polygons:
        report = compute_diameter(P)
        assert render_diameter_svg(P, report) == render_diameter_svg_oracle(P, report), P
        edges = [(b[0] - a[0], b[1] - a[1]) for a, b in P.edges()]
        vertical += any(dx == 0 for dx, _ in edges)
        horizontal += any(dy == 0 for _, dy in edges)
        several += len(report.directions) > 1 and len(report.lines) > len(report.directions)
    assert vertical > 15 and horizontal > 15 and several >= 5
