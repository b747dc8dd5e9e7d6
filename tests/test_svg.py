"""The SVG picture: byte equality with the Fraction renderer it replaced."""

import random
from pathlib import Path

from latticediam import clip_line, compute_diameter, load_document, polygon_from_document
from latticediam.svg import MARGIN, render_diameter_svg

from helpers import random_polygon, render_diameter_svg_oracle, wide_polygons

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
