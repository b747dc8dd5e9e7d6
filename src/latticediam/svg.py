"""Static SVG rendering of a polygon with its diameter segments.

Pure string building on exact integer arithmetic, so output never depends
on float state. The grid dots and the polygon outline sit at lattice
points, whose scaled coordinates are plain ints. The dots are written
column by column: each column's inside range is read from the level pieces
of (0, 1) (core._level_ranges), and the column is one str.join over the
row tails of its dots, built once per picture, inside and outside. The
diameter segments end where core.line_bounds clips their lines, at
rational points, rounded to hundredths of a pixel in integers (_fmt). The
drawing is a view only; nothing here feeds back into computations.
"""

from __future__ import annotations

from .core import Polygon2, _level_ranges, line_bounds
from .diameter import DiameterReport
from .errors import BudgetError

__all__ = ["check_dot_budget", "render_diameter_svg"]

SCALE = 40
MARGIN = 1
INSIDE, OUTSIDE = "#7a7a7a", "#d4d4d4"  # grid dot fills

# One stroke color per diameter direction, cycled past eight.
PALETTE = (
    "#c03428",
    "#1f6fb2",
    "#2e8b57",
    "#b8860b",
    "#7b3fa0",
    "#0f8a8a",
    "#c05090",
    "#6b6b20",
)


def _fmt(num: int, den: int) -> str:
    """num / den, for den > 0, rounded to hundredths half to even, as
    round(Fraction) rounds, with no trailing zeros."""
    n, r = divmod(num * 100, den)
    if 2 * r > den or (2 * r == den and n & 1):
        n += 1
    sign = "-" if n < 0 else ""
    whole, cents = divmod(abs(n), 100)
    if cents == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{cents:02d}".rstrip("0")


def check_dot_budget(polygon: Polygon2, budget: int) -> None:
    """Raise BudgetError when the picture of polygon would draw more than
    budget grid dots (one per lattice point of the margined bounding box)."""
    (xlo, ylo), (xhi, yhi) = polygon.bounding_box()
    dots = (xhi - xlo + 2 * MARGIN + 1) * (yhi - ylo + 2 * MARGIN + 1)
    if dots > budget:
        raise BudgetError(
            f"the picture draws {dots} grid dots, over the budget of {budget}"
        )


def render_diameter_svg(polygon: Polygon2, report: DiameterReport) -> str:
    (xlo, ylo), (xhi, yhi) = polygon.bounding_box()
    left, top = xlo - MARGIN, yhi + MARGIN  # the top left grid dot
    bottom = ylo - MARGIN
    width = (xhi - xlo + 2 * MARGIN) * SCALE
    height = (yhi - ylo + 2 * MARGIN) * SCALE
    # 5px outer pad keeps rim grid dots fully visible
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width + 10}" height="{height + 10}" '
        f'viewBox="-5 -5 {width + 10} {height + 10}">'
    ]
    outline = " ".join(
        f"{(x - left) * SCALE},{(top - y) * SCALE}" for x, y in polygon.vertices
    )
    out.append(f'<polygon points="{outline}" fill="#eef2f8" stroke="none"/>')
    # the tail of a dot after its cx, per row from the bottom up
    inside, outside = (
        [f'" cy="{(top - gy) * SCALE}" r="2.5" fill="{fill}"/>'
         for gy in range(bottom, top + 1)]
        for fill in (INSIDE, OUTSIDE)
    )
    columns = _level_ranges(polygon, (0, 1))
    columns.reverse()  # the levels of (0, 1) are -x
    rim = [(1, 0)] * MARGIN  # the margin columns hold no point of the polygon
    for gx, (lo, hi) in enumerate(rim + columns + rim, left):
        head = f'\n<circle cx="{(gx - left) * SCALE}'
        if lo <= hi:
            lo, hi = lo - bottom, hi + 1 - bottom
            tails = outside[:lo] + inside[lo:hi] + outside[hi:]
        else:
            tails = outside
        out.append(head[1:] + head.join(tails))
    out.append(
        f'<polygon points="{outline}" fill="none" stroke="#24344d" stroke-width="2"/>'
    )
    halfplanes = polygon.halfplanes()
    dir_index = {u: i for i, u in enumerate(report.directions)}
    for line in report.lines:
        (x, y), (ux, uy) = line.base, line.dir.vec
        bounds = line_bounds(halfplanes, (x, y), (ux, uy))
        if bounds is None:
            continue
        ls, lt, hs, ht = bounds
        if ls * ht > hs * lt:
            continue
        color = PALETTE[dir_index.get(line.dir, 0) % len(PALETTE)]
        # the clip ends x + (s/t) u, scaled into pixels over the one
        # denominator t
        sx, sy = (x - left) * SCALE, (top - y) * SCALE
        out.append(
            f'<line x1="{_fmt(sx * lt + ls * ux * SCALE, lt)}" '
            f'y1="{_fmt(sy * lt - ls * uy * SCALE, lt)}" '
            f'x2="{_fmt(sx * ht + hs * ux * SCALE, ht)}" '
            f'y2="{_fmt(sy * ht - hs * uy * SCALE, ht)}" '
            f'stroke="{color}" stroke-width="3" stroke-linecap="round"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
