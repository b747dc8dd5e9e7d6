"""Static SVG rendering of a polygon with its diameter segments.

Pure string building on exact arithmetic, so output never depends on float
state. The grid dots and the polygon outline sit at lattice points, whose
scaled coordinates are plain ints; each column's inside dots are one
level_interval call. Fractions remain only for the diameter segments, whose
clip endpoints are rational and are rounded to hundredths of a pixel. The
drawing is a view only; nothing here feeds back into computations.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Polygon2, level_interval
from .diameter import DiameterReport
from .errors import BudgetError
from .lines import clip_line

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


def _fmt(v: Fraction | int) -> str:
    n = round(Fraction(v) * 100)
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

    # ints at lattice points, Fractions at the rational ends of segments
    def px(x: Fraction | int) -> Fraction | int:
        return (x - left) * SCALE

    def py(y: Fraction | int) -> Fraction | int:
        return (top - y) * SCALE

    width = (xhi - xlo + 2 * MARGIN) * SCALE
    height = (yhi - ylo + 2 * MARGIN) * SCALE
    # 5px outer pad keeps rim grid dots fully visible
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width + 10}" height="{height + 10}" '
        f'viewBox="-5 -5 {width + 10} {height + 10}">'
    ]
    outline = " ".join(f"{px(x)},{py(y)}" for x, y in polygon.vertices)
    out.append(f'<polygon points="{outline}" fill="#eef2f8" stroke="none"/>')
    halfplanes = polygon.halfplanes()
    rows = [(gy, py(gy)) for gy in range(ylo - MARGIN, top + 1)]
    for gx in range(left, xhi + MARGIN + 1):
        cx = px(gx)
        lo, hi = level_interval(halfplanes, (gx, 0), (0, 1)) or (1, 0)
        out.extend(
            f'<circle cx="{cx}" cy="{cy}" r="2.5" '
            f'fill="{INSIDE if lo <= gy <= hi else OUTSIDE}"/>'
            for gy, cy in rows
        )
    out.append(
        f'<polygon points="{outline}" fill="none" stroke="#24344d" stroke-width="2"/>'
    )
    dir_index = {u: i for i, u in enumerate(report.directions)}
    for line in report.lines:
        clip = clip_line(polygon, line, halfplanes)
        if clip is None:
            continue
        color = PALETTE[dir_index.get(line.dir, 0) % len(PALETTE)]
        (ax, ay), (bx, by) = clip.a, clip.b
        out.append(
            f'<line x1="{_fmt(px(ax))}" y1="{_fmt(py(ay))}" '
            f'x2="{_fmt(px(bx))}" y2="{_fmt(py(by))}" '
            f'stroke="{color}" stroke-width="3" stroke-linecap="round"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
