"""Static SVG rendering of a polygon with its diameter segments.

Pure string building on exact arithmetic: scaled coordinates are Fractions
rounded to hundredths of a pixel, so output never depends on float state.
The drawing is a view only; nothing here feeds back into computations.
"""

from __future__ import annotations

from fractions import Fraction

from .core import Polygon2, enumerate_lattice_points
from .diameter import DiameterReport
from .errors import BudgetError
from .lines import clip_line

__all__ = ["check_dot_budget", "render_diameter_svg"]

SCALE = 40
MARGIN = 1

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

    def px(x: Fraction | int) -> Fraction:
        return (Fraction(x) - xlo + MARGIN) * SCALE

    def py(y: Fraction | int) -> Fraction:
        return (Fraction(yhi) + MARGIN - y) * SCALE

    width = (xhi - xlo + 2 * MARGIN) * SCALE
    height = (yhi - ylo + 2 * MARGIN) * SCALE
    # 5px outer pad keeps rim grid dots fully visible
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width + 10}" height="{height + 10}" '
        f'viewBox="-5 -5 {width + 10} {height + 10}">'
    ]
    outline = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in polygon.vertices)
    out.append(f'<polygon points="{outline}" fill="#eef2f8" stroke="none"/>')
    inside = set(enumerate_lattice_points(polygon))
    for gx in range(xlo - MARGIN, xhi + MARGIN + 1):
        for gy in range(ylo - MARGIN, yhi + MARGIN + 1):
            fill = "#7a7a7a" if (gx, gy) in inside else "#d4d4d4"
            out.append(
                f'<circle cx="{_fmt(px(gx))}" cy="{_fmt(py(gy))}" '
                f'r="2.5" fill="{fill}"/>'
            )
    out.append(
        f'<polygon points="{outline}" fill="none" stroke="#24344d" stroke-width="2"/>'
    )
    dir_index = {u: i for i, u in enumerate(report.directions)}
    for line in report.lines:
        clip = clip_line(polygon, line)
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
