"""Shared test geometry: strict convex hulls and seeded random generators."""

from __future__ import annotations

import random

from fractions import Fraction
from math import gcd

from latticediam import (
    Direction,
    LatticeLine,
    PointSet,
    Polygon2,
    ValidationError,
    clip_line,
    count_lattice_points_polygon,
    enumerate_lattice_points,
    local_diameter_lines,
    opposite_pairs,
)
from latticediam.diameter import DiameterReport
from latticediam.lines import ClippedSegment, level_anchor, level_interval
from latticediam.svg import MARGIN, PALETTE, SCALE

TRIANGLE = Polygon2(((0, 1), (1, 0), (2, 2)))
SQUARE = Polygon2(((0, 0), (2, 0), (2, 2), (0, 2)))
QUAD = Polygon2(((0, 0), (5, 1), (6, 4), (1, 3)))


def convex_hull(points) -> list[tuple[int, int]] | None:
    """Monotone chain; strict turns only, so no collinear hull vertices.

    Returns the CCW vertex list, or None when the hull is degenerate.
    """
    pts = sorted(set(map(tuple, points)))
    if len(pts) < 3:
        return None

    def half(seq):
        out: list[tuple[int, int]] = []
        for p in seq:
            while len(out) >= 2:
                ax, ay = out[-2]
                bx, by = out[-1]
                if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    verts = lower[:-1] + upper[:-1]
    return verts if len(verts) >= 3 else None


def random_polygon(
    rng: random.Random,
    span_lo: int = 3,
    span_hi: int = 12,
    coord: int = 50,
    max_points: int = 500,
) -> Polygon2:
    """A random convex lattice polygon with 3..10 vertices in [-coord, coord].

    The vertex spread is sampled small so the lattice point count stays under
    max_points, which keeps oracle cross-checks inside the pair budget.
    """
    while True:
        span = rng.randint(span_lo, span_hi)
        ox = rng.randint(-coord, coord - span)
        oy = rng.randint(-coord, coord - span)
        pts = [
            (ox + rng.randint(0, span), oy + rng.randint(0, span))
            for _ in range(rng.randint(3, 10))
        ]
        verts = convex_hull(pts)
        if verts is None:
            continue
        P = Polygon2(tuple(verts))
        if count_lattice_points_polygon(P) <= max_points:
            return P


def unimodular(rng: random.Random, reach: int) -> tuple[int, int, int, int]:
    """A random integer matrix (a, b, c, d) with ad - bc = 1: a product of shears."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(2):
        s, t = rng.randint(-reach, reach), rng.randint(-reach, reach)
        a, b = a + s * c, b + s * d  # row 1 += s * row 2
        c, d = c + t * a, d + t * b  # row 2 += t * row 1
    return a, b, c, d


def wide_polygons(n: int):
    """Seeded polygons with x-spans up to 10^6: unimodular images of small
    random polygons, so their level walks stay short."""
    rng = random.Random(20251018)
    out = []
    while len(out) < n:
        small = random_polygon(rng, span_hi=10)
        a, b, c, d = unimodular(rng, 10 ** rng.randint(0, 2))
        assert a * d - b * c == 1
        P = Polygon2(tuple((a * x + b * y, c * x + d * y) for x, y in small.vertices))
        (xlo, _), (xhi, _) = P.bounding_box()
        if xhi - xlo <= 10**6:
            out.append(P)
    return out


def profile_polygons() -> list[Polygon2]:
    """The seeded polygons of the dilation profile tests: 400 small random
    polygons at coordinates up to 10^4, then wide_polygons(100)."""
    rng = random.Random(6)
    small = [
        random_polygon(rng, span_hi=rng.choice((6, 12, 25)), coord=10**4)
        for _ in range(400)
    ]
    return small + wide_polygons(100)


def random_point_set(
    rng: random.Random, d: int, coord: int = 8, n_lo: int = 2, n_hi: int = 20
) -> PointSet:
    pts: set[tuple[int, ...]] = set()
    # The grid only holds (2*coord+1)**d points; don't ask for more.
    target = min(rng.randint(n_lo, n_hi), (2 * coord + 1) ** d)
    while len(pts) < target:
        pts.add(tuple(rng.randint(-coord, coord) for _ in range(d)))
    return PointSet(pts)


def walk_local_lines(edge, vertex, normal) -> list[LatticeLine]:
    """The level walk that local_diameter_lines replaced, kept as its oracle.

    Climbs every level of the normal from the vertex to the edge, taking at
    each step the lowest lattice point of the triangle off all previously
    found lines (smallest parameter first). Only non-degenerate triangles
    with a valid outward normal; the validation and collinear case are the
    library's.
    """
    (p, q), v = edge, vertex
    g = gcd(*normal)
    a = (normal[0] // g, normal[1] // g)
    cross = (p[0] - v[0]) * (q[1] - v[1]) - (p[1] - v[1]) * (q[0] - v[0])
    assert cross != 0
    level_p = a[0] * p[0] + a[1] * p[1]
    level_v = a[0] * v[0] + a[1] * v[1]
    halfplanes = Polygon2((v, p, q) if cross > 0 else (v, q, p)).halfplanes()
    anchor, step = level_anchor(a)
    ux, uy = step.vec
    found: list[tuple[int, int]] = []
    for beta in range(level_v + 1, level_p + 1):
        x0 = (anchor[0] * beta, anchor[1] * beta)
        iv = level_interval(halfplanes, x0, (ux, uy))
        if iv is None:
            continue
        klo, khi = iv
        # Each previous line blocks at most one point of this level, so the
        # first len(found) + 1 parameters always contain an eligible point if
        # one exists at all.
        while len(found) < 3:
            pick = None
            for k in range(klo, min(khi, klo + len(found)) + 1):
                w = (x0[0] + k * ux, x0[1] + k * uy)
                if all(
                    (w[0] - v[0]) * (f[1] - v[1]) != (w[1] - v[1]) * (f[0] - v[0])
                    for f in found
                ):
                    pick = w
                    break
            if pick is None:
                break
            found.append(pick)
        if len(found) == 3:
            break
    return [LatticeLine(v, Direction((w[0] - v[0], w[1] - v[1]))) for w in found]


def unwindowed_counts(P: Polygon2, u: Direction) -> dict[int, int]:
    """Lattice count of every level of direction u across P, walked level by
    level from the lowest vertex level to the highest (the sweep before the
    chord window)."""
    a = (-u.vec[1], u.vec[0])
    anchor, _ = level_anchor(a)
    levels = [a[0] * x + a[1] * y for x, y in P.vertices]
    halfplanes = P.halfplanes()
    counts = {}
    for beta in range(min(levels), max(levels) + 1):
        iv = level_interval(halfplanes, (anchor[0] * beta, anchor[1] * beta), u.vec)
        counts[beta] = 0 if iv is None else iv[1] - iv[0] + 1
    return counts


def dilate_levels_oracle(P: Polygon2, k: int) -> tuple[int, int, list[tuple[int, int]]]:
    """The per-dilate path that the dilation profile replaced, kept as its
    oracle: build kP, rank the candidate lines of every local scan on it by
    their kernel count, and walk each diameter direction level by level,
    with no chord window. Returns the diameter line count, the best count
    and the sorted direction vectors of kP."""
    kP = P.dilate(k)
    halfplanes = kP.halfplanes()
    best, directions = 0, set()
    for pair in opposite_pairs(kP):
        for line in local_diameter_lines(pair.edge, pair.vertex, pair.normal):
            klo, khi = level_interval(halfplanes, line.base, line.dir.vec)
            count = khi - klo + 1
            if count > best:
                best, directions = count, set()
            if count == best:
                directions.add(line.dir)
    lines = sum(
        list(unwindowed_counts(kP, u).values()).count(best) for u in directions
    )
    return lines, best, sorted(u.vec for u in directions)


def level_interval_oracle(halfplanes, x0, u) -> tuple[int, int] | None:
    """The floor-division loop that core.line_bounds replaced under
    level_interval, kept as its reference."""
    klo: int | None = None
    khi: int | None = None
    x, y = x0
    ux, uy = u
    for (nx, ny), c in halfplanes:
        s = c - (nx * x + ny * y)
        t = nx * ux + ny * uy
        if t == 0:
            if s < 0:
                return None
            continue
        if t > 0:
            bound = s // t
            khi = bound if khi is None else min(khi, bound)
        else:
            bound = -(s // -t)
            klo = bound if klo is None else max(klo, bound)
    if klo is None or khi is None:
        raise ValidationError("halfplanes do not bound the line")
    if klo > khi:
        return None
    return klo, khi


def clip_line_oracle(P: Polygon2, line: LatticeLine) -> ClippedSegment | None:
    """The Fraction loop that core.line_bounds replaced under clip_line,
    kept as its reference."""
    ux, uy = line.dir.vec
    bx, by = line.base
    lo: Fraction | None = None
    hi: Fraction | None = None
    for (nx, ny), c in P.halfplanes():
        s = nx * bx + ny * by
        t = nx * ux + ny * uy
        if t == 0:
            if s > c:
                return None
            continue
        bound = Fraction(c - s, t)
        if t > 0:
            hi = bound if hi is None else min(hi, bound)
        else:
            lo = bound if lo is None else max(lo, bound)
    assert lo is not None and hi is not None
    if lo > hi:
        return None
    return ClippedSegment(
        a=line.rational_point_at(lo),
        b=line.rational_point_at(hi),
        line=line,
        t1=lo,
        t2=hi,
    )


def _fmt_oracle(v: Fraction | int) -> str:
    n = round(Fraction(v) * 100)
    sign = "-" if n < 0 else ""
    whole, cents = divmod(abs(n), 100)
    if cents == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{cents:02d}".rstrip("0")


def render_diameter_svg_oracle(polygon: Polygon2, report: DiameterReport) -> str:
    """The Fraction renderer that svg.render_diameter_svg replaced, kept as
    its byte oracle: every coordinate goes through a Fraction rounded to
    hundredths, and the grid dot fill is a lookup in the listed lattice
    points of the polygon."""
    (xlo, ylo), (xhi, yhi) = polygon.bounding_box()

    def px(x: Fraction | int) -> Fraction:
        return (Fraction(x) - xlo + MARGIN) * SCALE

    def py(y: Fraction | int) -> Fraction:
        return (Fraction(yhi) + MARGIN - y) * SCALE

    width = (xhi - xlo + 2 * MARGIN) * SCALE
    height = (yhi - ylo + 2 * MARGIN) * SCALE
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width + 10}" height="{height + 10}" '
        f'viewBox="-5 -5 {width + 10} {height + 10}">'
    ]
    outline = " ".join(
        f"{_fmt_oracle(px(x))},{_fmt_oracle(py(y))}" for x, y in polygon.vertices
    )
    out.append(f'<polygon points="{outline}" fill="#eef2f8" stroke="none"/>')
    inside = set(enumerate_lattice_points(polygon))
    for gx in range(xlo - MARGIN, xhi + MARGIN + 1):
        for gy in range(ylo - MARGIN, yhi + MARGIN + 1):
            fill = "#7a7a7a" if (gx, gy) in inside else "#d4d4d4"
            out.append(
                f'<circle cx="{_fmt_oracle(px(gx))}" cy="{_fmt_oracle(py(gy))}" '
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
            f'<line x1="{_fmt_oracle(px(ax))}" y1="{_fmt_oracle(py(ay))}" '
            f'x2="{_fmt_oracle(px(bx))}" y2="{_fmt_oracle(py(by))}" '
            f'stroke="{color}" stroke-width="3" stroke-linecap="round"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
