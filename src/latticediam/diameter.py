"""Lattice diameter of a convex lattice polygon, exactly and fast.

The algorithm works per (edge, opposite vertex) pair: inside the triangle they
span, up to three candidate lines through the vertex are located greedily,
each through the lowest lattice point (in the levels of the edge normal) not
already covered by an earlier candidate line. In the unimodular basis of the
level functional, that point is the smallest-denominator fraction of a slope
interval, found by a continued-fraction descent in O(log) integer steps, so
the cost grows with the bit length of the vertices, not with their size.
Candidates are then ranked by their exact lattice point count in the whole
polygon; the best count determines the diameter, and a per-direction level
sweep recovers every line attaining it (some diameter lines pass through no
vertex at all). That sweep visits only the levels whose chord can reach the
best count.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Sequence

from .core import Direction, Point, Polygon2, as_point
from .errors import ValidationError
from .lines import ClippedSegment, LatticeLine, clip_line, level_anchor, level_interval

__all__ = [
    "OppositePair",
    "DiameterReport",
    "opposite_pairs",
    "local_diameter_lines",
    "diameter_levels",
    "compute_diameter",
    "u_diameter_line",
]


@dataclass(frozen=True)
class OppositePair:
    """An edge, its primitive outward normal, and a vertex minimizing it."""

    edge: tuple[Point, Point]
    vertex: Point
    normal: Point


@dataclass(frozen=True)
class DiameterReport:
    """Diameter value with every attaining line, grouped data precomputed.

    lines hold all lattice lines meeting the polygon in ldiam + 1 lattice
    points, sorted by (direction, base); directions are deduplicated and
    sorted; representative_segments hold one exact clip per direction.
    """

    ldiam: int
    lines: tuple[LatticeLine, ...]
    directions: tuple[Direction, ...]
    representative_segments: tuple[ClippedSegment, ...]


def opposite_pairs(P: Polygon2) -> list[OppositePair]:
    """All (edge, opposite vertex) pairs of P, in edge order.

    An edge maximizes its outward normal over P; the opposite vertices are
    those minimizing it: one generically, two when a parallel edge exists.
    """
    pairs: list[OppositePair] = []
    for (a, b) in P.edges():
        nx, ny = b[1] - a[1], a[0] - b[0]  # outward for CCW
        g = gcd(nx, ny)
        nx, ny = nx // g, ny // g
        vals = [(nx * v[0] + ny * v[1], v) for v in P.vertices]
        lo = min(val for val, _ in vals)
        for val, v in vals:
            if val == lo:
                pairs.append(OppositePair(edge=(a, b), vertex=v, normal=(nx, ny)))
    return pairs


def _collinear_case(v: Point, p: Point, q: Point) -> list[LatticeLine]:
    # Degenerate triangle: the hull is a segment (or a point). At most one
    # candidate line exists, the affine hull, provided it has a point besides v.
    for w in (p, q):
        if w != v:
            return [LatticeLine(v, Direction((w[0] - v[0], w[1] - v[1])))]
    return []


def _lowest_in_sector(
    sector: tuple[tuple[int, int], bool, tuple[int, int], bool], j_max: int
) -> tuple[int, int] | None:
    """The point (j, k) with 1 <= j <= j_max and slope k/j in the sector, with
    the smallest j and then the smallest k; None when there is none.

    A sector (lo, lo_open, hi, hi_open) is a slope interval whose ends are
    fractions (numerator, denominator > 0), each open or closed. Its lowest
    point is the smallest-denominator fraction in it, found by a continued
    fraction (Stern-Brocot) descent: take the smallest integer of the interval
    if there is one, else write x = n + 1/y with n = floor(lo) and descend
    into the interval of y, whose upper end is infinite (denominator 0) when
    lo is an open integer. The matrix (A, B, C, D) keeps x = (A y + B)/(C y + D);
    the denominator C m + D of the answer grows with each step, so the
    descent stops once C + D passes j_max. Each step is one Euclid step on
    both ends: O(log) steps of integer floor division.
    """
    (ln, ld), lo_open, (hn, hd), hi_open = sector
    if ln * hd > hn * ld or (ln * hd == hn * ld and (lo_open or hi_open)):
        return None
    A, B, C, D = 1, 0, 0, 1
    while True:
        m = ln // ld + 1 if lo_open else -(-ln // ld)
        if m * hd < hn or (m * hd == hn and not hi_open):
            j = C * m + D
            return (j, A * m + B) if j <= j_max else None
        n = m - 1
        A, B, C, D = A * n + B, A, C * n + D, C
        if C + D > j_max:
            return None
        (ln, ld), lo_open, (hn, hd), hi_open = (
            (hd, hn - n * hd), hi_open, (ld, ln - n * ld), lo_open
        )


def local_diameter_lines(
    edge: tuple[Sequence[int], Sequence[int]],
    vertex: Sequence[int],
    normal: Sequence[int],
) -> list[LatticeLine]:
    """Up to three locally maximal lattice lines through `vertex` in conv{edge, vertex}.

    `normal` must be the outward normal of the edge within the triangle, so the
    edge sits on its maximal level and the vertex on its minimal one. Each
    candidate point is the lowest lattice point of the triangle off all
    previously found lines (ties broken toward the lexicographically smallest
    point). Returns the found lines in discovery order; the first one always
    maximizes the lattice point count among lines through the vertex.

    With the primitive normal a and (s, u) = level_anchor(a), a unimodular
    basis, every lattice point is w = v + j s + k u with j = <a, w - v> its
    level above v. The triangle is the cone of points with j >= 1 between the
    slopes k/j of its two edges, cut off at j <= J = <a, p - v>. Its lowest
    point is the smallest-denominator fraction in that slope interval; a
    pick splits its sector into two halves open at the pick's slope, since
    every point of that slope lies on the pick's line, and the next pick is
    the lowest of the sectors' lowest points. Three picks take at most five
    continued-fraction descents, O(log) integer steps each.
    """
    p, q = (as_point(edge[0]), as_point(edge[1]))
    v = as_point(vertex)
    a = as_point(normal)
    if len(v) != 2 or len(p) != 2 or len(q) != 2 or len(a) != 2:
        raise ValidationError("local diameter search is 2-dimensional")
    g = gcd(*a)
    if g == 0:
        raise ValidationError("normal must be nonzero")
    a = (a[0] // g, a[1] // g)
    cross = (p[0] - v[0]) * (q[1] - v[1]) - (p[1] - v[1]) * (q[0] - v[0])
    if cross == 0:
        return _collinear_case(v, p, q)
    level_p = a[0] * p[0] + a[1] * p[1]
    level_q = a[0] * q[0] + a[1] * q[1]
    level_v = a[0] * v[0] + a[1] * v[1]
    if level_p != level_q:
        raise ValidationError("normal is not perpendicular to the edge")
    if level_p <= level_v:
        raise ValidationError("normal must point from the vertex toward the edge")
    (sx, sy), step = level_anchor(a)
    ux, uy = step.vec
    det = sx * uy - sy * ux  # +-1: {s, u} is unimodular
    # k of a point w = v + j s + k u is det(s, w - v) / det(s, u)
    kp = det * (sx * (p[1] - v[1]) - sy * (p[0] - v[0]))
    kq = det * (sx * (q[1] - v[1]) - sy * (q[0] - v[0]))
    J = level_p - level_v
    # (lowest point, sector) for each sector that holds a point
    sectors: list[tuple[tuple[int, int], tuple]] = []

    def add(sector: tuple) -> None:
        w = _lowest_in_sector(sector, J)
        if w is not None:
            sectors.append((w, sector))

    add(((min(kp, kq), J), False, (max(kp, kq), J), False))
    found: list[tuple[int, int]] = []
    while sectors and len(found) < 3:
        best = min(sectors, key=lambda entry: entry[0])
        sectors.remove(best)
        (j, k), (lo, lo_open, hi, hi_open) = best
        found.append((j, k))
        if len(found) < 3:
            add((lo, lo_open, (k, j), True))
            add(((k, j), True, hi, hi_open))
    return [
        LatticeLine(v, Direction((j * sx + k * ux, j * sy + k * uy)))
        for j, k in found
    ]


def _chord_window(
    halfplanes: list[tuple[Point, int]],
    vertices: tuple[Point, ...],
    u: Direction,
    anchor: Point,
    min_chord: int,
) -> range:
    """Levels beta of the lattice lines anchor*beta + k*u whose chord through
    the polygon is at least min_chord, within the vertex level range.

    The halfplanes bound k by U(beta) = min over <n,u> > 0 and L(beta) = max
    over <n,u> < 0, each linear in beta. The chord U - L is at least m
    exactly when every (upper, lower) pair satisfies U_i - L_j >= m: one
    linear inequality in beta per pair, solved with floor divisions after
    clearing the positive denominator t_i * |t_j|. A level outside the
    window holds at most m lattice points, and one inside holds at least m
    (the floor/+1 sandwich).
    """
    a = (-u.vec[1], u.vec[0])
    levels = [a[0] * v[0] + a[1] * v[1] for v in vertices]
    lo, hi = min(levels), max(levels)
    upper: list[tuple[int, int, int]] = []
    lower: list[tuple[int, int, int]] = []
    for (nx, ny), c in halfplanes:
        t = nx * u.vec[0] + ny * u.vec[1]
        e = nx * anchor[0] + ny * anchor[1]  # <n, anchor*beta> = beta * e
        if t > 0:
            upper.append((t, e, c))
        elif t < 0:
            lower.append((t, e, c))
    for ti, ei, ci in upper:
        for tj, ej, cj in lower:
            # (ci - beta*ei)/ti - (cj - beta*ej)/tj >= m, times ti*|tj|
            A = ti * ej - tj * ei
            B = min_chord * ti * tj + ti * cj - tj * ci
            if A > 0:
                hi = min(hi, B // A)  # beta <= floor(B / A)
            elif A < 0:
                lo = max(lo, -(B // -A))  # beta >= ceil(B / A)
            elif B < 0:
                return range(0)
    return range(lo, hi + 1)


def _direction_sweep(
    halfplanes: list[tuple[Point, int]],
    vertices: tuple[Point, ...],
    u: Direction,
    best: int,
) -> Iterator[Point]:
    """Anchors of the lattice lines of direction u that meet the polygon in
    exactly best lattice points, in increasing level.

    best must be the largest count of a line of direction u; only the levels
    of the best - 1 chord window can hold it.
    """
    anchor, step = level_anchor((-u.vec[1], u.vec[0]))
    assert step.vec == u.vec
    for beta in _chord_window(halfplanes, vertices, u, anchor, best - 1):
        x0 = (anchor[0] * beta, anchor[1] * beta)
        iv = level_interval(halfplanes, x0, u.vec)
        if iv is not None and iv[1] - iv[0] + 1 == best:
            yield x0


def diameter_levels(P: Polygon2) -> tuple[int, list[tuple[Direction, list[Point]]]]:
    """The best lattice count of a line through P and, per diameter direction
    in sorted order, the anchors of the levels holding that count.

    The anchors are lattice points of the diameter lines, in increasing
    level; no diameter line is built.
    """
    halfplanes = P.halfplanes()
    candidates: set[LatticeLine] = set()
    for pair in opposite_pairs(P):
        candidates.update(
            local_diameter_lines(pair.edge, pair.vertex, pair.normal)
        )
    best = 0
    directions: set[Direction] = set()
    for line in candidates:
        klo, khi = level_interval(halfplanes, line.base, line.dir.vec)
        count = khi - klo + 1
        if count > best:
            best, directions = count, set()
        if count == best:
            directions.add(line.dir)
    return best, [
        (u, list(_direction_sweep(halfplanes, P.vertices, u, best)))
        for u in sorted(directions)
    ]


def compute_diameter(P: Polygon2) -> DiameterReport:
    """Exact lattice diameter of P with all diameter lines and directions."""
    best, levels = diameter_levels(P)
    lines = [LatticeLine(x0, u) for u, anchors in levels for x0 in anchors]
    lines.sort(key=lambda L: (L.dir.vec, L.base))
    reps: list[ClippedSegment] = []
    seen: set[Direction] = set()
    for line in lines:
        if line.dir not in seen:
            seen.add(line.dir)
            clip = clip_line(P, line)
            assert clip is not None
            reps.append(clip)
    return DiameterReport(
        ldiam=best - 1,
        lines=tuple(lines),
        directions=tuple(u for u, _ in levels),
        representative_segments=tuple(reps),
    )


def u_diameter_line(P: Polygon2, u: Direction | Sequence[int]) -> LatticeLine:
    """A lattice line of direction u maximizing |line ∩ P ∩ Z^2|.

    The chord length of P across the levels of u is concave and piecewise
    linear with bends only at vertex levels, so its maximum C is reached on
    the line through some vertex, which is an endpoint of that chord. That
    line holds floor(C) + 1 lattice points and no line of direction u holds
    more, so the best count is the largest over the n vertex lines. The sweep
    of its chord window stops at the first level holding it, so ties resolve
    to the smallest level of the perpendicular functional.
    """
    d = u if isinstance(u, Direction) else Direction(u)
    if d.dim != 2:
        raise ValidationError("u_diameter_line is 2-dimensional")
    halfplanes = P.halfplanes()
    best = 0
    for v in P.vertices:
        klo, khi = level_interval(halfplanes, v, d.vec)
        best = max(best, khi - klo + 1)
    return LatticeLine(next(_direction_sweep(halfplanes, P.vertices, d, best)), d)
