"""Lattice diameter of a convex lattice polygon, exactly and fast.

The algorithm works per (edge, opposite vertex) pair: inside the triangle they
span, up to three candidate lines through the vertex are located greedily,
each through the lowest lattice point (in the levels of the edge normal) not
already covered by an earlier candidate line. In the unimodular basis of the
level functional, that point is the smallest-denominator fraction of a slope
interval, found by a continued-fraction descent in O(log) integer steps, so
the cost grows with the bit length of the vertices, not with their size.

The same scan serves P and all its dilates kP. The triangle of kP is the
slope cone of P's triangle cut at level kJ instead of J, and picks come in
increasing level, so the candidates of kP are a prefix of the cone's first
three picks: those with kmin = ceil(j / J) <= k, and kmin is 1 or 2.
dilation_profile runs the scan once and records each candidate line with
its kmin and its chord c = num/den through P, read once in integers;
through a vertex of kP the line holds floor(k num / den) + 1 points. So the
best count and the diameter directions of kP are a max over a fixed list,
and compute_diameter reads those of P at k = 1.

Per diameter direction, the vertex levels split the level range into
pieces on which the upper and lower bounds U and L of the chord are single
linear functions of the level. Only the levels of a piece's best - 1 chord
window can hold the best count, and every one of them holds best - 1 or
best points. compute_diameter sweeps those windows, one kernel call per
level, to list the diameter lines (some pass through no vertex at all). The
dilates count them in closed form instead: over a piece, the count is
sum floor(U) - sum ceil(L) + (2 - best) |piece|, two Euclid-like floor sums,
so the cost does not grow with k. All of it is integer arithmetic, and
every clip of a line goes through core.line_bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator, NamedTuple, Sequence

from .core import (
    Direction,
    Point,
    Polygon2,
    as_point,
    floor_sum,
    level_interval,
    line_bounds,
)
from .errors import ValidationError
from .lines import ClippedSegment, LatticeLine, clip_line, level_anchor

__all__ = [
    "OppositePair",
    "DiameterReport",
    "opposite_pairs",
    "local_diameter_lines",
    "ProfileRecord",
    "DilationProfile",
    "dilation_profile",
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


def _cone_picks(
    v: Point, p: Point, q: Point, a: Point
) -> tuple[int, list[tuple[int, Point]]]:
    """The level J of the edge pq above v, and the level j and primitive
    vector w - v of each of the first three picks of the cone from v.

    The cone is the triangle conv{v, p, q} without its level cap: the
    triangle of the dilate kP is the same slope cone cut at level kJ, and
    picks come in increasing level, so the picks of kP are the picks with
    j <= kJ. No pick lies above level 2J: the two edge slopes have
    denominators dividing J, so a sector closed at an edge holds a point of
    level at most J, and an open sector between two picks holds their
    mediant, of level at most 2J. So the descents are capped at 2J, and every
    pick of every dilate is found. a must be primitive and v off the line pq.
    """
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
        w = _lowest_in_sector(sector, 2 * J)
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
    # (j, k) is a reduced fraction and {s, u} unimodular: j s + k u is primitive
    return J, [(j, (j * sx + k * ux, j * sy + k * uy)) for j, k in found]


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
    continued-fraction descents, O(log) integer steps each. The picks are
    those of the uncapped cone (_cone_picks) up to level J.
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
    J, picks = _cone_picks(v, p, q, a)
    return [LatticeLine(v, Direction(w)) for j, w in picks if j <= J]


LineKey = tuple[Point, int]  # a direction and the perpendicular level of its line


def _polygon_picks(P: Polygon2) -> Iterator[tuple[LineKey, Point, Point, int]]:
    """(line, vertex v, direction d, kmin) for each pick of each opposite
    pair of P.

    d is the pick's primitive vector with canonical sign, and kmin the least
    dilation factor k whose triangle holds the pick: kmin = ceil(j / J).
    """
    for pair in opposite_pairs(P):
        p, q = pair.edge
        v = pair.vertex
        J, picks = _cone_picks(v, p, q, pair.normal)
        for j, (x, y) in picks:
            d = (x, y) if x > 0 or (x == 0 and y > 0) else (-x, -y)
            yield (d, d[0] * v[1] - d[1] * v[0]), v, d, -(-j // J)


Side = tuple[int, int, int]  # (t, e, c) of a halfplane across the levels of u


def _chord_clip(lo: int, hi: int, upper: Side, lower: Side, min_chord: int) -> tuple[int, int]:
    """The levels of [lo, hi] where the chord from one lower to one upper
    halfplane is at least min_chord; an empty range has lo > hi.

    On the line anchor*beta + k*u, the halfplane (n, c) with t = <n, u> and
    e = <n, anchor> bounds k by (c - beta*e) / t: from above when t > 0, from
    below when t < 0. The chord (ci - beta*ei)/ti - (cj - beta*ej)/tj >= m is
    one linear inequality A*beta <= B, cleared of the positive denominator
    ti * |tj| and solved with floor divisions.
    """
    ti, ei, ci = upper
    tj, ej, cj = lower
    A = ti * ej - tj * ei
    B = min_chord * ti * tj + ti * cj - tj * ci
    if A > 0:
        return lo, min(hi, B // A)  # beta <= floor(B / A)
    if A < 0:
        return max(lo, -(B // -A)), hi  # beta >= ceil(B / A)
    return (lo, hi) if B >= 0 else (lo, lo - 1)


class ProfileRecord(NamedTuple):
    """A candidate line of every dilate kP with k >= kmin.

    The line passes through k * vertex with the primitive direction, and v is
    an end of P's chord on it, of length chord = (num, den) in units of the
    direction. So it holds floor(k * num / den) + 1 lattice points of kP.
    """

    vertex: Point
    direction: Point
    kmin: int
    chord: tuple[int, int]


Piece = tuple[int, int, bool, Side, Side]


def _level_pieces(
    vertices: tuple[Point, ...], halfplanes: list[tuple[Point, int]], u: Point
) -> tuple[Point, list[Piece]]:
    """The level anchor of u, and the vertex level range of the polygon in
    direction u split at the vertex levels: (lo, hi, closed, upper, lower)
    per piece, on which U and L are the single linear functions of the
    sides upper and lower.

    The side of the halfplane (n, c) is (t, e, c) with t = <n, u> and
    e = <n, anchor>. Along its edge the level grows by t, so the edges with
    t > 0 bound the chord from above and rise, and those with t < 0 bound it
    from below and fall. The pieces are the overlaps of the level ranges of
    an upper and a lower edge, in increasing level; each is half-open
    [lo, hi), except the topmost, which is closed. Edges parallel to u bound
    no level range and are skipped.
    """
    a = (-u[1], u[0])
    anchor, _ = level_anchor(a)
    levels = [a[0] * x + a[1] * y for x, y in vertices]
    upper, lower = [], []
    # edge i runs from vertex i to vertex i + 1
    for ((nx, ny), c), start, end in zip(halfplanes, levels, levels[1:] + levels[:1]):
        t = nx * u[0] + ny * u[1]
        side = (t, nx * anchor[0] + ny * anchor[1], c)
        if t > 0:
            upper.append((start, end, side))
        elif t < 0:
            lower.append((end, start, side))
    top = max(levels)
    pieces = []
    for lo_u, hi_u, up in upper:
        for lo_l, hi_l, low in lower:
            lo, hi = max(lo_u, lo_l), min(hi_u, hi_l)
            if lo < hi:
                pieces.append((lo, hi, hi == top, up, low))
    pieces.sort()
    return anchor, pieces


def _diameter_level_count(pieces: list[Piece], k: int, best: int) -> int:
    """The number of levels of kP in the direction of `pieces` that hold
    best lattice points, where best is the largest count in that direction.

    Scaling P by k scales every level and every halfplane constant c by k.
    Inside the best - 1 chord window every level holds best - 1 or best
    points (the floor/+1 sandwich), and outside it at most best - 1. A level
    holds floor(U) + floor(-L) + 1 points, so the count over a window piece
    of n levels is sum floor(U) + sum floor(-L) + (2 - best) n, two floor
    sums. O(n^2 log) integer steps, whatever the size of k.
    """
    total = 0
    for lo, hi, closed, (ti, ei, ci), (tj, ej, cj) in pieces:
        ci, cj = k * ci, k * cj
        last = k * hi if closed else k * hi - 1
        first, last = _chord_clip(k * lo, last, (ti, ei, ci), (tj, ej, cj), best - 1)
        n = last - first + 1
        if n > 0:
            total += (
                floor_sum(n, ti, -ei, ci - first * ei)
                + floor_sum(n, -tj, -ej, cj - first * ej)
                + (2 - best) * n
            )
    return total


def _direction_sweep(
    halfplanes: list[tuple[Point, int]],
    levels: tuple[Point, list[Piece]],
    u: Point,
    best: int,
) -> Iterator[Point]:
    """Anchors of the lattice lines of direction u that meet the polygon in
    exactly best lattice points, in increasing level.

    best must be the largest count of a line of direction u, and levels the
    level anchor and pieces of u (_level_pieces); only the levels of the
    best - 1 chord window of each piece can hold it, and each such level
    costs one kernel call.
    """
    anchor, pieces = levels
    for lo, hi, closed, upper, lower in pieces:
        first, last = _chord_clip(lo, hi if closed else hi - 1, upper, lower, best - 1)
        for beta in range(first, last + 1):
            x0 = (anchor[0] * beta, anchor[1] * beta)
            iv = level_interval(halfplanes, x0, u)
            if iv is not None and iv[1] - iv[0] + 1 == best:
                yield x0


class DilationProfile:
    """The candidate lines of all dilates kP from one local scan of P.

    The triangle of kP is the slope cone of P's triangle cut at level kJ, so
    the candidates of kP are the records with kmin <= k. best(k) and the
    diameter directions of kP are a max over the records; count(k) sums the
    closed-form level count of each direction. The level pieces of a
    direction depend on P alone and are kept once computed.
    """

    def __init__(
        self,
        P: Polygon2,
        halfplanes: list[tuple[Point, int]],
        records: tuple[ProfileRecord, ...],
    ):
        self.polygon = P
        self.halfplanes = halfplanes
        self.records = records
        self._pieces: dict[Point, tuple[Point, list[Piece]]] = {}

    def best(self, k: int) -> tuple[int, list[Point]]:
        """The best lattice count of a line through kP, and the sorted
        primitive vectors of the directions attaining it."""
        if not isinstance(k, int) or k < 1:
            raise ValidationError("dilation factor must be a positive int")
        best = 0
        directions: set[Point] = set()
        for _, d, kmin, (num, den) in self.records:
            if kmin <= k:
                count = k * num // den + 1
                if count > best:
                    best, directions = count, set()
                if count == best:
                    directions.add(d)
        return best, sorted(directions)

    def pieces(self, u: Point) -> tuple[Point, list[Piece]]:
        """The level anchor of u and the level pieces of P in direction u
        (_level_pieces), computed once."""
        levels = self._pieces.get(u)
        if levels is None:
            levels = self._pieces[u] = _level_pieces(
                self.polygon.vertices, self.halfplanes, u
            )
        return levels

    def count(self, k: int) -> int:
        """The number of lattice diameter lines of kP."""
        best, directions = self.best(k)
        return sum(
            _diameter_level_count(self.pieces(u)[1], k, best) for u in directions
        )


def _chord(halfplanes: list[tuple[Point, int]], v: Point, d: Point) -> tuple[int, int]:
    """The length num/den, in lowest terms and in units of d, of the chord
    through the polygon of the line v + t*d, for v in the polygon.

    The ends come from line_bounds, the one clipping loop, as fractions
    with positive denominators, so no Fraction is built.
    """
    ls, lt, hs, ht = line_bounds(halfplanes, v, d)
    num, den = hs * lt - ls * ht, ht * lt
    g = gcd(num, den)
    return num // g, den // g


def dilation_profile(P: Polygon2) -> DilationProfile:
    """One record per candidate line of the dilates of P, with its least
    dilation factor kmin and its chord through P, read once in integers."""
    kmins: dict[LineKey, tuple[Point, Point, int]] = {}
    for line, v, d, kmin in _polygon_picks(P):
        if line not in kmins or kmin < kmins[line][2]:
            kmins[line] = (v, d, kmin)
    halfplanes = P.halfplanes()
    return DilationProfile(P, halfplanes, tuple(
        ProfileRecord(v, d, kmin, _chord(halfplanes, v, d))
        for v, d, kmin in kmins.values()
    ))


def compute_diameter(P: Polygon2) -> DiameterReport:
    """Exact lattice diameter of P with all diameter lines and directions."""
    profile = dilation_profile(P)
    best, vectors = profile.best(1)
    directions = tuple(map(Direction, vectors))
    lines: list[LatticeLine] = []
    reps: list[ClippedSegment] = []
    for u in directions:
        sweep = _direction_sweep(profile.halfplanes, profile.pieces(u.vec), u.vec, best)
        found = sorted((LatticeLine(x0, u) for x0 in sweep), key=lambda L: L.base)
        clip = clip_line(P, found[0])
        assert clip is not None
        reps.append(clip)
        lines.extend(found)
    return DiameterReport(
        ldiam=best - 1,
        lines=tuple(lines),
        directions=directions,
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
    levels = _level_pieces(P.vertices, halfplanes, d.vec)
    return LatticeLine(next(_direction_sweep(halfplanes, levels, d.vec, best)), d)
