"""Lattice diameter of a convex lattice polygon, exactly and fast.

The algorithm works per (edge, opposite vertex) pair, the pairs found by one
rotating pointer in O(n): inside the triangle they span, up to three
candidate lines through the vertex are located greedily, each through the
lowest lattice point (in the levels of the edge normal) not already covered
by an earlier candidate line. In the unimodular basis of the level
functional, that point is the smallest-denominator fraction of a slope
interval. One continued-fraction descent of O(log) integer steps finds the
first pick and its two Farey parents, and the later picks follow from the
parents in O(1), so the cost grows with the bit length of the vertices, not
with their size.

The same scan serves P and all its dilates kP. The triangle of kP is the
slope cone of P's triangle cut at level kJ instead of J, and picks come in
increasing level, so the candidates of kP are the cone's picks with
j <= kJ. Only those with j <= J can reach the best count of kP: the edge
ends sit at level J, so the cone's first pick has j <= J, and its line
through kv holds at least k + 1 points of kP, while a pick with j > J has
chord J/j < 1 and holds at most k. So the scan stops at level J. The chord
of a pick's line through P is read from the levels: the line of a pick at
level j leaves P through the edge at level J, so c = J/j, and through a
vertex of kP the line holds floor(k c) + 1 points. A chord whose floor is
below that of the longest chord C* never reaches a best count, so the
profile's scan fixes that floor, the top, before it follows any pick, in
two phases. The first visits the cones by decreasing J with one descent
each: a cone's first pick is its lowest point, so it has the cone's
longest chord, and every chord of a cone is at most J, so the visit stops
at the first J below the largest floor found, which is then the top. The
second goes back to edge order and walks, from the kept first picks, only
the cones whose first pick reaches the top, capped at level J // top, so
it follows only the picks at the top. So the best count and the diameter
directions of kP are a max over those picks, and the dilation profile
keeps it in one table, built in one pass over them: the longest chord of
each direction whose longest chord has the top floor. They come from C*
itself: floor(k C*) is the chord window, and a shorter chord of the table
ties with C* only below its threshold K0, past which k (C* - c) >= 1, so
from the largest K0 on the directions of C* alone reach it, for
compute_diameter and the dilate counts alike.

Per diameter direction, the vertex levels split the level range into
pieces on which the upper and lower bounds U and L of the chord are single
linear functions of the level; both arcs of the boundary are monotone in
level, so one merge of them gives the pieces in O(n). Only the levels of a
piece's best - 1 chord window can hold the best count, and every one of
them holds best - 1 or best points, floor(U) + floor(-L) + 1 of them.
compute_diameter sweeps those windows to list the diameter lines (some
pass through no vertex at all), reading each level's count from the
piece's flat row with two floor divisions. The dilates count them in
closed form instead: over a window of n levels, the count is
sum floor(U) - sum ceil(L) + (2 - best) n, two Euclid-like floor sums, or
the same two floor divisions when n = 1, so the cost does not grow with k.
The chord window of a piece at any k comes from three clip constants that
do not depend on k, kept in the row too: the sweep clips each piece at
(1, best - 1) (_chord_clip), and one kernel (_piece_counts) clips and
counts a piece for a run of (k, m) pairs. A range of dilates is counted in
one pass, which groups the ks by their diameter directions and passes, to
each live piece of those directions, the pairs of the whole group that it
admits: a piece whose longest chord c is below C* has an empty window once
k (C* - c) >= 1, as with K0, so each piece keeps an integer bound K_p on
the ks it can count, and a k costs O(live pieces), not O(n). A lone k is a
range of one. The fit's period is the denominator of the longest chord
of P, which the pass that builds the chord table keeps. All of
it is integer arithmetic, and this module clips no line itself: the
representative segments' clip_line goes through core.line_bounds. The
level anchor and the piece rows live in core, which lists the lattice
points of a polygon from the same rows.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd
from operator import itemgetter
from typing import Collection, Iterable, Iterator, Sequence

from .core import (
    Direction,
    Piece,
    Point,
    Polygon2,
    _level_pieces,
    as_point,
    floor_sum,
    level_anchor,
)

# Not called here: perfbench's self-test and the tests' kernel counters look
# the kernel up by the name diameter.level_interval, so the name must resolve.
from .core import level_interval  # noqa: F401
from .errors import ValidationError
from .frozen import Frozen
from .lines import ClippedSegment, LatticeLine, clip_line

__all__ = [
    "DiameterReport",
    "local_diameter_lines",
    "DilationProfile",
    "dilation_profile",
    "compute_diameter",
]


class DiameterReport(Frozen):
    """Diameter value with every attaining line, grouped data precomputed.

    lines hold all lattice lines meeting the polygon in ldiam + 1 lattice
    points, sorted by (direction, base); directions are deduplicated and
    sorted; representative_segments hold one exact clip per direction.
    """

    _fields = ("ldiam", "lines", "directions", "representative_segments")

    def __init__(
        self, ldiam: int, lines: tuple[LatticeLine, ...],
        directions: tuple[Direction, ...],
        representative_segments: tuple[ClippedSegment, ...],
    ):
        object.__setattr__(self, "ldiam", ldiam)
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "representative_segments", representative_segments)


def _antipodes(
    vertices: tuple[Point, ...]
) -> Iterator[tuple[Point, Point, Point, list[Point]]]:
    """(p, q, a, opposite) for each edge pq of the strictly convex polygon
    with these counter-clockwise vertices, in edge order: a is the edge's
    primitive outward normal and opposite the vertices minimizing it, in
    vertex-index order: one, or two when an edge is parallel to pq.

    As the edges turn counter-clockwise, so do their normals, and the first
    vertex minimizing the normal moves forward with them: along the vertices
    from the previous edge's minimizer up to the new one, the new normal
    strictly decreases. So one pointer, started at the end of the first edge (a
    maximizer of its normal) and moved forward while the next vertex is
    lower, finds every edge's minimizer in O(n) moves over the whole polygon.
    """
    n = len(vertices)
    i = 1
    for e in range(n):
        p, q = vertices[e], vertices[(e + 1) % n]
        ax, ay = q[1] - p[1], p[0] - q[0]  # outward for CCW
        g = gcd(ax, ay)
        ax, ay = ax // g, ay // g
        x, y = vertices[i % n]
        low = ax * x + ay * y
        while True:
            x, y = vertices[(i + 1) % n]
            after = ax * x + ay * y
            if after >= low:
                break
            i, low = i + 1, after
        if after == low:  # the edge after the minimizer is parallel to pq
            first, second = sorted((i % n, (i + 1) % n))
            opposite = [vertices[first], vertices[second]]
        else:
            opposite = [vertices[i % n]]
        yield p, q, (ax, ay), opposite


def _collinear_case(v: Point, p: Point, q: Point) -> list[LatticeLine]:
    # Degenerate triangle: the hull is a segment (or a point). At most one
    # candidate line exists, the affine hull, provided it has a point besides v.
    for w in (p, q):
        if w != v:
            return [LatticeLine(v, Direction((w[0] - v[0], w[1] - v[1])))]
    return []


Pick = tuple[int, int]  # a point v + j s + k u of a cone, as (j, k)


def _descend(lo: int, hi: int, den: int) -> tuple[Pick, Pick, Pick]:
    """The lowest point (j, k) of the closed slope interval [lo/den, hi/den],
    with lo < hi and den > 0, and its two Farey parents, the lower first.

    The lowest point is the smallest-denominator fraction k/j of the
    interval, found by a continued fraction (Stern-Brocot) descent: take the
    smallest integer of the interval if there is one, else write
    x = n + 1/y with n = floor(lo) and descend into the interval of y. The
    matrix (A, B, C, D) keeps x = (A y + B)/(C y + D), so the answer, the
    smallest integer m of the last interval, is (A m + B)/(C m + D), and its
    parents are the images of those of m, m - 1 and 1/0: the fractions
    (A (m - 1) + B)/(C (m - 1) + D) and A/C, which may be 1/0. Each step
    reverses the order, so the determinant AD - BC says which is lower.
    Both ends stay closed, since an end can only be an integer at the stop.
    Each step is one Euclid step on both ends: O(log) steps of integer floor
    division. Points are (j, k), parents included, with 1/0 as (0, 1).
    """
    ln, ld, hn, hd = lo, den, hi, den
    A, B, C, D = 1, 0, 0, 1
    while True:
        m = -(-ln // ld)
        if m * hd <= hn:
            outer = (C * (m - 1) + D, A * (m - 1) + B)
            if A * D - B * C > 0:
                return (C * m + D, A * m + B), outer, (C, A)
            return (C * m + D, A * m + B), (C, A), outer
        n = m - 1
        A, B, C, D = A * n + B, A, C * n + D, C
        ln, ld, hn, hd = hd, hn - n * hd, ld, ln - n * ld


def _follow(
    outer: Pick, w: Pick, bound: Pick, bound_open: bool, side: int, j_max: int
) -> tuple[Pick, Pick] | None:
    """The lowest point with j <= j_max strictly between the pick w and the
    slope bound of its sector, and the parent it leaves on the bound's side;
    None when there is none. side is 1 for the half below w and -1 for the
    half above.

    outer is w's Farey parent on the bound's side, and it lies outside the
    sector (or on its open bound). The points strictly between two Farey
    neighbours are their positive combinations, so the lowest point between
    w and the bound is outer + t w for the least t >= 1 past the bound: one
    floor division. Its parents are outer + (t - 1) w and w.
    """
    (oj, ok), (j, k), (bj, bk) = outer, w, bound
    d = side * (k * bj - j * bk)  # 0 when w is on the bound: the half is empty
    if d <= 0:
        return None
    n = side * (bk * oj - bj * ok)  # how far outer lies beyond the bound
    t = n // d + 1 if bound_open else max(1, -(-n // d))
    point = (oj + t * j, ok + t * k)
    if point[0] > j_max:
        return None
    return point, (point[0] - j, point[1] - k)


def _level_picks(
    first: tuple[Pick, Pick, Pick], J: int, lo: int, hi: int, j_max: int
) -> list[Pick]:
    """The first three picks (j, k) of the cone of slopes k/j in
    [lo/J, hi/J], lo < hi, in pick order, with j <= j_max: each the lowest
    point, by (j, k), of the cone off the lines of the earlier picks. Picks
    come in increasing j, so these are a prefix of the uncapped cone's
    picks. first is the cone's first pick and its Farey parents,
    _descend(lo, hi, J), and its level must be at most j_max. The local
    scan caps the picks at level J, since no pick past it can reach a best
    count (_cone_picks); the profile caps them at J // top, so that it
    follows only the picks at the top (_polygon_picks).

    A pick splits its sector into the two halves open at its slope. The
    lowest point of each half comes from the pick's Farey parents
    (_follow), and so do its own parents, so every pick after the first
    costs O(1).
    """
    w, left, right = first
    # (pick, its lower parent, its upper parent, sector: lo, lo_open, hi, hi_open)
    sectors = [(w, left, right, (J, lo), False, (J, hi), False)]
    picks: list[Pick] = []
    while sectors:
        entry = min(sectors)
        sectors.remove(entry)
        w, left, right, lo_b, lo_open, hi_b, hi_open = entry
        picks.append(w)
        if len(picks) == 3:
            break
        below = _follow(left, w, lo_b, lo_open, 1, j_max)
        if below is not None:
            sectors.append((below[0], below[1], w, lo_b, lo_open, w, True))
        above = _follow(right, w, hi_b, hi_open, -1, j_max)
        if above is not None:
            sectors.append((above[0], w, above[1], w, True, hi_b, hi_open))
    return picks


def _cone_slopes(
    v: Point, p: Point, q: Point, basis: tuple[Point, Point]
) -> tuple[int, int]:
    """The slope interval (lo, hi), lo < hi, of the cone of the edge pq
    above v, whose slopes k/j run over [lo/J, hi/J]: the k coordinates of
    p and q in the unimodular basis = level_anchor(a) of the edge's
    primitive normal a, the lower first. v must be off the line pq."""
    (sx, sy), (ux, uy) = basis
    det = sx * uy - sy * ux  # +-1: {s, u} is unimodular
    # k of a point w = v + j s + k u is det(s, w - v) / det(s, u)
    kp = det * (sx * (p[1] - v[1]) - sy * (p[0] - v[0]))
    kq = det * (sx * (q[1] - v[1]) - sy * (q[0] - v[0]))
    return (kp, kq) if kp < kq else (kq, kp)


def _cone_picks(
    v: Point, p: Point, q: Point, a: Point
) -> tuple[int, list[tuple[int, Point]]]:
    """The level J of the edge pq above v, and the level j and primitive
    vector w - v of each of the first three picks of the triangle
    conv{v, p, q}, the picks with j <= J.

    The triangle of the dilate kP is the same slope cone cut at level kJ,
    and picks come in increasing level, so the picks of kP are the cone's
    picks with j <= kJ. Those past level J never reach the best count of
    kP. The edge ends p and q sit at level J, so the first pick, the
    smallest-denominator slope of the cone, has j <= J and chord J/j >= 1:
    through kv it holds at least k + 1 points of kP. A pick with j > J has
    chord J/j < 1, so it holds at most k. So one descent (_descend) and one
    walk from its pick (_level_picks), capped at J, serve every dilate. a
    must be primitive and v off the line pq.
    """
    level_p = a[0] * p[0] + a[1] * p[1]
    level_q = a[0] * q[0] + a[1] * q[1]
    level_v = a[0] * v[0] + a[1] * v[1]
    if level_p != level_q:
        raise ValidationError("normal is not perpendicular to the edge")
    if level_p <= level_v:
        raise ValidationError("normal must point from the vertex toward the edge")
    J = level_p - level_v
    basis = level_anchor(a)
    lo, hi = _cone_slopes(v, p, q, basis)
    (sx, sy), (ux, uy) = basis
    # (j, k) is a reduced fraction and {s, u} unimodular: j s + k u is primitive
    return J, [
        (j, (j * sx + k * ux, j * sy + k * uy))
        for j, k in _level_picks(_descend(lo, hi, J), J, lo, hi, J)
    ]


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
    the lowest of the sectors' lowest points. Three picks take one
    continued-fraction descent of O(log) integer steps, for the first, and
    O(1) steps each for the others (_descend, _level_picks, _cone_picks).
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
    _, picks = _cone_picks(v, p, q, a)
    return [LatticeLine(v, Direction(w)) for _, w in picks]


def _polygon_picks(P: Polygon2) -> Iterator[tuple[Point, int, int]]:
    """(direction d, level j, level J) for each pick of each (edge, opposite
    vertex) cone of P whose chord J/j has the top floor, the largest floor
    J // j of any pick: in edge order, and in pick order within a cone.

    d is the pick's primitive vector with canonical sign, j its level above
    the cone's vertex and J the edge's, in the edge's primitive normal. P
    lies between the two levels, so the pick's line leaves P through the
    edge, and J/j is P's whole chord on that line, whichever cone finds it.
    A chord whose floor is below the top never reaches a best count
    (DilationProfile), so the scan fixes the top before it follows any
    pick, in two phases.

    The first visits the cones by decreasing J, ties by edge order, with
    one descent each (_descend). A cone's first pick is its lowest point,
    so it has the cone's longest chord, and every chord of a cone is at
    most J, since j >= 1: the visit stops at the first cone whose J is
    below the largest floor J // j of the first picks so far, which is then
    the top, and it keeps each cone whose first pick reaches that running
    top, with the pick and its parents. The second goes back to edge order
    and walks (_level_picks), from the kept pick and parents, each kept
    cone whose first pick reaches the top, capped at level J // top, so
    every pick it follows is at the top.
    """
    edges = list(_antipodes(P.vertices))
    # J of each edge: its two opposite vertices share their level
    levels = [a[0] * (p[0] - o[0][0]) + a[1] * (p[1] - o[0][1]) for p, _, a, o in edges]
    top = 0
    kept = []
    # by decreasing J, ties in edge order, since the sort is stable
    for e in sorted(range(len(edges)), key=levels.__getitem__, reverse=True):
        J = levels[e]
        if J < top:
            break
        p, q, a, opposite = edges[e]
        basis = level_anchor(a)
        for v in opposite:
            lo, hi = _cone_slopes(v, p, q, basis)
            first = _descend(lo, hi, J)
            whole = J // first[0][0]
            if whole >= top:  # a cone below the running top is below the top
                top = whole
                kept.append((e, J, basis, lo, hi, first))
    kept.sort(key=itemgetter(0))  # stable: a cone pair keeps its vertex order
    for _, J, basis, lo, hi, first in kept:
        j_max = J // top
        if first[0][0] <= j_max:
            (sx, sy), (ux, uy) = basis
            for j, k in _level_picks(first, J, lo, hi, j_max):
                x, y = j * sx + k * ux, j * sy + k * uy
                yield (x, y) if x > 0 or (x == 0 and y > 0) else (-x, -y), j, J


def _chord_clip(piece: Piece, k: int, m: int) -> tuple[int, int]:
    """The levels first..last of the piece of kP where its chord is at least
    m; the window is empty when first > last.

    The piece of kP runs from level k * lo to k * hi - cut. Its k-free
    constants (_level_pieces) give the chord inequality A*beta <= B with
    B = m * ti * tj + k * (ti * cj - tj * ci), since scaling P by k scales
    the halfplane constants ci and cj by k; it is solved with floor
    divisions. The sweep reads it at (1, best - 1), and _piece_counts
    repeats it inline for each (k, m) pair of a batch.
    """
    lo, hi, cut, A, titj, C, _, _, _, _, _, _ = piece
    first, last = k * lo, k * hi - cut
    B = m * titj + k * C
    if A > 0:
        x = B // A  # beta <= floor(B / A)
        if x < last:
            last = x
    elif A < 0:
        x = -(B // -A)  # beta >= ceil(B / A)
        if x > first:
            first = x
    elif B < 0:
        return first, first - 1
    return first, last


def _piece_counts(
    piece: Piece, pairs: Iterable[tuple[int, int]], totals: dict[int, int]
) -> None:
    """Add to totals[k], for each pair (k, m), the lattice points of kP on
    the levels of the piece's m chord window (_chord_clip).

    A level holds floor(U) + floor(-L) + 1 points, so a window of n levels
    from first holds sum floor(U) + sum floor(-L) + (1 - m) n points beyond
    m per level: two floor sums, or two floor divisions when n = 1. This is
    the one count kernel, passed the pairs of a group of ks
    (DilationProfile._count).
    """
    lo, hi, cut, A, titj, C, ti, nei, ci, ntj, nej, cj = piece
    for k, m in pairs:
        # the clip of _chord_clip
        first, last = k * lo, k * hi - cut
        B = m * titj + k * C
        if A > 0:
            x = B // A
            if x < last:
                last = x
        elif A < 0:
            x = -(B // -A)
            if x > first:
                first = x
        elif B < 0:
            continue
        n = last - first + 1
        if n == 1:
            totals[k] += (
                (k * ci + first * nei) // ti + (k * cj + first * nej) // ntj + 1 - m
            )
        elif n > 1:
            totals[k] += (
                floor_sum(n, ti, nei, k * ci + first * nei)
                + floor_sum(n, ntj, nej, k * cj + first * nej)
                + (1 - m) * n
            )


def _direction_sweep(levels: tuple[Point, list[Piece]], best: int) -> Iterator[Point]:
    """Anchors of the lattice lines of direction u that meet the polygon in
    exactly best lattice points, in increasing level.

    best must be the largest count of a line of direction u, and levels the
    level anchor and pieces of u (_level_pieces); only the levels of the
    best - 1 chord window of each piece can hold it. A level beta of a piece
    holds floor(U) + floor(-L) + 1 points, read from the piece's row with
    two floor divisions, as DilationProfile._count reads a one-level window
    at k = 1: O(1) per level, with no clip.
    """
    anchor, pieces = levels
    for piece in pieces:
        _, _, _, _, _, _, ti, nei, ci, ntj, nej, cj = piece
        first, last = _chord_clip(piece, 1, best - 1)
        for beta in range(first, last + 1):
            if (ci + beta * nei) // ti + (cj + beta * nej) // ntj + 1 == best:
                yield anchor[0] * beta, anchor[1] * beta


class DilationProfile:
    """The best counts, diameter directions and diameter line counts of all
    dilates kP, from one local scan of P.

    Every pick of the scan (_polygon_picks) is a candidate line of every
    dilate kP, and a candidate of kP that is no pick holds fewer points
    than the best: past level J it holds at most k (_cone_picks), and below
    the top floor it has a chord whose floor is below floor(C). Every
    pick of one direction d has the same chord, the longest of P in
    direction d: a chord of direction d spans at most the width J of P
    across the pick's edge, so it is at most J / <a, d> = J/j, a the edge's
    normal, and the pick's line leaves P through that edge, so its chord is
    J/j. A chord c whose floor is below floor(C), C the longest chord of
    all, holds fewer points than C at every k:
    k c < k floor(C) <= floor(k C). The scan yields only the picks whose
    chord has the floor floor(C), so the profile keeps one table, built in
    one pass over them, of the chord of each of their directions, in lowest
    terms, and the same pass keeps longest_chord, C as (num, den), whose
    denominator is the fit's period. C equals C*, the longest chord of P
    in any lattice direction: through kv, the line of C*
    holds floor(k C*) + 1 points of kP and no line of kP holds more, so the
    chord window of kP is floor(k C*), and a shorter chord c of the table
    reaches it only while k < K0(c) = ceil(1 / (C* - c)): from there on
    k (C* - c) >= 1. So each k from the largest K0 on has the directions of
    C* alone, and only the ks below it read the table (_directions); best(k)
    and the counts take the window from there. The counts then sum the
    closed-form level count of each diameter direction over its level
    pieces, built once per direction, with the pieces outer and the ks that
    share the directions inner, every k past the largest K0 in one group;
    count(k) is counts((k,))[0]. Each count is kept.

    The same argument bounds each piece: its chord is linear in the level,
    so its longest chord c is at one of its ends, and once k (C* - c) >= 1
    its window is empty. So each piece of a direction gets, when the
    direction's pieces are built, one integer bound K_p from its row and
    C* (_live_pieces), and a group's pairs go only to the pieces whose K_p
    reaches them: a k costs O(log) integer steps per piece live at k, not
    per piece. On lattice_circle(20), 4 of the 1,022 pieces of its two C*
    directions are live at any k.
    """

    def __init__(self, P: Polygon2):
        self.polygon = P
        # direction -> its chord (num, den), for the directions whose chord
        # has the top floor, that of every pick; and the longest of all
        longest = (0, 1)
        table: dict[Point, tuple[int, int]] = {}
        for d, j, J in _polygon_picks(P):
            if d not in table:  # every pick of d has the same chord
                g = gcd(J, j)
                table[d] = chord = (J // g, j // g)
                if J * longest[1] > longest[0] * j:
                    longest = chord
        self._table = table
        self.longest_chord = longest
        # the directions of C*, and the largest K0: from it on, no shorter
        # chord of the table ties with C*
        N, D = longest
        self._longest_directions = tuple(d for d, chord in table.items() if chord == longest)
        self._tie_bound = max(
            (-(-D * den // (N * den - num * D))
             for num, den in table.values() if (num, den) != longest),
            default=0,
        )
        self._pieces: dict[Point, tuple[Point, list[Piece]]] = {}
        self._live: dict[Point, tuple[list[Piece], list[tuple[int, Piece]]]] = {}
        self._counts: dict[int, int] = {}

    def _directions(self, k: int) -> tuple[int, tuple[Point, ...]]:
        """The chord window m = best - 1 of kP, floor(k C*), and the
        directions of the table reaching it, in table order.

        A table chord c = num/den shorter than C* = N/D falls below m once
        k (C* - c) >= 1, that is from K0(c) = ceil(D den / (N den - num D))
        on, since then k c <= k C* - 1. So every k from the largest K0 on
        has the directions of C* alone, with no pass over the table."""
        N, D = self.longest_chord
        m = k * N // D
        if k >= self._tie_bound:
            return m, self._longest_directions
        return m, tuple(d for d, (num, den) in self._table.items() if k * num // den == m)

    def best(self, k: int) -> tuple[int, list[Point]]:
        """The best lattice count of a line through kP, and the sorted
        primitive vectors of the directions attaining it (_directions)."""
        if not isinstance(k, int) or k < 1:
            raise ValidationError("dilation factor must be a positive int")
        m, directions = self._directions(k)
        return m + 1, sorted(directions)

    def pieces(self, u: Point) -> tuple[Point, list[Piece]]:
        """The level anchor of u and the level pieces of P in direction u
        (_level_pieces), computed once."""
        levels = self._pieces.get(u)
        if levels is None:
            levels = self._pieces[u] = _level_pieces(self.polygon, u)
        return levels

    def _live_pieces(self, u: Point) -> tuple[list[Piece], list[tuple[int, Piece]]]:
        """The pieces of u whose chord window can be nonempty at some k:
        those that reach it at every k, and (K_p, piece) for the others, by
        decreasing K_p, the last k at which the piece's window can be
        nonempty. Computed once.

        With T = -ti * tj > 0, a window is nonempty only if
        A * e <= B = k C - m T, e the level of the piece's end where A * e
        is least: k lo when A > 0, k hi - cut when A < 0. That is
        m T + k a1 + a0 <= 0, with (a1, a0) = (A lo - C, 0), (A hi - C,
        -A cut) or (-C, 0) when A = 0. The window m = floor(k N / D) of kP
        is at least (k N - D + 1) / D, so the piece's window is empty once
        k s > b, with s = T N + D a1 and b = T (D - 1) - D a0. The piece's
        longest chord c, at that end, is -a1 / T <= C*, so s = T D (C* - c)
        >= 0. When s > 0 the window is empty past K_p = floor(b / s), and
        b < T D gives K_p < 1 / (C* - c): the piece's own K0, in integers.
        When s = 0 the piece reaches C*, and it is live at every k or, when
        b < 0 (C* only at its open end), at none."""
        live = self._live.get(u)
        if live is None:
            N, D = self.longest_chord
            always: list[Piece] = []
            bounded: list[tuple[int, Piece]] = []
            for piece in self.pieces(u)[1]:
                lo, hi, cut, A, titj, C = piece[:6]
                if A > 0:
                    a1, a0 = A * lo - C, 0
                elif A < 0:
                    a1, a0 = A * hi - C, -A * cut
                else:
                    a1, a0 = -C, 0
                s, b = D * a1 - titj * N, -titj * (D - 1) - D * a0
                if s > 0:
                    if b >= s:
                        bounded.append((b // s, piece))
                elif b >= 0:
                    always.append(piece)
            bounded.sort(reverse=True)
            live = self._live[u] = always, bounded
        return live

    def count(self, k: int) -> int:
        """The number of lattice diameter lines of kP: counts((k,))[0]."""
        return self.counts((k,))[0]

    def counts(self, ks: Iterable[int]) -> list[int]:
        """count(k) for each k of ks, in order. Every k is checked before
        any is counted, and the ks not counted before go to the kernel in
        one batch, each once, in the order of their first appearance. The
        check reads the set of the types of ks and their least value, with
        no Python step per k."""
        ks = tuple(ks)
        if ks and (
            not all(issubclass(t, int) for t in set(map(type, ks))) or min(ks) < 1
        ):
            raise ValidationError("dilation factor must be a positive int")
        cache = self._counts
        new = dict.fromkeys(ks)
        if cache:
            new = [k for k in new if k not in cache]
        if new:
            cache.update(self._count(new))
        return list(map(cache.__getitem__, ks))

    def _groups(self, ks: Sequence[int]) -> dict[tuple[Point, ...], list[tuple[int, int]]]:
        """The (k, m) pairs of the increasing ks, m = best - 1 of kP,
        grouped by the diameter directions of kP (_directions), each group
        in increasing k. The ks from the largest K0 on all fall in the one
        group of the directions of C*, with m = floor(k C*), built in one
        pass with no _directions call."""
        N, D = self.longest_chord
        split = bisect_left(ks, self._tie_bound)
        groups: dict[tuple[Point, ...], list[tuple[int, int]]] = {}
        for k in ks[:split]:
            m, directions = self._directions(k)
            groups.setdefault(directions, []).append((k, m))
        if split < len(ks):
            groups.setdefault(self._longest_directions, []).extend(
                [(k, k * N // D) for k in ks[split:]]
            )
        return groups

    def _count(self, ks: Collection[int]) -> dict[int, int]:
        """The count kernel over distinct ks: per group of ks that share
        their diameter directions (_groups), one pass over the live pieces
        of each direction (_live_pieces), with the (k, m) pairs of the group
        that each piece admits inside it: all of them, or, the pairs being
        in increasing k, the slice up to its K_p, found by one bisection.

        Scaling P by k scales every level and every halfplane constant c by
        k. Inside the m chord window every level holds m or m + 1 points
        (the floor/+1 sandwich), and outside it at most m, so the count of
        kP is the sum over the window pieces of their points beyond m per
        level (_piece_counts). A piece past its K_p has an empty window, so
        a k costs O(log) integer steps per piece live at k, whatever the
        size of k, and not O(n): the pieces are sorted by K_p, and the pass
        stops at the first one below the group's least k.
        """
        ks = sorted(ks)
        totals = dict.fromkeys(ks, 0)
        built = self._live
        for directions, pairs in self._groups(ks).items():
            first, last = pairs[0][0], pairs[-1][0]
            for d in directions:
                always, bounded = built.get(d) or self._live_pieces(d)
                for piece in always:
                    _piece_counts(piece, pairs, totals)
                for K, piece in bounded:
                    if K >= last:
                        _piece_counts(piece, pairs, totals)
                    elif K >= first:
                        _piece_counts(piece, pairs[:bisect_left(pairs, (K + 1,))], totals)
                    else:
                        break
        return totals


def dilation_profile(P: Polygon2) -> DilationProfile:
    """The dilation profile of P: its chord table, built from the cone picks
    at the top floor of one local scan (_polygon_picks), the candidate lines
    of every dilate that can reach its best count. The profile takes the
    window of each k from the longest chord C* and the tie bound K0
    (DilationProfile)."""
    return DilationProfile(P)


def compute_diameter(P: Polygon2) -> DiameterReport:
    """Exact lattice diameter of P with all diameter lines and directions."""
    profile = dilation_profile(P)
    best, vectors = profile.best(1)
    # the profile's vectors are primitive with canonical sign, and the
    # sweep's anchors planar ints: neither needs the validating constructors
    directions = tuple(map(Direction._canonical, vectors))
    lines: list[LatticeLine] = []
    reps: list[ClippedSegment] = []
    for u in directions:
        sweep = _direction_sweep(profile.pieces(u.vec), best)
        found = sorted((LatticeLine._canonical(x0, u) for x0 in sweep), key=lambda L: L.base)
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
