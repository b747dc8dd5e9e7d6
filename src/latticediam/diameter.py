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
chord J/j < 1 and holds at most k. So the scan stops at level J, and
dilation_profile runs it once and records each candidate line with its
chord c = num/den through P, read from the levels: the line of a pick at
level j leaves P through the edge at level J, so c = J/j. Through a vertex
of kP the line holds floor(k num / den) + 1 points. So the best count and
the diameter directions of kP are a max over the records, and one window
pass over a table built with the profile gives them to compute_diameter
and to the dilate counts alike: the longest chord of each direction, kept
for the directions whose longest chord has the top floor, since no other
chord reaches a window.

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
do not depend on k, kept in the row too. One generator (_chord_clip) clips
a piece for a run of (k, m) pairs: the sweep passes the one pair
(1, best - 1), and a range of dilates is counted in one pass, which groups
the ks by their diameter directions and passes, to each piece of those
directions, the pairs of the whole group. The fit's period is the
denominator of the longest chord of P, which the chord table holds. All of
it is integer arithmetic, and this module clips no line itself: the
representative segments' clip_line goes through core.line_bounds.
"""

from __future__ import annotations

from math import gcd
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

from .core import Direction, Point, Polygon2, as_point, floor_sum

# Not called here: perfbench's self-test and the tests' kernel counters look
# the kernel up by the name diameter.level_interval, so the name must resolve.
from .core import level_interval  # noqa: F401
from .errors import ValidationError
from .frozen import Frozen
from .lines import ClippedSegment, LatticeLine, clip_line, level_anchor

__all__ = [
    "DiameterReport",
    "local_diameter_lines",
    "ProfileRecord",
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


def _level_picks(J: int, lo: int, hi: int) -> list[Pick]:
    """The first three picks (j, k) of the cone of slopes k/j in
    [lo/J, hi/J], lo < hi, in pick order: each the lowest point, by (j, k),
    of the cone off the lines of the earlier picks, with j <= J. Picks come
    in increasing j, so these are a prefix of the uncapped cone's picks, and
    no pick past level J can reach a best count (_cone_picks).

    A pick splits its sector into the two halves open at its slope. One
    descent (_descend) finds the first pick and its Farey parents; the
    lowest point of each half then comes from the parents (_follow), and so
    do its own parents, so every later pick costs O(1).
    """
    w, left, right = _descend(lo, hi, J)
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
        below = _follow(left, w, lo_b, lo_open, 1, J)
        if below is not None:
            sectors.append((below[0], below[1], w, lo_b, lo_open, w, True))
        above = _follow(right, w, hi_b, hi_open, -1, J)
        if above is not None:
            sectors.append((above[0], w, above[1], w, True, hi_b, hi_open))
    return picks


def _vertex_picks(
    v: Point, p: Point, q: Point, level_p: int, a: Point,
    basis: tuple[Point, Point],
) -> tuple[int, list[tuple[int, Point]]]:
    """_cone_picks for the edge pq at level level_p of the primitive normal
    a, with basis = level_anchor(a), computed once per edge by its callers."""
    (sx, sy), (ux, uy) = basis
    det = sx * uy - sy * ux  # +-1: {s, u} is unimodular
    # k of a point w = v + j s + k u is det(s, w - v) / det(s, u)
    kp = det * (sx * (p[1] - v[1]) - sy * (p[0] - v[0]))
    kq = det * (sx * (q[1] - v[1]) - sy * (q[0] - v[0]))
    J = level_p - a[0] * v[0] - a[1] * v[1]
    picks = _level_picks(J, kp, kq) if kp < kq else _level_picks(J, kq, kp)
    # (j, k) is a reduced fraction and {s, u} unimodular: j s + k u is primitive
    return J, [(j, (j * sx + k * ux, j * sy + k * uy)) for j, k in picks]


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
    chord J/j < 1, so it holds at most k. So one descent (_level_picks),
    capped at J, serves every dilate. a must be primitive and v off the
    line pq.
    """
    level_p = a[0] * p[0] + a[1] * p[1]
    level_q = a[0] * q[0] + a[1] * q[1]
    level_v = a[0] * v[0] + a[1] * v[1]
    if level_p != level_q:
        raise ValidationError("normal is not perpendicular to the edge")
    if level_p <= level_v:
        raise ValidationError("normal must point from the vertex toward the edge")
    return _vertex_picks(v, p, q, level_p, a, level_anchor(a))


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
    O(1) steps each for the others (_level_picks, _cone_picks).
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


LineKey = tuple[Point, int]  # a direction and the perpendicular level of its line


def _polygon_picks(P: Polygon2) -> Iterator[tuple[Point, Point, int, int]]:
    """(vertex v, direction d, level j, level J) for each pick of each
    (edge, opposite vertex) cone of P, in edge order.

    d is the pick's primitive vector with canonical sign, j its level above
    v and J the edge's, in the edge's primitive normal.
    """
    for p, q, a, opposite in _antipodes(P.vertices):
        basis = level_anchor(a)
        level_p = a[0] * p[0] + a[1] * p[1]
        for v in opposite:
            J, picks = _vertex_picks(v, p, q, level_p, a, basis)
            for j, (x, y) in picks:
                d = (x, y) if x > 0 or (x == 0 and y > 0) else (-x, -y)
                yield v, d, j, J


# (lo, hi, cut, A, ti * tj, ti * cj - tj * ci, ti, -ei, ci, -tj, -ej, cj): see _level_pieces
Piece = tuple[int, int, int, int, int, int, int, int, int, int, int, int]


def _chord_clip(
    piece: Piece, pairs: Iterable[tuple[int, int]]
) -> Iterator[tuple[int, int, int, int]]:
    """(k, m, first, last) for each pair (k, m) whose window is not empty:
    the levels first..last of the piece of kP where its chord is at least m.

    The piece of kP runs from level k * lo to k * hi - cut. Its k-free
    constants (_level_pieces) give the chord inequality A*beta <= B with
    B = m * ti * tj + k * (ti * cj - tj * ci), since scaling P by k scales
    the halfplane constants ci and cj by k; it is solved with floor
    divisions. This is the one copy of the clip: the sweep reads it with
    the one pair (1, best - 1) and the dilate counts with a pair per k.
    """
    lo, hi, cut, A, titj, C, _, _, _, _, _, _ = piece
    for k, m in pairs:
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
            continue
        if first <= last:
            yield k, m, first, last


class ProfileRecord(NamedTuple):
    """A candidate line of every dilate kP: the line of a cone pick at level
    j <= J (_cone_picks).

    The line passes through k * vertex with the primitive direction, and
    vertex is an end of P's chord on it, of length chord = (num, den) in
    units of the direction. So it holds floor(k * num / den) + 1 lattice
    points of kP.
    """

    vertex: Point
    direction: Point
    chord: tuple[int, int]


def _level_pieces(
    vertices: tuple[Point, ...], halfplanes: list[tuple[Point, int]], u: Point
) -> tuple[Point, list[Piece]]:
    """The level anchor of u, and the vertex level range of the polygon in
    direction u split at the vertex levels: per piece the flat row
    (lo, hi, cut, A, ti * tj, ti * cj - tj * ci, ti, -ei, ci, -tj, -ej, cj),
    on which U and L are the single linear functions of the upper side
    (ti, ei, ci) and the lower side (tj, ej, cj).

    The side of the halfplane (n, c) is (t, e, c) with t = <n, u> and
    e = <n, anchor>. Along its edge the level grows by t, so the edges with
    t > 0 bound the chord from above and rise, and those with t < 0 bound it
    from below and fall; edges parallel to u bound no level range. From a
    vertex of least level, the boundary climbs the upper edges to the top
    level and comes down the lower ones, so both arcs are sorted by level,
    and one merge of the two gives the pieces, the overlaps of the level
    ranges of an upper and a lower edge, in increasing level: O(n). Each
    piece is half-open, [lo, hi) with cut = 1, except the topmost, which is
    closed, cut = 0.

    On the line anchor*beta + k*u, the halfplane (n, c) bounds k by
    (c - beta*e) / t: from above when t > 0, from below when t < 0. The chord
    (ci - beta*ei)/ti - (cj - beta*ej)/tj >= m is one linear inequality
    A*beta <= m * ti * tj + ti * cj - tj * ci with A = ti * ej - tj * ei,
    cleared of the positive denominator ti * |tj|. The three constants do
    not depend on m or on the dilation factor, so they are kept with the
    piece (_chord_clip), and so are the sides, signed as the floor sums of
    the counts read them (DilationProfile._count).
    """
    ux, uy = u
    anchor, _ = level_anchor((-uy, ux))
    sx, sy = anchor
    levels = [ux * y - uy * x for x, y in vertices]
    low, top = min(levels), max(levels)
    start = levels.index(low)
    upper, lower = [], []  # (the level at the top of the edge, t, e, c)
    # edge i runs from vertex i to vertex i + 1; negative indices wrap
    for i in range(start - len(levels), start):
        (nx, ny), c = halfplanes[i]
        t = nx * ux + ny * uy
        if t > 0:
            upper.append((levels[i + 1], t, nx * sx + ny * sy, c))
        elif t < 0:
            lower.append((levels[i], t, nx * sx + ny * sy, c))
    lower.reverse()
    pieces = []
    i = j = 0
    lo = low
    hi_u, ti, ei, ci = upper[0]
    hi_l, tj, ej, cj = lower[0]
    while True:
        hi = hi_u if hi_u < hi_l else hi_l
        pieces.append((
            lo, hi, 0 if hi == top else 1, ti * ej - tj * ei, ti * tj,
            ti * cj - tj * ci, ti, -ei, ci, -tj, -ej, cj,
        ))
        if hi == top:
            return anchor, pieces
        if hi_u == hi:
            i += 1
            hi_u, ti, ei, ci = upper[i]
        if hi_l == hi:
            j += 1
            hi_l, tj, ej, cj = lower[j]
        lo = hi


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
        for _, _, first, last in _chord_clip(piece, ((1, best - 1),)):
            for beta in range(first, last + 1):
                if (ci + beta * nei) // ti + (cj + beta * nej) // ntj + 1 == best:
                    yield anchor[0] * beta, anchor[1] * beta


class DilationProfile:
    """The candidate lines of all dilates kP from one local scan of P.

    Every record is a candidate line of every dilate kP, and a candidate of
    kP that is no record holds at most k points, fewer than the best
    (_cone_picks). Of the records of one direction, the longest chord holds
    the most points at every k, and a chord c whose floor is below floor(C),
    C the longest chord of all, holds fewer points than C at every k:
    k c < k floor(C) <= floor(k C). So the profile keeps one table, built
    with it in one pass over the records, of the longest chord of each
    direction whose floor is floor(C), and one window pass over the table
    (_window) gives best(k) and the chord window of each k of counts(ks).
    The same pass keeps longest_chord, C as (num, den) in lowest terms,
    whose denominator is the fit's period. C equals C*, the longest chord
    of P in any lattice direction: through kv, the line of C* holds
    floor(k C*) + 1 points of kP and no line of kP holds more, so records
    right at every k hold a chord equal to C*, since a shorter chord c
    falls a point behind once k (C* - c) >= 1. The counts then sum the
    closed-form level count of each diameter direction over its level
    pieces, built once per direction, with the pieces outer and the ks
    that share the direction inner. count(k) is counts((k,))[0]. Each count
    is kept.
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
        # direction -> its longest chord (num, den), over the chords whose
        # floor is top, the largest floor so far; and the longest of all
        top, longest = -1, (0, 1)
        table: dict[Point, tuple[int, int]] = {}
        for _, d, (num, den) in records:
            whole = num // den
            if whole > top:
                top, table = whole, {}
            if whole == top:
                old = table.get(d)
                if old is None or num * old[1] > old[0] * den:
                    table[d] = (num, den)
                    if num * longest[1] > longest[0] * den:
                        longest = (num, den)
        self._table = table
        self.longest_chord = longest
        self._pieces: dict[Point, tuple[Point, list[Piece]]] = {}
        self._counts: dict[int, int] = {}

    def _window(self, k: int) -> tuple[int, list[Point]]:
        """The chord window m = best - 1 of kP, the largest floor(k c) over
        the chords c of the table (-1 when it is empty), and the directions
        reaching it, in table order."""
        m, directions = -1, []
        for d, (num, den) in self._table.items():
            chord = k * num // den
            if chord > m:
                m, directions = chord, [d]
            elif chord == m:
                directions.append(d)
        return m, directions

    def best(self, k: int) -> tuple[int, list[Point]]:
        """The best lattice count of a line through kP, and the sorted
        primitive vectors of the directions attaining it (_window)."""
        if not isinstance(k, int) or k < 1:
            raise ValidationError("dilation factor must be a positive int")
        m, directions = self._window(k)
        return m + 1, sorted(directions)

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
        """The number of lattice diameter lines of kP, counted once per k."""
        return self.counts((k,))[0]

    def counts(self, ks: Iterable[int]) -> list[int]:
        """count(k) for each k of ks, in order. Every k is checked before
        any is counted, and the ks not counted before go to the kernel in
        one batch, each once."""
        ks = tuple(ks)
        cache = self._counts
        new: dict[int, None] = {}
        for k in ks:
            if not isinstance(k, int) or k < 1:
                raise ValidationError("dilation factor must be a positive int")
            if k not in cache:
                new[k] = None
        if new:
            cache.update(self._count(new))
        return [cache[k] for k in ks]

    def _count(self, ks: Collection[int]) -> dict[int, int]:
        """The count kernel over distinct ks: per k, one window pass
        (_window) for the chord window m = best - 1 of kP and its diameter
        directions; then, per tuple of directions, one pass over the pieces
        of each, with the (k, m) pairs of that tuple inside each piece.

        Scaling P by k scales every level and every halfplane constant c by
        k. Inside the m chord window every level holds m or m + 1 points
        (the floor/+1 sandwich), and outside it at most m. A level holds
        floor(U) + floor(-L) + 1 points, so the count over a window piece of
        n levels from first is sum floor(U) + sum floor(-L) + (1 - m) n, two
        floor sums, or two floor divisions when n = 1. There are O(n) pieces
        per direction, so a count costs O(n log) integer steps, whatever the
        size of k.
        """
        groups: dict[tuple[Point, ...], list[tuple[int, int]]] = {}
        for k in ks:
            m, directions = self._window(k)
            groups.setdefault(tuple(directions), []).append((k, m))
        totals = dict.fromkeys(ks, 0)
        built = self._pieces
        for directions, pairs in groups.items():
            for d in directions:
                for piece in (built.get(d) or self.pieces(d))[1]:
                    _, _, _, _, _, _, ti, nei, ci, ntj, nej, cj = piece
                    for k, m, first, last in _chord_clip(piece, pairs):
                        n = last - first + 1
                        if n == 1:
                            totals[k] += (
                                (k * ci + first * nei) // ti
                                + (k * cj + first * nej) // ntj + 1 - m
                            )
                        else:
                            totals[k] += (
                                floor_sum(n, ti, nei, k * ci + first * nei)
                                + floor_sum(n, ntj, nej, k * cj + first * nej)
                                + (1 - m) * n
                            )
        return totals


def dilation_profile(P: Polygon2) -> DilationProfile:
    """One record per line of the cone picks of P, all at levels j <= J,
    with its chord through P, in the order the cones first find the lines:
    the candidate lines of every dilate that can reach its best count
    (_cone_picks).

    P lies between the levels of the cone's vertex v and its edge, J apart,
    so the line v + t w of the pick w leaves P through the edge, at
    t = J / j: the chord is J/j, read from the levels with no clip. That is
    P's whole chord on the line, whichever cone finds it, so the first
    record of each line stands.
    """
    records: dict[LineKey, ProfileRecord] = {}
    for v, d, j, J in _polygon_picks(P):
        line = (d, d[0] * v[1] - d[1] * v[0])
        if line not in records:
            g = gcd(J, j)
            records[line] = ProfileRecord(v, d, (J // g, j // g))
    return DilationProfile(P, P.halfplanes(), tuple(records.values()))


def compute_diameter(P: Polygon2) -> DiameterReport:
    """Exact lattice diameter of P with all diameter lines and directions."""
    profile = dilation_profile(P)
    best, vectors = profile.best(1)
    directions = tuple(map(Direction, vectors))
    lines: list[LatticeLine] = []
    reps: list[ClippedSegment] = []
    for u in directions:
        sweep = _direction_sweep(profile.pieces(u.vec), best)
        found = sorted((LatticeLine(x0, u) for x0 in sweep), key=lambda L: L.base)
        clip = clip_line(P, found[0], profile.halfplanes)
        assert clip is not None
        reps.append(clip)
        lines.extend(found)
    return DiameterReport(
        ldiam=best - 1,
        lines=tuple(lines),
        directions=directions,
        representative_segments=tuple(reps),
    )
