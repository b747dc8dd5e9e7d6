"""Shared test geometry: strict convex hulls and seeded random generators."""

from __future__ import annotations

import random

from fractions import Fraction
from functools import cache, cmp_to_key
from itertools import combinations
from math import gcd, isqrt
from typing import NamedTuple

from latticediam import (
    Direction,
    FitError,
    LatticeLine,
    PointSet,
    Polygon2,
    ValidationError,
    clip_line,
    count_lattice_points_polygon,
    local_diameter_lines,
)
from latticediam import borsuk
from latticediam.core import floor_sum, line_bounds
from latticediam.dilation import BlockDecomposition
from latticediam.diameter import DiameterReport, _chord_clip, _piece_counts, dilation_profile
from latticediam.lines import ClippedSegment, level_anchor, level_interval
from latticediam.svg import MARGIN, PALETTE, SCALE

TRIANGLE = Polygon2(((0, 1), (1, 0), (2, 2)))
SQUARE = Polygon2(((0, 0), (2, 0), (2, 2), (0, 2)))
QUAD = Polygon2(((0, 0), (5, 1), (6, 4), (1, 3)))


def naive_pair_oracle(S: PointSet):
    """Direct reference for the oracle: the max gcd over the pairs of S and
    the pairs attaining it, lex-sorted, computed with no shortcuts."""
    best, segs = 0, []
    for p, q in combinations(S.points, 2):
        g = gcd(*(b - a for a, b in zip(p, q)))
        if g > best:
            best, segs = g, [(p, q)]
        elif g == best:
            segs.append((p, q))
    return best, segs


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


def wide_polygon_images(n: int):
    """(small, (a, b, c, d), P) for each of wide_polygons(n): P is the image
    of the small random polygon under the unimodular matrix, so the lattice
    points of P are the images of those of small."""
    rng = random.Random(20251018)
    out = []
    while len(out) < n:
        small = random_polygon(rng, span_hi=10)
        a, b, c, d = unimodular(rng, 10 ** rng.randint(0, 2))
        assert a * d - b * c == 1
        P = Polygon2(tuple((a * x + b * y, c * x + d * y) for x, y in small.vertices))
        (xlo, _), (xhi, _) = P.bounding_box()
        if xhi - xlo <= 10**6:
            out.append((small, (a, b, c, d), P))
    return out


def wide_polygons(n: int):
    """Seeded polygons with x-spans up to 10^6: unimodular images of small
    random polygons, so their level walks stay short."""
    return [P for _, _, P in wide_polygon_images(n)]


def box_points_oracle(P: Polygon2) -> list[tuple[int, int]]:
    """The lattice points of P by a membership test at every point of its
    bounding box, in no particular order."""
    (xlo, ylo), (xhi, yhi) = P.bounding_box()
    return [
        (x, y)
        for y in range(yhi, ylo - 1, -1)
        for x in range(xlo, xhi + 1)
        if P.contains((x, y))
    ]


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
    anchor, (ux, uy) = level_anchor(a)
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


def lowest_in_sector_oracle(sector, j_max: int) -> tuple[int, int] | None:
    """The point (j, k) with 1 <= j <= j_max and slope k/j in the sector
    (lo, lo_open, hi, hi_open), fractions (numerator, denominator > 0), with
    the smallest j and then the smallest k; None when there is none. A full
    continued-fraction descent from the sector's two ends."""
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


def cone_picks_oracle(v, p, q, a) -> tuple[int, list[tuple[int, tuple[int, int]]]]:
    """The five-descent scan that diameter._cone_picks replaced, kept as its
    oracle: (J, [(j, w - v)]) for the first three picks of the cone from v
    under the edge pq, a the edge's primitive normal. Every sector, the two
    halves a pick leaves included, gets its own descent
    (lowest_in_sector_oracle), capped at level 2J, past the scan's cap at J,
    so the readers keep its picks with j <= J themselves."""
    level_p = a[0] * p[0] + a[1] * p[1]
    level_v = a[0] * v[0] + a[1] * v[1]
    (sx, sy), (ux, uy) = level_anchor(a)
    det = sx * uy - sy * ux
    kp = det * (sx * (p[1] - v[1]) - sy * (p[0] - v[0]))
    kq = det * (sx * (q[1] - v[1]) - sy * (q[0] - v[0]))
    J = level_p - level_v
    sectors = []

    def add(sector) -> None:
        w = lowest_in_sector_oracle(sector, 2 * J)
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
    return J, [(j, (j * sx + k * ux, j * sy + k * uy)) for j, k in found]


def opposite_pairs_oracle(P: Polygon2) -> list[tuple[tuple, tuple, tuple]]:
    """(edge, vertex, normal) for every edge of P and every vertex minimizing
    its primitive outward normal, by a scan of all vertices per edge."""
    pairs = []
    for a, b in P.edges():
        nx, ny = b[1] - a[1], a[0] - b[0]
        g = gcd(nx, ny)
        nx, ny = nx // g, ny // g
        vals = [(nx * v[0] + ny * v[1], v) for v in P.vertices]
        lo = min(val for val, _ in vals)
        pairs.extend(((a, b), v, (nx, ny)) for val, v in vals if val == lo)
    return pairs


def chord_oracle(halfplanes, v, d) -> tuple[int, int]:
    """The chord num/den, in lowest terms, of the line v + t d through the
    halfplanes: the difference of the two ends from core.line_bounds."""
    ls, lt, hs, ht = line_bounds(halfplanes, v, d)
    num, den = hs * lt - ls * ht, ht * lt
    g = gcd(num, den)
    return num // g, den // g


def longest_vertex_chord_oracle(halfplanes, vertices, directions) -> tuple[int, int]:
    """The longest chord over the lines through every vertex in every one of
    the directions, kept as the oracle of DilationProfile.longest_chord:
    each chord clipped (chord_oracle), the longest by cross-multiplication.
    O(n^2) per direction."""
    num, den = 0, 1
    for u in directions:
        for v in vertices:
            n, d = chord_oracle(halfplanes, v, u)
            if n * den > num * d:
                num, den = n, d
    return num, den


def level_pieces_oracle(vertices, halfplanes, u):
    """The pairing that diameter._level_pieces replaced by a merge, kept as
    its oracle: every upper edge against every lower edge, the overlaps of
    their level ranges sorted by level, in _level_pieces' row form. O(n^2)
    per direction."""
    a = (-u[1], u[0])
    anchor, _ = level_anchor(a)
    levels = [a[0] * x + a[1] * y for x, y in vertices]
    upper, lower = [], []
    for ((nx, ny), c), start, end in zip(halfplanes, levels, levels[1:] + levels[:1]):
        t = nx * u[0] + ny * u[1]
        side = (t, nx * anchor[0] + ny * anchor[1], c)
        if t > 0:
            upper.append((start, end, side))
        elif t < 0:
            lower.append((end, start, side))
    top = max(levels)
    pieces = []
    for lo_u, hi_u, (ti, ei, ci) in upper:
        for lo_l, hi_l, (tj, ej, cj) in lower:
            lo, hi = max(lo_u, lo_l), min(hi_u, hi_l)
            if lo < hi:
                pieces.append((
                    lo, hi, 0 if hi == top else 1, ti * ej - tj * ei, ti * tj,
                    ti * cj - tj * ci, ti, -ei, ci, -tj, -ej, cj,
                ))
    pieces.sort()
    return anchor, pieces


def sweep_diameter_oracle(P: Polygon2) -> DiameterReport:
    """The sweep that diameter._direction_sweep replaced by a read of the
    piece rows, kept as its oracle: compute_diameter with one level_interval
    call, over all the halfplanes, per level of each chord window."""
    profile = dilation_profile(P)
    best, vectors = profile.best(1)
    directions = tuple(map(Direction, vectors))
    halfplanes = P.halfplanes()
    lines, reps = [], []
    for u in directions:
        anchor, pieces = profile.pieces(u.vec)
        found = []
        for piece in pieces:
            first, last = _chord_clip(piece, 1, best - 1)
            for beta in range(first, last + 1):
                x0 = (anchor[0] * beta, anchor[1] * beta)
                iv = level_interval(halfplanes, x0, u.vec)
                if iv is not None and iv[1] - iv[0] + 1 == best:
                    found.append(LatticeLine(x0, u))
        found.sort(key=lambda line: line.base)
        reps.append(clip_line(P, found[0]))
        lines.extend(found)
    return DiameterReport(best - 1, tuple(lines), directions, tuple(reps))


def lattice_circle(m: int) -> Polygon2:
    """The lattice "circle" of radius m: one edge per primitive vector
    (a, b) with |a|, |b| <= m, the vectors in counter-clockwise order from
    (1, 0) and summed from the origin. The set is symmetric, so the edges
    close up; m = 3 gives 32 vertices and m = 10 gives 256."""
    def turn(v, w):  # v before w when w is counter-clockwise of v
        return w[0] * v[1] - v[0] * w[1]

    vectors = [
        (a, b) for a in range(-m, m + 1) for b in range(-m, m + 1) if gcd(a, b) == 1
    ]
    upper = sorted((v for v in vectors if v[1] > 0 or (v[1] == 0 and v[0] > 0)),
                   key=cmp_to_key(turn))
    lower = sorted((v for v in vectors if v[1] < 0 or (v[1] == 0 and v[0] < 0)),
                   key=cmp_to_key(turn))
    x = y = 0
    vertices = []
    for a, b in upper + lower:
        vertices.append((x, y))
        x, y = x + a, y + b
    return Polygon2(vertices)


def parabola(n: int) -> Polygon2:
    """conv{(i, i^2) : 0 <= i < n}: every point is a vertex."""
    return Polygon2([(i, i * i) for i in range(n)])


def ring_polygons(n: int, rng: random.Random) -> list[Polygon2]:
    """Seeded convex hulls of 40 to 400 lattice points near circles of
    radius 200 to 3000: from about 20 to 170 vertices each."""
    out = []
    while len(out) < n:
        r = rng.randint(200, 3000)
        size = rng.randint(40, 400)
        pts = set()
        while len(pts) < size:
            x = rng.randint(-r, r)
            y2 = r * r - x * x
            y = isqrt(y2) - rng.randint(0, 3)
            pts.add((x, y if rng.randrange(2) else -y))
        verts = convex_hull(pts)
        if verts is not None:
            out.append(Polygon2(verts))
    return out


class OracleRecord(NamedTuple):
    """A candidate line of every dilate kP (profile_records_oracle): the
    line through k * vertex with the primitive direction, vertex an end of
    P's chord on it, of length chord = (num, den) in units of the
    direction, so it holds floor(k * num / den) + 1 lattice points of kP."""

    vertex: tuple[int, int]
    direction: tuple[int, int]
    chord: tuple[int, int]


@cache  # P is immutable, and the oracles read it once per k
def profile_records_oracle(P: Polygon2) -> tuple[OracleRecord, ...]:
    """The unpruned record scan that dilation_profile replaced by its chord
    table, kept as its oracle: every vertex scanned per edge
    (opposite_pairs_oracle), five descents per cone (cone_picks_oracle),
    its picks kept up to level J, with no top floor, the first find of
    each line kept, and each chord clipped (chord_oracle)."""
    found = {}
    for (p, q), v, a in opposite_pairs_oracle(P):
        J, picks = cone_picks_oracle(v, p, q, a)
        for j, (x, y) in picks:
            d = (x, y) if x > 0 or (x == 0 and y > 0) else (-x, -y)
            line = (d, d[0] * v[1] - d[1] * v[0])
            if j <= J and line not in found:
                found[line] = (v, d)
    halfplanes = P.halfplanes()
    return tuple(
        OracleRecord(v, d, chord_oracle(halfplanes, v, d)) for v, d in found.values()
    )


def chord_table_oracle(records) -> tuple[dict[tuple[int, int], tuple[int, int]], tuple[int, int]]:
    """The chord table and the longest chord C of a record list, in
    Fractions: the longest chord of each direction whose longest chord has
    the floor of C, the directions in the order of their first record of
    that floor, and C itself, each as (num, den) in lowest terms."""
    longest = max(Fraction(*record.chord) for record in records)
    top = longest.numerator // longest.denominator
    table: dict[tuple[int, int], Fraction] = {}
    for _, d, chord in records:
        chord = Fraction(*chord)
        if chord // 1 == top and chord > table.get(d, 0):
            table[d] = chord
    return (
        {d: (c.numerator, c.denominator) for d, c in table.items()},
        (longest.numerator, longest.denominator),
    )


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
    for pair in opposite_pairs_oracle(kP):
        for line in local_diameter_lines(*pair):
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


def count_oracle(profile, k: int) -> int:
    """The per-k count kernel that DilationProfile's range kernel replaced,
    kept as its oracle: the chord window m = best - 1 of kP and its
    diameter directions from the loop over every unpruned record
    (best_records_oracle), then, per piece of each, the window clipped for
    this k alone and two floor sums over it, whatever its length."""
    best, directions = best_records_oracle(profile, k)
    m = best - 1
    total = 0
    for d in directions:
        for piece in profile.pieces(d)[1]:
            lo, hi, cut, A, titj, C, ti, nei, ci, ntj, nej, cj = piece
            first, last = k * lo, k * hi - cut
            B = m * titj + k * C
            if A > 0:
                last = min(last, B // A)
            elif A < 0:
                first = max(first, -(B // -A))
            elif B < 0:
                continue
            n = last - first + 1
            if n > 0:
                total += (
                    floor_sum(n, ti, nei, k * ci + first * nei)
                    + floor_sum(n, ntj, nej, k * cj + first * nej)
                    + (1 - m) * n
                )
    return total


def plateau(H: int) -> Polygon2:
    """The parallelogram (0,0), (2H,0), (2H+1,H), (1,H): every one of its
    H + 1 levels in direction (1, 0) has a chord of exactly 2H, so each is
    in the chord window, but only levels 0 and H hold 2H + 1 points."""
    return Polygon2(((0, 0), (2 * H, 0), (2 * H + 1, H), (1, H)))


def best_records_oracle(profile, k: int) -> tuple[int, list[tuple[int, int]]]:
    """The loop over every record that DilationProfile.best replaced by its
    longest-chord table, kept as its oracle: the best count of kP over the
    unpruned records of its polygon (profile_records_oracle), and the
    sorted directions attaining it."""
    best, directions = 0, set()
    for _, d, (num, den) in profile_records_oracle(profile.polygon):
        count = k * num // den + 1
        if count > best:
            best, directions = count, set()
        if count == best:
            directions.add(d)
    return best, sorted(directions)


def window_oracle(profile, k: int) -> tuple[int, list[tuple[int, int]]]:
    """The window pass over the chord table that DilationProfile replaced
    by its longest chord C* and tie bound K0, kept as its oracle: the chord
    window m = best - 1 of kP, the largest floor(k c) over the chords c of
    the table (-1 when it is empty), and the directions reaching it, in
    table order."""
    m, directions = -1, []
    for d, (num, den) in profile._table.items():
        chord = k * num // den
        if chord > m:
            m, directions = chord, [d]
        elif chord == m:
            directions.append(d)
    return m, directions


def groups_oracle(profile, ks) -> dict[tuple[tuple[int, int], ...], list[tuple[int, int]]]:
    """The (k, m) pairs of the ks grouped by their diameter directions, each
    window from window_oracle: the groups of DilationProfile._count."""
    groups: dict = {}
    for k in ks:
        m, directions = window_oracle(profile, k)
        groups.setdefault(tuple(directions), []).append((k, m))
    return groups


def unpruned_counts(profile, ks) -> list[int]:
    """The range kernel before the piece bound, kept as the reference of the
    live pieces (DilationProfile._live_pieces): the pairs of each group of
    the ks (groups_oracle), handed to every level piece of each of the
    group's directions, live or not. O(n) pieces per k."""
    totals = dict.fromkeys(ks, 0)
    # the keys of totals hold each k once
    for directions, pairs in groups_oracle(profile, totals).items():
        for d in directions:
            for piece in profile.pieces(d)[1]:
                _piece_counts(piece, pairs, totals)
    return [totals[k] for k in ks]


def tie_bound_oracle(profile) -> int:
    """K0, the largest ceil(1 / (C* - c)) over the chords c of the table
    shorter than its longest chord C*, in Fractions; 0 when there is none.
    From K0 on, k (C* - c) >= 1 for every such c."""
    longest = Fraction(*profile.longest_chord)
    shorter = [Fraction(*c) for c in profile._table.values() if Fraction(*c) < longest]
    return max((-(-1 // (longest - c)) for c in shorter), default=0)


def fit_quasipolynomial_oracle(P: Polygon2, k_max: int | None = None):
    """The Fraction fitter that fit_quasipolynomial replaced by its integer
    verification, kept as its oracle: (period, pieces, valid_from), or the
    same FitError. Each residue's piece runs through its last two samples
    as a Fraction slope and intercept, and every sample is checked by
    evaluating it."""
    profile = dilation_profile(P)
    _, directions = profile.best(1)
    _, q = longest_vertex_chord_oracle(P.halfplanes(), P.vertices, directions)
    explicit = k_max is not None
    if explicit and k_max < 4 * q:
        raise FitError(
            f"k_max={k_max} is too small: need at least 4q = {4 * q} samples"
        )
    horizon = k_max if explicit else 4 * q
    cap = max(16 * q, 64)
    while True:
        counts = {k: profile.count(k) for k in range(1, horizon + 1)}
        pieces = []
        for residue in range(q):
            k2 = horizon - (horizon - residue) % q
            k1 = k2 - q
            slope = Fraction(counts[k2] - counts[k1], k2 - k1)
            pieces.append((slope, counts[k1] - slope * k1))
        valid_from = horizon + 1
        for k in range(horizon, 0, -1):
            slope, intercept = pieces[k % q]
            value = slope * k + intercept
            if value.denominator == 1 and int(value) == counts[k]:
                valid_from = k
            else:
                break
        if valid_from <= horizon - 3 * q + 1:
            break
        if explicit or horizon >= cap:
            raise FitError(
                f"samples disagree with the fitted pieces at k={valid_from - 1}"
                f" even with k_max={horizon}"
            )
        horizon = min(2 * horizon, cap)
    period = next(
        m for m in range(1, q + 1)
        if q % m == 0 and all(pieces[i] == pieces[i % m] for i in range(q))
    )
    return period, tuple(pieces[:period]), valid_from


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
        a=tuple(Fraction(x) + lo * c for x, c in zip(line.base, line.dir.vec)),
        b=tuple(Fraction(x) + hi * c for x, c in zip(line.base, line.dir.vec)),
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
    hundredths, and the grid dot fill is a lookup in the lattice points of
    the polygon found by membership tests (box_points_oracle)."""
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
    inside = set(box_points_oracle(polygon))
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


def adjacency_oracle(graph) -> dict:
    """The neighbour set of every vertex of a BorsukGraph, in lexicographic
    order, built from its edges alone: points on no edge get an empty set.
    It is independent of the graph's own neighbour map."""
    adj = {p: set() for p in graph.vertices}
    for p, q in graph.edges:
        adj[p].add(q)
        adj[q].add(p)
    return adj


def greedy_labels_oracle(points, adj) -> dict:
    """The all-points greedy coloring that borsuk._greedy_labels replaced,
    kept as its reference: point by point in the given order, the smallest
    color free among the neighbours already colored. adj maps every point
    to its neighbour set."""
    labels = {}
    for p in points:
        taken = {labels[nb] for nb in adj[p] if nb in labels}
        color = 0
        while color in taken:
            color += 1
        labels[p] = color
    return labels


def components_oracle(adj) -> list[list]:
    """The all-points component walk that the endpoint walk of
    borsuk._components replaced, kept as its reference: every key of adj
    starts a search unless already seen, so points on no edge come out as
    components of one point."""
    seen = set()
    comps = []
    for start in adj:
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for nb in adj[v]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        comps.append(sorted(comp))
    return comps


def exact_borsuk_oracle(graph, node_budget: int = 1_000_000) -> int:
    """The chromatic number as exact_borsuk_number found it over all-points
    components and labels, kept as its reference; the clique bound and the
    branch and bound are the library's."""
    adj = adjacency_oracle(graph)
    labels = greedy_labels_oracle(graph.vertices, adj)
    budget = [node_budget]
    answer = 1
    for comp in components_oracle(adj):
        if len(comp) == 1:
            continue
        lower = len(borsuk._greedy_clique(adj, comp))
        upper = max(labels[v] for v in comp) + 1
        best = upper
        for k in range(lower, upper):
            if borsuk._k_colorable(comp, adj, k, budget):
                best = k
                break
        answer = max(answer, best)
    return answer


def random_chambers(n: int) -> list[tuple[tuple[Fraction, Fraction], ...]]:
    """n seeded parallelogram chambers for chamber_decomposition, each as
    its four vertices in a random order, followed by its mirror image
    (x -> -x) and an integer translate: 3n vertex tuples.

    The horizontal edges lie w = 1..6 apart at integer heights, the
    transverse edges have the primitive direction (ix, q) with q = 1..12,
    and each horizontal edge has an integral vertex. The other two vertices
    sit at rational offsets from them.
    """
    rng = random.Random(20261019)
    out = []
    while len(out) < 3 * n:
        q, w = rng.randint(1, 12), rng.randint(1, 6)
        ix = rng.randint(-2 * q, 2 * q)
        if gcd(ix, q) != 1:
            continue
        y0, x = rng.randint(-9, 9), rng.randint(-9, 9)
        shift = Fraction(w * ix, q)  # the top edge over the bottom edge
        if shift.denominator == 1:
            # any two vertices of the same side are integral together
            width = Fraction(rng.randint(1, 6 * q), rng.randint(1, 2 * q))
            left = x - rng.choice((0, 1)) * width  # x is bottom-left or -right
        elif rng.random() < 0.5:
            # bottom-left x and top-right x + width + shift integral
            width = rng.randint(1, 6) + (-shift) % 1
            left = x
        else:
            # bottom-right x and top-left x - width + shift integral
            width = rng.randint(0, 5) + shift % 1
            left = x - width
        right = left + width
        verts = [
            (Fraction(left), Fraction(y0)),
            (right, Fraction(y0)),
            (right + shift, Fraction(y0 + w)),
            (left + shift, Fraction(y0 + w)),
        ]
        rng.shuffle(verts)
        tx, ty = rng.randint(-20, 20), rng.randint(-20, 20)
        out.append(tuple(verts))
        out.append(tuple((-a, b) for a, b in verts))
        out.append(tuple((a + tx, b + ty) for a, b in verts))
    return out


def chamber_decomposition_oracle(vertices) -> BlockDecomposition:
    """The chamber rows with Fraction halfplane constants that
    chamber_decomposition replaced by floored ones, kept as its reference:
    each row of the dilate is clipped by level_interval against the
    transverse edges' rational constants k L and k R. Valid chambers only;
    the validation is the library's."""
    pts = [tuple(map(Fraction, p)) for p in vertices]
    for perm in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)):
        a, b, c, e = (pts[i] for i in perm)
        if (a[0] + c[0], a[1] + c[1]) == (b[0] + e[0], b[1] + e[1]):
            break
    y_bot, y_top = sorted({p[1] for p in pts})
    bottom = sorted(p for p in pts if p[1] == y_bot)
    top = sorted(p for p in pts if p[1] == y_top)
    w = int(y_top - y_bot)
    dx, dy = top[0][0] - bottom[0][0], top[0][1] - bottom[0][1]
    denom = dx.denominator * dy.denominator
    ix, iy = int(dx * denom), int(dy * denom)
    g = gcd(ix, iy)
    ix, iy = ix // g, iy // g
    if iy < 0:
        ix, iy = -ix, -iy
    q, y0 = iy, int(y_bot)
    L = iy * bottom[0][0] - ix * bottom[0][1]
    R = iy * bottom[1][0] - ix * bottom[1][1]
    per_residue = []
    for i in range(q):
        k = q + i
        total_lines = k * w + 1
        sides = [((-iy, ix), -k * L), ((iy, -ix), k * R)]
        counts = []
        for j in range(total_lines):
            row = level_interval(sides, (0, k * y0 + j), (1, 0))
            counts.append(0 if row is None else row[1] - row[0] + 1)
        peak = max(counts)
        flags = [c == peak for c in counts]
        blocks = total_lines // q
        n_i = sum(flags[:q])
        assert all(
            sum(flags[t * q : (t + 1) * q]) == n_i for t in range(1, blocks)
        )
        per_residue.append((n_i, sum(flags[blocks * q :]), total_lines - blocks * q))
    return BlockDecomposition(q=q, w=w, per_residue=tuple(per_residue))


def full_dimensional_oracle(vertices) -> bool:
    """The Fraction row reduction that constructions._full_dimensional
    replaced by a Gram determinant, kept as its reference: the rank of the
    difference vectors v - v0 is d."""
    d = len(vertices[0])
    base = vertices[0]
    rows = [[Fraction(v[i] - base[i]) for i in range(d)] for v in vertices[1:]]
    rank = 0
    for col in range(d):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank == d
