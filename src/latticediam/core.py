"""Exact lattice geometry primitives.

Everything here is integer or rational arithmetic; no floats anywhere.
Points are plain tuples of ints, rational points are tuples of Fraction;
this module never builds one, so it does not import fractions.
line_bounds is the one loop that clips a line against halfplanes: the
lattice point counts of level_interval, the exact clips of lines.clip_line
and the segment ends of the SVG picture are read from its bounds. Its
halfplane constants and base points are ints, so it works in plain
integers; a rational clip end is built only by the caller that reports it.
The level pieces of a direction (_level_pieces) split the polygon's level
range where its two bounding edges change, and each piece keeps the
constants that give any of its levels' lattice points with two floor
divisions. The diameter module reads its chords and counts from them, and
the lattice points of a polygon and the grid dots of its picture are read
from the pieces of (0, 1) or (1, 0), column by column (_level_ranges).
A PointSet built from outside input is validated, deduplicated and sorted;
sets the package lists itself in lexicographic order (the lattice points of
a polygon, the parts of a Borsuk partition) skip that through
PointSet._sorted.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .errors import ValidationError
from .frozen import Frozen, Ordered

if TYPE_CHECKING:
    from fractions import Fraction

Point = tuple[int, ...]
RationalPoint = tuple["Fraction", ...]

__all__ = [
    "DEFAULT_PAIR_BUDGET",
    "Point",
    "RationalPoint",
    "Direction",
    "Polygon2",
    "PointSet",
    "as_point",
    "segment_lattice_count",
    "line_bounds",
    "level_interval",
    "level_anchor",
    "floor_sum",
    "enumerate_lattice_points",
    "count_lattice_points_polygon",
]

# Point pairs an oracle scan may examine unless its caller says otherwise;
# also the default of the command line's --budget, so it lives here, where
# the parser can read it without loading the oracle.
DEFAULT_PAIR_BUDGET = 200_000


def as_point(coords: Iterable[int]) -> Point:
    """Coerce an iterable of ints to a Point, rejecting non-integers."""
    pt = tuple(coords)
    for c in pt:
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValidationError(f"lattice point coordinates must be ints, got {c!r}")
    if not pt:
        raise ValidationError("points must have dimension >= 1")
    return pt


def segment_lattice_count(x: Sequence[int], y: Sequence[int]) -> int:
    """Number of lattice segments on [x, y]: gcd of the coordinate differences.

    Equals |conv({x, y}) ∩ Z^d| - 1; zero when x == y.
    """
    if len(x) != len(y):
        raise ValidationError("segment endpoints must share a dimension")
    return gcd(*(a - b for a, b in zip(x, y)))


class Direction(Ordered):
    """A primitive lattice direction with canonical sign.

    The vector is divided by its gcd and negated if needed so that the first
    nonzero entry is positive; u and -u therefore normalize identically, and
    normalization is idempotent. Directions are ordered by their vectors.
    """

    _fields = ("vec",)

    def __init__(self, vec: Iterable[int]):
        v = as_point(vec)
        g = gcd(*v)
        if g == 0:
            raise ValidationError("the zero vector has no direction")
        v = tuple(c // g for c in v)
        for c in v:
            if c != 0:
                if c < 0:
                    v = tuple(-x for x in v)
                break
        object.__setattr__(self, "vec", v)

    @classmethod
    def _canonical(cls, vec: Point) -> "Direction":
        """A Direction of a trusted vector: a tuple of ints, primitive, with
        its first nonzero entry positive, as __init__ would leave it.
        Nothing is checked, divided or negated."""
        self = object.__new__(cls)
        object.__setattr__(self, "vec", vec)
        return self

    @property
    def dim(self) -> int:
        return len(self.vec)

    def __repr__(self) -> str:
        return f"Direction({self.vec})"


def _winding_quadrants(dirs: list[Point]) -> int:
    # Quadrant index with half-open boundaries; consecutive left turns advance
    # by 0..2 quadrants, and the total advance is 4 * winding number.
    def quad(v: Point) -> int:
        x, y = v
        if x > 0 and y >= 0:
            return 0
        if x <= 0 and y > 0:
            return 1
        if x < 0 and y <= 0:
            return 2
        return 3

    total = 0
    for i, d in enumerate(dirs):
        total += (quad(dirs[(i + 1) % len(dirs)]) - quad(d)) % 4
    return total // 4


class Polygon2(Frozen):
    """A strictly convex lattice polygon, vertices in counter-clockwise order.

    Its edge halfplanes (halfplanes) are built once, in the constructor's
    edge loop, and are not a field: eq, hash and repr read the vertices only.
    """

    _fields = ("vertices",)

    def __init__(self, vertices: Iterable[Iterable[int]]):
        verts = tuple(as_point(v) for v in vertices)
        if len(verts) < 3:
            raise ValidationError("a polygon needs at least 3 vertices")
        if any(len(v) != 2 for v in verts):
            raise ValidationError("Polygon2 vertices must be 2-dimensional")
        if len(set(verts)) != len(verts):
            raise ValidationError("polygon vertices must be distinct")
        n = len(verts)
        edge_dirs = []
        halfplanes = []
        for i in range(n):
            ax, ay = verts[i]
            bx, by = verts[(i + 1) % n]
            cx, cy = verts[(i + 2) % n]
            cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
            if cross <= 0:
                raise ValidationError(
                    "vertices must be strictly convex and counter-clockwise"
                )
            edge_dirs.append((bx - ax, by - ay))
            nx, ny = by - ay, ax - bx  # outward normal for CCW orientation
            halfplanes.append(((nx, ny), nx * ax + ny * ay))
        # All-left-turn sequences can still wind more than once; require a
        # single revolution of the edge directions.
        if _winding_quadrants(edge_dirs) != 1:
            raise ValidationError("vertex sequence winds more than once")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "_halfplanes", tuple(halfplanes))

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[Point, Point]]:
        """Edges as vertex pairs in counter-clockwise order."""
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    def halfplanes(self) -> tuple[tuple[Point, int], ...]:
        """Outward halfplane (n, c) per edge, in edge order:
        P = {x : <n, x> <= c}."""
        return self._halfplanes

    def doubled_area(self) -> int:
        """Twice the area (shoelace), always a positive integer."""
        s = 0
        n = len(self.vertices)
        for i in range(n):
            x1, y1 = self.vertices[i]
            x2, y2 = self.vertices[(i + 1) % n]
            s += x1 * y2 - y1 * x2
        return s

    def boundary_lattice_count(self) -> int:
        """Lattice points on the boundary (sum of edge gcds)."""
        return sum(segment_lattice_count(a, b) for a, b in self.edges())

    def bounding_box(self) -> tuple[Point, Point]:
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return (min(xs), min(ys)), (max(xs), max(ys))

    def contains(self, point: Sequence[int]) -> bool:
        """Exact closed membership test via the edge halfplanes."""
        x, y = point
        for (nx, ny), c in self.halfplanes():
            if nx * x + ny * y > c:
                return False
        return True

    def dilate(self, k: int) -> "Polygon2":
        """The dilate kP for a positive integer k."""
        if not isinstance(k, int) or k < 1:
            raise ValidationError("dilation factor must be a positive int")
        return Polygon2(tuple((k * x, k * y) for x, y in self.vertices))


def line_bounds(
    halfplanes: Sequence[tuple[Point, int]], x0: Point, u: Point
) -> Optional[tuple[int, int, int, int]]:
    """Exact parameter range (ls, lt, hs, ht) of the line {x0 + k*u} inside
    the halfplanes: ls/lt <= k <= hs/ht with lt, ht > 0.

    This is the one loop that clips a line against halfplanes. Each constraint
    <n, x0> + k <n, u> <= c bounds k by s/t, with s = c - <n, x0> and
    t = <n, u>: from above when t > 0, from below when t < 0. The least upper
    and the greatest lower bound are found by cross-multiplication, so no
    division is made, and the bounds are ints. Returns None when a
    halfplane parallel to u misses the line, and raises ValidationError when
    the halfplanes do not bound it on both sides.
    """
    hs = ls = None
    ht = lt = 1
    x, y = x0
    ux, uy = u
    for (nx, ny), c in halfplanes:
        s = c - nx * x - ny * y
        t = nx * ux + ny * uy
        if t > 0:
            if hs is None or s * ht < hs * t:
                hs, ht = s, t
        elif t < 0:
            if ls is None or s * lt < ls * t:  # s/t > ls/lt, with t < 0
                ls, lt = -s, -t
        elif s < 0:
            return None
    if hs is None or ls is None:
        # callers always pass full polygons, so treat as invalid input
        raise ValidationError("halfplanes do not bound the line")
    return ls, lt, hs, ht


def level_interval(
    halfplanes: Sequence[tuple[Point, int]], x0: Point, u: Point
) -> Optional[tuple[int, int]]:
    """Integer parameter range (klo, khi) of {x0 + k*u : k in Z} inside the
    halfplanes, or None when empty: the ceiling and floor of line_bounds.

    This is the one kernel that counts lattice points on a lattice line.
    """
    bounds = line_bounds(halfplanes, x0, u)
    if bounds is None:
        return None
    ls, lt, hs, ht = bounds
    klo, khi = -(-ls // lt), hs // ht
    if klo > khi:
        return None
    return klo, khi


# Integer-only level machinery. A primitive functional a and an integer level
# beta define the lattice line {x : <a, x> = beta}; its lattice points are
# anchor(beta) + k * u with u perpendicular to a. The level pieces of a
# direction give the k range of every level with two floor divisions; the
# diameter's cone picks and chord windows, the lattice points of a polygon
# and the grid dots of its picture are all read in these coordinates.


def level_anchor(a: Point) -> tuple[Point, Point]:
    """For primitive a, a particular solution s of <a, s> = 1 and the level direction.

    anchor(beta) = beta * s; the direction is the perpendicular of a as a
    plain primitive vector with canonical sign (the vector Direction would
    hold), so increasing k is increasing lexicographic order.
    """
    a1, a2 = a
    if gcd(a1, a2) != 1:
        raise ValidationError("level functional must be primitive")
    # extended euclid: a1*s + a2*t == 1
    old_r, r = a1, a2
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    step = (-a2, a1) if a2 < 0 or (a2 == 0 and a1 > 0) else (a2, -a1)
    return (old_s, old_t), step


# (lo, hi, cut, A, ti * tj, ti * cj - tj * ci, ti, -ei, ci, -tj, -ej, cj): see _level_pieces
Piece = tuple[int, int, int, int, int, int, int, int, int, int, int, int]


def _level_pieces(P: Polygon2, u: Point) -> tuple[Point, list[Piece]]:
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
    piece (diameter._chord_clip), and so are the sides, signed as the floor
    sums of the counts read them (diameter._piece_counts); a level's k
    range is read from them with two floor divisions (_level_ranges).
    """
    ux, uy = u
    anchor, _ = level_anchor((-uy, ux))
    sx, sy = anchor
    halfplanes = P.halfplanes()
    levels = [ux * y - uy * x for x, y in P.vertices]
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


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a*x + b) / m) over x = 0 .. n - 1, for m > 0 and any a, b.

    Euclid-like: reduce a and b mod m, then the sum counts the lattice points
    under a line, which is counted again with the roles of a and m swapped.
    O(log m) integer steps, whatever the size of n. A sum of one term is
    floor(b / m), whatever a, so the loop stops when one term is left.
    """
    total = 0
    while n > 1:
        q, a = divmod(a, m)
        total += q * (n * (n - 1) // 2)
        q, b = divmod(b, m)
        total += q * n
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m
    return total + b // m if n == 1 else total


class PointSet(Frozen):
    """A finite nonempty set of lattice points of one dimension, stored sorted."""

    _fields = ("points",)

    def __init__(self, points: Iterable[Iterable[int]]):
        pts = sorted({as_point(p) for p in points})
        if not pts:
            raise ValidationError("point sets must be nonempty")
        d = len(pts[0])
        if any(len(p) != d for p in pts):
            raise ValidationError("all points must share a dimension")
        object.__setattr__(self, "points", tuple(pts))

    @classmethod
    def _sorted(cls, points: Iterable[Point]) -> "PointSet":
        """A PointSet of trusted points: distinct int tuples of one dimension,
        already in lexicographic order, at least one. Nothing is checked,
        copied into a set or sorted."""
        self = object.__new__(cls)
        object.__setattr__(self, "points", tuple(points))
        return self

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p) -> bool:
        return tuple(p) in set(self.points)


def _level_ranges(P: Polygon2, u: Point) -> list[tuple[int, int]]:
    """The range (klo, khi) of the lattice points anchor*beta + k*u of P on
    every level beta of direction u, from the least level to the top, with
    klo > khi on a level that holds none.

    The levels run over the pieces of u (_level_pieces), and a level of a
    piece reads its two ends from the piece's row with two floor divisions,
    as the diameter's sweep reads its count: no line is clipped.
    """
    _, pieces = _level_pieces(P, u)
    ranges: list[tuple[int, int]] = []
    add = ranges.append
    for lo, hi, cut, _, _, _, ti, nei, ci, ntj, nej, cj in pieces:
        for beta in range(lo, hi + 1 - cut):
            add((-((cj + beta * nej) // ntj), (ci + beta * nei) // ti))
    return ranges


# The row scan pays one sort of its points for the columns it saves. The
# value was fitted when a column cost about 4 us; read from the level
# pieces, a column costs 0.2 to 0.4 us and the sort 0.13 to 0.25 us per
# point (QUAD dilates of 900 to 12,700 points), so the break-even is nearer
# 2 points per column. It is kept at 16, which keeps each polygon's scan
# orientation and the orientation tests' figures.
SORT_POINTS = 16


def enumerate_lattice_points(P: Polygon2) -> PointSet:
    """All lattice points of P, in lexicographic order, by an exact scan of
    its bounding box: one level per column of the pieces of (0, 1), or one
    per row of the pieces of (1, 0) and one sort of the points
    (_level_ranges).

    The levels of (0, 1) are -x, so the column ranges come in decreasing x,
    and reversed they list the points in lexicographic order: the column
    scan hands them over as they come. It runs unless the columns outnumber
    the rows by more than the sort costs (SORT_POINTS points per column,
    the count from Pick's theorem). So a thin polygon is scanned across its
    short side, and the scan reads at most
    min(width, height) + 1 + |P ∩ Z^2| / SORT_POINTS levels. The points are
    built by C-level zip and repeat and reach the PointSet through its
    trusted constructor, with no set and no validation pass.
    """
    (xmin, ymin), (xmax, ymax) = P.bounding_box()
    pts: list[Point] = []
    excess = (xmax - xmin) - (ymax - ymin)  # columns beyond the rows
    if excess <= 0 or excess <= count_lattice_points_polygon(P) // SORT_POINTS:
        columns = _level_ranges(P, (0, 1))
        columns.reverse()
        for x, (lo, hi) in enumerate(columns, xmin):
            if lo <= hi:
                pts += zip(repeat(x, hi - lo + 1), range(lo, hi + 1))
        return PointSet._sorted(pts)
    for y, (lo, hi) in enumerate(_level_ranges(P, (1, 0)), ymin):
        if lo <= hi:
            pts += zip(range(lo, hi + 1), repeat(y, hi - lo + 1))
    pts.sort()
    return PointSet._sorted(pts)


def count_lattice_points_polygon(P: Polygon2) -> int:
    """|P ∩ Z^2| by Pick's theorem: area + boundary/2 + 1, exactly."""
    return (P.doubled_area() + P.boundary_lattice_count() + 2) // 2
