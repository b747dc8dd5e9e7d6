"""Exact lattice geometry primitives.

Everything here is integer or rational arithmetic; no floats anywhere.
Points are plain tuples of ints, rational points are tuples of Fraction.
line_bounds is the one loop that clips a line against halfplanes: the
lattice point counts (level_interval), the exact clips of lines.clip_line
and the chord reads of the diameter module are all read from its bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence, Union

from .errors import ValidationError

Point = tuple[int, ...]
RationalPoint = tuple[Fraction, ...]

__all__ = [
    "Point",
    "RationalPoint",
    "Direction",
    "Polygon2",
    "PointSet",
    "as_point",
    "segment_lattice_count",
    "line_bounds",
    "level_interval",
    "floor_sum",
    "enumerate_lattice_points",
    "count_lattice_points_polygon",
    "lattice_width",
]


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


@dataclass(frozen=True, order=True)
class Direction:
    """A primitive lattice direction with canonical sign.

    The vector is divided by its gcd and negated if needed so that the first
    nonzero entry is positive; u and -u therefore normalize identically, and
    normalization is idempotent.
    """

    vec: Point

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

    @property
    def dim(self) -> int:
        return len(self.vec)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
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


@dataclass(frozen=True)
class Polygon2:
    """A strictly convex lattice polygon, vertices in counter-clockwise order."""

    vertices: tuple[Point, ...]

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
        # All-left-turn sequences can still wind more than once; require a
        # single revolution of the edge directions.
        if _winding_quadrants(edge_dirs) != 1:
            raise ValidationError("vertex sequence winds more than once")
        object.__setattr__(self, "vertices", verts)

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[Point, Point]]:
        """Edges as vertex pairs in counter-clockwise order."""
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    def halfplanes(self) -> list[tuple[Point, int]]:
        """Outward halfplane (n, c) per edge: P = {x : <n, x> <= c}."""
        out = []
        for (ax, ay), (bx, by) in self.edges():
            n = (by - ay, ax - bx)  # outward normal for CCW orientation
            out.append((n, n[0] * ax + n[1] * ay))
        return out

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
    division is made. A Fraction constant c stays exact (s is then a
    Fraction). Returns None when a halfplane parallel to u misses the line,
    and raises ValidationError when the halfplanes do not bound it on both
    sides.
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
    A Fraction constant c stays exact, since Fraction // int is an exact
    floor.
    """
    bounds = line_bounds(halfplanes, x0, u)
    if bounds is None:
        return None
    ls, lt, hs, ht = bounds
    klo, khi = -(-ls // lt), hs // ht
    if klo > khi:
        return None
    return klo, khi


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a*x + b) / m) over x = 0 .. n - 1, for m > 0 and any a, b.

    Euclid-like: reduce a and b mod m, then the sum counts the lattice points
    under a line, which is counted again with the roles of a and m swapped.
    O(log m) integer steps, whatever the size of n.
    """
    total = 0
    while n > 0:
        q, a = divmod(a, m)
        total += q * (n * (n - 1) // 2)
        q, b = divmod(b, m)
        total += q * n
        top = a * n + b
        if top < m:
            break
        n, b = divmod(top, m)
        m, a = a, m
    return total


@dataclass(frozen=True)
class PointSet:
    """A finite nonempty set of lattice points of one dimension, stored sorted."""

    points: tuple[Point, ...]

    def __init__(self, points: Iterable[Iterable[int]]):
        pts = sorted({as_point(p) for p in points})
        if not pts:
            raise ValidationError("point sets must be nonempty")
        d = len(pts[0])
        if any(len(p) != d for p in pts):
            raise ValidationError("all points must share a dimension")
        object.__setattr__(self, "points", tuple(pts))

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p) -> bool:
        return tuple(p) in set(self.points)


def enumerate_lattice_points(P: Polygon2) -> PointSet:
    """All lattice points of P, by exact row scan, in lexicographic order."""
    (_, ymin), (_, ymax) = P.bounding_box()
    halfplanes = P.halfplanes()
    pts: list[Point] = []
    for y in range(ymin, ymax + 1):
        row = level_interval(halfplanes, (0, y), (1, 0))
        if row is not None:
            pts.extend((x, y) for x in range(row[0], row[1] + 1))
    return PointSet(pts)


def count_lattice_points_polygon(P: Polygon2) -> int:
    """|P ∩ Z^2| by Pick's theorem: area + boundary/2 + 1, exactly."""
    return (P.doubled_area() + P.boundary_lattice_count() + 2) // 2


def lattice_width(
    obj: Union[Polygon2, PointSet], direction: Sequence[int]
) -> int:
    """max <a, x> - min <a, x> over the vertices/points, for integer a."""
    a = as_point(direction)
    pts = obj.vertices if isinstance(obj, Polygon2) else obj.points
    if len(a) != len(pts[0]):
        raise ValidationError("direction dimension does not match")
    vals = [sum(c * x for c, x in zip(a, p)) for p in pts]
    return max(vals) - min(vals)
