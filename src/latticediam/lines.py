"""Lattice lines in the plane and exact polygon clipping.

A lattice line is parametrized as base + t * dir with a primitive direction;
its lattice points sit exactly at integer t, which is what makes the floor/ceil
counting formula below exact. clip_line reads its ends from core.line_bounds,
the one loop that clips a line against halfplanes, and builds Fractions only
for the segment it reports.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, gcd
from typing import Optional, Sequence

from .core import Direction, Point, Polygon2, RationalPoint, as_point, line_bounds

# Not called here: perfbench/spans.py traces the kernel by the name
# lines.level_interval, so the name must resolve in this module.
from .core import level_interval  # noqa: F401
from .errors import ValidationError
from .frozen import Frozen, Ordered

__all__ = [
    "LatticeLine",
    "ClippedSegment",
    "clip_line",
    "nvol",
    "lattice_count_on_clip",
]


class LatticeLine(Ordered):
    """An affine line spanned by a primitive direction through a lattice point.

    The stored base is canonical: it is reduced modulo the direction so that
    0 <= <dir, base> < <dir, dir>. Two equal lines therefore have equal
    (base, dir) fields, whatever base they were built from, and so compare
    and hash equal. Lines are ordered by (base, dir).
    """

    _fields = ("base", "dir")

    def __init__(self, base: Sequence[int], dir: Direction | Sequence[int]):
        b = as_point(base)
        d = dir if isinstance(dir, Direction) else Direction(dir)
        if len(b) != d.dim:
            raise ValidationError("line base and direction dimensions differ")
        u = d.vec
        uu = sum(c * c for c in u)
        k = (sum(c * x for c, x in zip(u, b))) // uu
        b = tuple(x - k * c for x, c in zip(b, u))
        object.__setattr__(self, "base", b)
        object.__setattr__(self, "dir", d)

    def point_at(self, t: int) -> Point:
        """The lattice point base + t * dir."""
        return tuple(x + t * c for x, c in zip(self.base, self.dir.vec))

    def __contains__(self, p) -> bool:
        """Exact membership for lattice points (collinearity + integrality)."""
        q = tuple(p)
        if len(q) != len(self.base):
            return False
        diff = tuple(a - b for a, b in zip(q, self.base))
        u = self.dir.vec
        # diff must be an integer multiple of the primitive direction
        for i, c in enumerate(u):
            if c != 0:
                t, r = divmod(diff[i], c)
                if r != 0:
                    return False
                return all(x == t * y for x, y in zip(diff, u))
        return False


class ClippedSegment(Frozen):
    """The exact intersection of a lattice line with a convex polygon.

    Endpoints a, b are rational; t1 <= t2 are the parameters of a and b
    relative to the line's canonical base.
    """

    _fields = ("a", "b", "line", "t1", "t2")

    def __init__(
        self, a: RationalPoint, b: RationalPoint, line: LatticeLine, t1: Fraction,
        t2: Fraction,
    ):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "t2", t2)


def clip_line(
    P: Polygon2,
    line: LatticeLine,
    halfplanes: Sequence[tuple[Point, int]] | None = None,
) -> Optional[ClippedSegment]:
    """Clip a lattice line against a polygon, exactly; None when they miss.

    Tangency (a single point) yields a degenerate segment with t1 == t2.
    halfplanes, when the caller holds them, are P.halfplanes(). The ends
    t = s/d come from line_bounds with d > 0, so each end coordinate
    x + t c is built as the one Fraction (x d + s c)/d.
    """
    if line.dir.dim != 2:
        raise ValidationError("clipping is 2-dimensional")
    if halfplanes is None:
        halfplanes = P.halfplanes()
    (x, y), (ux, uy) = line.base, line.dir.vec
    bounds = line_bounds(halfplanes, (x, y), (ux, uy))
    if bounds is None:
        return None
    ls, lt, hs, ht = bounds
    if ls * ht > hs * lt:
        return None
    return ClippedSegment(
        a=(Fraction(x * lt + ls * ux, lt), Fraction(y * lt + ls * uy, lt)),
        b=(Fraction(x * ht + hs * ux, ht), Fraction(y * ht + hs * uy, ht)),
        line=line,
        t1=Fraction(ls, lt),
        t2=Fraction(hs, ht),
    )


def nvol(segment: ClippedSegment) -> int | Fraction:
    """Normalized volume of the clip: its length in lattice-direction units."""
    return segment.t2 - segment.t1


def lattice_count_on_clip(segment: ClippedSegment) -> int:
    """|segment ∩ Z^2| = floor(t2) - ceil(t1) + 1, clamped at zero.

    Sandwiched between floor(nvol) and floor(nvol) + 1, with the +1 exactly
    when an endpoint parameter is integral.
    """
    return max(0, floor(segment.t2) - ceil(segment.t1) + 1)


# Integer-only level machinery. A primitive functional a and an integer level
# beta define the lattice line {x : <a, x> = beta}; its lattice points are
# anchor(beta) + k * u with u perpendicular to a. Clipping in the k-parameter
# (level_interval) needs only floor divisions, and the diameter's cone picks
# and level pieces are written in these coordinates.


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
