"""Lattice lines in the plane and exact polygon clipping.

A lattice line is parametrized as base + t * dir with a primitive direction;
its lattice points sit exactly at integer t, which is what makes the floor/ceil
counting formula below exact. clip_line reads its ends from core.line_bounds,
the one loop that clips a line against halfplanes, and builds Fractions only
for the segment it reports.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor
from operator import mul
from typing import Optional, Sequence

from .core import Direction, Point, Polygon2, RationalPoint, as_point, line_bounds

# Not called here: perfbench/spans.py traces the kernel by the name
# lines.level_interval, and the tests import level_anchor from here, so
# both names must resolve in this module.
from .core import level_anchor, level_interval  # noqa: F401
from .errors import ValidationError
from .frozen import Frozen, Ordered

__all__ = [
    "LatticeLine",
    "ClippedSegment",
    "clip_line",
    "nvol",
    "lattice_count_on_clip",
]


def _reduced(b: Point, u: Point) -> Point:
    """The point of the line b + t u with 0 <= <u, point> < <u, u>; the
    plane, where every line of the package lives, is written out."""
    if len(u) == 2:
        (x, y), (ux, uy) = b, u
        k = (ux * x + uy * y) // (ux * ux + uy * uy)
        return x - k * ux, y - k * uy
    k = sum(map(mul, u, b)) // sum(map(mul, u, u))
    return tuple(x - k * c for x, c in zip(b, u))


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
        object.__setattr__(self, "base", _reduced(b, d.vec))
        object.__setattr__(self, "dir", d)

    @classmethod
    def _canonical(cls, base: Point, d: Direction) -> "LatticeLine":
        """The line through the trusted lattice point base, a tuple of ints
        of the dimension of d. The base is reduced modulo the direction, as
        in __init__, but nothing is checked or converted."""
        self = object.__new__(cls)
        object.__setattr__(self, "base", _reduced(base, d.vec))
        object.__setattr__(self, "dir", d)
        return self

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


def clip_line(P: Polygon2, line: LatticeLine) -> Optional[ClippedSegment]:
    """Clip a lattice line against a polygon, exactly; None when they miss.

    Tangency (a single point) yields a degenerate segment with t1 == t2.
    The ends t = s/d come from line_bounds with d > 0, so each end
    coordinate x + t c is built as the one Fraction (x d + s c)/d.
    """
    if line.dir.dim != 2:
        raise ValidationError("clipping is 2-dimensional")
    (x, y), (ux, uy) = line.base, line.dir.vec
    bounds = line_bounds(P.halfplanes(), (x, y), (ux, uy))
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
