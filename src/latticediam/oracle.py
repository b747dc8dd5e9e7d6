"""Exact ground truth for lattice diameters, any dimension.

The lattice diameter of a finite set is the maximum over point pairs of the
gcd of their coordinate differences. Two exact paths compute it with every
pair attaining it: a pair scan that skips pairs which cannot reach the best
gcd so far, and a residue scan that looks for the largest g at which two
points agree mod g, stopping at the Rabinowitz floor (more than g^d points
hold two that agree mod g). A cost model picks the cheaper one, and the
report holds the diameter, its pairs and their directions. This module
exists to cross-check the polygon algorithms and the constructions; it is
deliberately independent of the 2D machinery.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, combinations
from math import gcd
from operator import attrgetter, sub

from .core import DEFAULT_PAIR_BUDGET, Direction, Point, PointSet
from .errors import BudgetError, ValidationError
from .frozen import Frozen

__all__ = [
    "DEFAULT_PAIR_BUDGET",
    "OracleReport",
    "check_pair_budget",
    "brute_force_diameter",
    "check_rabinowitz",
]


class OracleReport(Frozen):
    """Everything the pair scan learns about a point set.

    segments hold each diameter pair once, lexicographically smaller endpoint
    first, in lexicographic order; directions are their deduplicated, sorted
    directions. A point's degree in the diameter graph is the size of its
    neighbour set in borsuk.BorsukGraph.neighbours.
    """

    _fields = ("ldiam", "segments", "directions")

    def __init__(
        self, ldiam: int, segments: tuple[tuple[Point, Point], ...],
        directions: tuple[Direction, ...],
    ):
        object.__setattr__(self, "ldiam", ldiam)
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "directions", directions)


def _pair_scan(pts: tuple[Point, ...]) -> tuple[int, list[tuple[int, int]]]:
    """Max gcd over pairs and the index pairs attaining it, pair by pair.

    Points arrive lex-sorted, so recorded pairs are already canonical. Once
    best is known, a pair with 0 < dx < best cannot reach it (the gcd divides
    dx), so each row skips that x window by bisection. In d >= 3 the gcd of
    dx and dy bounds the full gcd when it is nonzero, so the rest of the
    coordinates are read only when it is 0 or at least best. A set in d = 1
    is scanned as its copy on the line y = 0 of Z^2, which keeps every gcd.
    """
    n = len(pts)
    d = len(pts[0])
    if d == 1:
        pts = tuple((x, 0) for (x,) in pts)
    xs = [p[0] for p in pts]
    best = 0
    hits: list[tuple[int, int]] = []
    if d <= 2:
        for i in range(n - 1):
            xi, yi = pts[i]
            a = bisect_right(xs, xi, i + 1)
            for j in chain(range(i + 1, a), range(bisect_left(xs, xi + best, a), n)):
                pj = pts[j]
                g = gcd(pj[0] - xi, pj[1] - yi)
                if g >= best:
                    if g > best:
                        best = g
                        hits = [(i, j)]
                    else:
                        hits.append((i, j))
        return best, hits
    rest = [p[2:] for p in pts]
    for i in range(n - 1):
        xi, yi = pts[i][0], pts[i][1]
        ri = rest[i]
        a = bisect_right(xs, xi, i + 1)
        for j in chain(range(i + 1, a), range(bisect_left(xs, xi + best, a), n)):
            pj = pts[j]
            g = gcd(pj[0] - xi, pj[1] - yi)
            if g and g < best:
                continue
            g = gcd(g, *map(sub, rest[j], ri))
            if g >= best:
                if g > best:
                    best = g
                    hits = [(i, j)]
                else:
                    hits.append((i, j))
    return best, hits


def _rabinowitz_floor(n: int, d: int) -> int:
    """Largest g with g ** d < n: any n points of Z^d hold two that agree mod g."""
    lo, hi = 0, n  # lo ** d < n <= hi ** d
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**d < n:
            lo = mid
        else:
            hi = mid
    return lo


def _residue_bound(spreads: list[int]) -> int:
    """The second largest coordinate range (0 in d = 1).

    A pair of distinct points whose gcd exceeds it differs only in the
    widest coordinate, since the gcd divides every nonzero difference.
    """
    return sorted(spreads)[-2] if len(spreads) > 1 else 0


def _residue_scan(
    pts: tuple[Point, ...], spreads: list[int], bound: int
) -> tuple[int, list[tuple[int, int]]]:
    """Max gcd over pairs and the index pairs attaining it, by residue classes.

    Two points agree mod g in every coordinate exactly when g divides the gcd
    of their differences. So the first g, going down, at which two points
    share a class is the lattice diameter, and the pairs sharing a class then
    are its hits. Gcds above the bound of _residue_bound come from points
    equal off the widest coordinate, which are read from one grouping; below
    it the scan runs over g and stops by g = floor at the latest, since more
    than floor ** d points fill the floor ** d classes. spreads are the
    coordinate ranges of pts, and bound is _residue_bound(spreads).
    """
    n, d = len(pts), len(pts[0])
    cols = list(zip(*pts))
    w = spreads.index(max(spreads))
    # lex order sorts each group by coordinate w, so its ends span it, and
    # lists the groups by their first index, so their end pairs come sorted
    groups: dict[tuple[int, ...], list[int]] = {}
    for k, p in enumerate(pts):
        groups.setdefault(p[:w] + p[w + 1 :], []).append(k)
    ends = [(pts[m[-1]][w] - pts[m[0]][w], m[0], m[-1]) for m in groups.values()]
    span = max(ends)[0]
    if span > bound:
        return span, [(i, j) for length, i, j in ends if length == span]
    for g in range(bound, _rabinowitz_floor(n, d) - 1, -1):
        keys = list(zip(*[[c % g for c in col] for col in cols]))
        if len(set(keys)) < n:
            classes: dict[tuple[int, ...], list[int]] = {}
            for k, key in enumerate(keys):
                classes.setdefault(key, []).append(k)
            hits = [
                pair
                for members in classes.values()
                if len(members) > 1
                for pair in combinations(members, 2)
            ]
            return g, sorted(hits)
    raise AssertionError("unreachable: the floor class is always shared")


# A residue step (one point at one modulus) costs about RESIDUE_COST pair
# steps; measured by scripts/bench_oracle.py (BENCH_7.json).
RESIDUE_COST = 2


def _path_costs(n: int, d: int, bound: int) -> tuple[int, int]:
    """The pair count n (n - 1) / 2 of n points in Z^d and the residue scan's
    worst-case steps, for the bound of _residue_bound.

    A step is one point reduced at one modulus; the scan takes at most
    bound - floor + 1 moduli, or just its grouping pass when floor > bound.
    """
    moduli = max(bound - _rabinowitz_floor(n, d), 0) + 1
    return n * (n - 1) // 2, n * moduli


def check_pair_budget(n: int, spreads: list[int], max_pairs: int) -> int | None:
    """Decide the scan of n points with coordinate ranges spreads, and raise
    BudgetError when it would cost more than max_pairs pair steps.

    The residue scan is taken when RESIDUE_COST times its worst-case steps
    is below the pair count n (n - 1) / 2, and the pair scan otherwise; both
    are exact and give the same result. The budget charges the path taken.
    Returns the residue bound (_residue_bound) for the residue scan and
    None for the pair scan. It needs only n and the ranges, so a polygon is
    charged before any of its lattice points is listed.
    """
    bound = _residue_bound(spreads)
    pairs, steps = _path_costs(n, len(spreads), bound)
    cost = RESIDUE_COST * steps
    if cost < pairs:
        if cost > max_pairs:
            raise BudgetError(
                f"{n} points give {steps} residue steps ({cost} pair steps),"
                f" over the budget of {max_pairs}"
            )
        return bound
    if pairs > max_pairs:
        raise BudgetError(
            f"{n} points give {pairs} pairs, over the budget of {max_pairs}"
        )
    return None


def brute_force_diameter(
    S: PointSet, max_pairs: int = DEFAULT_PAIR_BUDGET
) -> OracleReport:
    """Exact diameter report: every pair of maximal gcd, by the cheaper path.

    check_pair_budget decides the path once, and refuses inputs whose scan
    would cost more than max_pairs pair steps, to keep ground-truth runs at
    desk scale.
    """
    pts = S.points
    spreads = [max(col) - min(col) for col in zip(*pts)]
    bound = check_pair_budget(len(pts), spreads, max_pairs)
    if bound is None:
        best, hits = _pair_scan(pts)
    else:
        best, hits = _residue_scan(pts, spreads, bound)
    segments = tuple((pts[i], pts[j]) for i, j in hits)
    # Direction's own order, compared as plain tuples rather than through
    # a Python-level __lt__ per comparison.
    directions = sorted(
        {Direction(tuple(b - a for a, b in zip(p, q))) for p, q in segments},
        key=attrgetter("vec"),
    )
    return OracleReport(ldiam=best, segments=segments, directions=tuple(directions))


def check_rabinowitz(
    S: PointSet, m: int, max_pairs: int = DEFAULT_PAIR_BUDGET
) -> bool:
    """Size bound check: ldiam(S) < m implies |S| <= m ** dim.

    Returns True when the implication holds for this S and m.
    """
    if m < 1:
        raise ValidationError("the bound parameter m must be a positive int")
    report = brute_force_diameter(S, max_pairs)
    if report.ldiam >= m:
        return True
    return len(S) <= m ** S.dim
