"""Exact ground truth for lattice diameters, any dimension.

The lattice diameter of a finite set is the maximum over point pairs of the
gcd of their coordinate differences. Two exact paths compute it with every
pair attaining it: a pair scan that skips pairs which cannot reach the best
gcd so far, and a residue scan that looks for the largest g at which two
points agree mod g, stopping at the Rabinowitz floor (more than g^d points
hold two that agree mod g). A cost model picks the cheaper one. This module
exists to cross-check the polygon algorithms and the constructions; it is
deliberately independent of the 2D machinery.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, combinations
from math import gcd
from operator import sub

from .core import Direction, Point, PointSet
from .errors import BudgetError, ValidationError

__all__ = [
    "DEFAULT_PAIR_BUDGET",
    "OracleReport",
    "check_pair_budget",
    "brute_force_diameter",
    "diameter_directions",
    "check_rabinowitz",
]

DEFAULT_PAIR_BUDGET = 200_000


@dataclass(frozen=True)
class OracleReport:
    """Everything the pair scan learns about a point set.

    segments hold each diameter pair once, lexicographically smaller endpoint
    first; per_point_degree maps each point to the number of diameter segments
    it ends.
    """

    ldiam: int
    segments: tuple[tuple[Point, Point], ...]
    directions: tuple[Direction, ...]
    per_point_degree: dict[Point, int]


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


def _scan_pairs(pts: tuple[Point, ...]) -> tuple[int, list[tuple[int, int]]]:
    """Max gcd over pairs and the lex-sorted index pairs attaining it.

    Takes the residue scan when RESIDUE_COST times its worst-case steps is
    below the pair count, and the pair scan otherwise. Both are exact and
    return the same result. The coordinate ranges and the residue bound are
    computed once, for the cost model and the residue scan.
    """
    spreads = [max(col) - min(col) for col in zip(*pts)]
    bound = _residue_bound(spreads)
    pairs, steps = _path_costs(len(pts), len(pts[0]), bound)
    if RESIDUE_COST * steps < pairs:
        return _residue_scan(pts, spreads, bound)
    return _pair_scan(pts)


def check_pair_budget(n: int, max_pairs: int) -> None:
    """Raise BudgetError when a pair scan of n points would exceed max_pairs."""
    pairs = n * (n - 1) // 2
    if pairs > max_pairs:
        raise BudgetError(
            f"{n} points give {pairs} pairs, over the budget of {max_pairs}"
        )


def brute_force_diameter(
    S: PointSet, max_pairs: int = DEFAULT_PAIR_BUDGET
) -> OracleReport:
    """Exact diameter report: every pair of maximal gcd, by the cheaper path.

    Refuses inputs whose pair count exceeds max_pairs, to keep ground-truth
    runs at desk scale, whichever path would run.
    """
    pts = S.points
    check_pair_budget(len(pts), max_pairs)
    if len(pts) == 1:
        return OracleReport(
            ldiam=0, segments=(), directions=(), per_point_degree={pts[0]: 0}
        )
    best, hits = _scan_pairs(pts)
    segments = tuple((pts[i], pts[j]) for i, j in hits)
    directions = sorted(
        {Direction(tuple(b - a for a, b in zip(p, q))) for p, q in segments}
    )
    degree: dict[Point, int] = {p: 0 for p in pts}
    for p, q in segments:
        degree[p] += 1
        degree[q] += 1
    return OracleReport(
        ldiam=best,
        segments=segments,
        directions=tuple(directions),
        per_point_degree=degree,
    )


def diameter_directions(
    S: PointSet, max_pairs: int = DEFAULT_PAIR_BUDGET
) -> tuple[Direction, ...]:
    """Deduplicated, sorted diameter directions of a set with >= 2 points."""
    if len(S) < 2:
        raise ValidationError("diameter directions need at least 2 points")
    return brute_force_diameter(S, max_pairs).directions


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
