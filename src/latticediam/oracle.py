"""Brute-force ground truth for lattice diameters, any dimension.

Definition-level evaluation: the lattice diameter of a finite set is the
maximum over point pairs of the gcd of their coordinate differences. This
module exists to cross-check the polygon algorithms and the constructions;
it is deliberately independent of the 2D machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

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


def _scan_pairs(pts: tuple[Point, ...]) -> tuple[int, list[tuple[int, int]]]:
    """Max gcd over pairs and the index pairs attaining it.

    Specialized inner loops for d = 2 and d = 3; the generic path handles the
    rest. Points arrive lex-sorted, so recorded pairs are already canonical.
    """
    n = len(pts)
    best = 0
    hits: list[tuple[int, int]] = []
    d = len(pts[0])
    if d == 2:
        for i in range(n - 1):
            xi, yi = pts[i]
            for j in range(i + 1, n):
                pj = pts[j]
                g = gcd(pj[0] - xi, pj[1] - yi)
                if g >= best:
                    if g > best:
                        best = g
                        hits = [(i, j)]
                    else:
                        hits.append((i, j))
    elif d == 3:
        for i in range(n - 1):
            xi, yi, zi = pts[i]
            for j in range(i + 1, n):
                pj = pts[j]
                g = gcd(pj[0] - xi, pj[1] - yi, pj[2] - zi)
                if g >= best:
                    if g > best:
                        best = g
                        hits = [(i, j)]
                    else:
                        hits.append((i, j))
    else:
        for i in range(n - 1):
            pi = pts[i]
            for j in range(i + 1, n):
                pj = pts[j]
                g = gcd(*(a - b for a, b in zip(pj, pi)))
                if g >= best:
                    if g > best:
                        best = g
                        hits = [(i, j)]
                    else:
                        hits.append((i, j))
    return best, hits


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
    """Exact diameter report by scanning all point pairs.

    Refuses inputs whose pair count exceeds max_pairs, to keep ground-truth
    runs at desk scale.
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
