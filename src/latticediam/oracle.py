"""Exact ground truth for lattice diameters, any dimension.

The lattice diameter of a finite set is the maximum over point pairs of the
gcd of their coordinate differences. Two exact paths compute it with every
pair attaining it: a pair scan that skips pairs which cannot reach the best
gcd so far, and a residue scan that looks for the largest g at which two
points agree mod g, stopping at the Rabinowitz floor (more than g^d points
hold two that agree mod g). In the plane the pair scan first reads lattice
lines of short primitive direction u: a pair of gcd g spans g |u|_inf along
its direction, so once the best gcd times the next norm exceeds the
coordinate range, no pair left can reach it, and the phase stops exact;
when the lines left would cost more than the pairs, its best seeds the
pair loop. In the plane the residue scan first reads the lines of
shell one, |u|_inf = 1: a pair of gcd above half the range lies on one,
so when one spans more than half the range, no modulus is tried. A cost
model picks the cheaper path, and the report holds the diameter, its
pairs and their directions. The points are transposed once, and both
paths read their coordinate columns. This module exists to
cross-check the polygon algorithms and the constructions; it is
deliberately independent of the 2D machinery.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, combinations, repeat
from math import gcd
from operator import add, sub
from typing import Sequence

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


def _pair_loop(
    pts: tuple[Point, ...], xs: Sequence[int], best: int = 0
) -> tuple[int, list[tuple[int, int]]]:
    """Max gcd over pairs of points of Z^d, d >= 2, and the index pairs
    attaining it, pair by pair, seeded with a lower bound best on the maximum.

    Points arrive lex-sorted, with xs their first coordinates, so recorded
    pairs are already canonical. A pair with 0 < dx < best cannot reach
    best (the gcd divides dx), so each row skips that x window by bisection.
    The gcd of dx and dy bounds the full gcd when it is nonzero, so the
    trailing coordinates, none in the plane, are read only when it is 0 or
    at least best. Every pair of gcd at least the seed is read, so the hits
    are complete when the seed is at most the maximum.
    """
    n = len(pts)
    hits: list[tuple[int, int]] = []
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


# The line phase weighs a line step (one point keyed for one direction) as
# one pair read by the pair loop: of the weights 1, 2 and 3, 1 gave the
# fastest planar pair path over the planar rows of scripts/bench_oracle.py
# (BENCH_22.json). While no best lets the lines finish in fewer steps than
# the pairs left, the phase spends at most 1 / LINE_PROBE of the pair
# loop's steps looking for one; 4 did better than 3 and 8 on planar sets of
# 100 to 400 points in [0, 10^5]^2, where a first long line turns up within
# a few shells or not at all.
LINE_PROBE = 4


def _slab_steps(
    doms: tuple[list[int], list[int]], best: int, K: int, limit: int
) -> int:
    """The line steps of the shells after K up to the stop, with best as it
    is, or a first partial sum over limit.

    Shell K keys, in each half, the points of the two end slabs of width
    best * K along the sorted dominant coordinate doms[h], once for each of
    its about 2 K directions; past the stop, best * K > R, the slabs are
    empty.
    """
    n = len(doms[0])
    steps = 0
    while steps <= limit:
        K += 1
        w = best * K
        slabs = 0
        for dom in doms:
            hi = bisect_right(dom, dom[-1] - w)
            if hi:
                lo = bisect_left(dom, dom[0] + w)
                slabs += n if lo <= hi else hi + n - lo
        if not slabs:
            break
        steps += 2 * K * slabs
    return steps


def _line_phase(
    xs: Sequence[int], ys: Sequence[int]
) -> tuple[int, list[tuple[int, int]] | None, int]:
    """Max gcd over pairs of planar points, the index pairs attaining it and
    the line steps taken, line by line; or a lower bound on the max, None
    and the steps, when the pair loop is cheaper. The points are lex-sorted,
    and xs and ys are their coordinate columns.

    A pair with gcd g differs by g * u for a primitive u, and g is at most
    R / |u|_inf, R the wider coordinate range. The phase scans the shells
    K = 1, 2, ... of primitive u with |u|_inf = K, the x-dominant u = (K, b),
    |b| <= K, on the lex-sorted points and the y-dominant u = (b, K),
    |b| < K, on a y-sorted copy. In direction u a point's line is keyed by
    K * other - b * dominant coordinate, and the first and last point of a
    key are the ends of its line. After shell K every pair not yet read has
    g <= R / (K + 1), so once best * (K + 1) > R the hits are the end pairs
    of the lines of span best, and the phase stops. A pair of gcd at least
    best in shell K spans best * K along the dominant coordinate, so only
    the two end slabs of that width are keyed, found by bisection.

    After each shell the phase weighs the line steps left to the stop
    (_slab_steps) against the pairs the pair loop (_pair_loop) would read
    with best as its seed, one line step against one pair. When the lines
    take no more steps it commits to them and goes on to the stop without
    weighing again: a larger best only narrows the slabs. Otherwise it goes
    on only while its steps stay under 1 / LINE_PROBE of the pair loop's,
    and then hands best over. The steps counted are the points keyed, one
    per direction.
    """
    n = len(xs)
    if n < 2:
        return 0, [], 0
    # sorting the lex order stably by y gives the (y, x) order
    order = sorted(range(n), key=ys.__getitem__)
    yd = [ys[i] for i in order]
    halves = ((xs, ys, range(n), 0), (yd, [xs[i] for i in order], order, 1))
    doms = (xs, yd)
    R = max(xs[-1] - xs[0], yd[-1] - yd[0])
    best, hits = 0, []
    spent, committed = 0, False
    K = 0
    while True:
        K += 1
        for dom, oth, index, edge in halves:
            keys = None
            for b in range(edge - K, K + 1 - edge):
                if keys is None:
                    # key the two end slabs of width w, or every point when
                    # they meet; rebuilt whenever best grows
                    w = max(best, 1) * K
                    hi = bisect_right(dom, dom[-1] - w)
                    if not hi:
                        break
                    lo = bisect_left(dom, dom[0] + w)
                    if lo <= hi:
                        idx, do, oo = range(n), dom, oth
                    else:
                        idx = [*range(hi), *range(lo, n)]
                        do, oo = dom[:hi] + dom[lo:], oth[:hi] + oth[lo:]
                    keys = [K * o - b * x for o, x in zip(oo, do)]
                else:
                    # the next b: subtract the dominant coordinate
                    keys = list(map(sub, keys, do))
                spent += len(keys)
                if gcd(K, b) != 1 or len(set(keys)) == len(keys):
                    continue  # not primitive, or no two points share a line
                last = dict(zip(keys, idx))
                first = dict(zip(reversed(keys), reversed(idx)))
                m = max(map(sub, map(dom.__getitem__, last.values()),
                            map(dom.__getitem__, map(first.__getitem__, last))))
                if m < w:
                    continue
                if m // K > best:
                    best, hits = m // K, []
                for key, j in last.items():
                    i = first[key]
                    if dom[j] - dom[i] == m:
                        p, q = index[i], index[j]
                        hits.append((p, q) if p < q else (q, p))
                if best * K > w:
                    keys = None
        if best * (K + 1) > R:
            return best, sorted(hits), spent
        if not committed:
            # the pair loop reads, from each point, the points at least best
            # to the right of it
            left = n * n - sum(map(bisect_left, repeat(xs, n), map(best.__add__, xs)))
            if best and _slab_steps(doms, best, K, left) <= left:
                committed = True
            elif LINE_PROBE * (spent + _slab_steps(doms, max(best, 1), K, 0)) > left:
                return best, None, spent


def _pair_scan(
    pts: tuple[Point, ...], cols: Sequence[Sequence[int]]
) -> tuple[int, list[tuple[int, int]]]:
    """Max gcd over pairs and the index pairs attaining it.

    Points arrive lex-sorted, with cols their coordinate columns, and the
    index pairs come out lex-sorted. A set in d = 1 is scanned as its copy
    on the line y = 0 of Z^2, which keeps every gcd. In d = 2 the line
    phase (_line_phase) runs first and returns when it stops; when the
    lines left cost more than the pairs, the pair loop (_pair_loop) takes
    over, seeded with its best. In d >= 3 the pair loop runs from 0.
    """
    d = len(cols)
    if d == 1:
        pts = tuple((x, 0) for (x,) in pts)
        cols = (cols[0], (0,) * len(pts))
    xs = cols[0]
    best = 0
    if d <= 2:
        best, hits, _ = _line_phase(xs, cols[1])
        if hits is not None:
            return best, hits
    return _pair_loop(pts, xs, best)


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


def _line_ends(
    xs: Sequence[int], ys: Sequence[int], u: Point, t: int
) -> list[tuple[int, int, int]]:
    """(span, i, j) for each line of direction u of shell one, (1, 0),
    (0, 1), (1, 1) or (1, -1), whose span, the gcd of its end pair, is at
    least t: i and j index its first and last point.

    The points are lex-sorted, with coordinate columns xs and ys. A
    vertical line is one run of equal x, and its ends are where the runs
    change. Another line is keyed by y - uy x and runs along the sorted x,
    so a line of span at least t starts in the slab x <= max - t and ends
    in the slab x >= min + t, found by bisection: one dict finds the first
    point of each key in the lower slab, and one the last in the upper.
    """
    n = len(xs)
    if u == (0, 1):
        last = list(dict(zip(xs, range(n))).values())
        first = [0, *[j + 1 for j in last[:-1]]]
        return [
            (ys[j] - ys[i], i, j) for i, j in zip(first, last) if ys[j] - ys[i] >= t
        ]
    uy = u[1]

    def keys(a: int, b: int) -> Sequence[int]:
        if uy == 0:
            return ys[a:b]
        return list(map(sub if uy > 0 else add, ys[a:b], xs[a:b]))

    lo = bisect_right(xs, xs[-1] - t)
    hi = bisect_left(xs, xs[0] + t)
    first = dict(zip(reversed(keys(0, lo)), range(lo - 1, -1, -1)))
    ends = []
    for key, j in dict(zip(keys(hi, n), range(hi, n))).items():
        i = first.get(key)
        if i is not None and xs[j] - xs[i] >= t:
            ends.append((xs[j] - xs[i], i, j))
    return ends


def _residue_scan(
    pts: tuple[Point, ...], cols: Sequence[Sequence[int]], spreads: list[int],
    bound: int,
) -> tuple[int, list[tuple[int, int]]]:
    """Max gcd over pairs and the index pairs attaining it, by residue classes.

    Two points agree mod g in every coordinate exactly when g divides the gcd
    of their differences. So the first g, going down, at which two points
    share a class is the lattice diameter, and the pairs sharing a class then
    are its hits. Gcds above the bound of _residue_bound come from points
    equal off the widest coordinate, which are read from one grouping; below
    it the scan runs over g and stops by g = floor at the latest, since more
    than floor ** d points fill the floor ** d classes. cols are the
    coordinate columns of pts, spreads their ranges, and bound is
    _residue_bound(spreads).

    In d = 2 the lines of shell one, the directions (1, 0), (0, 1), (1, 1)
    and (1, -1), are read before any modulus (_line_ends). A pair of gcd g
    differs by g u for a primitive u, and |u|_inf <= R / g, R the widest
    range: so when g > R / 2, u is in shell one, and when g > bound, u is
    the axis of the widest coordinate. Either way, a gcd g above
    m = min(bound, R // 2) is at most the span of the pair's line, a line of
    shell one, and the end pair of that line has gcd equal to its span. So
    if some line of shell one spans more than m, the longest span is the
    diameter, and its hits are the end pairs of the lines of that span;
    otherwise the moduli start at m. When 2 bound > R, all four directions
    are read; otherwise only the axis of the widest coordinate can span
    more than m, since a line spans at most the range of each coordinate
    it moves in. Each direction reads only the lines that reach the
    longest span found so far.
    """
    n, d = len(pts), len(cols)
    w = spreads.index(max(spreads))
    if d == 2:
        t = min(bound, spreads[w] // 2) + 1
        # each direction with the longest span it can reach, the axis of
        # the widest coordinate first
        lines = [((1, 0), spreads[0]), ((0, 1), spreads[1])]
        if w:
            lines.reverse()
        lines += [((1, 1), min(spreads)), ((1, -1), min(spreads))]
        ends: list[tuple[int, int, int]] = []
        for u, most in lines:
            if most >= t:
                found = _line_ends(*cols, u, t)
                if found:
                    ends += found
                    t = max(found)[0]
        if ends:
            span = max(ends)[0]
            return span, sorted((i, j) for length, i, j in ends if length == span)
        bound = t - 1
    else:
        # lex order sorts each group by coordinate w, so its ends span it,
        # and lists the groups by their first index, so their end pairs
        # come sorted
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
    cols = tuple(zip(*pts))
    spreads = [max(col) - min(col) for col in cols]
    bound = check_pair_budget(len(pts), spreads, max_pairs)
    if bound is None:
        best, hits = _pair_scan(pts, cols)
    else:
        best, hits = _residue_scan(pts, cols, spreads, bound)
    segments = tuple((pts[i], pts[j]) for i, j in hits)
    # Each segment (p, q) has p < q, so q - p is sign-canonical, and every
    # q - p has gcd best, so dividing by it keeps their order and leaves
    # each primitive: the plain differences are deduplicated and sorted,
    # and each distinct one is divided by best and made a Direction once,
    # with nothing left for the validating constructor to do.
    differences = sorted({tuple(map(sub, q, p)) for p, q in segments})
    directions = tuple(
        Direction._canonical(tuple(c // best for c in v)) for v in differences
    )
    return OracleReport(ldiam=best, segments=segments, directions=directions)


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
