"""Reference constructions: extremal polytopes and hardness gadgets.

Everything returns exact integer/rational data. Small polytopes given by their
vertices are enumerated through brute-force facets (every d-subset of vertices
is tested as a supporting hyperplane), which is exact and plenty fast at the
sizes built here.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd, isqrt
from operator import mul
from typing import TYPE_CHECKING, Iterator, Sequence

from .core import Direction, Point, Polygon2, PointSet, as_point, enumerate_lattice_points
from .errors import BudgetError, ValidationError
from .frozen import Frozen
from .oracle import DEFAULT_PAIR_BUDGET, brute_force_diameter

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "PolyConstraint",
    "HardnessInstance",
    "HardnessCheck",
    "hull_facets",
    "integer_points_of_hull",
    "vertex_avoiding_polytope",
    "slope_triangle",
    "direction_maximal_polytope",
    "hardness_instance",
    "hardness_lattice_points",
    "min_f_on_grid",
    "verify_hardness_instance",
    "demo_chamber",
]

_HULL_COMBINATION_BUDGET = 100_000
_HULL_BOX_BUDGET = 2_000_000


def _int_det(rows: list[list[int]]) -> int:
    """Exact determinant of a small integer matrix (fraction-free Bareiss)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for j in range(i + 1, n):
                if m[j][i] != 0:
                    m[i], m[j] = m[j], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                m[j][k] = (m[j][k] * m[i][i] - m[j][i] * m[i][k]) // prev
            m[j][i] = 0
        prev = m[i][i]
    return sign * m[-1][-1]


def _normal_through(points: Sequence[Point]) -> Point | None:
    """Integer normal of the hyperplane through d affinely independent points
    in Z^d (generalized cross product of the difference vectors), else None."""
    base = points[0]
    diffs = [[p[i] - base[i] for i in range(len(base))] for p in points[1:]]
    d = len(base)
    normal = []
    for j in range(d):
        minor = [[row[i] for i in range(d) if i != j] for row in diffs]
        normal.append((-1) ** j * _int_det(minor))
    if all(c == 0 for c in normal):
        return None
    g = gcd(*normal)
    return tuple(c // g for c in normal)


def _full_dimensional(vertices: list[Point]) -> bool:
    """Whether the difference vectors v - v0 span R^d: the matrix M of
    them has rank d exactly when its Gram matrix M^T M is nonsingular."""
    base = vertices[0]
    diffs = [[a - b for a, b in zip(v, base)] for v in vertices[1:]]
    cols = list(zip(*diffs))
    return _int_det([[sum(map(mul, a, b)) for b in cols] for a in cols]) != 0


def hull_facets(vertices: Sequence[Sequence[int]]) -> list[tuple[Point, int]]:
    """Facet inequalities <n, x> <= c of conv(vertices) for a full-dimensional
    integer vertex set, by brute force over d-subsets."""
    verts = [as_point(v) for v in vertices]
    d = len(verts[0])
    if any(len(v) != d for v in verts):
        raise ValidationError("hull vertices must share a dimension")
    if len(verts) < d + 1:
        raise ValidationError("need at least d + 1 vertices for a full-dim hull")
    if not _full_dimensional(verts):
        raise ValidationError("vertex set is not full-dimensional")
    n_combos = 1
    for i in range(d):
        n_combos = n_combos * (len(verts) - i) // (i + 1)
    if n_combos > _HULL_COMBINATION_BUDGET:
        raise BudgetError(f"{n_combos} candidate hyperplanes exceed the hull budget")
    facets: set[tuple[Point, int]] = set()
    for combo in combinations(verts, d):
        n = _normal_through(combo)
        if n is None:
            continue
        c = sum(a * b for a, b in zip(n, combo[0]))
        vals = [sum(a * b for a, b in zip(n, v)) for v in verts]
        if all(v <= c for v in vals):
            facets.add((n, c))
        if all(v >= c for v in vals):
            facets.add((tuple(-a for a in n), -c))
    return sorted(facets)


def integer_points_of_hull(vertices: Sequence[Sequence[int]]) -> PointSet:
    """All lattice points of conv(vertices), by facet tests over the bounding box."""
    verts = [as_point(v) for v in vertices]
    facets = hull_facets(verts)
    d = len(verts[0])
    los = [min(v[i] for v in verts) for i in range(d)]
    his = [max(v[i] for v in verts) for i in range(d)]
    volume = 1
    for lo, hi in zip(los, his):
        volume *= hi - lo + 1
    if volume > _HULL_BOX_BUDGET:
        raise BudgetError(f"bounding box of {volume} candidates exceeds the budget")
    pts = []
    ranges = [range(lo, hi + 1) for lo, hi in zip(los, his)]
    for p in product(*ranges):
        if all(sum(a * b for a, b in zip(n, p)) <= c for n, c in facets):
            pts.append(p)
    return PointSet(pts)


def vertex_avoiding_polytope(m: int) -> tuple[PointSet, tuple[Point, ...]]:
    """A 3-polytope whose unique diameter segment avoids the boundary entirely.

    Six vertices built from v1 = (-1,0), v2 = (0,-1), v3 = (1,1) glued at
    first coordinates +-m and +-(m-1); the only diameter segment runs from
    (-(m-1),0,0) to (m-1,0,0) through the interior.
    """
    if not isinstance(m, int) or m < 2:
        raise ValidationError("need an integer m >= 2")
    v1, v2, v3 = (-1, 0), (0, -1), (1, 1)
    verts = (
        (-m, *v1),
        (-m, *v2),
        (-m + 1, *v3),
        (m, -v1[0], -v1[1]),
        (m, -v2[0], -v2[1]),
        (m - 1, -v3[0], -v3[1]),
    )
    return integer_points_of_hull(verts), verts


def slope_triangle(t: int, x: int) -> Polygon2:
    """Area-3/2 triangle whose 4 lattice points span 6 slopes in [t, t + 1/2].

    The slope set is {t, t + 1/(x+2), t + 1/(x+1), t + 2/(2x+1), t + 1/x,
    t + 1/(x-1)}: all distinct, so every point pair has its own direction.
    """
    if not isinstance(t, int) or not isinstance(x, int) or t < 1 or x < 3:
        raise ValidationError("need integers t >= 1 and x >= 3")
    return Polygon2(
        ((1, t), (x, t * x + 1), (-x - 1, -t * x - t - 1))
    )


def direction_maximal_polytope(d: int) -> tuple[PointSet, tuple[Point, ...]]:
    """A d-polytope with 2^d lattice points and all pairs in distinct directions.

    Built by stacking slope triangles with disjoint slope bands: level k glues
    pairs of level k-1 polytopes at heights 0 and 1. Lattice diameter 1 and
    binomial(2^d, 2) diameter directions.
    """
    if not isinstance(d, int) or d < 2:
        raise ValidationError("need an integer dimension d >= 2")
    if d > 9:
        raise BudgetError("d > 9 exceeds the oracle verification budget")
    # Triangles are translated apart vertically on scale-separated offsets:
    # within-triangle slopes are unaffected, but differences taken across two
    # distinct triangles land in disjoint value ranges, so no two point pairs
    # of the stack can share a direction. (The untranslated triangles all
    # contain the origin, which repeats cross differences once d >= 4.)
    gap = 2 * (7 * 2 ** (d - 2) + 2) + 1
    layers: list[tuple[list[Point], list[Point]]] = []
    for i in range(1, 2 ** (d - 2) + 1):
        tri = slope_triangle(i, 3)
        shift = 0 if d == 2 else gap * 4**i
        layers.append(
            (
                [(x, y + shift) for x, y in enumerate_lattice_points(tri)],
                [(x, y + shift) for x, y in tri.vertices],
            )
        )
    while len(layers) > 1:
        merged = []
        for j in range(0, len(layers), 2):
            (pts_a, verts_a), (pts_b, verts_b) = layers[j], layers[j + 1]
            pts = [p + (0,) for p in pts_a] + [p + (1,) for p in pts_b]
            verts = [v + (0,) for v in verts_a] + [v + (1,) for v in verts_b]
            merged.append((pts, verts))
        layers = merged
    pts, verts = layers[0]
    return PointSet(pts), tuple(verts)


class PolyConstraint(Frozen):
    """One inequality sum(coef * monomial) <= rhs with integer coefficients.

    terms are (coefficient, exponent tuple) pairs over the instance variables.
    """

    _fields = ("terms", "rhs")

    def __init__(self, terms: tuple[tuple[int, tuple[int, ...]], ...], rhs: int):
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "rhs", rhs)

    def evaluate(self, point: Sequence[int]) -> int:
        total = 0
        for coef, exps in self.terms:
            v = coef
            for x, e in zip(point, exps):
                if e:
                    v *= x**e
            total += v
        return total

    def satisfied(self, point: Sequence[int]) -> bool:
        return self.evaluate(point) <= self.rhs


class HardnessInstance(Frozen):
    """The decision gadget K_d for parameters (a, b, c) in dimension d >= 3.

    Coordinates are (w_1..w_{d-3}, x, y, z). The solid is
    [0,1]^{d-3} x {(x, y, z) : (x, y) in R, f(x, y) <= z <= Z} with
    f(x, y) = (x^2 - a - b y)^2 and R the box 1 <= x <= c-1,
    (1-a)/b <= y <= ((c-1)^2 - a)/b. Its lattice diameter is Z - min f, so
    reading the diameter answers whether x^2 = a + b y is solvable on R.
    x_range and y_range are the integer ranges of x and y on R, ends
    included: y_range is (ceil((1-a)/b), floor(((c-1)^2 - a)/b)).
    """

    _fields = (
        "a", "b", "c", "dim", "Z", "x_range", "y_range", "base_point", "constraints"
    )

    def __init__(
        self, a: int, b: int, c: int, dim: int, Z: int, x_range: tuple[int, int],
        y_range: tuple[int, int], base_point: tuple[int, int],
        constraints: tuple[PolyConstraint, ...],
    ):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "x_range", x_range)
        object.__setattr__(self, "y_range", y_range)
        object.__setattr__(self, "base_point", base_point)
        object.__setattr__(self, "constraints", constraints)

    def f(self, x: int, y: int) -> int:
        return (x * x - self.a - self.b * y) ** 2


def hardness_instance(a: int, b: int, c: int, d: int = 3) -> HardnessInstance:
    """Build the gadget for positive a, b and c > max(2, b)."""
    for name, v in (("a", a), ("b", b), ("c", c), ("d", d)):
        if not isinstance(v, int):
            raise ValidationError(f"{name} must be an int")
    if a < 1 or b < 1 or c <= max(2, b):
        raise ValidationError("need a, b >= 1 and c > max(2, b)")
    if d < 3:
        raise ValidationError("the gadget needs dimension d >= 3")
    y_range = (-((a - 1) // b), ((c - 1) ** 2 - a) // b)
    p = (1, y_range[0])
    f_p = (1 - a - b * p[1]) ** 2
    Z = f_p + max((c * c - 2 * c) // b + 1, c - 1)
    nw = d - 3
    nvars = d

    def exps(**at: int) -> tuple[int, ...]:
        e = [0] * nvars
        for key, val in at.items():
            idx = {"x": nw, "y": nw + 1, "z": nw + 2}[key]
            e[idx] = val
        return tuple(e)

    def unit(idx: int, power: int = 1) -> tuple[int, ...]:
        e = [0] * nvars
        e[idx] = power
        return tuple(e)

    cons: list[PolyConstraint] = []
    for i in range(nw):
        cons.append(PolyConstraint(terms=((-1, unit(i)),), rhs=0))
        cons.append(PolyConstraint(terms=((1, unit(i)),), rhs=1))
    cons.append(PolyConstraint(terms=((-1, exps(x=1)),), rhs=-1))
    cons.append(PolyConstraint(terms=((1, exps(x=1)),), rhs=c - 1))
    cons.append(PolyConstraint(terms=((-b, exps(y=1)),), rhs=a - 1))
    cons.append(PolyConstraint(terms=((b, exps(y=1)),), rhs=(c - 1) ** 2 - a))
    cons.append(
        PolyConstraint(
            terms=(
                (1, exps(x=4)),
                (-2 * b, exps(x=2, y=1)),
                (-2 * a, exps(x=2)),
                (b * b, exps(y=2)),
                (2 * a * b, exps(y=1)),
                (-1, exps(z=1)),
            ),
            rhs=-a * a,
        )
    )
    cons.append(PolyConstraint(terms=((1, exps(z=1)),), rhs=Z))
    return HardnessInstance(
        a=a,
        b=b,
        c=c,
        dim=d,
        Z=Z,
        x_range=(1, c - 1),
        y_range=y_range,
        base_point=p,
        constraints=tuple(cons),
    )


def _columns(inst: HardnessInstance) -> Iterator[tuple[int, int, int, int]]:
    """(x, r, y0, y1) for each x of x_range, with r = x^2 - a: the points of
    K_3 over x are the (x, y, z) with y0 <= y <= y1 and f(x, y) <= z <= Z.

    f(x, y) = (r - b y)^2 <= Z exactly when |r - b y| <= isqrt(Z), one
    interval of y, cut to y_range; it is empty when y0 > y1.
    """
    s = isqrt(inst.Z)
    lo, hi = inst.y_range
    b = inst.b
    for x in range(inst.x_range[0], inst.x_range[1] + 1):
        r = x * x - inst.a
        yield x, r, max(lo, -((s - r) // b)), min(hi, (r + s) // b)


def min_f_on_grid(inst: HardnessInstance) -> tuple[int, tuple[int, int]]:
    """Exact minimum of f over the integer points of R, with its first argmin
    in lexicographic order.

    For each x, f(x, y) = (x^2 - a - b y)^2 is least at the integer y
    nearest (x^2 - a) / b, clamped to y_range: the floor or the one above
    it. O(c) steps, whatever the size of y_range.
    """
    best: tuple[int, tuple[int, int]] | None = None
    lo, hi = inst.y_range
    for x in range(inst.x_range[0], inst.x_range[1] + 1):
        r = x * x - inst.a
        below = r // inst.b
        for y in (min(max(below, lo), hi), min(max(below + 1, lo), hi)):
            v = (r - inst.b * y) ** 2
            if best is None or v < best[0]:
                best = (v, (x, y))
    assert best is not None
    return best


def hardness_lattice_points(
    inst: HardnessInstance, max_points: int = 500_000
) -> PointSet:
    """All lattice points of K_d, by direct column enumeration.

    The points are counted first, without listing any: over the y interval
    of a column (_columns), Z - f + 1 sums in closed form, since r - b y runs
    down an arithmetic progression; BudgetError is raised as soon as the
    count passes max_points. The columns come in lexicographic (x, y) order,
    each rising in z, and in d > 3 the sorted unit-cube prefixes are the
    outer loop: the list is distinct and sorted already, so it is trusted as
    it stands."""
    Z, b, lift = inst.Z, inst.b, inst.dim - 3
    total = 0
    for _, r, y0, y1 in _columns(inst):
        m = y1 - y0 + 1
        if m > 0:
            # sum over k < m of Z + 1 - (t - b k)^2, t = r - b y0
            t = r - b * y0
            total += (
                m * (Z + 1 - t * t) + b * t * m * (m - 1)
                - b * b * (m - 1) * m * (2 * m - 1) // 6
            )
            if total << lift > max_points:
                raise BudgetError(
                    f"the gadget has more than {max_points} lattice points (the budget)"
                )
    core = [
        (x, y, z)
        for x, r, y0, y1 in _columns(inst)
        for y in range(y0, y1 + 1)
        for z in range((r - b * y) ** 2, Z + 1)
    ]
    if inst.dim == 3:
        return PointSet._sorted(core)
    cubes = product((0, 1), repeat=lift)
    return PointSet._sorted([w + p for w in cubes for p in core])


class HardnessCheck(Frozen):
    """Oracle verdict on a gadget: diameter, direction and reduction identity."""

    _fields = ("ldiam", "z", "min_f", "n_points", "direction_ok", "equivalence_ok")

    def __init__(
        self, ldiam: int, z: int, min_f: int, n_points: int, direction_ok: bool,
        equivalence_ok: bool,
    ):
        object.__setattr__(self, "ldiam", ldiam)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "min_f", min_f)
        object.__setattr__(self, "n_points", n_points)
        object.__setattr__(self, "direction_ok", direction_ok)
        object.__setattr__(self, "equivalence_ok", equivalence_ok)


def verify_hardness_instance(
    inst: HardnessInstance, max_pairs: int = DEFAULT_PAIR_BUDGET
) -> HardnessCheck:
    """Check the gadget against the brute-force oracle.

    direction_ok: the only diameter direction is the last coordinate axis.
    equivalence_ok: ldiam == Z - min f, hence ldiam == Z iff min f == 0 (the
    reduction's correctness).
    """
    pts = hardness_lattice_points(inst)
    report = brute_force_diameter(pts, max_pairs)
    min_f, _ = min_f_on_grid(inst)
    axis = Direction((0,) * (inst.dim - 1) + (1,))
    direction_ok = set(report.directions) == {axis}
    equivalence_ok = report.ldiam == inst.Z - min_f and (
        (report.ldiam == inst.Z) == (min_f == 0)
    )
    return HardnessCheck(
        ldiam=report.ldiam,
        z=inst.Z,
        min_f=min_f,
        n_points=len(pts),
        direction_ok=direction_ok,
        equivalence_ok=equivalence_ok,
    )


def demo_chamber() -> tuple[tuple[tuple[Fraction, Fraction], ...], Direction]:
    """The reference parallelogram chamber with q = 3 and w = 2.

    This is the middle horizontal chamber of conv{(0,0),(5,1),(6,4),(1,3)};
    the fourth vertex is the parallelogram completion of the three others.
    """
    from fractions import Fraction

    verts = (
        (Fraction(1, 3), Fraction(1)),
        (Fraction(1), Fraction(3)),
        (Fraction(17, 3), Fraction(3)),
        (Fraction(5), Fraction(1)),
    )
    return verts, Direction((1, 0))
