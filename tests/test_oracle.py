import random
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_point_set, random_polygon
from latticediam import (
    BudgetError,
    Direction,
    PointSet,
    ValidationError,
    brute_force_diameter,
    check_rabinowitz,
    diameter_directions,
    direction_maximal_polytope,
    enumerate_lattice_points,
    hardness_instance,
    hardness_lattice_points,
    oracle,
)


def naive_report(S: PointSet):
    """Direct reference: max gcd over pairs, computed with no shortcuts."""
    best, segs = 0, []
    for p, q in combinations(S.points, 2):
        g = gcd(*(b - a for a, b in zip(p, q)))
        if g > best:
            best, segs = g, [(p, q)]
        elif g == best:
            segs.append((p, q))
    return best, segs


def residue_scan(pts):
    """The residue path, given the ranges and bound that _scan_pairs passes it."""
    spreads = [max(col) - min(col) for col in zip(*pts)]
    return oracle._residue_scan(pts, spreads, oracle._residue_bound(spreads))


class TestBruteForce:
    def test_unit_square_2d(self):
        S = PointSet([(0, 0), (1, 0), (0, 1), (1, 1)])
        rep = brute_force_diameter(S)
        assert rep.ldiam == 1
        assert len(rep.segments) == 6
        assert len(rep.directions) == 4  # the two axis pairs share directions

    def test_single_point(self):
        rep = brute_force_diameter(PointSet([(3, 4)]))
        assert rep.ldiam == 0
        assert rep.segments == ()
        assert rep.directions == ()

    def test_collinear_points(self):
        rep = brute_force_diameter(PointSet([(0, 0), (2, 4), (3, 6)]))
        assert rep.ldiam == 3
        assert rep.segments == (((0, 0), (3, 6)),)
        assert rep.directions == (Direction((1, 2)),)

    def test_budget_refused(self):
        S = PointSet([(i, 0) for i in range(30)])
        with pytest.raises(BudgetError):
            brute_force_diameter(S, max_pairs=100)

    def test_budget_refuses_the_cheap_residue_path_too(self):
        # the budget counts pairs whichever path would run
        S = PointSet(product(range(10), repeat=2))
        pairs, steps = oracle._path_costs(len(S), S.dim, oracle._residue_bound([9, 9]))
        assert oracle.RESIDUE_COST * steps < pairs == 4950
        with pytest.raises(BudgetError):
            brute_force_diameter(S, max_pairs=pairs - 1)
        assert brute_force_diameter(S, max_pairs=pairs).ldiam == 9

    def test_degree_counts_segments_twice(self):
        S = PointSet([(0, 0), (1, 0), (0, 1), (1, 1)])
        rep = brute_force_diameter(S)
        assert sum(rep.per_point_degree.values()) == 2 * len(rep.segments)

    def test_segments_canonical_order(self):
        rep = brute_force_diameter(PointSet([(4, 0), (0, 0), (2, 0)]))
        for a, b in rep.segments:
            assert a < b
        assert list(rep.segments) == sorted(rep.segments)


# the pair scan has a plain d = 2 loop and one loop for d >= 3 that reads
# gcd(dx, dy) first, and small dense sets take the residue scan instead;
# embedding a planar set into Z^3 and Z^4 must not change any gcd, so every
# path must agree
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_specialized_loops_agree_with_generic(seed):
    rng = random.Random(seed)
    S = random_point_set(rng, 2, coord=9, n_hi=12)
    naive_best, naive_segs = naive_report(S)
    for T in (S, PointSet([p + (5,) for p in S]), PointSet([p + (5, -7) for p in S])):
        for scan in (oracle._pair_scan, residue_scan, oracle._scan_pairs):
            best, hits = scan(T.points)
            assert best == naive_best
            assert len(hits) == len(naive_segs)
    rep2 = brute_force_diameter(S)
    assert rep2.ldiam == naive_best
    assert set(rep2.segments) == set(naive_segs)


def two_path_cases(d: int):
    """Seeded point sets in Z^d for the two exact scans, named."""
    rng = random.Random(f"two-paths/{d}")
    m = {1: 40, 2: 7, 3: 4, 4: 3, 5: 2}[d]
    yield "dense box", PointSet(product(range(m + 1), repeat=d))
    for k in range(12):
        yield f"sparse {k}", random_point_set(
            rng, d, coord=rng.choice((3, 10, 100, 10**4)), n_hi=40
        )
        # one wide coordinate: gcds above the other ranges come from
        # points equal off it
        wide = rng.randrange(d)
        pts = {
            tuple(rng.randint(0, 10**6 if c == wide else 2) for c in range(d))
            for _ in range(rng.randint(2, 30))
        }
        yield f"skewed {k}", PointSet(pts)
    if d == 2:
        for k in range(8):
            yield f"polygon {k}", enumerate_lattice_points(random_polygon(rng))
    if d >= 3:
        # pairs with dx = dy = 0 carry the diameter
        yield "hardness gadget", hardness_lattice_points(hardness_instance(3, 3, 6, d))
    if d == 5:
        # every pair ties at gcd 1
        yield "direction-maximal", direction_maximal_polytope(5)[0]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_pair_and_residue_paths_match_naive(d):
    for name, S in two_path_cases(d):
        if len(S) < 2:
            continue
        naive_best, naive_segs = naive_report(S)
        pts = S.points
        for scan in (oracle._pair_scan, residue_scan):
            best, hits = scan(pts)
            assert best == naive_best, (name, scan.__name__)
            assert hits == sorted(hits), (name, scan.__name__)
            assert [(pts[i], pts[j]) for i, j in hits] == naive_segs, (name, scan.__name__)


def test_dispatch_takes_each_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("the other path was expected")

    box = PointSet(product(range(8), repeat=2))
    sparse = PointSet([(0, 0), (1000, 3), (17, 999), (500, 500), (998, 1)])
    monkeypatch.setattr(oracle, "_pair_scan", refuse)
    assert brute_force_diameter(box).ldiam == 7
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "_residue_scan", refuse)
    assert brute_force_diameter(sparse).ldiam == naive_report(sparse)[0]


class TestDirections:
    def test_needs_two_points(self):
        with pytest.raises(ValidationError):
            diameter_directions(PointSet([(0, 0)]))

    def test_sorted_and_primitive(self):
        S = PointSet([(0, 0), (2, 2), (0, 2), (2, 0)])
        dirs = diameter_directions(S)
        assert list(dirs) == sorted(dirs)
        for u in dirs:
            assert gcd(*u.vec) == 1


class TestRabinowitz:
    def test_strict_box(self):
        # ldiam([0,m-1]^2) = m-1 < m and (m)^2 points: bound tight
        for m in (2, 3, 4):
            S = PointSet([(x, y) for x in range(m) for y in range(m)])
            assert check_rabinowitz(S, m)

    def test_bad_m(self):
        with pytest.raises(ValidationError):
            check_rabinowitz(PointSet([(0, 0)]), 0)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_random_instances(self, seed, m):
        rng = random.Random(seed)
        S = random_point_set(rng, rng.choice((1, 2, 3)), coord=6, n_hi=15)
        assert check_rabinowitz(S, m)
