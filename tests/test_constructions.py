"""Generators for the extremal polytopes and the hardness gadget."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import ceil, floor, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticediam import (
    BudgetError,
    Direction,
    PointSet,
    ValidationError,
    brute_force_diameter,
    demo_chamber,
    direction_maximal_polytope,
    enumerate_lattice_points,
    hardness_instance,
    hardness_lattice_points,
    hull_facets,
    integer_points_of_hull,
    min_f_on_grid,
    slope_triangle,
    verify_hardness_instance,
    vertex_avoiding_polytope,
)
from latticediam.constructions import _full_dimensional

from helpers import full_dimensional_oracle


class TestHullFacets:
    def test_unit_cube(self):
        cube = list(product((0, 1), repeat=3))
        assert hull_facets(cube) == [
            ((-1, 0, 0), 0),
            ((0, -1, 0), 0),
            ((0, 0, -1), 0),
            ((0, 0, 1), 1),
            ((0, 1, 0), 1),
            ((1, 0, 0), 1),
        ]

    def test_simplex(self):
        simplex = ((0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2))
        facets = hull_facets(simplex)
        assert len(facets) == 4
        assert ((1, 1, 1), 2) in facets

    def test_interior_points_do_not_add_facets(self):
        simplex = ((0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2))
        assert hull_facets(simplex + ((1, 0, 0),)) == hull_facets(simplex)

    def test_rejects_flat_input(self):
        with pytest.raises(ValidationError):
            hull_facets(((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)))

    def test_rejects_too_few_vertices(self):
        with pytest.raises(ValidationError):
            hull_facets(((0, 0, 0), (1, 0, 0), (0, 1, 0)))

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValidationError):
            hull_facets(((0, 0, 0), (1, 0), (0, 1, 0), (0, 0, 1)))

    def test_full_dimensional_matches_row_reduction(self):
        # seeded vertex sets in d = 1..5: base + combinations of r random
        # integer vectors, so every rank 0..d occurs
        rng = random.Random(1713)
        outcomes = Counter()
        for _ in range(3000):
            d = rng.randint(1, 5)
            r = rng.randint(0, d)
            basis = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(r)]
            base = [rng.randint(-50, 50) for _ in range(d)]
            verts = []
            for _ in range(rng.randint(2, d + 4)):
                coefs = [rng.randint(-3, 3) for _ in basis]
                verts.append(tuple(
                    x + sum(c * b[i] for c, b in zip(coefs, basis))
                    for i, x in enumerate(base)
                ))
            want = full_dimensional_oracle(verts)
            assert _full_dimensional(verts) == want, verts
            outcomes[r == d, want] += 1
        # rank-deficient sets (r < d) are never full-dimensional, and both
        # verdicts occur on the sets of full rank r = d
        assert set(outcomes) == {(False, False), (True, False), (True, True)}
        assert min(outcomes.values()) > 100, outcomes

    def test_combination_budget(self):
        many = [(i, i * i, i * i * i) for i in range(300)]
        with pytest.raises(BudgetError):
            hull_facets(many)


class TestIntegerPointsOfHull:
    def test_dilated_simplex(self):
        simplex = ((0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2))
        pts = integer_points_of_hull(simplex)
        assert len(pts) == 10
        assert all(sum(p) <= 2 and min(p) >= 0 for p in pts)

    def test_matches_polygon_enumeration_in_3d_slab(self):
        # prism conv([0,3]x[0,2] x {0,1}) lifts the 2d count
        base = ((0, 0), (3, 0), (3, 2), (0, 2))
        prism = tuple((x, y, z) for x, y in base for z in (0, 1))
        assert len(integer_points_of_hull(prism)) == 12 * 2

    def test_box_budget(self):
        huge = ((0, 0, 0), (500, 0, 0), (0, 500, 0), (0, 0, 500))
        with pytest.raises(BudgetError):
            integer_points_of_hull(huge)


class TestVertexAvoiding:
    def test_m3_unique_interior_segment(self):
        pts, verts = vertex_avoiding_polytope(3)
        report = brute_force_diameter(pts)
        assert report.ldiam == 4
        assert report.segments == (((-2, 0, 0), (2, 0, 0)),)
        facets = hull_facets(verts)
        for endpoint in ((-2, 0, 0), (2, 0, 0)):
            assert all(
                sum(a * b for a, b in zip(n, endpoint)) < c for n, c in facets
            )

    def test_m2_vertex_pairs_tie(self):
        # the smallest instance degenerates: three extra segments run
        # vertex-to-vertex at the same gcd 2
        pts, _ = vertex_avoiding_polytope(2)
        report = brute_force_diameter(pts)
        assert report.ldiam == 2
        assert report.segments == (
            ((-2, -1, 0), (2, 1, 0)),
            ((-2, 0, -1), (2, 0, 1)),
            ((-1, 0, 0), (1, 0, 0)),
            ((-1, 1, 1), (1, -1, -1)),
        )

    def test_uniqueness_for_larger_m(self):
        for m in (4, 5):
            pts, _ = vertex_avoiding_polytope(m)
            report = brute_force_diameter(pts)
            assert report.ldiam == 2 * (m - 1)
            assert report.segments == (
                ((-(m - 1), 0, 0), (m - 1, 0, 0)),
            )

    def test_rejects_small_m(self):
        with pytest.raises(ValidationError):
            vertex_avoiding_polytope(1)


class TestSlopeTriangle:
    def test_reference_instance(self):
        T = slope_triangle(1, 3)
        assert T.vertices == ((1, 1), (3, 4), (-4, -5))
        assert sorted(enumerate_lattice_points(T)) == [
            (-4, -5), (0, 0), (1, 1), (3, 4),
        ]

    @given(st.integers(1, 6), st.integers(3, 8))
    @settings(max_examples=60, deadline=None)
    def test_slope_set(self, t, x):
        T = slope_triangle(t, x)
        pts = list(enumerate_lattice_points(T))
        assert len(pts) == 4
        slopes = set()
        for i in range(4):
            for j in range(i + 1, 4):
                dx = pts[j][0] - pts[i][0]
                dy = pts[j][1] - pts[i][1]
                slopes.add(Fraction(dy, dx))
        base = Fraction(t)
        assert slopes == {
            base,
            base + Fraction(1, x + 2),
            base + Fraction(1, x + 1),
            base + Fraction(2, 2 * x + 1),
            base + Fraction(1, x),
            base + Fraction(1, x - 1),
        }
        assert all(base <= s <= base + Fraction(1, 2) for s in slopes)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            slope_triangle(0, 3)
        with pytest.raises(ValidationError):
            slope_triangle(1, 2)


class TestDirectionMaximal:
    def test_counts(self):
        for d, dirs in ((2, 6), (3, 28), (4, 120)):
            pts, verts = direction_maximal_polytope(d)
            report = brute_force_diameter(pts)
            assert len(pts) == 2**d
            assert report.ldiam == 1
            assert len(report.directions) == dirs
            assert len(report.segments) == dirs
            assert set(verts) <= set(pts.points)

    def test_every_pair_has_its_own_direction(self):
        pts, _ = direction_maximal_polytope(3)
        seen = set()
        pl = list(pts)
        for i in range(len(pl)):
            for j in range(i + 1, len(pl)):
                u = Direction(tuple(b - a for a, b in zip(pl[i], pl[j])))
                assert u not in seen
                seen.add(u)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValidationError):
            direction_maximal_polytope(1)
        with pytest.raises(BudgetError):
            direction_maximal_polytope(10)


def grid_points(inst) -> list[tuple[int, ...]]:
    """Reference: every lattice point of K_d, from the whole (x, y) grid of R,
    sorted."""
    core = [
        (x, y, z)
        for x in range(inst.x_range[0], inst.x_range[1] + 1)
        for y in range(inst.y_range[0], inst.y_range[1] + 1)
        for z in range(inst.f(x, y), inst.Z + 1)
    ]
    return sorted(w + p for w in product((0, 1), repeat=inst.dim - 3) for p in core)


def grid_min_f(inst) -> tuple[int, tuple[int, int]]:
    """Reference: min f over the whole (x, y) grid of R, first argmin in
    lexicographic order."""
    return min(
        (inst.f(x, y), (x, y))
        for x in range(inst.x_range[0], inst.x_range[1] + 1)
        for y in range(inst.y_range[0], inst.y_range[1] + 1)
    )


@pytest.mark.parametrize("d", [3, 4])
def test_columns_match_the_grid(d):
    # the closed-form column counts and the nearest-y minimum against the
    # whole grid, on seeded gadgets; the budget refuses a gadget exactly
    # when it has more points than the budget
    rng = random.Random(f"hardness-columns/{d}")
    for _ in range(30):
        b = rng.randint(1, 6)
        c = rng.randint(max(2, b) + 1, 11)
        inst = hardness_instance(rng.randint(1, 40), b, c, d)
        want = grid_points(inst)
        assert list(hardness_lattice_points(inst, max_points=len(want)).points) == want
        with pytest.raises(BudgetError):
            hardness_lattice_points(inst, max_points=len(want) - 1)
        assert min_f_on_grid(inst) == grid_min_f(inst)


class TestHardnessInstance:
    def test_solvable_instance(self):
        inst = hardness_instance(2, 2, 5)
        assert inst.Z == 9
        assert inst.x_range == (1, 4)
        assert inst.y_range == (0, 7)
        assert inst.base_point == (1, 0)
        assert len(inst.constraints) == 6
        # x = 2, y = 1 solves x^2 = a + b y
        assert inst.f(2, 1) == 0
        assert min_f_on_grid(inst) == (0, (2, 1))

    def test_unsolvable_instance(self):
        inst = hardness_instance(3, 5, 7)
        assert inst.Z == 12
        assert min_f_on_grid(inst)[0] == 1

    def test_y_range_is_the_integer_range_of_the_fraction_bounds(self):
        for a in range(1, 12):
            for b in range(1, 7):
                for c in (max(2, b) + 1, max(2, b) + 4):
                    lo = Fraction(1 - a, b)
                    hi = Fraction((c - 1) ** 2 - a, b)
                    assert hardness_instance(a, b, c).y_range == (ceil(lo), floor(hi))

    def test_base_point_is_feasible(self):
        for a, b, c in ((1, 1, 3), (2, 2, 5), (3, 5, 7), (6, 4, 9)):
            inst = hardness_instance(a, b, c)
            x, y = inst.base_point
            assert inst.x_range[0] <= x <= inst.x_range[1]
            assert inst.y_range[0] <= y <= inst.y_range[1]

    def test_constraints_carve_exactly_the_solid(self):
        inst = hardness_instance(2, 2, 5)
        pts = set(hardness_lattice_points(inst).points)
        xs = range(inst.x_range[0] - 1, inst.x_range[1] + 2)
        ys = range(-2, 9)
        zs = range(-1, inst.Z + 2)
        for p in product(xs, ys, zs):
            inside = all(con.satisfied(p) for con in inst.constraints)
            assert inside == (p in pts)

    def test_lift_adds_unit_cube_coordinates(self):
        flat = hardness_lattice_points(hardness_instance(2, 2, 5))
        lifted = hardness_lattice_points(hardness_instance(2, 2, 5, d=5))
        assert len(lifted) == 4 * len(flat)
        assert {p[2:] for p in lifted} == set(flat.points)
        assert {p[:2] for p in lifted} == set(product((0, 1), repeat=2))
        # the gadget is listed distinct and sorted without the public
        # constructor's check, set and sort, which would change nothing
        for a, b, c, d in ((2, 2, 5, 3), (3, 3, 6, 3), (2, 2, 5, 4), (3, 3, 6, 5)):
            pts = hardness_lattice_points(hardness_instance(a, b, c, d))
            assert pts == PointSet(list(pts.points))
            assert {len(p) for p in pts} == {d}

    def test_lift_constraint_count(self):
        assert len(hardness_instance(2, 2, 5, d=4).constraints) == 8

    def test_verification_verdicts(self):
        check = verify_hardness_instance(hardness_instance(2, 2, 5))
        assert (check.ldiam, check.z, check.min_f) == (9, 9, 0)
        assert check.n_points == 68
        assert check.direction_ok and check.equivalence_ok

        check = verify_hardness_instance(hardness_instance(3, 5, 7))
        assert (check.ldiam, check.z, check.min_f) == (11, 12, 1)
        assert check.direction_ok and check.equivalence_ok

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            hardness_instance(0, 2, 5)
        with pytest.raises(ValidationError):
            hardness_instance(2, 2, 2)
        with pytest.raises(ValidationError):
            hardness_instance(2, 5, 5)
        with pytest.raises(ValidationError):
            hardness_instance(2, 2, 5, d=2)

    def test_point_budget(self):
        with pytest.raises(BudgetError):
            hardness_lattice_points(hardness_instance(2, 2, 5), max_points=10)

    @given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_random_instances_verify(self, a, b, c_off):
        c = max(2, b) + 1 + c_off
        inst = hardness_instance(a, b, c)
        check = verify_hardness_instance(inst, max_pairs=8_000_000)
        assert check.direction_ok
        assert check.equivalence_ok
        assert check.ldiam == inst.Z - check.min_f


class TestDemoChamber:
    def test_vertices_form_the_expected_parallelogram(self):
        verts, u = demo_chamber()
        assert u == Direction((1, 0))
        assert verts == (
            (Fraction(1, 3), Fraction(1)),
            (Fraction(1), Fraction(3)),
            (Fraction(17, 3), Fraction(3)),
            (Fraction(5), Fraction(1)),
        )
        (ax, ay), (bx, by), (cx, cy), (dx, dy) = verts
        assert (ax + cx, ay + cy) == (bx + dx, by + dy)
