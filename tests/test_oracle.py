import importlib.util
import random
import sys
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import naive_pair_oracle, random_point_set, random_polygon
from latticediam import (
    BudgetError,
    Direction,
    PointSet,
    Polygon2,
    ValidationError,
    brute_force_diameter,
    build_borsuk_graph,
    check_rabinowitz,
    direction_maximal_polytope,
    enumerate_lattice_points,
    hardness_instance,
    hardness_lattice_points,
    oracle,
)
from latticediam.documents import load_document, point_set_from_document, polygon_from_document

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "sample_inputs"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def pair_scan(pts):
    """The pair path, given the columns that brute_force_diameter passes it."""
    return oracle._pair_scan(pts, tuple(zip(*pts)))


def residue_scan(pts):
    """The residue path, given the columns, ranges and bound that
    brute_force_diameter passes it."""
    cols = tuple(zip(*pts))
    spreads = [max(col) - min(col) for col in cols]
    return oracle._residue_scan(pts, cols, spreads, oracle._residue_bound(spreads))


def scan_pairs(pts):
    """The scan that brute_force_diameter dispatches to, read back from its
    report as the best gcd and the lex-sorted index pairs attaining it."""
    index = {p: i for i, p in enumerate(pts)}
    report = brute_force_diameter(PointSet(pts))
    return report.ldiam, [(index[p], index[q]) for p, q in report.segments]


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
        # 30 points on a parabola take the pair scan, charged by its 435 pairs
        # (30 collinear points would take the residue scan, at 60 pair steps)
        S = PointSet([(i, i * i) for i in range(30)])
        with pytest.raises(BudgetError, match="435 pairs"):
            brute_force_diameter(S, max_pairs=100)
        assert brute_force_diameter(S, max_pairs=435).ldiam == 29

    def test_budget_refuses_the_cheap_residue_path_too(self):
        # the budget charges the residue path its own cost, not the pairs
        S = PointSet(product(range(10), repeat=2))
        pairs, steps = oracle._path_costs(len(S), S.dim, oracle._residue_bound([9, 9]))
        cost = oracle.RESIDUE_COST * steps
        assert cost == 200 < pairs == 4950
        with pytest.raises(BudgetError, match="100 residue steps"):
            brute_force_diameter(S, max_pairs=cost - 1)
        assert brute_force_diameter(S, max_pairs=cost).ldiam == 9

    def test_degree_counts_segments_twice(self):
        S = PointSet([(0, 0), (1, 0), (0, 1), (1, 1)])
        rep = brute_force_diameter(S)
        nbrs = build_borsuk_graph(S).neighbours
        assert sum(map(len, nbrs.values())) == 2 * len(rep.segments) == 12

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
    naive_best, naive_segs = naive_pair_oracle(S)
    for T in (S, PointSet([p + (5,) for p in S]), PointSet([p + (5, -7) for p in S])):
        for scan in (pair_scan, residue_scan, scan_pairs):
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
        naive_best, naive_segs = naive_pair_oracle(S)
        pts = S.points
        for scan in (pair_scan, residue_scan):
            best, hits = scan(pts)
            assert best == naive_best, (name, scan.__name__)
            assert hits == sorted(hits), (name, scan.__name__)
            assert [(pts[i], pts[j]) for i, j in hits] == naive_segs, (name, scan.__name__)


SHELL_ONE = ((1, 0), (0, 1), (1, 1), (1, -1))


def shell_one_cases():
    """Seeded planar sets, lex-sorted and named, whose residue bound is over
    half the widest range R: corners and end pairs of lines of one span in
    several shell-one directions, so their spans tie; small sparse sets,
    whose shell-one lines are short; pairs; and points on one line."""
    rng = random.Random("shell-one")

    def spread(pts):
        return [max(col) - min(col) for col in zip(*pts)]

    def kept(pts):
        spreads = spread(pts)
        return 2 * oracle._residue_bound(spreads) > max(spreads)

    for m in (1, 2, 5, 12):
        yield f"square corners m={m}", tuple(product((0, m), repeat=2))
    made = 0
    while made < 120:
        m = rng.randint(3, 40)
        s = rng.randint(m // 2 + 1, m)
        pts = {(rng.randint(0, m), rng.randint(0, m)) for _ in range(rng.randint(0, 6))}
        for ux, uy in rng.sample(SHELL_ONE, rng.randint(2, 4)):
            x = rng.randint(0, m - s * ux)
            y = rng.randint(s if uy < 0 else 0, m - s * max(uy, 0))
            pts |= {(x, y), (x + s * ux, y + s * uy)}
        pts = tuple(sorted(pts))
        if kept(pts):
            made += 1
            yield f"tied lines {made}", pts
    made = 0
    while made < 120:
        m = rng.randint(4, 200)
        pts = tuple(sorted(
            {(rng.randint(0, m), rng.randint(0, m)) for _ in range(rng.randint(3, 9))}
        ))
        if kept(pts):
            made += 1
            yield f"sparse {made}", pts
    made = 0
    while made < 60:
        pts = tuple(sorted({(0, 0), (rng.randint(-50, 50), rng.randint(1, 50))}))
        if len(pts) == 2 and kept(pts):
            made += 1
            yield f"pair {pts}", pts
    made = 0
    while made < 60:
        u = (rng.randint(1, 5), rng.choice((-1, 1)) * rng.randint(1, 5))
        ts = rng.sample(range(rng.randint(6, 30)), rng.randint(2, 6))
        pts = tuple(sorted((t * u[0], 100 + t * u[1]) for t in ts))
        if len(pts) > 1 and kept(pts):
            made += 1
            yield f"collinear {u}", pts


def test_shell_one_lines_match_the_pair_loop_and_naive():
    # a shell-one best over R / 2 returns before any modulus, and one at
    # most R / 2 starts the moduli at R // 2; both must give every pair
    ties = starts = pairs = lines = 0
    for name, pts in shell_one_cases():
        naive_best, naive_segs = naive_pair_oracle(PointSet(pts))
        best, hits = residue_scan(pts)
        assert best == naive_best, name
        assert hits == sorted(hits), name
        assert [(pts[i], pts[j]) for i, j in hits] == naive_segs, name
        row_best, row_hits = oracle._pair_loop(pts, [x for x, _ in pts])
        assert (row_best, sorted(row_hits)) == (best, hits), name
        R = max(max(col) - min(col) for col in zip(*pts))
        directions = {Direction(tuple(b - a for a, b in zip(p, q))) for p, q in naive_segs}
        if 2 * best > R:
            ties += len(directions) > 1
        else:
            starts += 1
        pairs += len(pts) == 2
        lines += name.startswith("collinear")
    assert ties >= 60 and starts >= 150 and pairs >= 60 and lines == 60


def test_box_and_dense_polygon_return_before_any_modulus(monkeypatch):
    def refuse(n, d):
        raise AssertionError("a modulus was tried")

    box = tuple(product(range(9), repeat=2))
    polygon = enumerate_lattice_points(Polygon2(((0, 0), (5, 1), (6, 4), (1, 3))).dilate(4))
    want = [naive_pair_oracle(PointSet(pts)) for pts in (box, polygon.points)]
    monkeypatch.setattr(oracle, "_rabinowitz_floor", refuse)
    for pts, (naive_best, naive_segs) in zip((box, polygon.points), want):
        best, hits = residue_scan(pts)
        assert best == naive_best
        assert [(pts[i], pts[j]) for i, j in hits] == naive_segs


def planar_cases():
    """Seeded planar sets for the line phase, named, lex-sorted: spreads from
    1 to 10^6 and 2 to 1,000 points, sets on one line, sets of a few long
    lines in noise, and sets of Z^1 on the line y = 0."""
    rng = random.Random("line-phase")

    def box(n, top):
        pts = set()
        while len(pts) < min(n, (top + 1) ** 2):
            pts.add((rng.randint(0, top), rng.randint(0, top)))
        return tuple(sorted(pts))

    for top in (1, 3, 30, 10**3, 10**5, 10**6):
        for n in (2, 5, 40, 200):
            yield f"box top={top} n={n}", box(n, top)
    for top in (10**5, 10**6):
        yield f"box top={top} n=1000", box(1000, top)
    for k in range(6):
        u = (rng.randint(-5, 5), rng.randint(1, 5))
        if k % 2:
            u = u[::-1]
        p = (rng.randint(0, 100), rng.randint(0, 100))
        ts = rng.sample(range(rng.choice((3, 50, 10**5))), rng.randint(2, 3))
        line = {(p[0] + t * u[0], p[1] + t * u[1]) for t in ts}
        yield f"one line {u}", tuple(sorted(line))
    for k in range(6):
        pts = set(box(rng.choice((5, 60)), rng.choice((50, 10**4))))
        for _ in range(rng.randint(1, 4)):
            u = (rng.randint(-3, 3), rng.randint(-3, 3))
            p = (rng.randint(0, 10**3), rng.randint(0, 10**3))
            ts = rng.sample(range(300), 12)
            pts.update((p[0] + t * u[0], p[1] + t * u[1]) for t in ts)
        yield f"collinear-heavy {k}", tuple(sorted(pts))
    for top in (1, 10, 10**6):
        xs = rng.sample(range(top + 1), min(30, top + 1))
        yield f"d=1 top={top}", tuple(sorted((x, 0) for x in xs))


def test_line_phase_and_seeded_loop_match_naive():
    # every set either stops on lines, exact, or hands a lower bound to the
    # pair loop; the pair loop is exact from any seed up to the maximum
    ends = set()
    for name, pts in planar_cases():
        naive_best, naive_segs = naive_pair_oracle(PointSet(pts))
        best, hits, steps = oracle._line_phase(*zip(*pts))
        if hits is not None:
            ends.add("stop")
            assert best == naive_best, name
            assert [(pts[i], pts[j]) for i, j in hits] == naive_segs, name
        else:
            ends.add("handover")
            assert best <= naive_best, name
        for seed in {0, best, naive_best}:
            got, rows = oracle._pair_loop(pts, [x for x, _ in pts], seed)
            assert got == naive_best, (name, seed)
            assert [(pts[i], pts[j]) for i, j in rows] == naive_segs, (name, seed)
        scanned = pair_scan(pts)
        assert scanned[0] == naive_best, name
        assert [(pts[i], pts[j]) for i, j in scanned[1]] == naive_segs, name
        if name.startswith("d=1"):
            # _pair_scan reads a set of Z^1 as this copy on y = 0
            assert pair_scan(tuple((x,) for x, _ in pts)) == scanned, name
    assert ends == {"stop", "handover"}


def spatial_cases():
    """Seeded sets of Z^3 and Z^4 for the pair loop, named, lex-sorted:
    boxes of spreads 2 to 2 * 10^4, sets with pairs equal in x and y, whose
    gcd(dx, dy) is 0, and sets of a few long lines in noise."""
    rng = random.Random("pair-loop")
    for d in (3, 4):
        for coord in (1, 3, 50, 10**4):
            for n_hi in (5, 60):
                yield f"box d={d} coord={coord}", random_point_set(rng, d, coord, 2, n_hi).points
        for k in range(4):
            pts = set(random_point_set(rng, d, 30, 3, 30).points)
            for _ in range(rng.randint(1, 3)):
                # every line of a direction (0, 0, ...) has gcd(dx, dy) = 0
                u = [0, 0] if k % 2 else [rng.randint(-3, 3), rng.randint(-3, 3)]
                u += [rng.randint(-3, 3) for _ in range(d - 2)]
                if not any(u):
                    u[-1] = 1
                p = [rng.randint(-30, 30) for _ in range(d)]
                ts = rng.sample(range(-40, 40), rng.randint(2, 8))
                pts.update(tuple(c + t * e for c, e in zip(p, u)) for t in ts)
            yield f"lines d={d} {'column' if k % 2 else 'skew'} {k}", tuple(sorted(pts))


def test_pair_loop_in_three_and_four_dimensions_matches_naive():
    # the one pair loop of every d >= 2 is exact from a seed of 0, a lower
    # bound (the gcd of the first and last point) and the maximum
    for name, pts in spatial_cases():
        naive_best, naive_segs = naive_pair_oracle(PointSet(pts))
        lower = gcd(*(b - a for a, b in zip(pts[0], pts[-1])))
        assert 0 < lower <= naive_best, name
        for seed in {0, lower, naive_best}:
            got, rows = oracle._pair_loop(pts, [p[0] for p in pts], seed)
            assert got == naive_best, (name, seed)
            assert [(pts[i], pts[j]) for i, j in rows] == naive_segs, (name, seed)
        assert pair_scan(pts) == oracle._pair_loop(pts, [p[0] for p in pts]), name


def test_line_phase_stops_by_the_norm_bound():
    # 1,000 points in [0, 10^5]^2 share lines of gcd over R / 2, so the
    # phase stops after the first shell, keying at most 4 directions of
    # every point; 100 points in [0, 10^6]^2 hand over
    rng = random.Random("line-phase/stop")
    dense = set()
    while len(dense) < 1000:
        dense.add((rng.randint(0, 10**5), rng.randint(0, 10**5)))
    best, hits, steps = oracle._line_phase(*zip(*sorted(dense)))
    assert hits is not None and 2 * best > 10**5 - 1
    assert steps <= 4 * 1000
    sparse = set()
    while len(sparse) < 100:
        sparse.add((rng.randint(0, 10**6), rng.randint(0, 10**6)))
    best, hits, steps = oracle._line_phase(*zip(*sorted(sparse)))
    assert hits is None
    # the probe stays within 1 / LINE_PROBE of the pairs, give or take a shell
    assert steps <= 2 * (100 * 99 // 2) // oracle.LINE_PROBE


def test_planar_budget_still_charges_the_pairs():
    # the line phase reads far fewer than the pairs, yet the budget charges
    # the pair path its n (n - 1) / 2 pairs, as before the line phase
    rng = random.Random("line-phase/budget")
    pts = set()
    while len(pts) < 1000:
        pts.add((rng.randint(0, 10**6), rng.randint(0, 10**6)))
    S = PointSet(pts)
    assert oracle.check_pair_budget(1000, [10**6, 10**6], 499_500) is None
    with pytest.raises(BudgetError, match="499500 pairs, over the budget of 499499"):
        brute_force_diameter(S, max_pairs=499_499)
    assert brute_force_diameter(S, max_pairs=499_500).ldiam == naive_pair_oracle(S)[0]


def test_dispatch_takes_each_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("the other path was expected")

    box = PointSet(product(range(8), repeat=2))
    sparse = PointSet([(0, 0), (1000, 3), (17, 999), (500, 500), (998, 1)])
    monkeypatch.setattr(oracle, "_pair_scan", refuse)
    assert brute_force_diameter(box).ldiam == 7
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "_residue_scan", refuse)
    assert brute_force_diameter(sparse).ldiam == naive_pair_oracle(sparse)[0]


def test_decides_the_path_once(monkeypatch):
    # the budget check and the scan share one plan: one cost model per call
    calls = []
    path_costs = oracle._path_costs

    def counted(*args):
        calls.append(args)
        return path_costs(*args)

    monkeypatch.setattr(oracle, "_path_costs", counted)
    box = PointSet(product(range(8), repeat=2))
    sparse = PointSet([(0, 0), (1000, 3), (17, 999), (500, 500), (998, 1)])
    for S in (box, sparse, PointSet([(3, 4)])):
        calls.clear()
        brute_force_diameter(S)
        assert len(calls) == 1, S


class TestDirections:
    def test_one_point_has_no_direction(self):
        # a single point spans no segment, so no diameter direction
        report = brute_force_diameter(PointSet([(0, 0)]))
        assert (report.ldiam, report.segments, report.directions) == (0, (), ())

    def test_sorted_and_primitive(self):
        S = PointSet([(0, 0), (2, 2), (0, 2), (2, 0)])
        dirs = brute_force_diameter(S).directions
        assert list(dirs) == sorted(dirs)
        for u in dirs:
            assert gcd(*u.vec) == 1

    def test_trusted_directions_match_the_validating_constructor(self, monkeypatch):
        """The report builds each direction with Direction._canonical from
        q - p divided by the diameter. It equals Direction(q - p), in the
        order of the sorted differences, on every sample, on the point sets
        of the benchmark's points workload and on the direction-maximal
        polytopes."""
        sets = []
        for path in sorted(SAMPLES.glob("*.json")):
            doc = load_document(str(path))
            if doc.kind == "polygon":
                sets.append(enumerate_lattice_points(polygon_from_document(doc)))
            else:
                sets.append(point_set_from_document(doc))
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        # its dataclass looks the module up by name while it is built
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        seen = set()
        for job in workloads.generate("points", 1):
            if job.kind == "refused" or not job.files or job.files[0][0] in seen:
                continue
            seen.add(job.files[0][0])
            if "points" in job.data:
                sets.append(PointSet(job.data["points"]))
            else:
                sets.append(enumerate_lattice_points(Polygon2(job.data["polygon"])))
        sets += [direction_maximal_polytope(d)[0] for d in range(2, 8)]
        assert len(sets) > 50
        for S in sets:
            report = brute_force_diameter(S, 10**6)
            differences = sorted({tuple(b - a for a, b in zip(p, q)) for p, q in report.segments})
            assert report.directions == tuple(map(Direction, differences)), S
            assert all(type(c) is int for u in report.directions for c in u.vec)


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
