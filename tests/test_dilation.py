"""Diameter line counts of dilates: exact counting, fitting, chambers."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticediam import (
    BlockDecomposition,
    Direction,
    FitError,
    LatticeLine,
    PointSet,
    Polygon2,
    QuasiPolynomial,
    ValidationError,
    brute_force_diameter,
    chamber_decomposition,
    count_diameter_lines,
    demo_chamber,
    enumerate_lattice_points,
    fit_quasipolynomial,
    nvol,
)

from helpers import (
    QUAD,
    SQUARE,
    clip_line_oracle,
    dilate_levels_oracle,
    profile_polygons,
    random_polygon,
)
from latticediam import compute_diameter, diameter, local_diameter_lines
from latticediam.core import floor_sum
from latticediam.diameter import _chord, dilation_profile, opposite_pairs

# conv{(0,0),(2,0),(3,4)}: the count drops from 4 to its eventual constant 2
LATE_START = Polygon2(((0, 0), (2, 0), (3, 4)))
UNIT_TRIANGLE = Polygon2(((0, 0), (1, 0), (0, 1)))


def oracle_line_count(P: Polygon2, k: int) -> int:
    """Count diameter lines of kP from the pairwise oracle alone."""
    S = PointSet(enumerate_lattice_points(P.dilate(k)))
    report = brute_force_diameter(S)
    lines = {
        LatticeLine(a, (b[0] - a[0], b[1] - a[1])) for a, b in report.segments
    }
    return len(lines)


class TestCountDiameterLines:
    def test_quad_small_dilates(self):
        got = [count_diameter_lines(QUAD, k) for k in range(1, 7)]
        assert got == [3, 4, 3, 9, 8, 5]

    def test_square_is_linear(self):
        # [0,2k]^2: 2k+1 horizontals, 2k+1 verticals, both main diagonals
        for k in range(1, 8):
            assert count_diameter_lines(SQUARE, k) == 4 * k + 4

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_matches_pairwise_oracle(self, seed, k):
        P = random_polygon(random.Random(seed), span_lo=3, span_hi=4)
        assert count_diameter_lines(P, k) == oracle_line_count(P, k)

    def test_matches_the_report(self):
        rng = random.Random(31)
        for _ in range(25):
            P = random_polygon(rng, span_hi=8)
            for k in range(1, 13):
                assert count_diameter_lines(P, k) == len(compute_diameter(P.dilate(k)).lines)

    def test_builds_no_diameter_line(self, monkeypatch):
        # The profile reads its candidates' chords in integers, so no line
        # is built, neither for them nor for the 4k + 4 diameter lines counted.
        built = []
        line = diameter.LatticeLine

        def recorded(*args):
            built.append(args)
            return line(*args)

        monkeypatch.setattr(diameter, "LatticeLine", recorded)
        assert count_diameter_lines(SQUARE, 1000) == 4004
        assert built == []


class TestDilationProfile:
    @pytest.fixture(scope="class")
    def polygons(self):
        return profile_polygons()

    def test_matches_the_per_dilate_oracle(self, polygons):
        cases = 0
        for P in polygons:
            profile = dilation_profile(P)
            ks = {1, 2, 3, 5, 7, 12}
            for record in profile.records:
                ks.update((record.kmin - 1, record.kmin))
            for k in sorted(ks - {0}):
                best, directions = profile.best(k)
                assert (profile.count(k), best, directions) == dilate_levels_oracle(P, k), (P, k)
                cases += 1
        assert cases >= 500 * 6

    def test_candidates_are_the_local_scans_of_the_dilate(self, polygons):
        """The records with kmin <= k are the candidate lines of the local
        scans of kP, and no pick lies above level 2J, so kmin <= 2."""
        for P in polygons[::5]:
            profile = dilation_profile(P)
            assert all(record.kmin <= 2 for record in profile.records)
            for k in (1, 2, 12):
                kP = P.dilate(k)
                want = {
                    line
                    for pair in opposite_pairs(kP)
                    for line in local_diameter_lines(pair.edge, pair.vertex, pair.normal)
                }
                got = {
                    LatticeLine((k * v[0], k * v[1]), d)
                    for v, d, kmin, _ in profile.records
                    if kmin <= k
                }
                assert got == want, (P, k)

    def test_chords_match_clip_line(self, polygons):
        """The integer chord read agrees with the Fraction clipping loop on
        every vertex line of the record directions and of a few random
        directions."""
        rng = random.Random(12)
        reads = 0
        for P in polygons:
            profile = dilation_profile(P)
            halfplanes = P.halfplanes()
            directions = {record.direction for record in profile.records}
            directions |= {
                Direction((rng.randint(-9, 9), rng.randint(1, 9))).vec for _ in range(3)
            }
            for record in profile.records:
                chord = nvol(clip_line_oracle(P, LatticeLine(record.vertex, record.direction)))
                assert record.chord == (chord.numerator, chord.denominator), P
            for v in P.vertices:
                for d in directions:
                    chord = nvol(clip_line_oracle(P, LatticeLine(v, d)))
                    assert _chord(halfplanes, v, d) == (chord.numerator, chord.denominator)
                    reads += 1
        assert reads > 10_000

    def test_floor_sum_matches_a_loop(self):
        rng = random.Random(99)
        for _ in range(3000):
            n, m = rng.randint(0, 40), rng.randint(1, 10 ** rng.randint(0, 4))
            a = rng.randint(-(10 ** rng.randint(0, 6)), 10 ** rng.randint(0, 6))
            b = rng.randint(-(10 ** rng.randint(0, 9)), 10 ** rng.randint(0, 9))
            assert floor_sum(n, m, a, b) == sum((a * x + b) // m for x in range(n))

    def test_rejects_nonpositive_k(self):
        for k in (0, -3):
            with pytest.raises(ValidationError):
                count_diameter_lines(QUAD, k)


class TestDilationWork:
    def test_quad_at_a_trillion(self):
        assert count_diameter_lines(QUAD, 10**12) == 2_000_000_000_001

    def test_work_does_not_grow_with_k(self, monkeypatch):
        calls = Counter()
        for name in ("level_interval", "floor_sum"):
            kernel = getattr(diameter, name)

            def counted(*args, _name=name, _kernel=kernel):
                calls[_name] += 1
                return _kernel(*args)

            monkeypatch.setattr(diameter, name, counted)
        built = []
        init = Polygon2.__init__

        def recorded(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Polygon2, "__init__", recorded)
        work = []
        for k in (10, 10**6, 10**12):
            calls.clear()
            count_diameter_lines(QUAD, k)
            work.append(dict(calls))
        assert work[0] == work[1] == work[2]
        assert work[0]["floor_sum"] > 0
        assert built == []


class TestFit:
    def test_quad_pieces(self):
        fit = fit_quasipolynomial(QUAD)
        assert fit.period == 3
        assert fit.valid_from == 1
        assert fit.pieces == (
            (Fraction(2, 3), Fraction(1)),
            (Fraction(2), Fraction(1)),
            (Fraction(4, 3), Fraction(4, 3)),
        )
        assert fit.evaluate(30) == 21

    def test_square_reduces_to_period_one(self):
        fit = fit_quasipolynomial(SQUARE)
        assert fit.period == 1
        assert fit.pieces == ((Fraction(4), Fraction(4)),)
        assert [fit.evaluate(k) for k in (1, 9, 100)] == [8, 40, 404]

    def test_unit_triangle_is_constant(self):
        fit = fit_quasipolynomial(UNIT_TRIANGLE)
        assert fit.period == 1
        assert fit.pieces == ((Fraction(0), Fraction(3)),)
        assert fit.evaluate(77) == 3

    def test_late_start_is_reported(self):
        fit = fit_quasipolynomial(LATE_START)
        assert (fit.period, fit.valid_from) == (1, 2)
        assert fit.pieces == ((Fraction(0), Fraction(2)),)
        assert count_diameter_lines(LATE_START, 1) == 4

    def test_tie_past_q_extends_the_window(self):
        # conv{(-2,1),(-1,0),(0,0),(1,3),(-1,2)}: the longest chords sit on
        # isolated peaks with denominator 2, yet a horizontal chord of length
        # 7/3 still ties at k = 3, so the settled pattern only starts at k = 4
        P = Polygon2(((-2, 1), (-1, 0), (0, 0), (1, 3), (-1, 2)))
        got = [count_diameter_lines(P, k) for k in range(1, 9)]
        assert got == [4, 2, 4, 2, 3, 2, 3, 2]
        fit = fit_quasipolynomial(P)
        assert (fit.period, fit.valid_from) == (2, 4)
        assert fit.pieces == (
            (Fraction(0), Fraction(2)),
            (Fraction(0), Fraction(3)),
        )
        assert [fit.evaluate(k) for k in (4, 5, 100, 101)] == [2, 3, 2, 3]
        # an explicit window is never extended, so the same polygon errors
        # out with the largest disagreeing sample in the message
        with pytest.raises(FitError, match=r"k=3"):
            fit_quasipolynomial(P, k_max=8)
        assert fit_quasipolynomial(P, k_max=16).valid_from == 4

    def test_k_max_below_four_periods_is_rejected(self):
        with pytest.raises(FitError):
            fit_quasipolynomial(QUAD, k_max=11)
        assert fit_quasipolynomial(QUAD, k_max=12).period == 3

    def test_evaluate_guards(self):
        fit = fit_quasipolynomial(SQUARE)
        with pytest.raises(ValidationError):
            fit.evaluate(0)
        fractional = QuasiPolynomial(
            period=1, pieces=((Fraction(1, 2), Fraction(0)),), valid_from=1
        )
        with pytest.raises(FitError):
            fractional.evaluate(3)
        negative = QuasiPolynomial(
            period=1, pieces=((Fraction(-1), Fraction(0)),), valid_from=1
        )
        with pytest.raises(FitError):
            negative.evaluate(2)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_fit_agrees_with_direct_counts(self, seed):
        P = random_polygon(random.Random(seed), span_lo=3, span_hi=5)
        fit = fit_quasipolynomial(P)
        for k in range(fit.valid_from, fit.valid_from + 3):
            assert fit.evaluate(k) == count_diameter_lines(P, k)


class TestChamberDecomposition:
    def test_demo_chamber(self):
        verts, u = demo_chamber()
        dec = chamber_decomposition(verts, u)
        assert (dec.q, dec.w) == (3, 2)
        assert dec.per_residue == ((1, 1, 1), (3, 0, 0), (2, 2, 2))

    def test_demo_chamber_mirrored_and_translated(self):
        verts, u = demo_chamber()
        want = chamber_decomposition(verts, u)
        mirrored = [(-x, y) for x, y in verts]
        translated = [(x + 7, y - 4) for x, y in verts]
        for image in (mirrored, translated):
            dec = chamber_decomposition(image, u)
            assert (dec.q, dec.w, dec.per_residue) == (
                want.q, want.w, want.per_residue
            )

    def test_counts_reproduce_quad_counts(self):
        verts, u = demo_chamber()
        dec = chamber_decomposition(verts, u)
        got = [dec.count(k) for k in range(1, 9)]
        assert got == [3, 4, 3, 9, 8, 5, 15, 12]
        assert got == [count_diameter_lines(QUAD, k) for k in range(1, 9)]

    def test_block_counts(self):
        verts, u = demo_chamber()
        dec = chamber_decomposition(verts, u)
        assert [dec.blocks(k) for k in range(1, 9)] == [1, 1, 2, 3, 3, 4, 5, 5]

    def test_count_rejects_nonpositive_k(self):
        dec = BlockDecomposition(q=3, w=2, per_residue=((1, 1, 1),) * 3)
        with pytest.raises(ValidationError):
            dec.count(0)

    def test_rejects_wrong_direction(self):
        verts, _ = demo_chamber()
        with pytest.raises(ValidationError):
            chamber_decomposition(verts, Direction((0, 1)))

    def test_rejects_non_parallelogram(self):
        with pytest.raises(ValidationError):
            chamber_decomposition(
                ((0, 0), (4, 0), (5, 2), (0, 2)), Direction((1, 0))
            )

    def test_rejects_wrong_vertex_count(self):
        with pytest.raises(ValidationError):
            chamber_decomposition(((0, 0), (4, 0), (4, 2)), Direction((1, 0)))
        with pytest.raises(ValidationError):
            chamber_decomposition(
                ((0, 0), (4, 0), (4, 0), (0, 2)), Direction((1, 0))
            )

    def test_rejects_tilted_edges(self):
        with pytest.raises(ValidationError):
            chamber_decomposition(
                ((0, 0), (1, 1), (3, 4), (2, 3)), Direction((1, 0))
            )

    def test_each_edge_needs_an_integral_vertex(self):
        shifted = (
            (Fraction(1, 3), 0),
            (Fraction(13, 3), 0),
            (Fraction(16, 3), 2),
            (Fraction(4, 3), 2),
        )
        with pytest.raises(ValidationError):
            chamber_decomposition(shifted, Direction((1, 0)))
