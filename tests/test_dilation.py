"""Diameter line counts of dilates: exact counting, fitting, chambers."""

import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

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
    document_for_polygon,
    enumerate_lattice_points,
    fit_quasipolynomial,
    nvol,
    render_document,
)

from helpers import (
    QUAD,
    SQUARE,
    best_records_oracle,
    chamber_decomposition_oracle,
    chord_oracle,
    chord_table_oracle,
    clip_line_oracle,
    count_oracle,
    dilate_levels_oracle,
    fit_quasipolynomial_oracle,
    lattice_circle,
    opposite_pairs_oracle,
    plateau,
    profile_polygons,
    profile_records_oracle,
    random_chambers,
    random_polygon,
    ring_polygons,
    tie_bound_oracle,
    unpruned_counts,
    window_oracle,
)
from latticediam import compute_diameter, core, diameter, dilation, lines, local_diameter_lines
from latticediam.core import floor_sum, level_interval
from latticediam.diameter import DilationProfile, dilation_profile

# conv{(0,0),(2,0),(3,4)}: the count drops from 4 to its eventual constant 2
LATE_START = Polygon2(((0, 0), (2, 0), (3, 4)))
UNIT_TRIANGLE = Polygon2(((0, 0), (1, 0), (0, 1)))
# the pair-step budget of the oracle runs on dilates of up to 10^4 points
ORACLE_PAIRS = 10**7


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

    def test_matches_the_pair_oracle_up_to_ten_thousand_points(self):
        """count(k) and best(k) against the pair oracle on the lattice
        points of kP, which shares no code with the profile's line model:
        each diameter line of kP holds exactly one pair of maximal gcd, its
        two ends. Dilates of seeded small polygons, up to 10^4 points."""
        rng = random.Random(1703)
        polygons = [QUAD, SQUARE, LATE_START, UNIT_TRIANGLE,
                    Polygon2(((0, 0), (6, 1), (-1, 7)))]
        polygons += [random_polygon(rng, span_lo=2, span_hi=6) for _ in range(40)]
        cases = largest = 0
        for P in polygons:
            profile = dilation_profile(P)
            for k in (1, 2, 3, 4, 5, 6, 7, 9, 11, 14, 17, 22, 28, 35, 44, 56, 71):
                points = enumerate_lattice_points(P.dilate(k))
                if len(points) > 10**4:
                    break
                report = brute_force_diameter(PointSet(points), max_pairs=ORACLE_PAIRS)
                best, directions = profile.best(k)
                assert profile.count(k) == len(report.segments), (P, k)
                assert best == report.ldiam + 1, (P, k)
                assert directions == [u.vec for u in report.directions], (P, k)
                cases += 1
                largest = max(largest, len(points))
        assert cases >= 400 and largest > 8000, (cases, largest)

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
            for k in (1, 2, 3, 5, 7, 12):
                best, directions = profile.best(k)
                assert (profile.count(k), best, directions) == dilate_levels_oracle(P, k), (P, k)
                cases += 1
        assert cases >= 500 * 6

    def test_candidates_are_the_local_scans_of_the_dilate(self, polygons):
        """The unpruned records (profile_records_oracle) are candidate lines
        of the local scans of every kP, and every other candidate line of
        kP, past level J, holds fewer lattice points of kP than the best."""
        others = 0
        for P in polygons:
            profile = dilation_profile(P)
            records = profile_records_oracle(P)
            for k in (1, 2, 3, 12):
                kP = P.dilate(k)
                halfplanes = kP.halfplanes()
                want = {
                    line
                    for pair in opposite_pairs_oracle(kP)
                    for line in local_diameter_lines(*pair)
                }
                got = {LatticeLine((k * v[0], k * v[1]), d) for v, d, _ in records}
                assert got <= want, (P, k)
                best = profile.best(k)[0]
                for line in want - got:
                    lo, hi = level_interval(halfplanes, line.base, line.dir.vec)
                    assert hi - lo + 1 < best, (P, k, line)
                    others += 1
                assert best >= k + 1, (P, k)
        assert others > 100

    def test_chords_match_clip_line(self, polygons):
        """The integer chord read agrees with the Fraction clipping loop on
        the line of every unpruned record and on every vertex line of the
        record directions and of a few random directions."""
        rng = random.Random(12)
        reads = 0
        for P in polygons:
            records = profile_records_oracle(P)
            halfplanes = P.halfplanes()
            directions = {record.direction for record in records}
            directions |= {
                Direction((rng.randint(-9, 9), rng.randint(1, 9))).vec for _ in range(3)
            }
            for record in records:
                chord = nvol(clip_line_oracle(P, LatticeLine(record.vertex, record.direction)))
                assert record.chord == (chord.numerator, chord.denominator), P
            for v in P.vertices:
                for d in directions:
                    chord = nvol(clip_line_oracle(P, LatticeLine(v, d)))
                    assert chord_oracle(halfplanes, v, d) == (chord.numerator, chord.denominator)
                    reads += 1
        assert reads > 10_000

    def test_best_matches_the_record_loop(self, polygons):
        """The best count and directions of kP, read from the chord table,
        C* and K0, are those of the loop over every unpruned record."""
        for P in polygons:
            profile = dilation_profile(P)
            for k in (1, 2, 3, 4, 5, 7, 12, 17, 10**6, 10**9):
                assert profile.best(k) == best_records_oracle(profile, k), (P, k)

    def test_table_is_the_longest_chords_of_the_top_floor(self, polygons):
        """The chord table and longest_chord against those built from the
        unpruned records (chord_table_oracle): the longest chord of each
        direction, for the directions whose longest chord has the floor of
        the longest chord of all. Every record of one direction has the
        same clipped chord, so the table keeps the first it meets."""
        rng = random.Random(24)
        family = [
            *(random_polygon(rng, span_hi=rng.choice((6, 12, 40)), coord=10**5)
              for _ in range(300)),
            *polygons,
            *map(lattice_circle, range(2, 9)),
            *(triangle(m) for m in range(3, 40)),
        ]
        sizes = Counter()
        for P in family:
            profile = dilation_profile(P)
            records = profile_records_oracle(P)
            chords = {}
            for _, d, chord in records:
                assert chords.setdefault(d, chord) == chord, (P, d)
            table, longest = chord_table_oracle(records)
            assert dict(profile._table) == table, P
            assert profile.longest_chord == longest, P
            sizes[len(table) > 1] += 1
        assert sizes[True] > 50, sizes

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


class TestRangeCounts:
    """DilationProfile.counts, the one range kernel under count, against
    the per-k kernel it replaced (helpers.count_oracle)."""

    def test_matches_the_per_k_kernel(self):
        rng = random.Random(19)
        polygons = [
            *profile_polygons(), *ring_polygons(10, rng),
            plateau(10**6), plateau(10**15), QUAD, SQUARE,
        ]
        for P in polygons:
            profile = dilation_profile(P)
            ks = [*range(1, 41), *rng.sample(range(1, 41), 5)]
            for base in (10**9, 10**12):
                r = rng.randint(0, 10**6)
                ks += [base + r, base + r]
            rng.shuffle(ks)
            want = [count_oracle(profile, k) for k in ks]
            assert profile.counts(ks) == want, P
            assert dilation_profile(P).counts(reversed(ks)) == want[::-1], P
            assert [profile.count(k) for k in ks] == want, P
            # count(k) on a fresh profile counts each k as a batch of one
            lone = dilation_profile(P)
            assert [lone.count(k) for k in ks] == want, P

    def test_a_lone_count_is_a_batch_of_one(self, monkeypatch):
        batches = []
        kernel = DilationProfile._count

        def recorded(profile, ks):
            batches.append(list(ks))
            return kernel(profile, ks)

        monkeypatch.setattr(DilationProfile, "_count", recorded)
        profile = dilation_profile(QUAD)
        assert [profile.count(k) for k in range(1, 7)] == [3, 4, 3, 9, 8, 5]
        assert profile.counts(range(1, 7)) == [3, 4, 3, 9, 8, 5]
        assert batches == [[1], [2], [3], [4], [5], [6]]

    def test_each_k_is_counted_once(self, monkeypatch):
        batches = []
        kernel = DilationProfile._count

        def recorded(profile, ks):
            batches.append(list(ks))
            return kernel(profile, ks)

        monkeypatch.setattr(DilationProfile, "_count", recorded)
        profile = dilation_profile(QUAD)
        assert profile.counts([3, 1, 3, 2]) == [3, 3, 3, 4]
        assert profile.counts(range(1, 7)) == [3, 4, 3, 9, 8, 5]
        assert profile.count(2) == 4 and profile.counts([]) == []
        assert batches == [[3, 1, 2], [4, 5, 6]]

    @pytest.mark.parametrize(
        "ks", [[0], [1, 2, 0], [-3, 4], [2.0], [1, "2"], [None], [3, 10**12, 1.5]]
    )
    def test_bad_ks_are_refused_before_any_count(self, ks, monkeypatch):
        def no_count(*args):
            raise AssertionError("the kernel ran")

        profile = dilation_profile(QUAD)
        bad = next(k for k in ks if not isinstance(k, int) or k < 1)
        with pytest.raises(ValidationError) as refused:
            profile.count(bad)
        monkeypatch.setattr(DilationProfile, "_count", no_count)
        with pytest.raises(ValidationError) as exc:
            profile.counts(ks)
        assert str(exc.value) == str(refused.value)
        assert profile._counts == {}

    def test_count_keeps_its_checks_and_cache(self, monkeypatch):
        profile = dilation_profile(QUAD)
        for k in (0, -1, 2.0, "3", None, [1]):
            with pytest.raises(ValidationError, match="positive int"):
                profile.count(k)
        assert profile.count(5) == 8

        def no_count(*args):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(DilationProfile, "_count", no_count)
        assert profile.count(5) == 8 and profile.counts((5, 5)) == [8, 8]
        assert profile._counts == {5: 8}


def triangle(m: int) -> Polygon2:
    """T_m = conv{(0,0),(m-1,1),(-1,m)}."""
    return Polygon2(((0, 0), (m - 1, 1), (-1, m)))


class TestTieBound:
    """The window of each k from the longest chord C* (DilationProfile.best),
    against the window pass over the chord table (helpers.window_oracle),
    and the tie bound K0 of helpers.tie_bound_oracle, past which C*'s
    directions alone reach the window."""

    @pytest.fixture(scope="class")
    def polygons(self):
        rng = random.Random(2301)
        small = [random_polygon(rng, span_hi=rng.choice((4, 8, 16, 25)), coord=10**4)
                 for _ in range(300)]
        return (small + profile_polygons() + [lattice_circle(m) for m in range(2, 9)]
                + [triangle(m) for m in range(3, 40)])

    def test_windows_match_the_table_pass(self, polygons):
        """best(k) equals the table pass for every k up to K0 + 2q and at
        two large ks, and from K0 on the table pass finds the directions of
        C* alone."""
        rng = random.Random(2302)
        ties = 0
        for P in polygons:
            profile = dilation_profile(P)
            K0, (N, D) = tie_bound_oracle(profile), profile.longest_chord
            top = [d for d, chord in profile._table.items() if chord == (N, D)]
            ks = [*range(1, K0 + 2 * D + 1)]
            ks += [10**6 + rng.randrange(D), 10**12 + rng.randrange(D)]
            for k in ks:
                m, directions = window_oracle(profile, k)
                assert profile.best(k) == (m + 1, sorted(directions)), (P, k)
                if k >= K0:
                    assert directions == top, (P, k)
            ties += K0 > 0
        assert ties > 50

    def test_directions_match_the_pair_oracle_on_the_dilates(self):
        """best(k) on the small polygons against the pair oracle on the
        lattice points of kP, for every k up to K0 + 2."""
        rng = random.Random(2303)
        polygons = [LATE_START, QUAD, SQUARE, triangle(5), triangle(6)]
        polygons += [random_polygon(rng, span_lo=2, span_hi=8) for _ in range(300)]
        cases = ties = 0
        for P in polygons:
            profile = dilation_profile(P)
            K0 = tie_bound_oracle(profile)
            for k in range(1, K0 + 3):
                points = enumerate_lattice_points(P.dilate(k))
                assert len(points) <= 10**4, (P, k)
                report = brute_force_diameter(PointSet(points), max_pairs=ORACLE_PAIRS)
                best, directions = profile.best(k)
                assert best == report.ldiam + 1, (P, k)
                assert directions == [u.vec for u in report.directions], (P, k)
                cases += 1
            ties += K0 > 0
        assert cases > 700 and ties > 30, (cases, ties)


class TestLivePieces:
    """The count kernel hands the (k, m) pairs only to the level pieces
    whose bound K_p admits them (DilationProfile._live_pieces): a piece past
    its K_p has an empty chord window."""

    @pytest.fixture(scope="class")
    def polygons(self):
        rng = random.Random(2701)
        return [
            *map(lattice_circle, range(2, 9)), QUAD, plateau(10),
            *(triangle(m) for m in range(5, 20)),
            *(random_polygon(rng, span_hi=rng.choice((6, 12, 40)), coord=10**4)
              for _ in range(300)),
        ]

    @staticmethod
    def checked_ks(profile) -> list[int]:
        """k = 1 .. K0 + 2q + 5, then 10^6 + r and 10^12 + r for r < q."""
        _, q = profile.longest_chord
        ks = [*range(1, tie_bound_oracle(profile) + 2 * q + 6)]
        return ks + [base + r for base in (10**6, 10**12) for r in range(q)]

    def test_counts_match_the_unpruned_kernel(self, polygons):
        pruned = 0
        for P in polygons:
            profile = dilation_profile(P)
            ks = self.checked_ks(profile)
            assert profile.counts(ks) == [count_oracle(profile, k) for k in ks], P
            always, bounded = profile._live_pieces()
            pieces = sum(len(profile.pieces(d)[1]) for d in profile._table)
            pruned += pieces - len(always) - len(bounded)
        assert pruned > 300

    def test_no_window_past_the_bound(self, polygons):
        """Every piece of every direction of the table has an empty m chord
        window at each checked k that its bound does not admit, m the
        window floor(k C*) of kP."""
        empty = 0
        for P in polygons:
            profile = dilation_profile(P)
            N, D = profile.longest_chord
            always, bounded = profile._live_pieces()
            bounds = {piece: K for K, piece in bounded}
            assert [K for K, _ in bounded] == sorted(bounds.values(), reverse=True)
            for d in profile._table:
                for piece in profile.pieces(d)[1]:
                    if piece in always:
                        continue
                    K = bounds.get(piece, 0)
                    for k in self.checked_ks(profile):
                        if k > K:
                            first, last = diameter._chord_clip(piece, k, k * N // D)
                            assert first > last, (P, d, piece, k)
                            empty += 1
        assert empty > 10**4

    def test_t19_hands_its_pairs_to_three_of_six_pieces(self, monkeypatch):
        visited = []
        kernel = diameter._piece_counts

        def recorded(piece, pairs, totals):
            visited.append(piece)
            return kernel(piece, pairs, totals)

        monkeypatch.setattr(diameter, "_piece_counts", recorded)
        profile = dilation_profile(triangle(19))
        _, q = profile.longest_chord
        ks = range(1, 4 * q + 1)
        assert profile.counts(ks) == unpruned_counts(dilation_profile(triangle(19)), ks)
        pieces = [p for d in profile._table for p in profile.pieces(d)[1]]
        assert len(pieces) == 6
        assert len(visited) == 3 and set(visited) < set(pieces)

    def test_a_long_range_on_a_thousand_vertices(self, tmp_path):
        """ld-count --k-max 200000 on lattice_circle(20), 1,024 vertices and
        1,022 pieces in its two C* directions, of which 4 reach the window:
        unpruned, it took about 50 s."""
        P = lattice_circle(20)
        path = tmp_path / "circle.json"
        path.write_text(render_document(document_for_polygon(P)))
        src = str(Path(diameter.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "latticediam", "ld-count", str(path), "--k-max", "200000"],
            capture_output=True, text=True, env=env, timeout=30,
        )
        elapsed = time.perf_counter() - start
        assert done.returncode == 0, done.stderr
        assert elapsed < 5, elapsed
        rows = done.stdout.splitlines()
        assert rows[0] == "k,count" and len(rows) == 200_001
        profile = dilation_profile(P)
        always, bounded = profile._live_pieces()
        assert len(always) + len(bounded) == 4
        ks = range(1, 20_001)
        want = unpruned_counts(profile, ks)
        assert rows[1:20_001] == [f"{k},{c}" for k, c in zip(ks, want)]


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
        for k in (0, 2.5, "3", None):
            with pytest.raises(ValidationError, match="^dilation factor must be a positive int$"):
                fit.evaluate(k)
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

    def test_matches_the_fraction_fitter(self):
        """The integer fit gives the Fraction fitter's period, pieces and
        start, or its FitError message, with and without an explicit k_max."""
        rng = random.Random(21)
        polygons = [QUAD, SQUARE, UNIT_TRIANGLE, LATE_START,
                    Polygon2(((-2, 1), (-1, 0), (0, 0), (1, 3), (-1, 2)))]
        polygons += [
            random_polygon(rng, span_hi=rng.choice((4, 8, 12)), coord=10**3)
            for _ in range(80)
        ]
        outcomes = Counter()
        for P in polygons:
            for k_max in (None, 4, 8, 12, 16, 24, 40):
                try:
                    want = fit_quasipolynomial_oracle(P, k_max)
                except FitError as exc:
                    with pytest.raises(FitError) as got:
                        fit_quasipolynomial(P, k_max)
                    assert str(got.value) == str(exc), (P, k_max)
                    outcomes[str(exc).split()[0]] += 1
                    continue
                fit = fit_quasipolynomial(P, k_max)
                assert (fit.period, fit.pieces, fit.valid_from) == want, (P, k_max)
                outcomes["fit"] += 1
        # every outcome is met: fits, short windows and disagreeing samples
        assert outcomes["fit"] > 100 and outcomes["samples"] and outcomes["k_max=4"]

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

    def test_matches_the_fraction_reference(self):
        # floored constants count every row as the rational ones do, on
        # seeded chambers with q up to 12 and w up to 6, their mirror
        # images and translates
        u = Direction((1, 0))
        qs = set()
        for verts in random_chambers(100):
            want = chamber_decomposition_oracle(verts)
            assert chamber_decomposition(verts, u) == want, verts
            qs.add(want.q)
        assert qs == set(range(1, 13))

    def test_rows_clip_no_line(self, monkeypatch):
        def no_clip(*args):
            raise AssertionError("a row was clipped by level_interval")

        for module in (core, lines, diameter):
            monkeypatch.setattr(module, "level_interval", no_clip)
        assert not hasattr(dilation, "level_interval")
        u = Direction((1, 0))
        for verts in random_chambers(10):
            assert chamber_decomposition(verts, u) == chamber_decomposition_oracle(verts)

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
        for k in (0, 2.5, "3", None):
            with pytest.raises(ValidationError, match="^dilation factor must be a positive int$"):
                dec.count(k)

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
