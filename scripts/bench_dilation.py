"""Scaling ladders of the dilation counts, written as one JSON file.

    PYTHONPATH=src python scripts/bench_dilation.py --out BENCH_31.json \
        [--baseline OTHER_CHECKOUT/src]

Rows:
- dilation_profile(P) on the reference quad conv{(0,0),(5,1),(6,4),(1,3)}
  and the square [0,2]^2: the best time of building the profile
  ("dilation_profile_s");
- DilationProfile.count(k) for k = 10^1 .. 10^12 on the same two polygons:
  the value, the best time in seconds of the first count of a profile
  ("first_s"), the best time of a count on a warm profile ("warm_s"), and
  the floor_sum and level_interval calls of one first count (taken in a
  separate, untimed pass). A first count also builds the level pieces of
  the profile's diameter directions, and the profile keeps each count, so
  every "first_s" call gets a fresh profile, built before its timer
  starts. "warm_s" times counts((k,)) on one profile whose pieces are
  already built and whose kept counts are dropped before each call: the
  cost of each further k. These rows and the profile rows are timed in
  rounds, as the range counts are (below);
- range_counts: the best time per k ("per_k_s") of counts(range(1, K + 1))
  on a warm profile, its kept counts dropped before each call, with the sum
  of the K counts, for the quad and the square at K = 100, for the 4q
  windows of T_m (below) for m = 19, 61, 113 and 229, the K = 4q samples
  the fit takes first, q the denominator of the longest chord, and for the
  lattice "circles" (below) m = 8, 14 and 20 at K = 5,000, whose many
  level pieces mostly never reach the chord window.
  With --baseline, the same rows are timed on the package found in that
  directory, as the ladder below is, and each row holds them under
  "baseline";
- fit_quasipolynomial on T_m = conv{(0,0),(m-1,1),(-1,m)} for m = 19, 61,
  113 and 229: period, valid_from and the best time;
- chamber_decomposition(*demo_chamber()): q, w and the best time;
- profile_ladder: dilation_profile(P), compute_diameter(P) and
  fit_quasipolynomial(P), the best time of each, and the best time of one
  _level_pieces call in the first diameter direction of P, on the parabola
  polygons conv{(i, i^2) : 0 <= i < n} for n = 8 .. 512, on the lattice
  "circles" (one edge per primitive vector (a, b) with |a|, |b| <= m, in
  angle order) for m = 3 .. 11, n = 32 .. 336, and on the skew triangles
  conv{(0,0),(s,1),(3s+1,7)} for s = 10^2 .. 10^30, and on the plateaus
  conv{(0,0),(2H,0),(2H+1,H),(1,H)} for H = 10^3 .. 10^6, whose chord
  window in direction (1, 0) holds all H + 1 levels but only two diameter
  lines, with the cone picks the profile reads, ldiam, line count and
  fitted period of each.
  With --baseline, the same rows are timed on the package found in that
  directory, and each row holds them under "baseline";
- prune: dilation_profile(P) and compute_diameter(P), the best time of
  each, with the cones of P (its (edge, opposite vertex) pairs), the
  cones that take a descent ("visited") and those skipped, whose edge
  level J is below the top, the cones whose picks are walked from their
  first pick ("walks", the _level_picks calls), and the cone picks the
  profile reads, on the skew triangles
  conv{(0,0),(s,1),(3s+1,7)} for s = 10^2 .. 5 10^4 and 10^12, and on thin
  hulls of 7 to 12 random points of heights 3 to 8 and widths
  10^2 .. 5 10^4, drawn by a seeded generator of this script. With --baseline, the same rows are timed on the package
  found in that directory, and each row holds them under "baseline";
- the import time of latticediam in a fresh interpreter, apart from the
  compute rows (interpreter start-up excluded), timed by bench_cli's
  import_seconds: every fresh interpreter reads its bytecode from one
  temporary PYTHONPYCACHEPREFIX directory, warmed by an import first, so
  the row never times the compiler.

Times are the best of at least REPEAT runs of a single call, and of as
many more as fit in MIN_SECONDS, after one warm-up call. The profile
ladder, the prune rows, the range counts and the lone profile and count
rows are timed in ROUNDS rounds, alternating this
package and the baseline, and which of the two runs first in a round, so
a slow spell of a shared host, or the order, weighs on both sides alike,
and each of their times is reported as its quartiles [q1, median, q3] over
the rounds, so a change can be read against the spread of the rows. Each
round of each package runs in a fresh child interpreter that imports this
script, so neither side is timed in a process whose heap already holds
the other rows; the other rows are timed in this process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
from collections import Counter
from functools import cmp_to_key
from math import gcd
from statistics import quantiles

import latticediam
from latticediam import (
    Polygon2,
    chamber_decomposition,
    compute_diameter,
    demo_chamber,
    diameter,
    fit_quasipolynomial,
)
from latticediam.diameter import _level_pieces, dilation_profile

# scripts/ is this script's directory, so it leads sys.path
from bench_cli import child_env, fresh_python, import_seconds

QUAD = Polygon2(((0, 0), (5, 1), (6, 4), (1, 3)))
SQUARE = Polygon2(((0, 0), (2, 0), (2, 2), (0, 2)))
KERNELS = ("floor_sum", "level_interval")
REPEAT = 5
MIN_SECONDS = 0.05
ROUNDS = 7
PARABOLA_SIZES = (8, 16, 32, 64, 128, 256, 512)
CIRCLE_RADII = (3, 4, 5, 7, 9, 11)
SKEW_EXPONENTS = (2, 4, 6, 9, 12, 18, 24, 30)
PLATEAU_EXPONENTS = (3, 4, 5, 6)
FIT_SIZES = (19, 61, 113, 229)
PRUNE_WIDTHS = (100, 300, 1000, 3000, 10000, 50000)
SCRIPTS = os.path.dirname(os.path.abspath(__file__))
# the directory holding the latticediam package this script imported
SRC = os.path.dirname(os.path.dirname(os.path.abspath(latticediam.__file__)))
RANGE_K = 100
CIRCLE_RANGE = (8, 14, 20)
CIRCLE_RANGE_K = 5000
# Run in a child interpreter whose path leads to the package to time.
CHILD = "import json, bench_dilation; print(json.dumps(bench_dilation.{}()))"


def best_time(fn, repeat: int) -> float:
    fn()
    best, runs, spent = float("inf"), 0, 0.0
    while runs < repeat or spent < MIN_SECONDS:
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best, runs, spent = min(best, elapsed), runs + 1, spent + elapsed
    return best


def best_count_time(P: Polygon2, k: int, repeat: int) -> float:
    """The best time of DilationProfile.count(k) alone, each call on a fresh
    profile of P built before the timer starts."""
    dilation_profile(P).count(k)
    best, runs, spent = float("inf"), 0, 0.0
    while runs < repeat or spent < MIN_SECONDS:
        profile = dilation_profile(P)
        start = time.perf_counter()
        profile.count(k)
        elapsed = time.perf_counter() - start
        best, runs, spent = min(best, elapsed), runs + 1, spent + elapsed
    return best


def best_warm_time(profile, ks, repeat: int) -> float:
    """The best time of counts(ks) on profile, its kept counts dropped
    before each call, after one warm-up call."""
    profile.counts(ks)
    best, runs, spent = float("inf"), 0, 0.0
    while runs < repeat or spent < MIN_SECONDS:
        profile._counts.clear()
        start = time.perf_counter()
        profile.counts(ks)
        elapsed = time.perf_counter() - start
        best, runs, spent = min(best, elapsed), runs + 1, spent + elapsed
    return best


def triangle(m: int) -> Polygon2:
    """T_m = conv{(0,0),(m-1,1),(-1,m)}."""
    return Polygon2(((0, 0), (m - 1, 1), (-1, m)))


def range_count_rows() -> list[dict]:
    windows = [({"polygon": "quad"}, QUAD, RANGE_K), ({"polygon": "square"}, SQUARE, RANGE_K)]
    for m in FIT_SIZES:
        T = triangle(m)
        profile = dilation_profile(T)
        _, q = profile.longest_chord  # the fit's period
        windows.append(({"polygon": "T", "m": m}, T, 4 * q))
    for m in CIRCLE_RANGE:
        windows.append(({"polygon": "circle", "m": m}, lattice_circle(m), CIRCLE_RANGE_K))
    rows = []
    for row, P, K in windows:
        profile = dilation_profile(P)
        ks = range(1, K + 1)
        row.update({
            "K": K,
            "counts_sum": sum(profile.counts(ks)),
            "per_k_s": best_warm_time(profile, ks, REPEAT) / K,
        })
        rows.append(row)
    return rows


def lone_rows() -> list[dict]:
    """The profile row and the count rows of the quad and the square."""
    rows = []
    for name, P in (("quad", QUAD), ("square", SQUARE)):
        rows.append({
            "row": "dilation_profile",
            "polygon": name,
            "dilation_profile_s": best_time(lambda: dilation_profile(P), REPEAT),
        })
        for e in range(1, 13):
            k = 10**e
            profile = dilation_profile(P)
            calls = kernel_calls(lambda: profile.count(k))
            rows.append({
                "row": "count",
                "polygon": name,
                "k": f"1e{e}",
                "count": profile.count(k),
                "first_s": best_count_time(P, k, REPEAT),
                "warm_s": best_warm_time(profile, (k,), REPEAT),
                "kernel_calls": calls,
            })
    return rows


def kernel_calls(fn, kernels=KERNELS) -> dict[str, int]:
    """Calls of the diameter module's functions named kernels made by fn()."""
    calls: Counter[str] = Counter()
    saved = {name: getattr(diameter, name) for name in kernels}

    def counter(name):
        def counted(*args):
            calls[name] += 1
            return saved[name](*args)

        return counted

    try:
        for name in kernels:
            setattr(diameter, name, counter(name))
        fn()
    finally:
        for name, kernel in saved.items():
            setattr(diameter, name, kernel)
    return {name: calls[name] for name in kernels}


def picks(P: Polygon2) -> int:
    """The cone picks dilation_profile(P) reads, counted by wrapping the
    diameter module's _polygon_picks."""
    taken = 0
    scan = diameter._polygon_picks

    def counted(P):
        nonlocal taken
        for pick in scan(P):
            taken += 1
            yield pick

    try:
        diameter._polygon_picks = counted
        dilation_profile(P)
    finally:
        diameter._polygon_picks = scan
    return taken


def lattice_circle(m: int) -> Polygon2:
    """One edge per primitive vector (a, b) with |a|, |b| <= m, the vectors
    in counter-clockwise order from (1, 0) and summed from the origin."""
    vectors = [(a, b) for a in range(-m, m + 1) for b in range(-m, m + 1) if gcd(a, b) == 1]
    turn = cmp_to_key(lambda v, w: w[0] * v[1] - v[0] * w[1])
    upper = sorted((v for v in vectors if v[1] > 0 or (v[1] == 0 and v[0] > 0)), key=turn)
    lower = sorted((v for v in vectors if v[1] < 0 or (v[1] == 0 and v[0] < 0)), key=turn)
    x = y = 0
    vertices = []
    for a, b in upper + lower:
        vertices.append((x, y))
        x, y = x + a, y + b
    return Polygon2(vertices)


def ladder_polygons():
    """(row label, polygon) for each rung of the profile ladder."""
    for n in PARABOLA_SIZES:
        yield {"polygon": "parabola", "n": n}, Polygon2([(i, i * i) for i in range(n)])
    for m in CIRCLE_RADII:
        yield {"polygon": "circle", "m": m}, lattice_circle(m)
    for e in SKEW_EXPONENTS:
        s = 10**e
        yield {"polygon": "skew", "s": f"1e{e}"}, Polygon2(((0, 0), (s, 1), (3 * s + 1, 7)))
    for e in PLATEAU_EXPONENTS:
        H = 10**e
        yield {"polygon": "plateau", "H": f"1e{e}"}, Polygon2(
            ((0, 0), (2 * H, 0), (2 * H + 1, H), (1, H))
        )


def profile_ladder() -> list[dict]:
    rows = []
    for row, P in ladder_polygons():
        report = compute_diameter(P)
        profile = dilation_profile(P)
        u = profile.best(1)[1][0]
        row.update({
            "vertices": len(P),
            "picks": picks(P),
            "ldiam": report.ldiam,
            "lines": len(report.lines),
            "period": fit_quasipolynomial(P).period,
            "dilation_profile_s": best_time(lambda: dilation_profile(P), REPEAT),
            "compute_diameter_s": best_time(lambda: compute_diameter(P), REPEAT),
            "fit_quasipolynomial_s": best_time(lambda: fit_quasipolynomial(P), REPEAT),
            "level_pieces_s": best_time(lambda: _level_pieces(P, u), REPEAT),
        })
        rows.append(row)
    return rows


def thin_hull(rng, width: int) -> Polygon2:
    """The hull of two points at x = 0 and x = width and 5 to 10 more, all
    at heights 0 to h, h from 3 to 8."""
    h = rng.randint(3, 8)
    pts = {(0, rng.randint(0, h)), (width, rng.randint(0, h))}
    pts.update((rng.randint(0, width), rng.randint(0, h)) for _ in range(rng.randint(5, 10)))
    pts = sorted(pts)

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    return Polygon2(half(pts)[:-1] + half(pts[::-1])[:-1])


def prune_rows() -> list[dict]:
    polygons = [({"polygon": "skew", "s": s}, Polygon2(((0, 0), (s, 1), (3 * s + 1, 7))))
                for s in (*PRUNE_WIDTHS, 10**12)]
    rng = random.Random("bench-dilation/thin")
    polygons += [({"polygon": "thin", "width": w, "seed": i}, thin_hull(rng, w))
                 for w in PRUNE_WIDTHS for i in range(3)]
    rows = []
    for row, P in polygons:
        cones = sum(len(opposite) for *_, opposite in diameter._antipodes(P.vertices))
        # one continued-fraction descent per cone visited, and one walk per
        # cone whose picks are followed
        calls = kernel_calls(lambda: dilation_profile(P), ("_descend", "_level_picks"))
        row.update({
            "vertices": len(P),
            "cones": cones,
            "visited": calls["_descend"],
            "walks": calls["_level_picks"],
            "skipped": cones - calls["_descend"],
            "picks": picks(P),
            "dilation_profile_s": best_time(lambda: dilation_profile(P), REPEAT),
            "compute_diameter_s": best_time(lambda: compute_diameter(P), REPEAT),
        })
        rows.append(row)
    return rows


def in_child(src: str, rows: str) -> list[dict]:
    """The rows of the function of this script named rows, for the package
    in the directory src, timed in a fresh child interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((os.path.abspath(src), SCRIPTS))}
    return json.loads(subprocess.run(
        [sys.executable, "-c", CHILD.format(rows)], check=True, capture_output=True,
        text=True, env=env,
    ).stdout)


def quartiles(rounds: list[dict]) -> dict:
    """The first of the rounds of one row, with each time (a key ending in
    _s, also under "baseline") replaced by its quartiles [q1, median, q3]
    over the rounds."""
    first = rounds[0]
    out = {key: quantiles([row[key] for row in rounds], n=4, method="inclusive")
           if key.endswith("_s") else value for key, value in first.items()}
    if "baseline" in first:
        out["baseline"] = quartiles([row["baseline"] for row in rounds])
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--baseline", metavar="SRC",
                        help="a directory holding another latticediam package to time alongside")
    args = parser.parse_args()

    def rounds(rows: str) -> list[dict]:
        """The rows of the function named rows, with those of the baseline,
        each time given by its quartiles over ROUNDS rounds that alternate
        the two packages: the baseline runs first in the odd rounds."""
        runs: list[list[dict]] = []
        for r in range(ROUNDS):
            theirs = in_child(args.baseline, rows) if args.baseline and r % 2 else None
            ours = in_child(SRC, rows)
            if args.baseline:
                if theirs is None:
                    theirs = in_child(args.baseline, rows)
                for row, other in zip(ours, theirs):
                    row["baseline"] = {key: value for key, value in other.items()
                                       if key not in ("row", "polygon", "n", "m", "s", "H",
                                                      "K", "k", "width", "seed")}
            runs.append(ours)
        return [quartiles(list(row_rounds)) for row_rounds in zip(*runs)]

    ladder = rounds("profile_ladder")
    range_counts = rounds("range_count_rows")
    prune = rounds("prune_rows")
    lone = rounds("lone_rows")
    profiles = [row for row in lone if row["row"] == "dilation_profile"]
    counts = [row for row in lone if row["row"] == "count"]
    fits = []
    for m in FIT_SIZES:
        T = triangle(m)
        fit = fit_quasipolynomial(T)
        fits.append({
            "m": m,
            "period": fit.period,
            "valid_from": fit.valid_from,
            "seconds": best_time(lambda: fit_quasipolynomial(T), REPEAT),
        })
    with tempfile.TemporaryDirectory() as workdir:
        env = child_env(os.path.join(workdir, "pycache"))
        fresh_python(env, "-c", "import latticediam")  # writes the bytecode
        import_table = import_seconds(2 * REPEAT, {"this": env}, "latticediam")
    block = chamber_decomposition(*demo_chamber())
    chamber = {
        "q": block.q,
        "w": block.w,
        "seconds": best_time(lambda: chamber_decomposition(*demo_chamber()), REPEAT),
    }
    result = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpus": os.cpu_count(),
        },
        "repeat": REPEAT,
        "rounds": ROUNDS,
        "pycache_prefix": "a temporary directory, warmed by one import",
        "import_latticediam": import_table,
        "dilation_profile": profiles,
        "count": counts,
        "range_counts": range_counts,
        "fit_quasipolynomial": fits,
        "chamber_decomposition": chamber,
        "baseline_timed": bool(args.baseline),
        "profile_ladder": ladder,
        "prune": prune,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
