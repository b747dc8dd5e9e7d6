"""Scaling ladders of the dilation counts, written as one JSON file.

    PYTHONPATH=src python scripts/bench_dilation.py --out BENCH_20.json \
        [--baseline OTHER_CHECKOUT/src]

Rows:
- dilation_profile(P) on the reference quad conv{(0,0),(5,1),(6,4),(1,3)}
  and the square [0,2]^2: the best time of building the profile;
- DilationProfile.count(k) for k = 10^1 .. 10^12 on the same two polygons:
  the value, the best time in seconds of the first count of a profile
  ("seconds"), the best time of a count on a warm profile
  ("warm_seconds"), and the floor_sum and level_interval calls of one first
  count (taken in a separate, untimed pass). A first count also builds the
  level pieces of the profile's diameter directions, and the profile keeps
  each count, so every "seconds" call gets a fresh profile, built before
  its timer starts. "warm_seconds" times counts((k,)) on one profile whose
  pieces are already built and whose kept counts are dropped before each
  call: the cost of each further k;
- range_counts: the best time per k ("per_k_s") of counts(range(1, K + 1))
  on a warm profile, its kept counts dropped before each call, with the sum
  of the K counts, for the quad and the square at K = 100 and for the 4q
  windows of T_m (below) for m = 19, 61, 113 and 229, the K = 4q samples
  the fit takes first. With --baseline, the same rows are timed on the
  package found in that directory, as the ladder below is, and each row
  holds them under "baseline"; a package without counts, before the range
  kernel, is timed on its per-k loop [count(k) for k in range(1, K + 1)]
  ("kernel": "count loop");
- fit_quasipolynomial on T_m = conv{(0,0),(m-1,1),(-1,m)} for m = 19, 61,
  113 and 229: period, valid_from and the best time;
- chamber_decomposition(*demo_chamber()): q, w and the best time;
- profile_ladder: dilation_profile(P), compute_diameter(P) and
  fit_quasipolynomial(P), the best time of each, and the best time of one
  _level_pieces call in the first diameter direction of P, on the parabola
  polygons conv{(i, i^2) : 0 <= i < n} for n = 8 .. 512, on the lattice
  "circles" (one edge per primitive vector (a, b) with |a|, |b| <= m, in
  angle order) for m = 3 .. 11, n = 32 .. 336, and on the skew triangles
  conv{(0,0),(s,1),(3s+1,7)} for s = 10^2 .. 10^30, with the records,
  ldiam, line count and fitted period of each. With --baseline, the same
  rows are timed on the package found in that directory, and each row
  holds them under "baseline";
- the import time of latticediam in a fresh interpreter, apart from the
  compute rows (interpreter start-up excluded), timed by bench_cli's
  import_seconds: every fresh interpreter reads its bytecode from one
  temporary PYTHONPYCACHEPREFIX directory, warmed by an import first, so
  the row never times the compiler.

Times are the best of at least REPEAT runs of a single call, and of as
many more as fit in MIN_SECONDS, after one warm-up call. The profile
ladder and the range counts are timed in LADDER_ROUNDS rounds,
alternating this package and the baseline, and keep the best of each
time over the rounds, so a slow spell of a shared host weighs on both
sides alike. Each round of each package runs in a fresh child
interpreter that imports this script, so neither side is timed in a
process whose heap already holds the other rows; the other rows are
timed in this process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from collections import Counter
from functools import cmp_to_key
from math import gcd

import latticediam
from latticediam import (
    Polygon2,
    chamber_decomposition,
    compute_diameter,
    demo_chamber,
    diameter,
    fit_quasipolynomial,
)
from latticediam.diameter import _level_pieces, _longest_vertex_chord, dilation_profile

# scripts/ is this script's directory, so it leads sys.path
from bench_cli import child_env, fresh_python, import_seconds

QUAD = Polygon2(((0, 0), (5, 1), (6, 4), (1, 3)))
SQUARE = Polygon2(((0, 0), (2, 0), (2, 2), (0, 2)))
KERNELS = ("floor_sum", "level_interval")
REPEAT = 5
MIN_SECONDS = 0.05
LADDER_ROUNDS = 3
PARABOLA_SIZES = (8, 16, 32, 64, 128, 256, 512)
CIRCLE_RADII = (3, 4, 5, 7, 9, 11)
SKEW_EXPONENTS = (2, 4, 6, 9, 12, 18, 24, 30)
FIT_SIZES = (19, 61, 113, 229)
SCRIPTS = os.path.dirname(os.path.abspath(__file__))
# the directory holding the latticediam package this script imported
SRC = os.path.dirname(os.path.dirname(os.path.abspath(latticediam.__file__)))
RANGE_K = 100
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
    """The best time of counting ks on profile, its kept counts dropped
    before each call, after one warm-up call: counts(ks), or the per-k
    count loop of a package without counts."""
    if hasattr(profile, "counts"):
        run = profile.counts
    else:
        def run(ks):
            return [profile.count(k) for k in ks]
    run(ks)
    best, runs, spent = float("inf"), 0, 0.0
    while runs < repeat or spent < MIN_SECONDS:
        profile._counts.clear()
        start = time.perf_counter()
        run(ks)
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
        _, q = _longest_vertex_chord(profile.pieces(u)[1] for u in profile.best(1)[1])
        windows.append(({"polygon": "T", "m": m}, T, 4 * q))
    rows = []
    for row, P, K in windows:
        profile = dilation_profile(P)
        ks = range(1, K + 1)
        row.update({
            "K": K,
            "kernel": "counts" if hasattr(profile, "counts") else "count loop",
            "counts_sum": sum(map(profile.count, ks)),
            "per_k_s": best_warm_time(profile, ks, REPEAT) / K,
        })
        rows.append(row)
    return rows


def kernel_calls(fn) -> dict[str, int]:
    """Calls of the diameter module's integer kernels made by fn()."""
    calls: Counter[str] = Counter()
    saved = {name: getattr(diameter, name) for name in KERNELS}

    def counter(name):
        def counted(*args):
            calls[name] += 1
            return saved[name](*args)

        return counted

    try:
        for name in KERNELS:
            setattr(diameter, name, counter(name))
        fn()
    finally:
        for name, kernel in saved.items():
            setattr(diameter, name, kernel)
    return {name: calls[name] for name in KERNELS}


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


def profile_ladder() -> list[dict]:
    rows = []
    for row, P in ladder_polygons():
        report = compute_diameter(P)
        profile = dilation_profile(P)
        vertices, halfplanes, u = P.vertices, P.halfplanes(), profile.best(1)[1][0]
        row.update({
            "vertices": len(P),
            "records": len(profile.records),
            "ldiam": report.ldiam,
            "lines": len(report.lines),
            "period": fit_quasipolynomial(P).period,
            "dilation_profile_s": best_time(lambda: dilation_profile(P), REPEAT),
            "compute_diameter_s": best_time(lambda: compute_diameter(P), REPEAT),
            "fit_quasipolynomial_s": best_time(lambda: fit_quasipolynomial(P), REPEAT),
            "level_pieces_s": best_time(lambda: _level_pieces(vertices, halfplanes, u), REPEAT),
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


def best_of(row: dict, other: dict) -> dict:
    """row with each time (a key ending in _s, also under "baseline") the
    smaller of its value in row and in other, the same rung timed again."""
    out = {key: min(value, other[key]) if key.endswith("_s") else value
           for key, value in row.items()}
    if "baseline" in row:
        out["baseline"] = best_of(row["baseline"], other["baseline"])
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--baseline", metavar="SRC",
                        help="a directory holding another latticediam package to time alongside")
    args = parser.parse_args()

    def rounds(rows: str) -> list[dict]:
        """The rows of the function named rows, with those of the baseline,
        each time the best over LADDER_ROUNDS rounds that alternate the two
        packages."""
        best: list[dict] = []
        for _ in range(LADDER_ROUNDS):
            ours = in_child(SRC, rows)
            if args.baseline:
                for row, other in zip(ours, in_child(args.baseline, rows)):
                    row["baseline"] = {key: value for key, value in other.items()
                                       if key not in ("polygon", "n", "m", "s", "K")}
            best = ours if not best else [best_of(*pair) for pair in zip(best, ours)]
        return best

    ladder = rounds("profile_ladder")
    range_counts = rounds("range_count_rows")

    profiles = []
    counts = []
    for name, P in (("quad", QUAD), ("square", SQUARE)):
        profiles.append({
            "polygon": name,
            "seconds": best_time(lambda: dilation_profile(P), REPEAT),
        })
        for e in range(1, 13):
            k = 10**e
            profile = dilation_profile(P)
            calls = kernel_calls(lambda: profile.count(k))
            counts.append({
                "polygon": name,
                "k": f"1e{e}",
                "count": profile.count(k),
                "seconds": best_count_time(P, k, REPEAT),
                "warm_seconds": best_warm_time(profile, (k,), REPEAT),
                "kernel_calls": calls,
            })
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
        "pycache_prefix": "a temporary directory, warmed by one import",
        "import_latticediam": import_table,
        "dilation_profile": profiles,
        "count": counts,
        "range_counts": range_counts,
        "fit_quasipolynomial": fits,
        "chamber_decomposition": chamber,
        "baseline_timed": bool(args.baseline),
        "profile_ladder": ladder,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
