"""Scaling ladders of the dilation counts, written as one JSON file.

    PYTHONPATH=src python scripts/bench_dilation.py --out BENCH_16.json \
        [--baseline OTHER_CHECKOUT/src]

Rows:
- dilation_profile(P) on the reference quad conv{(0,0),(5,1),(6,4),(1,3)}
  and the square [0,2]^2: the best time of building the profile;
- DilationProfile.count(k) for k = 10^1 .. 10^12 on the same two polygons:
  the value, the best time in seconds of the count alone, and the floor_sum
  and level_interval calls of one count (taken in a separate, untimed
  pass). The profile keeps each count, so every timed call gets a fresh
  profile, built before its timer starts;
- fit_quasipolynomial on T_m = conv{(0,0),(m-1,1),(-1,m)} for m = 19, 61,
  113 and 229: period, valid_from and the best time;
- chamber_decomposition(*demo_chamber()): q, w and the best time;
- profile_ladder: dilation_profile(P) and compute_diameter(P), the best
  time of each, on the parabola polygons conv{(i, i^2) : 0 <= i < n} for
  n = 8 .. 512 and on the skew triangles conv{(0,0),(s,1),(3s+1,7)} for
  s = 10^2 .. 10^30, with the records, ldiam and line count of each. With
  --baseline, the same rows are timed on the package found in that
  directory, in a child interpreter that imports this script, and each
  row holds them under "baseline";
- the import time of latticediam in a fresh interpreter, apart from the
  compute rows (interpreter start-up excluded), timed by bench_cli's
  import_seconds: every fresh interpreter reads its bytecode from one
  temporary PYTHONPYCACHEPREFIX directory, warmed by an import first, so
  the row never times the compiler.

Times are the best of REPEAT runs of a single call, in this process, after
one warm-up call.
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

from latticediam import (
    Polygon2,
    chamber_decomposition,
    compute_diameter,
    demo_chamber,
    diameter,
    fit_quasipolynomial,
)
from latticediam.diameter import dilation_profile

# scripts/ is this script's directory, so it leads sys.path
from bench_cli import child_env, fresh_python, import_seconds

QUAD = Polygon2(((0, 0), (5, 1), (6, 4), (1, 3)))
SQUARE = Polygon2(((0, 0), (2, 0), (2, 2), (0, 2)))
KERNELS = ("floor_sum", "level_interval")
REPEAT = 5
PARABOLA_SIZES = (8, 16, 32, 64, 128, 256, 512)
SKEW_EXPONENTS = (2, 4, 6, 9, 12, 18, 24, 30)
SCRIPTS = os.path.dirname(os.path.abspath(__file__))
# Run in a child interpreter whose path leads to another package.
LADDER_CHILD = "import json, bench_dilation; print(json.dumps(bench_dilation.profile_ladder()))"


def best_time(fn, repeat: int) -> float:
    fn()
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def best_count_time(P: Polygon2, k: int, repeat: int) -> float:
    """The best time of DilationProfile.count(k) alone, each call on a fresh
    profile of P built before the timer starts."""
    dilation_profile(P).count(k)
    best = float("inf")
    for _ in range(repeat):
        profile = dilation_profile(P)
        start = time.perf_counter()
        profile.count(k)
        best = min(best, time.perf_counter() - start)
    return best


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


def ladder_polygons():
    """(row label, polygon) for each rung of the profile ladder."""
    for n in PARABOLA_SIZES:
        yield {"polygon": "parabola", "n": n}, Polygon2([(i, i * i) for i in range(n)])
    for e in SKEW_EXPONENTS:
        s = 10**e
        yield {"polygon": "skew", "s": f"1e{e}"}, Polygon2(((0, 0), (s, 1), (3 * s + 1, 7)))


def profile_ladder() -> list[dict]:
    rows = []
    for row, P in ladder_polygons():
        report = compute_diameter(P)
        row.update({
            "vertices": len(P),
            "records": len(dilation_profile(P).records),
            "ldiam": report.ldiam,
            "lines": len(report.lines),
            "dilation_profile_s": best_time(lambda: dilation_profile(P), REPEAT),
            "compute_diameter_s": best_time(lambda: compute_diameter(P), REPEAT),
        })
        rows.append(row)
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--baseline", metavar="SRC",
                        help="a directory holding another latticediam package to time alongside")
    args = parser.parse_args()

    ladder = profile_ladder()
    if args.baseline:
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join((os.path.abspath(args.baseline), SCRIPTS))}
        baseline = json.loads(subprocess.run(
            [sys.executable, "-c", LADDER_CHILD], check=True, capture_output=True,
            text=True, env=env,
        ).stdout)
        for row, other in zip(ladder, baseline):
            row["baseline"] = {key: value for key, value in other.items()
                               if key not in ("polygon", "n", "s")}

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
                "kernel_calls": calls,
            })
    fits = []
    for m in (19, 61, 113, 229):
        T = Polygon2(((0, 0), (m - 1, 1), (-1, m)))
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
