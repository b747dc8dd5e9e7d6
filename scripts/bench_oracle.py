"""Oracle ladder: the pair path and the residue path of the exact pair scan,
and the line phase of the planar pair path.

    PYTHONPATH=src python scripts/bench_oracle.py --out BENCH_29.json

Rows, each timing both exact paths of `oracle.brute_force_diameter` on one
point set:
- dense: the lattice points of the dilates k * conv{(0,0),(5,1),(6,4),(1,3)}
  from 61 points (k = 2) up to 5,641 points (k = 20), and boxes [0, m]^d
  in d = 2..5;
- sparse: seeded sets of 100, 300 and 1,000 distinct points in [0, top]^d
  for d = 2..5, with top from n / 8 to 8 n, which puts the two paths' costs
  on both sides of each other, and planar sets of the same sizes at
  top = 10^5 and 10^6, where the pairs far outnumber the short lines;
- gadgets: the hardness gadget (3, 3, 6) in d = 3..5 and
  direction_maximal_polytope(d) for d = 2..6 (every pair ties at gcd 1).

Each row gives n, d, the residue bound and floor, the lattice diameter, the
pair count n (n - 1) / 2, the model's residue steps n * (bound - floor + 1),
the model ratio RESIDUE_COST * steps / pairs (the dispatch takes the
residue path when it is below 1), the path taken, both paths' best times,
and the break-even constant (residue seconds per step) / (pair seconds per
pair): the dispatch picks the faster path on a row exactly when
RESIDUE_COST lies on the same side of it as pairs / steps. The residue
path is not run on a set whose model steps are over MAX_STEPS, and its
time is null there.

A planar sparse row also times the two parts of the planar pair path: the
line phase (`line_s`; `line_end` says whether it stopped on lines or handed
its best over) and the pair loop with no seed (`row_s`, the pair path
before the line phase), with their steps: a line step is one point keyed
for one direction, as the line phase counts them, and a row step one pair
read, counted as the two-argument calls of the `gcd` the oracle looks up
in one more untimed call (in the plane the loop calls it once more, with
one argument, for each pair that passes the gcd(dx, dy) test). On the rows
that stop on lines, `line_break_even` is (line seconds per line step) /
(row seconds per row step), and the summary gives its median: the line
phase weighs one line step as one row step. A line step also carries the
phase's fixed costs (the y-sorted copy, the slab lists), so the break-even
falls as the steps grow.

Times are the best of REPEAT calls after one warm-up call, or the single
warm-up call when that took over a second.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import time
from itertools import product

from latticediam import Polygon2, enumerate_lattice_points, oracle
from latticediam.constructions import (
    direction_maximal_polytope,
    hardness_instance,
    hardness_lattice_points,
)

QUAD = Polygon2(((0, 0), (5, 1), (6, 4), (1, 3)))
REPEAT = 3
MAX_STEPS = 3_000_000


def best_time(fn) -> float:
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    if first > 1.0:
        return first
    best = first
    for _ in range(REPEAT):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def sparse_set(rng: random.Random, n: int, d: int, top: int) -> tuple:
    """n distinct seeded points of [0, top]^d, lex-sorted."""
    pts: set[tuple[int, ...]] = set()
    while len(pts) < n:
        pts.add(tuple(rng.randint(0, top) for _ in range(d)))
    return tuple(sorted(pts))


def row_steps(pts) -> int:
    """Pairs the pair loop reads with no seed: the two-argument calls of the
    gcd the oracle looks up."""
    inner = oracle.gcd
    calls = 0

    def count(*args):
        nonlocal calls
        calls += len(args) == 2
        return inner(*args)

    oracle.gcd = count
    try:
        oracle._pair_loop(pts, [p[0] for p in pts])
    finally:
        oracle.gcd = inner
    return calls


def line_columns(pts) -> dict:
    """The line phase and the unseeded pair loop of a planar set, timed and
    counted."""
    xs, ys = zip(*pts)
    best, hits, steps = oracle._line_phase(xs, ys)
    out = {
        "line_s": best_time(lambda: oracle._line_phase(xs, ys)),
        "line_end": "stop" if hits is not None else "handover",
        "line_best": best,
        "line_steps": steps,
        "row_s": best_time(lambda: oracle._pair_loop(pts, xs)),
        "row_steps": row_steps(pts),
        "line_break_even": None,
    }
    if hits is not None and out["line_s"] and out["row_s"]:
        out["line_break_even"] = round(
            (out["line_s"] / out["line_steps"]) / (out["row_s"] / out["row_steps"]), 4
        )
    return out


def point_sets():
    for k in (2, 3, 5, 8, 12, 20):
        yield "dense", f"quad*{k}", enumerate_lattice_points(QUAD.dilate(k)).points
    for d, m in ((2, 40), (3, 10), (4, 5), (5, 3)):
        yield "dense", f"box m={m}", tuple(product(range(m + 1), repeat=d))
    rng = random.Random("bench_oracle/sparse")
    for d in (2, 3, 4, 5):
        for n in (100, 300, 1000):
            for top in (n // 8, n // 2, 2 * n, 8 * n):
                yield "sparse", f"top={top}", sparse_set(rng, n, d, top)
    rng = random.Random("bench_oracle/wide")
    for n in (100, 200, 300, 400, 1000):
        for top in (10**5, 10**6):
            yield "sparse", f"top={top}", sparse_set(rng, n, 2, top)
    for d in (3, 4, 5):
        yield "gadget", "hardness (3,3,6)", hardness_lattice_points(
            hardness_instance(3, 3, 6, d)
        ).points
    for d in (2, 3, 4, 5, 6):
        yield "gadget", "direction-maximal", direction_maximal_polytope(d)[0].points


def row(family: str, name: str, pts) -> dict:
    n, d = len(pts), len(pts[0])
    cols = tuple(zip(*pts))
    spreads = [max(col) - min(col) for col in cols]
    bound = oracle._residue_bound(spreads)
    floor = oracle._rabinowitz_floor(n, d)
    pairs, steps = oracle._path_costs(n, d, bound)
    ratio = oracle.RESIDUE_COST * steps / pairs
    pair_s = best_time(lambda: oracle._pair_scan(pts, cols))
    residue_s = (
        best_time(lambda: oracle._residue_scan(pts, cols, spreads, bound))
        if steps <= MAX_STEPS
        else None
    )
    # a budget of the pair count admits either path, so this reads the plan
    residue = oracle.check_pair_budget(n, spreads, pairs) is not None
    ldiam, hits = oracle._pair_scan(pts, cols)
    out = {
        "family": family,
        "set": name,
        "n": n,
        "d": d,
        "bound": bound,
        "floor": floor,
        "ldiam": ldiam,
        "hits": len(hits),
        "pairs": pairs,
        "residue_steps": steps,
        "model_ratio": round(ratio, 4),
        "path": "residue" if residue else "pair",
        "pair_s": pair_s,
        "residue_s": residue_s,
        "break_even": None,
    }
    if pair_s and residue_s:
        out["break_even"] = round((residue_s / steps) / (pair_s / pairs), 4)
    if family == "sparse" and d == 2:
        out.update(line_columns(pts))
    return out


def summary(rows: list[dict]) -> dict:
    """How the dispatch fares on the rows where both paths were timed."""
    both = [r for r in rows if r["break_even"] is not None]
    chosen = sum(r["residue_s"] if r["path"] == "residue" else r["pair_s"] for r in both)
    fastest = sum(min(r["residue_s"], r["pair_s"]) for r in both)
    wrong = [
        f'{r["family"]} {r["set"]} d={r["d"]} n={r["n"]}'
        for r in both
        if (r["path"] == "residue") != (r["residue_s"] < r["pair_s"])
    ]
    planar = [r for r in rows if "line_s" in r]
    stops = [r["line_break_even"] for r in planar if r["line_break_even"] is not None]
    return {
        "line_probe": oracle.LINE_PROBE,
        "planar_rows": len(planar),
        "planar_stop_rows": len(stops),
        "line_break_even_median": statistics.median(stops) if stops else None,
        "planar_row_loop_s": sum(r["row_s"] for r in planar),
        "planar_pair_path_s": sum(r["pair_s"] for r in planar),
        "residue_cost": oracle.RESIDUE_COST,
        "rows_timed_both": len(both),
        "break_even_median": statistics.median(r["break_even"] for r in both),
        "dispatch_s": chosen,
        "fastest_s": fastest,
        "slower_path_taken": wrong,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()
    rows = [row(*case) for case in point_sets()]
    result = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpus": os.cpu_count(),
        },
        "repeat": REPEAT,
        "max_steps": MAX_STEPS,
        "summary": summary(rows),
        "oracle": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
