"""Seeded fuzz runs of every latticediam subcommand on small documents.

    python scripts/fuzz_cli.py --seed 1 --runs 200 [--timeout 30]

Each run writes one generated document (a random lattice hull, a lattice
"circle", a thin or a skew polygon, or a point set in dimension 2 to 4),
picks a subcommand and its options (budgets, k ranges, output formats,
--verify, --svg and --exact included), and runs `python -m latticediam` on
it in a fresh subprocess with a wall-time bound. A run passes when it ends
within the bound with exit code 0 (answered), 3 (invalid input), 5 (fit
refused) or 6 (over budget). Any other exit code, such as 2 (usage), 4
(verification mismatch) or 1 (an uncaught error), or a run past the bound,
is a failure. The package is the one in this checkout's src/.

Prints one line per run (index, exit code, seconds, argv with the document
kind) and a summary; exits 1 when any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from functools import cmp_to_key
from math import gcd

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ALLOWED = (0, 3, 5, 6)
DEFAULT_BUDGET = 200_000
COMMANDS = ("diam2d", "oracle", "directions", "ld-count", "ld-fit", "borsuk", "construct",
            "hardness-verify")


def convex_hull(pts):
    """Strictly convex hull, counter-clockwise (monotone chain)."""
    pts = sorted(set(pts))
    if len(pts) < 3:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    return half(pts)[:-1] + half(pts[::-1])[:-1]


def random_hull(rng: random.Random):
    span = rng.randint(1, 40)
    ox, oy = rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)
    pts = [(ox + rng.randint(0, span), oy + rng.randint(0, span))
           for _ in range(rng.randint(3, 12))]
    return convex_hull(pts)  # may be a segment or a point: invalid input


def lattice_circle(rng: random.Random):
    """One edge per primitive vector (a, b) with |a|, |b| <= m, the vectors
    in counter-clockwise order from (1, 0) and summed from the origin."""
    m = rng.randint(1, 12)
    vectors = [(a, b) for a in range(-m, m + 1) for b in range(-m, m + 1) if gcd(a, b) == 1]
    turn = cmp_to_key(lambda v, w: w[0] * v[1] - v[0] * w[1])
    upper = sorted((v for v in vectors if v[1] > 0 or (v[1] == 0 and v[0] > 0)), key=turn)
    lower = sorted((v for v in vectors if v[1] < 0 or (v[1] == 0 and v[0] < 0)), key=turn)
    x = y = 0
    vertices = []
    for a, b in upper + lower:
        vertices.append((x, y))
        x, y = x + a, y + b
    return vertices


def thin_polygon(rng: random.Random):
    width, h = rng.choice((10**2, 10**3, 10**4, 10**5)), rng.randint(1, 8)
    pts = [(0, rng.randint(0, h)), (width, rng.randint(0, h))]
    pts += [(rng.randint(0, width), rng.randint(0, h)) for _ in range(rng.randint(3, 10))]
    return convex_hull(pts)


def skew_polygon(rng: random.Random):
    s = rng.choice((10, 100, 10**3, 10**5, 10**9))
    return [(0, 0), (s, 1), (3 * s + 1, 7)]


def point_set(rng: random.Random):
    d, r = rng.randint(2, 4), rng.randint(1, 12)
    return [tuple(rng.randint(-r, r) for _ in range(d)) for _ in range(rng.randint(1, 60))]


POLYGONS = {
    "hull": random_hull,
    "circle": lattice_circle,
    "thin": thin_polygon,
    "skew": skew_polygon,
}


def document(kind: str, rows) -> str:
    key = "point_set" if kind == "points" else "polygon"
    return json.dumps({
        "dimension": len(rows[0]),
        "kind": key,
        "points" if key == "point_set" else "vertices": [[str(c) for c in p] for p in rows],
    })


def budget(rng: random.Random) -> list[str]:
    return rng.choice(([], [], ["--budget", str(rng.choice((1, 50, 1000, 10**5, 10**6)))]))


def log_int(rng: random.Random, top: int) -> int:
    """An int from 1 to top, its number of digits drawn uniformly."""
    digits = rng.randint(1, len(str(top)))
    return rng.randint(10 ** (digits - 1), min(top, 10**digits - 1))


def case(rng: random.Random, command: str, svg: str) -> tuple[list[str], str, str | None]:
    """(argv with "@doc" for the document, document kind, document text) of
    one run of command: the text is None for subcommands that read no
    document."""
    if command == "construct":
        kind = rng.choice(("vertex-avoiding", "hardness", "slope-triangle",
                           "direction-maximal", "chamber"))
        params = {
            "vertex-avoiding": ["--m", str(rng.randint(1, 5))],
            "hardness": ["--a", str(rng.randint(0, 4)), "--b", str(rng.randint(0, 3)),
                         "--c", str(rng.randint(1, 6)), "--d", str(rng.randint(2, 4))],
            "slope-triangle": ["--t", str(rng.randint(0, 4)), "--x", str(rng.randint(1, 9))],
            "direction-maximal": ["--d", str(rng.randint(0, 5))],
            "chamber": [],
        }[kind]
        verify = ["--verify"] if rng.random() < 0.5 else []
        return ["construct", kind, *params, *verify, *budget(rng)], "none", None
    if command == "hardness-verify":
        argv = ["hardness-verify", "--a", str(rng.randint(0, 4)), "--b", str(rng.randint(0, 3)),
                "--c", str(rng.randint(1, 6)), "--d", str(rng.randint(2, 4))]
        return argv + budget(rng), "none", None
    kind = "points" if rng.random() < 0.25 else rng.choice(sorted(POLYGONS))
    rows = point_set(rng) if kind == "points" else POLYGONS[kind](rng)
    argv = [command, "@doc"]
    if command == "diam2d":
        argv += ["--verify"] if rng.random() < 0.4 else []
        argv += ["--svg", svg] if rng.random() < 0.3 else []
    elif command == "ld-count":
        argv += ["--k-max", str(log_int(rng, 5 * DEFAULT_BUDGET))]
        argv += ["--fit"] if rng.random() < 0.3 else []
        argv += ["--format", rng.choice(("csv", "json"))]
    elif command == "ld-fit" and rng.random() < 0.5:
        argv += ["--k-max", str(log_int(rng, 10**4))]
    elif command == "borsuk" and rng.random() < 0.5:
        argv += ["--exact"]
    return argv + budget(rng), kind, document(kind, rows)


def cases(seed: int, runs: int, workdir: str) -> list[tuple[list[str], str, str | None]]:
    """The runs of a seed, the subcommands in turn, so that any COMMANDS
    consecutive runs try each of them."""
    rng = random.Random(f"fuzz-cli/{seed}")
    svg = os.path.join(workdir, "out.svg")
    return [case(rng, COMMANDS[i % len(COMMANDS)], svg) for i in range(runs)]


def run_case(argv: list[str], text: str | None, workdir: str, timeout: float) -> tuple[int | str, float]:
    """(exit code, or "timeout", and wall seconds) of one run."""
    path = os.path.join(workdir, "doc.json")
    if text is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    argv = [path if a == "@doc" else a for a in argv]
    env = {**os.environ, "PYTHONPATH": SRC}
    start = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, "-m", "latticediam", *argv],
                              capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return done.returncode, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--runs", type=int, required=True)
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="wall-time bound of one run, in seconds")
    args = parser.parse_args()
    failed = 0
    with tempfile.TemporaryDirectory() as workdir:
        for i, (argv, kind, text) in enumerate(cases(args.seed, args.runs, workdir)):
            code, seconds = run_case(argv, text, workdir, args.timeout)
            ok = code in ALLOWED
            failed += not ok
            print(f"{i} {'ok' if ok else 'FAIL'} exit={code} {seconds:.2f}s {kind} {' '.join(argv)}")
    print(f"runs={args.runs} failed={failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
