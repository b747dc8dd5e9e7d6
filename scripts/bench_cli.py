"""End-to-end cost of the command line, written as one JSON file.

    PYTHONPATH=src python scripts/bench_cli.py --out BENCH_8.json

Rows:
- cli: in-process `cli.run(argv)` wall time of each subcommand on every
  sample_inputs/*.json (polygons: diam2d, diam2d --svg, diam2d --verify,
  oracle, directions, borsuk, ld-count --fit, ld-fit; point sets: oracle,
  directions, borsuk). Each row runs in a fresh interpreter that has
  already imported latticediam.cli, so its first call is the process's
  first run() and pays every one-off cost of it; that call (the median
  over FRESH interpreters) is reported apart from the STEADY calls that
  follow (the median and best over all of them);
- parser: the time to build the argument parser (best of REPEAT builds);
- svg: render_diameter_svg on the dilates k * conv{(0,0),(5,1),(6,4),(1,3)}
  for a ladder of grid sizes, 63 to about 10^5 dots: dots, bytes and the
  best of REPEAT renders (the diameter report is computed outside the
  timer);
- the import time of latticediam.cli in a fresh interpreter, apart from
  every other row (interpreter start-up excluded).

Every fresh interpreter reads its bytecode from one temporary
PYTHONPYCACHEPREFIX directory, warmed by an import before any timing, and
PYTHONDONTWRITEBYTECODE is cleared for them. Otherwise, with bytecode
writes turned off and a stale or missing __pycache__ beside the sources,
each fresh import would compile every module, and the import and first-call
rows would time the compiler.

stdout and stderr of the timed runs are captured and dropped.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from latticediam import Polygon2, cli, compute_diameter
from latticediam.svg import render_diameter_svg

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
QUAD = Polygon2(((0, 0), (5, 1), (6, 4), (1, 3)))
REPEAT = 5
FRESH = 3
STEADY = 20
SVG_DILATES = (1, 4, 16, 64)

COMMANDS = {
    "polygon": (
        ("diam2d",),
        ("diam2d", "--svg", "{svg}"),
        ("diam2d", "--verify"),
        ("oracle",),
        ("directions",),
        ("borsuk",),
        ("ld-count", "--k-max", "12", "--fit"),
        ("ld-fit",),
    ),
    "point_set": (("oracle",), ("directions",), ("borsuk",)),
}

# Run in a fresh interpreter: argv (JSON) and the number of steady calls.
CHILD = """
import contextlib, io, json, sys, time
from latticediam import cli
argv, steady = json.loads(sys.argv[1]), int(sys.argv[2])

def once():
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        code = cli.run(argv)
        return time.perf_counter() - start, code

first, code = once()
times = [once()[0] for _ in range(steady)]
print(json.dumps({"exit_code": code, "first_s": first, "steady_s": times}))
"""


def best_time(fn, repeat: int) -> float:
    fn()
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def child_env(pycache: str) -> dict[str, str]:
    """This environment, with bytecode written to and read from pycache."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = pycache
    return env


def fresh_python(env: dict[str, str], *args: str) -> str:
    return subprocess.run([sys.executable, *args], check=True, capture_output=True,
                          text=True, env=env).stdout


def cli_rows(workdir: str, env: dict[str, str]) -> list[dict]:
    rows = []
    for path in sorted(SAMPLES.glob("*.json")):
        kind = json.loads(path.read_text())["kind"]
        for command in COMMANDS[kind]:
            svg = os.path.join(workdir, f"{path.stem}.svg")
            argv = [command[0], str(path)] + [a.format(svg=svg) for a in command[1:]]
            runs = [json.loads(fresh_python(env, "-c", CHILD, json.dumps(argv), str(STEADY)))
                    for _ in range(FRESH)]
            steady = [t for run in runs for t in run["steady_s"]]
            rows.append({
                "sample": path.name,
                "command": " ".join(command).replace("{svg}", "PATH"),
                "exit_code": runs[0]["exit_code"],
                "first_s": statistics.median(run["first_s"] for run in runs),
                "steady_median_s": statistics.median(steady),
                "steady_min_s": min(steady),
            })
    return rows


def svg_rows() -> list[dict]:
    rows = []
    for k in SVG_DILATES:
        P = QUAD.dilate(k)
        report = compute_diameter(P)
        (xlo, ylo), (xhi, yhi) = P.bounding_box()
        rows.append({
            "polygon": f"quad*{k}",
            "dots": (xhi - xlo + 3) * (yhi - ylo + 3),
            "bytes": len(render_diameter_svg(P, report)),
            "seconds": best_time(lambda: render_diameter_svg(P, report), REPEAT),
        })
    return rows


def import_seconds(repeat: int, env: dict[str, str], module: str) -> dict[str, float]:
    """Import time of module in repeat fresh interpreters run in env, whose
    pycache prefix an earlier import of module has warmed."""
    code = (
        f"import time; t = time.perf_counter(); import {module}; "
        "print(time.perf_counter() - t)"
    )
    samples = [float(fresh_python(env, "-c", code)) for _ in range(repeat)]
    return {"median_s": statistics.median(samples), "min_s": min(samples),
            "samples": len(samples)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()

    # the builder itself, past any cache in front of it
    build = getattr(cli._build_parser, "__wrapped__", cli._build_parser)
    with tempfile.TemporaryDirectory() as workdir:
        env = child_env(os.path.join(workdir, "pycache"))
        fresh_python(env, "-c", "import latticediam.cli")  # writes the bytecode
        cli_table = cli_rows(workdir, env)
        import_table = import_seconds(2 * REPEAT, env, "latticediam.cli")
    result = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpus": os.cpu_count(),
        },
        "repeat": REPEAT,
        "fresh_interpreters": FRESH,
        "steady_calls": STEADY,
        "pycache_prefix": "a temporary directory, warmed by one import",
        "import_latticediam_cli": import_table,
        "parser_build_s": best_time(build, REPEAT),
        "cli": cli_table,
        "svg": svg_rows(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
