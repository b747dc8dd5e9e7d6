"""End-to-end cost of the command line, written as one JSON file.

    PYTHONPATH=src python scripts/bench_cli.py --out BENCH_15.json \
        [--baseline OTHER_CHECKOUT/src]

Rows:
- cli: in-process `cli.run(argv)` wall time of each subcommand on every
  sample_inputs/*.json (polygons: diam2d, diam2d --svg, diam2d --verify,
  oracle, directions, borsuk, ld-count --fit, ld-fit; point sets: oracle,
  directions, borsuk). Each row runs in a fresh interpreter that has
  already imported latticediam.cli, so its first call is the process's
  first run() and pays every one-off cost of it; that call (the median
  over FRESH interpreters) is reported apart from the STEADY calls that
  follow (the median and best over all of them);
- first_call: one row per subcommand, on the samples named in FIRST_CALLS,
  that times `import latticediam.cli` plus the first run() together in a
  fresh interpreter (median and best over FIRST_FRESH interpreters), so a
  cost moved from the import into a handler shows as well as a cost
  removed; with the latticediam modules loaded after that run and whether
  fractions and decimal were;
- parser: the time to build the argument parser (best of REPEAT builds);
- svg: render_diameter_svg on the dilates k * conv{(0,0),(5,1),(6,4),(1,3)}
  for a ladder of grid sizes, 63 to about 10^5 dots: dots, bytes and the
  best of REPEAT renders (the diameter report is computed outside the
  timer), median and least over LADDER_FRESH fresh interpreters;
- enumerate: enumerate_lattice_points on the dilates of the same polygon,
  17 to about 57,000 points: points and the best of REPEAT calls, median
  and least over LADDER_FRESH fresh interpreters;
- the import time of latticediam.cli in a fresh interpreter, apart from
  every other row (interpreter start-up excluded).

With --baseline, the import, first_call, svg and enumerate rows also time
the package found in that directory, each under "baseline", in fresh
interpreters that alternate with this package's: on a shared host, timings
taken minutes apart drift by more than the difference between two trees.

Every fresh interpreter reads its bytecode from one temporary
PYTHONPYCACHEPREFIX directory, warmed by an import of every module before
any timing, and PYTHONDONTWRITEBYTECODE is cleared for them. Otherwise,
with bytecode writes turned off and a stale or missing __pycache__ beside
the sources, each fresh import would compile every module, and the import
and first-call rows would time the compiler.

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

from latticediam import cli

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
QUAD = ((0, 0), (5, 1), (6, 4), (1, 3))
REPEAT = 5
FRESH = 3
STEADY = 20
LADDER_FRESH = 5
LADDERS = {"svg": (1, 4, 16, 64), "enumerate": (1, 4, 16, 64)}

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

# One row per subcommand: argv, "{samples}" standing for sample_inputs and
# "{svg}" for a file to write.
FIRST_CALLS = (
    ("diam2d", "{samples}/demo-quad.json"),
    ("diam2d", "{samples}/demo-quad.json", "--svg", "{svg}"),
    ("diam2d", "{samples}/demo-quad.json", "--verify"),
    ("oracle", "{samples}/demo-quad.json"),
    ("oracle", "{samples}/box-4x2-points.json"),
    ("directions", "{samples}/demo-quad.json"),
    ("directions", "{samples}/box-4x2-points.json"),
    ("borsuk", "{samples}/demo-quad.json"),
    ("borsuk", "{samples}/box-4x2-points.json"),
    ("ld-count", "{samples}/demo-quad.json", "--k-max", "12", "--fit"),
    ("ld-fit", "{samples}/demo-quad.json"),
    ("construct", "vertex-avoiding", "--m", "3", "--verify"),
    ("construct", "chamber", "--verify"),
    ("hardness-verify", "--a", "2", "--b", "2", "--c", "5"),
)
FIRST_FRESH = 15

# Run in a fresh interpreter: argv (JSON); the import and the first run()
# timed together, then the modules they loaded.
FIRST_CHILD = """
import contextlib, io, json, sys, time
argv = json.loads(sys.argv[1])
before = set(sys.modules)
sink = io.StringIO()
start = time.perf_counter()
import latticediam.cli
with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    code = latticediam.cli.run(argv)
elapsed = time.perf_counter() - start
loaded = set(sys.modules) - before
print(json.dumps({
    "exit_code": code,
    "seconds": elapsed,
    "latticediam": sorted(m for m in loaded if m.startswith("latticediam.")),
    "fractions": "fractions" in loaded,
    "decimal": "decimal" in loaded,
}))
"""

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


# Run in a fresh interpreter: the ladder's name, the repeat count, the
# polygon and its dilation factors (JSON); per dilate the size of the result
# (SVG bytes or lattice points) and the best of repeat calls, after one
# untimed call.
LADDER_CHILD = """
import json, sys, time
from latticediam import Polygon2, compute_diameter, enumerate_lattice_points
from latticediam.svg import render_diameter_svg
ladder, repeat = sys.argv[1], int(sys.argv[2])
base, dilates = Polygon2(json.loads(sys.argv[3])), json.loads(sys.argv[4])
rows = []
for k in dilates:
    P = base.dilate(k)
    if ladder == "svg":
        report = compute_diameter(P)
        call = lambda: render_diameter_svg(P, report)
    else:
        call = lambda: enumerate_lattice_points(P)
    size = len(call())
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    rows.append({"size": size, "seconds": best})
print(json.dumps(rows))
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


def alternate(envs: dict[str, dict[str, str]], repeat: int, *args: str) -> dict[str, list]:
    """The JSON stdout of repeat fresh interpreters per environment, run in
    turn across the environments."""
    runs: dict[str, list] = {label: [] for label in envs}
    for _ in range(repeat):
        for label, env in envs.items():
            runs[label].append(json.loads(fresh_python(env, *args)))
    return runs


def place(row: dict, label: str, stats: dict) -> None:
    """This package's figures go in the row itself, the baseline's under its label."""
    if label == "this":
        row.update(stats)
    else:
        row[label] = stats


def first_call_rows(workdir: str, envs: dict[str, dict[str, str]]) -> list[dict]:
    rows = []
    for template in FIRST_CALLS:
        svg = os.path.join(workdir, "first.svg")
        argv = [a.format(samples=SAMPLES, svg=svg) for a in template]
        by_env = alternate(envs, FIRST_FRESH, "-c", FIRST_CHILD, json.dumps(argv))
        row: dict = {
            "command": " ".join(template).replace("{samples}/", "").replace("{svg}", "PATH"),
        }
        for label, runs in by_env.items():
            seconds = [run["seconds"] for run in runs]
            last = runs[-1]
            place(row, label, {
                "exit_code": last["exit_code"],
                "import_and_first_median_s": statistics.median(seconds),
                "import_and_first_min_s": min(seconds),
                "modules_loaded": {
                    "latticediam": len(last["latticediam"]),
                    "fractions": int(last["fractions"]),
                    "decimal": int(last["decimal"]),
                },
                "latticediam_modules": last["latticediam"],
            })
        rows.append(row)
    return rows


def ladder_rows(envs: dict[str, dict[str, str]], ladder: str) -> list[dict]:
    """The rows of one ladder: per dilate of QUAD its grid dots (svg) or
    nothing more (enumerate), and per package the size of its result and
    the median and least of the best-of-REPEAT times over LADDER_FRESH
    fresh interpreters, run in turn across the packages."""
    dilates = LADDERS[ladder]
    size = "bytes" if ladder == "svg" else "points"
    by_env = alternate(envs, LADDER_FRESH, "-c", LADDER_CHILD, ladder, str(REPEAT),
                       json.dumps(QUAD), json.dumps(dilates))
    rows = []
    for i, k in enumerate(dilates):
        row: dict = {"polygon": f"quad*{k}"}
        if ladder == "svg":
            xs, ys = [k * x for x, _ in QUAD], [k * y for _, y in QUAD]
            row["dots"] = (max(xs) - min(xs) + 3) * (max(ys) - min(ys) + 3)
        for label, runs in by_env.items():
            seconds = [run[i]["seconds"] for run in runs]
            place(row, label, {size: runs[0][i]["size"],
                               "seconds": statistics.median(seconds),
                               "min_s": min(seconds)})
        rows.append(row)
    return rows


def import_seconds(repeat: int, envs: dict[str, dict[str, str]], module: str) -> dict:
    """Import time of module in repeat fresh interpreters per environment,
    whose pycache prefix an earlier import has warmed."""
    code = (
        f"import time; t = time.perf_counter(); import {module}; "
        "print(time.perf_counter() - t)"
    )
    result: dict = {}
    for label, samples in alternate(envs, repeat, "-c", code).items():
        place(result, label, {"median_s": statistics.median(samples),
                              "min_s": min(samples), "samples": len(samples)})
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--baseline", metavar="SRC",
                        help="a directory holding another latticediam package to time alongside")
    args = parser.parse_args()

    # the builder itself, past any cache in front of it
    build = getattr(cli._parsers, "__wrapped__", cli._parsers)
    with tempfile.TemporaryDirectory() as workdir:
        env = child_env(os.path.join(workdir, "pycache"))
        envs = {"this": env}
        if args.baseline:
            envs["baseline"] = {**child_env(os.path.join(workdir, "pycache-baseline")),
                                "PYTHONPATH": os.path.abspath(args.baseline)}
        for each in envs.values():
            # writes the bytecode of every module, since handlers import theirs
            fresh_python(each, "-c", "import latticediam.cli; from latticediam import *")
        cli_table = cli_rows(workdir, env)
        first_table = first_call_rows(workdir, envs)
        import_table = import_seconds(2 * REPEAT, envs, "latticediam.cli")
        ladders = {ladder: ladder_rows(envs, ladder) for ladder in LADDERS}
    result = {
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpus": os.cpu_count(),
        },
        "repeat": REPEAT,
        "fresh_interpreters": FRESH,
        "first_call_fresh_interpreters": FIRST_FRESH,
        "ladder_fresh_interpreters": LADDER_FRESH,
        "baseline_timed": bool(args.baseline),
        "steady_calls": STEADY,
        "pycache_prefix": "a temporary directory, warmed by one import of every module",
        "import_latticediam_cli": import_table,
        "parser_build_s": best_time(build, REPEAT),
        "cli": cli_table,
        "first_call": first_table,
        **ladders,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
