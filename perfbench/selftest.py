"""Self-test of the benchmark at minimal sizes, run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
- run.py prints every metric of BENCHMARK.json, by name and unit, for every
  workload, with --trace 0 (end to end) and --trace 1 (per layer), and that
  the seed commit's outputs pass all checks;
- a corrupted output of any job is caught by the output checks and counted
  in failed executions;
- two traced passes over the same jobs give identical counts, and tracing
  leaves the package unpatched afterwards;
- run.py exits non-zero, printing no result, in a directory that holds only
  BENCHMARK.json and the benchmark's own files.
Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import run
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def _run_py(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_metric_names(bench: dict, problems: list[str]) -> None:
    for workload in workloads.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            res = _run_py(workload, trace)
            if res.returncode != 0:
                problems.append(f"{workload} trace={trace}: exit {res.returncode}\n{res.stderr}")
                continue
            result = json.loads(res.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in bench[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {got} != {want}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: outputs failed\n{res.stderr}")


def _corrupt(text: str) -> str:
    m = re.search(r"\d", text)
    if m is None:
        return text + "x"
    digit = "1" if m.group() != "1" else "2"
    return text[: m.start()] + digit + text[m.end():]


def check_corruption_and_trace(cli, problems: list[str]) -> None:
    import latticediam.diameter as diameter
    import latticediam.oracle as oracle

    original = diameter.level_interval, oracle.gcd
    for workload in workloads.WORKLOADS:
        jobs = workloads.generate(workload, 3, tiny=True)
        workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        try:
            run.write_inputs(jobs, workdir)
            runner = run.Runner(cli, jobs, workdir)
            runner.run_pass()
            counts = []
            for _ in range(2):
                tracer = spans.Tracer()
                tracer.install()
                try:
                    runner.run_pass()
                finally:
                    tracer.uninstall()
                m = spans.layer_metrics(tracer)
                counts.append({k: v for k, v in m.items() if spans.unit_of(k) in ("count", "1/job")})
            if counts[0] != counts[1]:
                problems.append(f"{workload}: traced counts differ between two passes")
            if (diameter.level_interval, oracle.gcd) != original:
                problems.append(f"{workload}: tracing left the package patched")
            if runner.failures(None):
                problems.append(f"{workload}: clean outputs fail {runner.failures(None)}")
            for i, job in enumerate(jobs):
                rc, out, err = runner.first[i]
                runner.first[i] = (rc, _corrupt(out), err)
                bad = runner.failures(None)
                # three passes ran, so exactly three executions fail
                if job.key not in bad or runner.failed_executions(bad) != 3:
                    problems.append(f"{workload}: corrupted output of {job.key} not counted")
                runner.first[i] = (rc, out, err)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory(problems: list[str]) -> None:
    bare = tempfile.mkdtemp(prefix=".perfbench-bare-", dir=ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        res = _run_py("diameter", 0, cwd=bare)
        if res.returncode == 0 or res.stdout.strip():
            problems.append("run.py succeeded without the package")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    cli = run.import_package(ROOT)
    if cli is None:
        print("error: run from the root of a latticediam checkout", file=sys.stderr)
        return 2
    problems: list[str] = []
    check_metric_names(bench, problems)
    check_corruption_and_trace(cli, problems)
    check_bare_directory(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
