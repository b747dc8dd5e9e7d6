"""Repeat the benchmark over seeds and report medians and quartile spreads.

Run from the root of a checkout:

    python3 perfbench/sweep.py --seeds 1-10
    python3 perfbench/sweep.py --seeds 1-10 --record "seed commit a30d5fa"

For every workload of BENCHMARK.json it runs run.py once per seed with
--trace 0 and --seconds run_seconds, then twice with --trace 1 on the first
seed, and checks that the two traced runs give identical counts. The spread of an end-to-end metric is
(q3 - q1) / median over the seeds, with statistics.quantiles(n=4); it is
flagged when it reaches a third of the metric's bound in BENCHMARK.json.
--record appends the medians, quartiles and the traced per-layer figures as
one entry of perfbench/BENCH_trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TRAJECTORY = os.path.join(HERE, "BENCH_trajectory.json")


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    result = json.loads(res.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(res.stderr, file=sys.stderr)
    return result


def quartiles(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    sys.stdout.reconfigure(line_buffering=True)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--record", metavar="LABEL")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seed_list(args.seeds)
    seconds = bench["run_seconds"]
    entry = {"label": args.record, "python": platform.python_version(),
             "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
             "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, s, seconds, 0) for s in seeds]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"fail_ratio={failed / attempted:.6f}")
        summary = {"fail_ratio": failed / attempted}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q = quartiles(values)
            unit = runs[0]["metrics"][name]["unit"]
            flag = ""
            if q["spread"] >= bound / 3:
                flag = "  <-- spread at or over a third of the bound"
                steady = False
            print(f"  {name:14s} median={q['median']:.6g} {unit} q1={q['q1']:.6g} "
                  f"q3={q['q3']:.6g} spread={q['spread']:.4f} bound={bound}{flag}")
            print("    runs: " + " ".join(f"{v:.4g}" for v in values))
            summary[name] = {k: q[k] for k in ("median", "q1", "q3")} | {"unit": unit,
                                                                         "runs": values}
        a, b = (run_once(workload, seeds[0], seconds, 1) for _ in range(2))
        counts = [k for k, v in a["metrics"].items() if v["unit"] in ("count", "1/job")]
        diff = [k for k in counts if a["metrics"][k] != b["metrics"][k]]
        print(f"  traced: counts repeat exactly: {not diff} {diff or ''}, "
              f"trace_overhead={a['metrics']['trace_overhead']['value']:.3f}, "
              f"{b['metrics']['trace_overhead']['value']:.3f}")
        steady = steady and not diff
        summary["per_layer"] = {k: v["value"] for k, v in a["metrics"].items()}
        entry["workloads"][workload] = summary
    if args.record:
        history = []
        if os.path.isfile(TRAJECTORY):
            with open(TRAJECTORY, encoding="utf-8") as fh:
                history = json.load(fh)
        history.append(entry)
        with open(TRAJECTORY, "w", encoding="utf-8") as fh:
            json.dump(history, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
