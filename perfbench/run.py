"""Benchmark of the latticediam command line on seeded job mixes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload diameter --seed 1 --seconds 55 --trace 0

The package is imported from ./src, never from an installed copy. Set-up
writes the workload's JSON documents to a scratch directory in the checkout
and runs one warm-up job. The timed phase is a closed loop with one client:
it runs the job list in passes through `latticediam.cli.run(argv)`, with
stdout and stderr captured, until --seconds have passed, and times one more
set-up after every pass. The first pass is whole; the last stops at
--seconds. Outputs are checked afterwards (see checks.py).

--trace 0 reports the end-to-end metrics. --trace 1 times untraced passes
for half of --seconds, then runs one pass with spans around the package's
public functions (see spans.py) and reports the per-layer metrics, plus
trace_overhead, the traced pass time over the median untraced pass time.
The spans are written to .perfbench-out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; a summary, fail_ratio included, goes to
stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 1
# Tail percentile of the jobs' fastest times.
TAIL = 90

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import latticediam.cli; print(time.perf_counter() - t)"
)


def import_package(root: str):
    """latticediam.cli from root/src; None when the checkout has no package."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "latticediam", "cli.py")):
        return None
    sys.path.insert(0, src)
    import latticediam.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        return None
    return cli


def import_seconds(src: str) -> float:
    """Import time of latticediam.cli in a fresh interpreter, start-up excluded."""
    res = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, src],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(res.stdout)


def job_argv(job: workloads.Job, workdir: str) -> list[str]:
    return [os.path.join(workdir, a[1:]) if a.startswith("@") else a for a in job.argv]


def write_inputs(jobs, workdir: str) -> None:
    for job in jobs:
        for name, text in job.files:
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)


def run_job(cli, argv: list[str]):
    """(exit code, seconds, stdout, stderr) of one CLI job."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.run(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing job is a failed job, not a failed run
            traceback.print_exc()
            rc = -1
        dt = perf_counter() - t0
    return rc, dt, out.getvalue(), err.getvalue()


class Runner:
    """One workload's jobs, their executions and their first outputs."""

    def __init__(self, cli, jobs, workdir: str):
        self.cli = cli
        self.jobs = jobs
        self.argvs = [job_argv(j, workdir) for j in jobs]
        self.workdir = workdir
        self.times: list[float] = []
        self.execs: list[tuple[int, str]] = []  # (job index, stdout digest)
        self.first: dict[int, tuple[int, str, str]] = {}

    def run_pass(self, deadline: float | None = None) -> float:
        """Run the jobs in order; stop early once perf_counter() passes deadline."""
        t0 = perf_counter()
        for i, argv in enumerate(self.argvs):
            if deadline is not None and perf_counter() >= deadline:
                break
            rc, dt, out, err = run_job(self.cli, argv)
            self.times.append(dt)
            self.execs.append((i, _digest(rc, out)))
            self.first.setdefault(i, (rc, out, err))
        return perf_counter() - t0

    def job_digests(self) -> dict[str, str]:
        """Per job key: digest of exit code, stdout and any SVG file written."""
        out = {}
        for i, job in enumerate(self.jobs):
            rc, stdout, _ = self.first[i]
            out[job.key] = _digest(rc, stdout + (self._svg(job) or ""))
        return out

    def _svg(self, job):
        if "--svg" not in job.argv:
            return None
        path = job_argv(job, self.workdir)[job.argv.index("--svg") + 1]
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        except OSError:
            return ""

    def failures(self, recorded: dict[str, str] | None) -> dict[str, str]:
        """Reason per failed job key; every execution of such a job fails."""
        bad = {}
        digests = self.job_digests()
        for i, job in enumerate(self.jobs):
            rc, out, err = self.first[i]
            reason = checks.check_job(job, rc, out, err, self._svg(job))
            if reason is None and recorded is not None and recorded.get(job.key) != digests[job.key]:
                reason = "output bytes differ from the recorded digest"
            if reason is not None:
                bad[job.key] = reason
        return bad

    def failed_executions(self, bad: dict[str, str]) -> int:
        first_digest = {}
        failed = 0
        for i, d in self.execs:
            first_digest.setdefault(i, d)
            if self.jobs[i].key in bad or d != first_digest[i]:
                failed += 1
        return failed


def _digest(rc: int, text: str) -> str:
    return hashlib.sha256(f"{rc}\n{text}".encode()).hexdigest()


def recorded_digests(workload: str, seed: int, tiny: bool):
    if seed != DEFAULT_SEED or tiny or not os.path.isfile(DIGESTS):
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def setup_once(cli, args, workdir: str, src: str):
    """Seconds of the import, seconds of the rest of one set-up, and the job list.

    One set-up is: import in a fresh interpreter, generate and write the
    inputs, run the warm-up job (the first job by key).
    """
    t_import = import_seconds(src)
    t0 = perf_counter()
    jobs = workloads.generate(args.workload, args.seed, args.size == "tiny")
    write_inputs(jobs, workdir)
    warm = min(jobs, key=lambda j: j.key)
    run_job(cli, job_argv(warm, workdir))
    return t_import, perf_counter() - t0, jobs


def measure(runner: Runner, seconds: float, set_up) -> dict[str, float]:
    """End-to-end metrics of passes run for `seconds`, with a set-up after each.

    Bursts of contention for the processor slow some passes, and some
    set-ups, by up to half, for seconds at a time. So a job counts at its
    fastest pass, and set-up at its fastest import plus its fastest rest.
    Set-ups between the passes spread those samples over the whole run.
    The first pass is whole, so that every job runs; the last one stops
    when `seconds` have passed.
    """
    imports, rests = [], []
    deadline = perf_counter() + seconds
    runner.run_pass()
    while True:
        t_import, t_rest = set_up()
        imports.append(t_import)
        rests.append(t_rest)
        if perf_counter() >= deadline:
            break
        runner.run_pass(deadline)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = len(runner.jobs)
    per_job = [min(runner.times[i::n]) for i in range(n)]
    return {
        "jobs_per_s": n / sum(per_job),
        "job_ms_p50": 1000 * statistics.median(per_job),
        f"job_ms_p{TAIL}": 1000 * statistics.quantiles(per_job, n=100)[TAIL - 1],
        "setup_s": min(imports) + min(rests),
        "peak_rss_mb": peak_kb / 1024,
    }


def measure_traced(runner: Runner, seconds: float, out_path: str) -> dict[str, float]:
    t0 = perf_counter()
    plain = []
    while True:
        plain.append(runner.run_pass())
        if perf_counter() - t0 >= seconds / 2:
            break
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = runner.run_pass()
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer)
    metrics["trace_overhead"] = traced / statistics.median(plain)
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    tracer.write(out_path)
    return metrics


def unit_of(metric: str) -> str:
    if metric == "jobs_per_s":
        return "1/s"
    if metric.startswith("job_ms_"):
        return "ms"
    if metric == "setup_s":
        return "s"
    if metric == "peak_rss_mb":
        return "MB"
    return spans.unit_of(metric)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: minimal sizes, for the self-test")
    ap.add_argument("--record-digests", action="store_true",
                    help="store this run's output digests as the default seed's reference")
    args = ap.parse_args(argv)

    root = os.getcwd()
    cli = import_package(root)
    if cli is None:
        print("error: run from the root of a latticediam checkout (no src/latticediam)",
              file=sys.stderr)
        return 2
    tiny = args.size == "tiny"
    if args.record_digests and (args.seed != DEFAULT_SEED or tiny):
        print("error: digests are recorded for the default seed at full size", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        src = os.path.join(root, "src")
        # Not timed: the first import may also write the bytecode caches.
        jobs = setup_once(cli, args, workdir, src)[2]
        runner = Runner(cli, jobs, workdir)
        if args.trace:
            out_path = os.path.join(root, ".perfbench-out",
                                    f"spans-{args.workload}-seed{args.seed}-{args.size}.csv.gz")
            metrics = measure_traced(runner, args.seconds, out_path)
        else:
            metrics = measure(runner, args.seconds,
                              lambda: setup_once(cli, args, workdir, src)[:2])
        recorded = None if args.record_digests else recorded_digests(args.workload, args.seed, tiny)
        bad = runner.failures(recorded)
        failed = runner.failed_executions(bad)
        if args.record_digests and not bad:
            table = {}
            if os.path.isfile(DIGESTS):
                with open(DIGESTS, encoding="utf-8") as fh:
                    table = json.load(fh)
            table[args.workload] = runner.job_digests()
            with open(DIGESTS, "w", encoding="utf-8") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(runner.execs)
    for key, reason in sorted(bad.items()):
        print(f"FAILED {key}: {reason}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} jobs={len(jobs)} "
          f"attempted={attempted} failed={failed} fail_ratio={failed / attempted:.6f}",
          file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {unit_of(name)}", file=sys.stderr)
    result = {
        "correct": not bad and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
