"""Spans around latticediam's public functions, recorded from outside the package.

`Tracer.install` replaces each target function at every module attribute
that holds it, which is where its callers look it up (for example both
`latticediam.lines.level_interval` and `latticediam.diameter.level_interval`).
Classes are traced through their `__init__`. Each call becomes a span with
its name, start, end and parent span, kept in flat arrays in memory and
written out once, when the run ends. `layer_metrics` reduces the spans to
the per-layer figures of the benchmark; a span's self time is its duration
minus the durations of its child spans.

The oracle's pair scan is counted where it happens: `install` also replaces
the `gcd` that `latticediam.oracle` looks up, in that module only, by one
that counts its calls against the innermost open span. The pairs of
`oracle.brute_force_diameter` are those calls made under its spans. The
counting makes the oracle's traced self time about three times its
untraced time; trace_overhead shows it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter


def _len_lines(args, result):
    return len(result.lines)


def _len_result(args, result):
    return len(result)


def _hits(args, result):
    return len(result.segments)


def _command_and_code(args, result):
    argv = args[0] if args else None
    return (argv[0] if argv else "", result)


# (module, attribute, measure): measure(args, result) is stored with the span.
TARGETS = (
    ("cli", "run", _command_and_code),
    ("documents", "load_document", None),
    ("documents", "render_document", None),
    ("diameter", "compute_diameter", _len_lines),
    ("diameter", "local_diameter_lines", None),
    ("lines", "level_interval", None),
    ("lines", "LatticeLine", None),
    ("lines", "clip_line", None),
    ("dilation", "fit_quasipolynomial", None),
    ("dilation", "count_diameter_lines", None),
    ("core", "Polygon2", None),
    ("core", "enumerate_lattice_points", _len_result),
    ("oracle", "brute_force_diameter", _hits),
    ("borsuk", "greedy_partition", None),
    ("borsuk", "exact_borsuk_number", None),
    ("constructions", "hardness_lattice_points", None),
    ("constructions", "verify_hardness_instance", None),
    ("constructions", "direction_maximal_polytope", None),
    ("svg", "render_diameter_svg", None),
)

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr, _ in TARGETS)


class Tracer:
    """Span recorder; install() patches the package, uninstall() restores it."""

    def __init__(self) -> None:
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.values: dict[int, object] = {}
        self.gcd_calls: defaultdict[int, int] = defaultdict(int)  # span index -> oracle gcd calls
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, nid: int, fn, measure):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, values = self._stack, self.values

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            start[i] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if measure is not None:
                values[i] = measure(args, result)
            return result

        return traced

    def _count_gcd(self, gcd):
        stack, calls = self._stack, self.gcd_calls

        def counted(*args):
            calls[stack[-1]] += 1
            return gcd(*args)

        return counted

    def install(self) -> None:
        oracle = importlib.import_module("latticediam.oracle")
        self._undo.append((oracle, "gcd", oracle.gcd))
        oracle.gcd = self._count_gcd(oracle.gcd)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "latticediam" or n.startswith("latticediam."))]
        for nid, (mod, attr, measure) in enumerate(TARGETS):
            obj = getattr(importlib.import_module(f"latticediam.{mod}"), attr)
            if isinstance(obj, type):
                init = obj.__dict__["__init__"]
                self._undo.append((obj, "__init__", init))
                setattr(obj, "__init__", self._wrap(nid, init, measure))
                continue
            traced = self._wrap(nid, obj, measure)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is obj:
                        self._undo.append((m, key, obj))
                        setattr(m, key, traced)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        """All spans as gzipped CSV: index, name, parent, start and end in seconds."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("span,name,parent,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{SPAN_NAMES[self.name[i]]},{self.parent[i]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")


# Per-layer metrics, "<span>.<stat>". calls, self_s, total_s and level_calls
# (level_interval calls whose parent is the span) exist for every span; the
# rest are computed in layer_metrics.
PER_LAYER = (
    "diameter.local_diameter_lines.calls",
    "diameter.local_diameter_lines.self_s",
    "diameter.local_diameter_lines.level_calls",
    "diameter.compute_diameter.calls",
    "diameter.compute_diameter.self_s",
    "diameter.compute_diameter.level_calls",
    "diameter.compute_diameter.lines_out",
    "lines.level_interval.calls",
    "lines.level_interval.self_s",
    "lines.LatticeLine.calls",
    "lines.LatticeLine.self_s",
    "lines.clip_line.calls",
    "lines.clip_line.self_s",
    "dilation.fit_quasipolynomial.self_s",
    "dilation.count_diameter_lines.calls",
    "dilation.count_diameter_lines.total_s",
    "core.Polygon2.calls",
    "core.Polygon2.self_s",
    "oracle.brute_force_diameter.calls",
    "oracle.brute_force_diameter.self_s",
    "oracle.brute_force_diameter.pairs",
    "oracle.brute_force_diameter.pairs_per_s",
    "oracle.brute_force_diameter.hits_per_pair",
    "core.enumerate_lattice_points.self_s",
    "core.enumerate_lattice_points.points",
    "borsuk.greedy_partition.self_s",
    "borsuk.exact_borsuk_number.self_s",
    "borsuk.oracle_calls_per_job",
    "constructions.hardness_lattice_points.self_s",
    "constructions.verify_hardness_instance.self_s",
    "constructions.direction_maximal_polytope.self_s",
    "cli.run.calls",
    "cli.run.self_s",
    "cli.run.refused",
    "documents.load_document.self_s",
    "documents.render_document.self_s",
    "svg.render_diameter_svg.self_s",
)


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The PER_LAYER figures of the recorded spans."""
    n = len(tr.start)
    ids = {name: k for k, name in enumerate(SPAN_NAMES)}
    dur = [tr.end[i] - tr.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if tr.parent[i] >= 0:
            child[tr.parent[i]] += dur[i]
    m = len(SPAN_NAMES)
    stats = {"calls": [0] * m, "self_s": [0.0] * m, "total_s": [0.0] * m, "level_calls": [0] * m}
    level = ids["lines.level_interval"]
    for i in range(n):
        k = tr.name[i]
        stats["calls"][k] += 1
        stats["self_s"][k] += dur[i] - child[i]
        stats["total_s"][k] += dur[i]
        if k == level and tr.parent[i] >= 0:
            stats["level_calls"][tr.name[tr.parent[i]]] += 1

    def values(span):
        k = ids[span]
        return [tr.values[i] for i in range(n) if tr.name[i] == k and i in tr.values]

    oracle_spans = [i for i in range(n) if tr.name[i] == ids["oracle.brute_force_diameter"]]
    pairs = sum(tr.gcd_calls.get(i, 0) for i in oracle_spans)
    hits = sum(values("oracle.brute_force_diameter"))
    oracle_self = stats["self_s"][ids["oracle.brute_force_diameter"]]
    # brute_force_diameter calls per borsuk job: walk each oracle span up to its job
    run_id, oracle_id = ids["cli.run"], ids["oracle.brute_force_diameter"]
    borsuk_jobs = {i for i in range(n) if tr.name[i] == run_id
                   and tr.values.get(i, ("", None))[0] == "borsuk"}
    borsuk_oracle = 0
    for i in range(n):
        if tr.name[i] == oracle_id:
            p = tr.parent[i]
            while p >= 0 and tr.name[p] != run_id:
                p = tr.parent[p]
            borsuk_oracle += p in borsuk_jobs
    derived = {
        "diameter.compute_diameter.lines_out": sum(values("diameter.compute_diameter")),
        "oracle.brute_force_diameter.pairs": pairs,
        "oracle.brute_force_diameter.pairs_per_s": pairs / oracle_self if oracle_self else 0.0,
        "oracle.brute_force_diameter.hits_per_pair": hits / pairs if pairs else 0.0,
        "core.enumerate_lattice_points.points": sum(values("core.enumerate_lattice_points")),
        "borsuk.oracle_calls_per_job": borsuk_oracle / len(borsuk_jobs) if borsuk_jobs else 0.0,
        "cli.run.refused": sum(1 for _, code in values("cli.run") if code == 6),
    }
    out = {}
    for metric in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        out[metric] = derived[metric] if metric in derived else stats[stat][ids[span]]
    return out


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its last name part."""
    last = metric.rsplit(".", 1)[-1]
    if last == "pairs_per_s":
        return "1/s"
    if last.endswith("_s"):
        return "s"
    if last in ("hits_per_pair", "trace_overhead"):
        return "ratio"
    if last == "oracle_calls_per_job":
        return "1/job"
    return "count"
