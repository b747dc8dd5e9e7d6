"""Command line front end.

stdout carries data (reports, CSV, JSON, documents); stderr carries
diagnostics. Exit codes: 0 ok, 2 parse/usage or an unreadable input or
unwritable output, 3 validation, 4 verification mismatch, 5 fit failure,
6 budget exceeded.

This module loads only what every subcommand uses; each handler imports
the compute modules it calls when it runs, so `oracle` on a point set
never loads the 2D diameter, dilation, Borsuk, construction or SVG code,
nor fractions.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from math import comb
from typing import TYPE_CHECKING, Sequence

from .core import (
    DEFAULT_PAIR_BUDGET,
    Polygon2,
    PointSet,
    count_lattice_points_polygon,
    enumerate_lattice_points,
)
from .documents import (
    Document,
    document_for_point_set,
    document_for_polygon,
    load_document,
    point_set_from_document,
    polygon_from_document,
    render_document,
)
from .errors import (
    BudgetError,
    FitError,
    LatticeDiamError,
    ParseError,
    ValidationError,
)

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["run", "main"]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("value must be a positive integer")
    return value


def _fmt_coords(p: Sequence[int | Fraction]) -> str:
    return "(" + ",".join(str(c) for c in p) + ")"


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through a temporary file beside it, renamed into
    place once complete, so a failed write leaves neither file behind. An
    unwritable path (OSError) is a ParseError, as an unreadable input is."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        # strerror alone: str(exc) may name the temporary file and its pid
        raise ParseError(f"cannot write {path}: {exc.strerror or exc}") from None


def _polygon_points(P: Polygon2, budget: int) -> PointSet:
    """The lattice points of P for an oracle scan, refused before a single
    point is listed: by the cost of the scan (check_pair_budget), from Pick's
    count and the ranges of the bounding box, which are those of the points
    since the vertices are lattice points; then by the number of lines
    across the short side of the bounding box, the fewest the scan can clip."""
    from .oracle import check_pair_budget

    (xmin, ymin), (xmax, ymax) = P.bounding_box()
    check_pair_budget(
        count_lattice_points_polygon(P), [xmax - xmin, ymax - ymin], budget
    )
    lines = min(xmax - xmin, ymax - ymin) + 1
    if lines > budget:
        raise BudgetError(
            f"listing the lattice points scans at least {lines} lines of the"
            f" bounding box, over the budget of {budget}"
        )
    return enumerate_lattice_points(P)


def _point_set_from(doc: Document, budget: int) -> PointSet:
    if doc.kind == "polygon":
        return _polygon_points(polygon_from_document(doc), budget)
    if doc.kind == "point_set":
        return point_set_from_document(doc)
    raise ValidationError(f"cannot build a point set from a {doc.kind!r} document")


def _cmd_diam2d(args: argparse.Namespace) -> int:
    from .diameter import compute_diameter

    P = polygon_from_document(load_document(args.input))
    report = compute_diameter(P)
    # refused over budget and formatted before any output, also when str() of
    # an int past the interpreter's digit limit raises ValueError
    try:
        if args.svg:
            from .svg import check_dot_budget, render_diameter_svg

            check_dot_budget(P, args.budget)
        points = _polygon_points(P, args.budget) if args.verify else None
        svg = render_diameter_svg(P, report) if args.svg else None
        text = "\n".join([
            f"ldiam={report.ldiam} directions={len(report.directions)} "
            f"lines={len(report.lines)}",
            *(f"direction={_fmt_coords(clip.line.dir.vec)} "
              f"segment={_fmt_coords(clip.a)}->{_fmt_coords(clip.b)}"
              for clip in report.representative_segments),
        ])
    except ValueError as exc:
        raise ValidationError(f"a number is too long to print: {exc}") from None
    if args.svg:
        _write_atomic(args.svg, svg)
    print(text)
    if args.verify:
        from .oracle import brute_force_diameter

        oracle = brute_force_diameter(points, args.budget)
        # each diameter line holds ldiam + 1 points, so its two ends are the
        # one segment of gcd ldiam on it: lines and segments are in bijection
        if (
            oracle.ldiam != report.ldiam
            or oracle.directions != report.directions
            or len(oracle.segments) != len(report.lines)
        ):
            print(
                f"verify: MISMATCH oracle ldiam={oracle.ldiam} "
                f"directions={len(oracle.directions)} "
                f"segments={len(oracle.segments)} lines={len(report.lines)}",
                file=sys.stderr,
            )
            return 4
        print("verify: oracle agrees", file=sys.stderr)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import brute_force_diameter

    S = _point_set_from(load_document(args.input), args.budget)
    report = brute_force_diameter(S, args.budget)
    print(
        f"ldiam={report.ldiam} segments={len(report.segments)} "
        f"directions={len(report.directions)}"
    )
    for u in report.directions:
        print(f"direction={_fmt_coords(u.vec)}")
    return 0


def _cmd_directions(args: argparse.Namespace) -> int:
    from .oracle import brute_force_diameter

    S = _point_set_from(load_document(args.input), args.budget)
    report = brute_force_diameter(S, args.budget)
    print(f"directions={len(report.directions)}")
    for u in report.directions:
        print(_fmt_coords(u.vec))
    return 0


def _quasi_json(qp) -> str:
    payload = {
        "period": qp.period,
        "pieces": [[str(s), str(t)] for s, t in qp.pieces],
        "valid_from": qp.valid_from,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _cmd_ld(args: argparse.Namespace) -> int:
    from .diameter import dilation_profile
    from .dilation import check_dilate_budget, fit_quasipolynomial

    P = polygon_from_document(load_document(args.input))
    check_dilate_budget(args.k_max, args.budget)
    profile = dilation_profile(P)
    ks = range(1, args.k_max + 1)
    counts = list(zip(ks, profile.counts(ks)))
    # Fit sampling is sized from the discovered period, not the table range;
    # it runs before any output, so a refused fit prints nothing.
    fit = None
    if args.fit:
        fit = fit_quasipolynomial(P, budget=args.budget, profile=profile)
    if args.format == "json":
        print(json.dumps({"counts": counts}, sort_keys=True))
    else:
        print("k,count")
        for k, c in counts:
            print(f"{k},{c}")
    if fit is not None:
        print(_quasi_json(fit))
    return 0


def _cmd_ld_fit(args: argparse.Namespace) -> int:
    from .dilation import fit_quasipolynomial

    P = polygon_from_document(load_document(args.input))
    print(_quasi_json(fit_quasipolynomial(P, args.k_max, budget=args.budget)))
    return 0


def _cmd_borsuk(args: argparse.Namespace) -> int:
    from .borsuk import (
        DEFAULT_NODE_BUDGET,
        build_borsuk_graph,
        exact_borsuk_number,
        greedy_partition,
    )

    S = _point_set_from(load_document(args.input), args.budget)
    bound = 2**S.dim
    if len(S) == 1:
        print(f"parts=1 bound=2^{S.dim}={bound}")
        print(json.dumps({"labels": [0], "parts": 1}, sort_keys=True))
        print("single point: diameter 0, partition already minimal", file=sys.stderr)
        return 0
    graph = build_borsuk_graph(S, args.budget)
    partition = greedy_partition(graph)
    labels = list(partition.labels.values())  # keyed in the order of S
    summary = f"parts={len(partition.parts)} bound=2^{S.dim}={bound}"
    if args.exact:
        chi = exact_borsuk_number(graph, args.node_budget or DEFAULT_NODE_BUDGET)
        summary += f" chi={chi}"
    print(summary)
    print(json.dumps({"labels": labels, "parts": len(partition.parts)}, sort_keys=True))
    return 0


def _verify_vertex_avoiding(m: int, pts: PointSet, verts, budget: int) -> str | None:
    from .constructions import hull_facets
    from .oracle import brute_force_diameter

    report = brute_force_diameter(pts, budget)
    want = ((-(m - 1), 0, 0), (m - 1, 0, 0))
    if report.ldiam != 2 * (m - 1):
        return f"ldiam={report.ldiam}, expected {2 * (m - 1)}"
    if m >= 3:
        # vertex pairs only reach gcd 2 < 2(m-1), so the axis segment is alone
        if report.segments != (want,):
            return f"segments={report.segments}, expected the single {want}"
    elif want not in report.segments:
        # m = 2 degenerates: vertex pairs tie at gcd 2, the axis one must still appear
        return f"segments={report.segments} do not include {want}"
    facets = hull_facets(verts)
    for endpoint in want:
        if any(sum(a * b for a, b in zip(n, endpoint)) == c for n, c in facets):
            return f"endpoint {endpoint} lies on the boundary"
    return None


def _cmd_construct(args: argparse.Namespace) -> int:
    from .constructions import (
        demo_chamber,
        direction_maximal_polytope,
        hardness_instance,
        hardness_lattice_points,
        slope_triangle,
        vertex_avoiding_polytope,
        verify_hardness_instance,
    )
    from .oracle import brute_force_diameter

    def need(*names: str) -> list[int]:
        vals = []
        for n in names:
            v = getattr(args, n)
            if v is None:
                raise ValidationError(f"construct {args.kind} needs --{n}")
            vals.append(v)
        return vals

    failure: str | None = None
    if args.kind == "vertex-avoiding":
        (m,) = need("m")
        pts, verts = vertex_avoiding_polytope(m)
        doc = document_for_point_set(pts, name=f"vertex-avoiding m={m}")
        if args.verify:
            failure = _verify_vertex_avoiding(m, pts, verts, args.budget)
    elif args.kind == "hardness":
        a, b, c = need("a", "b", "c")
        d = args.d if args.d is not None else 3
        inst = hardness_instance(a, b, c, d)
        pts = hardness_lattice_points(inst)
        doc = document_for_point_set(
            pts, name=f"hardness a={a} b={b} c={c} d={d} Z={inst.Z}"
        )
        if args.verify:
            check = verify_hardness_instance(inst, args.budget)
            if not (check.direction_ok and check.equivalence_ok):
                failure = (
                    f"direction_ok={check.direction_ok} "
                    f"equivalence_ok={check.equivalence_ok}"
                )
    elif args.kind == "slope-triangle":
        t, x = need("t", "x")
        tri = slope_triangle(t, x)
        doc = document_for_polygon(tri, name=f"slope-triangle t={t} x={x}")
        if args.verify:
            S = _polygon_points(tri, args.budget)
            report = brute_force_diameter(S, args.budget)
            if len(S) != 4 or report.ldiam != 1 or len(report.directions) != 6:
                failure = (
                    f"points={len(S)} ldiam={report.ldiam} "
                    f"directions={len(report.directions)}, expected 4/1/6"
                )
    elif args.kind == "direction-maximal":
        (d,) = need("d")
        pts, _ = direction_maximal_polytope(d)
        doc = document_for_point_set(pts, name=f"direction-maximal d={d}")
        if args.verify:
            report = brute_force_diameter(pts, args.budget)
            want = comb(2**d, 2)
            if (
                len(pts) != 2**d
                or report.ldiam != 1
                or len(report.directions) != want
            ):
                failure = (
                    f"points={len(pts)} ldiam={report.ldiam} "
                    f"directions={len(report.directions)}, "
                    f"expected {2 ** d}/1/{want}"
                )
    else:  # chamber
        verts, u = demo_chamber()
        doc = document_for_polygon(verts, name="chamber q=3 w=2")
        if args.verify:
            from .dilation import chamber_decomposition

            block = chamber_decomposition(verts, u)
            want = ((1, 1, 1), (3, 0, 0), (2, 2, 2))
            if block.q != 3 or block.w != 2 or block.per_residue != want:
                failure = (
                    f"q={block.q} w={block.w} per_residue={block.per_residue}"
                )
    if failure is not None:
        print(f"verify: MISMATCH {failure}", file=sys.stderr)
        return 4
    if args.verify:
        print("verify: ok", file=sys.stderr)
    sys.stdout.write(render_document(doc))
    return 0


def _cmd_hardness_verify(args: argparse.Namespace) -> int:
    from .constructions import hardness_instance, verify_hardness_instance

    inst = hardness_instance(args.a, args.b, args.c, args.d)
    check = verify_hardness_instance(inst, args.budget)
    print(
        f"Z={check.z} min_f={check.min_f} ldiam={check.ldiam} "
        f"points={check.n_points} direction_ok={check.direction_ok} "
        f"equivalence_ok={check.equivalence_ok}"
    )
    return 0 if check.direction_ok and check.equivalence_ok else 4


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command line parser and the parser of each subcommand, by name
    and alias, built on the first run() of a process and kept: parsing
    leaves them unchanged, handlers look up module globals when called, and
    help reads the terminal width when it is formatted."""
    parser = argparse.ArgumentParser(
        prog="latticediam",
        description="Exact lattice diameter computations on polygons and point sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, aliases: Sequence[str] = ()) -> argparse.ArgumentParser:
        p = sub.add_parser(name, aliases=list(aliases))
        p.set_defaults(handler=handler)
        p.add_argument(
            "--budget",
            type=_positive_int,
            default=DEFAULT_PAIR_BUDGET,
            help=(
                "work budget: point pairs of an oracle scan, lines scanned to list"
                " a polygon's points, grid dots of an SVG, dilates sampled by"
                " ld-count and ld-fit"
            ),
        )
        return p

    p = add("diam2d", _cmd_diam2d)
    p.add_argument("input")
    p.add_argument("--svg", metavar="PATH")
    p.add_argument("--verify", action="store_true")

    p = add("oracle", _cmd_oracle)
    p.add_argument("input")

    p = add("directions", _cmd_directions)
    p.add_argument("input")

    p = add("ld-count", _cmd_ld, aliases=("ld",))
    p.add_argument("input")
    p.add_argument("--k-max", type=_positive_int, required=True)
    p.add_argument("--fit", action="store_true")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("ld-fit", _cmd_ld_fit)
    p.add_argument("input")
    p.add_argument("--k-max", type=_positive_int, default=None)

    p = add("borsuk", _cmd_borsuk)
    p.add_argument("input")
    p.add_argument("--exact", action="store_true")
    # None reads as borsuk.DEFAULT_NODE_BUDGET, so the parser needs no borsuk
    p.add_argument("--node-budget", type=_positive_int, default=None)

    p = add("construct", _cmd_construct)
    p.add_argument(
        "kind",
        choices=(
            "vertex-avoiding",
            "hardness",
            "slope-triangle",
            "direction-maximal",
            "chamber",
        ),
    )
    p.add_argument("--verify", action="store_true")
    for flag in ("m", "a", "b", "c", "t", "x"):
        p.add_argument(f"--{flag}", type=int, default=None)
    p.add_argument("--d", type=int, default=None)

    p = add("hardness-verify", _cmd_hardness_verify)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--d", type=int, default=3)

    return parser, sub.choices


def _parse(argv: Sequence[str] | None) -> argparse.Namespace:
    """The arguments of argv, parsed by its subcommand's parser alone when
    argv starts with a subcommand and leaves nothing over: the full parser
    hands a subcommand's arguments to that parser unchanged, so the result
    is the same. Any other argv goes through the full parser, so every
    usage error, help text and exit code is the full parser's."""
    parser, commands = _parsers()
    if argv is None:
        argv = sys.argv[1:]
    sub = commands.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def run(argv: Sequence[str] | None = None) -> int:
    args = _parse(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except LatticeDiamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
