"""Output checks for benchmark jobs, on paths independent of latticediam.

Nothing here imports the package under test. Lattice points are listed by
integer floor/ceil division on the polygon's edges, diameters come from a
plain pair-gcd scan, and segment counts from a floor/ceil count along the
printed segment. A check returns None when the output is right and a short
reason when it is not.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction
from math import ceil, comb, floor, gcd

# Largest pair count the checks scan; bigger inputs get the scan-free checks.
PAIR_LIMIT = 250_000

_NUM = r"-?\d+(?:/\d+)?"
_TUPLE = re.compile(r"\((" + _NUM + r"(?:," + _NUM + r")*)\)")


def _tuple(text: str):
    m = _TUPLE.fullmatch(text)
    if m is None:
        raise ValueError(f"not a coordinate tuple: {text!r}")
    return tuple(Fraction(c) for c in m.group(1).split(","))


def _fields(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split())


def polygon_points(verts):
    """Lattice points of a counter-clockwise convex polygon, sorted."""
    ys = [v[1] for v in verts]
    n = len(verts)
    pts = []
    for y in range(min(ys), max(ys) + 1):
        lo, hi = None, None
        empty = False
        for i in range(n):
            (ax, ay), (bx, by) = verts[i], verts[(i + 1) % n]
            dx, dy = bx - ax, by - ay
            # inside: dx*(y-ay) - dy*(x-ax) >= 0, i.e. dy*x <= rhs
            rhs = dx * (y - ay) + dy * ax
            if dy > 0:
                bound = rhs // dy
                hi = bound if hi is None else min(hi, bound)
            elif dy < 0:
                bound = -(-rhs // dy)  # ceil(rhs / dy)
                lo = bound if lo is None else max(lo, bound)
            elif dx * (y - ay) < 0:
                empty = True
        if empty or lo is None or hi is None:
            continue
        pts.extend((x, y) for x in range(lo, hi + 1))
    return tuple(sorted(pts))


@functools.lru_cache(maxsize=64)
def pair_scan(pts: tuple):
    """(largest pair gcd, diameter pairs) of a sorted tuple of points.

    Cached: one run checks several jobs on the same point set.
    """
    best, hits = 0, []
    n = len(pts)
    for i in range(n - 1):
        p = pts[i]
        for j in range(i + 1, n):
            q = pts[j]
            g = gcd(*(b - a for a, b in zip(p, q)))
            if g > best:
                best, hits = g, [(p, q)]
            elif g == best:
                hits.append((p, q))
    return best, hits


def direction(vec):
    """Primitive direction with first nonzero entry positive."""
    g = gcd(*vec)
    v = tuple(c // g for c in vec)
    for c in v:
        if c:
            return v if c > 0 else tuple(-x for x in v)
    return v


def directions_of(pairs) -> set:
    return {direction(tuple(b - a for a, b in zip(p, q))) for p, q in pairs}


def _scan_ok(n: int) -> bool:
    return n * (n - 1) // 2 <= PAIR_LIMIT


def _on_boundary(verts, p) -> bool:
    n = len(verts)
    sides = []
    for i in range(n):
        (ax, ay), (bx, by) = verts[i], verts[(i + 1) % n]
        sides.append((bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax))
    return min(sides) == 0


def _segment_count(u, a, b) -> int:
    """Lattice points on the segment a->b of the lattice line with direction u."""
    ux, uy = u
    beta = -uy * a[0] + ux * a[1]
    if beta.denominator != 1:
        return -1
    # s, t with -uy*s + ux*t == 1, by extended Euclid
    old_r, r, old_s, s, old_t, t = -uy, ux, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    x0 = (int(beta) * old_s, int(beta) * old_t)
    uu = ux * ux + uy * uy
    ta = ((a[0] - x0[0]) * ux + (a[1] - x0[1]) * uy) / uu
    tb = ((b[0] - x0[0]) * ux + (b[1] - x0[1]) * uy) / uu
    lo, hi = min(ta, tb), max(ta, tb)
    return max(0, floor(hi) - ceil(lo) + 1)


def check_diam2d(job, out: str, err: str, svg: str | None):
    verts = job.data["polygon"]
    lines = out.splitlines()
    head = _fields(lines[0])
    ldiam, ndirs, nlines = int(head["ldiam"]), int(head["directions"]), int(head["lines"])
    if len(lines) != 1 + ndirs:
        return f"{len(lines) - 1} segment rows for {ndirs} directions"
    dirs = set()
    for row in lines[1:]:
        f = _fields(row)
        u = tuple(int(c) for c in _tuple(f["direction"]))
        a, b = (_tuple(s) for s in f["segment"].split("->"))
        if direction(u) != u:
            return f"direction {u} is not primitive and canonical"
        if (b[0] - a[0]) * u[1] != (b[1] - a[1]) * u[0]:
            return f"segment {a}->{b} is not along {u}"
        if not (_on_boundary(verts, a) and _on_boundary(verts, b)):
            return f"segment {a}->{b} does not end on the boundary"
        if _segment_count(u, a, b) != ldiam + 1:
            return f"segment {a}->{b} does not hold ldiam+1 = {ldiam + 1} lattice points"
        dirs.add(u)
    if len(dirs) != ndirs:
        return "repeated directions"
    pts = polygon_points(verts)
    if _scan_ok(len(pts)):
        best, hits = pair_scan(pts)
        # each diameter line holds exactly one diameter pair: its two ends
        if (best, directions_of(hits), len(hits)) != (ldiam, dirs, nlines):
            return f"pair scan gives ldiam={best} lines={len(hits)}"
    if "--verify" in job.argv and "verify: oracle agrees" not in err:
        return "no oracle agreement on stderr"
    if svg is not None:
        if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
            return "svg file is not a complete document"
        if svg.count("<line ") != nlines:
            return f"svg draws {svg.count('<line ')} lines for {nlines}"
    return None


def _set_points(job):
    if "points" in job.data:
        return job.data["points"]
    return polygon_points(job.data["polygon"])


def check_oracle(job, out: str, err: str, svg):
    pts = _set_points(job)
    lines = out.splitlines()
    head = _fields(lines[0])
    dirs = [tuple(int(c) for c in _tuple(row.split("=", 1)[1])) for row in lines[1:]]
    if len(dirs) != int(head["directions"]):
        return "direction rows do not match the header"
    if _scan_ok(len(pts)):
        best, hits = pair_scan(pts)
        got = (int(head["ldiam"]), int(head["segments"]), dirs)
        if got != (best, len(hits), sorted(directions_of(hits))):
            return f"pair scan gives ldiam={best} segments={len(hits)}"
    return None


def check_directions(job, out: str, err: str, svg):
    pts = _set_points(job)
    lines = out.splitlines()
    dirs = [tuple(int(c) for c in _tuple(row)) for row in lines[1:]]
    if len(dirs) != int(_fields(lines[0])["directions"]):
        return "direction rows do not match the header"
    if _scan_ok(len(pts)):
        _, hits = pair_scan(pts)
        if dirs != sorted(directions_of(hits)):
            return "pair scan gives other directions"
    return None


def check_borsuk(job, out: str, err: str, svg):
    pts = _set_points(job)
    lines = out.splitlines()
    head = _fields(lines[0])
    parts, chi = int(head["parts"]), int(head["chi"])
    labels = json.loads(lines[1])["labels"]
    d = len(pts[0])
    if len(labels) != len(pts) or len(set(labels)) != parts:
        return "labels do not cover the points with the printed part count"
    if not 1 <= chi <= parts <= 2**d:
        return f"chi={chi} parts={parts} break chi <= parts <= 2^{d}"
    if _scan_ok(len(pts)):
        _, hits = pair_scan(pts)
        index = {p: i for i, p in enumerate(pts)}
        for p, q in hits:
            if labels[index[p]] == labels[index[q]]:
                return f"diameter pair {p},{q} shares a part"
        if hits and chi < 2:
            return "a set with a diameter pair needs two parts"
    return None


def check_refused(job, out: str, err: str, svg):
    return None if out == "" and "over the budget" in err else "refusal not reported"


def check_hardness(job, out: str, err: str, svg):
    a, b, c, d = job.data["abcd"]
    f = _fields(out)
    if f.get("direction_ok") != "True" or f.get("equivalence_ok") != "True":
        return "gadget verdicts are not True"
    z, min_f, ldiam = int(f["Z"]), int(f["min_f"]), int(f["ldiam"])
    ylo, yhi = Fraction(1 - a, b), Fraction((c - 1) ** 2 - a, b)
    cols = [(x, y, (x * x - a - b * y) ** 2)
            for x in range(1, c) for y in range(ceil(ylo), floor(yhi) + 1)]
    if min(fz for _, _, fz in cols) != min_f:
        return "printed min_f is not the grid minimum"
    pts = [(x, y, zz) for x, y, fz in cols if fz <= z for zz in range(fz, z + 1)]
    for _ in range(d - 3):
        pts = [(w,) + p for w in (0, 1) for p in pts]
    if len(pts) != int(f["points"]):
        return f"gadget has {len(pts)} points, printed {f['points']}"
    if _scan_ok(len(pts)):
        best, hits = pair_scan(tuple(sorted(pts)))
        axis = (0,) * (d - 1) + (1,)
        if best != ldiam or directions_of(hits) != {axis}:
            return f"pair scan gives ldiam={best}"
    elif ldiam != z - min_f:
        return "ldiam differs from Z - min_f"
    return None


def _diameter_line_count(verts, k):
    """Diameter lines of the dilate k*P, or None when too many points to scan."""
    pts = polygon_points([(k * x, k * y) for x, y in verts])
    if not _scan_ok(len(pts)):
        return None
    return len(pair_scan(pts)[1])


def check_fit(job, out: str, err: str, svg):
    fit = json.loads(out)
    period, valid_from = fit["period"], fit["valid_from"]
    pieces = [(Fraction(s), Fraction(t)) for s, t in fit["pieces"]]
    if len(pieces) != period:
        return "piece count differs from the period"
    for k in range(valid_from, valid_from + 2):
        want = _diameter_line_count(job.data["polygon"], k)
        if want is None:
            break
        s, t = pieces[k % period]
        if s * k + t != want:
            return f"fit gives {s * k + t} lines at k={k}, pair scan {want}"
    return None


def check_count(job, out: str, err: str, svg):
    counts = json.loads(out)["counts"]
    if [k for k, _ in counts] != list(range(1, job.data["k_max"] + 1)):
        return "counts do not cover k = 1..k_max"
    for k, c in counts:
        want = _diameter_line_count(job.data["polygon"], k)
        if want is None:
            break
        if c != want:
            return f"count {c} at k={k}, pair scan {want}"
    return None


# The middle horizontal chamber of conv{(0,0),(5,1),(6,4),(1,3)}.
CHAMBER = [["1/3", "1"], ["1", "3"], ["17/3", "3"], ["5", "1"]]


def check_chamber(job, out: str, err: str, svg):
    doc = json.loads(out)
    if "verify: ok" not in err or (doc["kind"], doc["dimension"]) != ("polygon", 2):
        return "chamber document or verdict missing"
    if doc["vertices"] != CHAMBER:
        return f"chamber vertices {doc['vertices']}"
    return None


def check_maximal(job, out: str, err: str, svg):
    d = job.data["d"]
    doc = json.loads(out)
    pts = tuple(sorted(tuple(int(c) for c in row) for row in doc["points"]))
    if "verify: ok" not in err or (doc["kind"], doc["dimension"], len(pts)) != ("point_set", d, 2**d):
        return "direction-maximal document or verdict missing"
    best, hits = pair_scan(pts)
    dirs = directions_of(hits)
    if best != 1 or len(dirs) != comb(2**d, 2):
        return f"pair scan gives ldiam={best} with {len(dirs)} directions"
    return None


CHECKS = {
    "diam2d": check_diam2d,
    "oracle": check_oracle,
    "directions": check_directions,
    "borsuk": check_borsuk,
    "refused": check_refused,
    "hardness": check_hardness,
    "ld-fit": check_fit,
    "ld-count": check_count,
    "chamber": check_chamber,
    "maximal": check_maximal,
}


def check_job(job, rc: int, out: str, err: str, svg: str | None):
    """None when the job's exit code and output are right, else a reason."""
    if rc != job.exit_code:
        return f"exit code {rc}, expected {job.exit_code}"
    try:
        return CHECKS[job.kind](job, out, err, svg)
    except (KeyError, IndexError, ValueError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"
