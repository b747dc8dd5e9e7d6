"""Seeded job mixes for the latticediam benchmark.

Each workload is a fixed list of CLI jobs built from a seed. A job is one
`latticediam` command line plus the JSON documents it reads; the benchmark
writes the documents during set-up and runs the command lines through
`latticediam.cli.run`.

What a job costs is set by its size, and, for the 2D diameter, by
number-theoretic accidents of its exact coordinates: two skew triangles
whose widths differ by one can differ twofold in time. So the sizes sit on
fixed ladders. Random polygons and point sets are drawn once, by fixed
generators, because the work on a random set moves with its exact points.
The seed varies what leaves the work unchanged: lattice translations,
signed permutations of the coordinates (each maps lattice points to lattice
points and keeps the gcd of every pair's differences), which corner a right
triangle sits in, and the job order. The total work of a mix then barely
moves from seed to seed, and the end-to-end figures stay steady across
seeds.

`tiny=True` gives the same mixes at minimal sizes, for the self-test.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("diameter", "points")

# Reference polygons of the package's sample inputs.
QUAD = ((0, 0), (5, 1), (6, 4), (1, 3))
SQUARE = ((0, 0), (2, 0), (2, 2), (0, 2))

# Pair budget passed to jobs that must not be refused.
BIG_BUDGET = "1000000"

# Hardness gadgets (a, b, c) with 93 or 94 lattice points in dimension 3.
GADGETS = ((3, 3, 6), (6, 3, 6), (1, 1, 4), (2, 1, 4), (3, 1, 4), (4, 1, 4),
           (5, 1, 4), (6, 1, 4), (7, 1, 4), (8, 1, 4))


@dataclass(frozen=True)
class Job:
    """One command line of a mix.

    argv entries starting with "@" name files in the set-up directory.
    files maps those names to document text. kind and data tell the output
    checks what the job computed on; exit_code is the expected exit code.
    """

    key: str
    argv: tuple[str, ...]
    kind: str
    data: dict = field(compare=False)
    files: tuple[tuple[str, str], ...] = ()
    exit_code: int = 0


def polygon_text(verts) -> str:
    rows = [[str(x), str(y)] for x, y in verts]
    return json.dumps({"dimension": 2, "kind": "polygon", "vertices": rows})


def points_text(pts) -> str:
    rows = [[str(c) for c in p] for p in pts]
    return json.dumps({"dimension": len(pts[0]), "kind": "point_set", "points": rows})


def convex_hull(pts):
    """Strictly convex hull, counter-clockwise (monotone chain)."""
    pts = sorted(set(pts))
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def translate(rng: random.Random, pts):
    # Every coordinate stays above CPython's cached small ints (up to 256): a
    # seed that moved listed points onto them would share their int objects
    # and lower the peak memory.
    shift = [rng.randint(1000, 3000) for _ in pts[0]]
    return tuple(tuple(c + t for c, t in zip(p, shift)) for p in pts)


def symmetry(rng: random.Random, pts, top: int):
    """pts in [0, top]^d under a seeded signed permutation of the coordinates.

    A coordinate that changes sign is mapped to top - c, so the points stay
    in the box. Differences of points keep their entries up to order and
    sign, so every pair keeps its gcd and the pair scan does the same work.
    """
    d = len(pts[0])
    perm = rng.sample(range(d), d)
    flip = [rng.random() < 0.5 for _ in range(d)]
    return tuple(tuple(top - p[k] if f else p[k] for k, f in zip(perm, flip)) for p in pts)


def ladder(n: int, lo: float, hi: float, log: bool = False) -> list[int]:
    """n sizes at the midpoints of n equal slices of [lo, hi]."""
    if log:
        return [round(math.exp(math.log(lo) + (i + 0.5) * math.log(hi / lo) / n)) for i in range(n)]
    return [round(lo + (i + 0.5) * (hi - lo) / n) for i in range(n)]


def _polygon_job(key, argv, kind, verts, name, exit_code=0):
    return Job(key, argv, kind, {"polygon": verts}, ((name, polygon_text(verts)),), exit_code)


def diam_wide(rng: random.Random, tiny: bool) -> list[Job]:
    n, top = (2, 1_000) if tiny else (20, 50_000)
    widths = ladder(n, 100, top, log=True)
    jobs = []
    for i, s in enumerate(widths):
        verts = translate(rng, ((0, 0), (s, 1), (3 * s + 1, 7)))
        jobs.append(_polygon_job(f"skew-{i:02d}", ("diam2d", f"@skew-{i:02d}.json"), "diam2d",
                                 verts, f"skew-{i:02d}.json"))
    # The thin polygons are the same for every seed: a fixed generator draws them.
    shapes = random.Random("diam-wide/thin")
    for i, width in enumerate(widths):
        h = shapes.randint(3, 8)
        pts = [(0, shapes.randint(0, h)), (width, shapes.randint(0, h))]
        pts += [(shapes.randint(0, width), shapes.randint(0, h)) for _ in range(shapes.randint(5, 10))]
        verts = translate(rng, convex_hull(pts))
        jobs.append(_polygon_job(f"thin-{i:02d}", ("diam2d", f"@thin-{i:02d}.json"), "diam2d",
                                 verts, f"thin-{i:02d}.json"))
    return jobs


def fit_dilate(rng: random.Random, tiny: bool) -> list[Job]:
    jobs = []
    for m in (5, 7) if tiny else (5, 6, 7, 8, 9, 11, 13, 15, 17, 19):
        verts = translate(rng, ((0, 0), (m - 1, 1), (-1, m)))
        jobs.append(_polygon_job(f"fit-{m:02d}", ("ld-fit", f"@tri-{m:02d}.json"), "ld-fit",
                                 verts, f"tri-{m:02d}.json"))
    for label, shape in (("quad", QUAD), ("square", SQUARE)):
        k_max = 8 if tiny else 100
        verts = translate(rng, shape)
        name = f"{label}.json"
        jobs.append(_polygon_job(f"fit-{label}", ("ld-fit", "@" + name), "ld-fit", verts, name))
        jobs.append(Job(f"count-{label}",
                        ("ld-count", "@" + name, "--k-max", str(k_max), "--format", "json"),
                        "ld-count", {"polygon": verts, "k_max": k_max},
                        ((name, polygon_text(verts)),)))
    for i in range(2):
        jobs.append(Job(f"chamber-{i}", ("construct", "chamber", "--verify"), "chamber", {}))
    return jobs


def lattice_count(verts) -> int:
    """Lattice points of a lattice polygon, by Pick's theorem."""
    n = len(verts)
    area2 = boundary = 0
    for i in range(n):
        (ax, ay), (bx, by) = verts[i], verts[(i + 1) % n]
        area2 += ax * by - ay * bx
        boundary += math.gcd(bx - ax, by - ay)
    return (area2 + boundary + 2) // 2


def _polygon_with_points(rng: random.Random, target: int):
    """A random convex polygon holding target lattice points, give or take 2%."""
    span = max(3, round(1.4 * math.sqrt(target)))
    while True:
        verts = convex_hull([(rng.randint(0, span), rng.randint(0, span)) for _ in range(12)])
        if len(verts) < 3:
            continue
        count = lattice_count(verts)
        if abs(count - target) <= max(1, target // 50):
            return verts
        # grow or shrink the box toward the target
        if count < target:
            span += 1
        elif span > 3:
            span -= 1


def points_dense(rng: random.Random, tiny: bool) -> list[Job]:
    # point counts from spans of about 6 to 30
    targets = ladder(2, 30, 60) if tiny else ladder(24, 40, 640)
    # The polygons are the same for every seed up to a lattice symmetry.
    shapes = random.Random("points-dense/shapes")
    jobs = []
    for i, target in enumerate(targets):
        base = _polygon_with_points(shapes, target)
        top = max(max(v) for v in base)
        verts = translate(rng, convex_hull(symmetry(rng, base, top)))
        name = f"poly-{i:02d}.json"
        diam = ("diam2d", "@" + name, "--verify", "--budget", BIG_BUDGET)
        if i % 3 == 0:
            diam += ("--svg", f"@poly-{i:02d}.svg")
        jobs.append(_polygon_job(f"diam-{i:02d}", diam, "diam2d", verts, name))
        jobs.append(_polygon_job(f"oracle-{i:02d}", ("oracle", "@" + name, "--budget", BIG_BUDGET),
                                 "oracle", verts, name))
        jobs.append(_polygon_job(f"borsuk-{i:02d}",
                                 ("borsuk", "@" + name, "--exact", "--budget", BIG_BUDGET),
                                 "borsuk", verts, name))
    for i, d in enumerate((3,) if tiny else (3, 3, 4, 4, 5, 5)):
        a, b, c = rng.choice(GADGETS)
        jobs.append(Job(f"hardness-{i}-d{d}",
                        ("hardness-verify", "--a", str(a), "--b", str(b), "--c", str(c), "--d", str(d)),
                        "hardness", {"abcd": (a, b, c, d)}))
    for i, leg in enumerate((60,) if tiny else (300, 500)):
        corners = ((0, 0), (leg, 0), (leg, leg), (0, leg))
        skip = rng.randrange(4)
        verts = translate(rng, corners[:skip] + corners[skip + 1:])
        jobs.append(_polygon_job(f"refuse-{i}", ("oracle", f"@right-{i}.json"), "refused",
                                 verts, f"right-{i}.json", exit_code=6))
    return jobs


def points_sparse(rng: random.Random, tiny: bool) -> list[Job]:
    sizes = (100,) if tiny else ladder(8, 100, 400)
    # The sets are the same for every seed up to a lattice symmetry.
    draws = random.Random("points-sparse/sets")
    jobs = []
    for d, top in ((2, 10**5), (3, 10**4), (4, 10**3)):
        for i, size in enumerate(sizes):
            pts = set()
            while len(pts) < size:
                pts.add(tuple(draws.randint(0, top) for _ in range(d)))
            pts = tuple(sorted(translate(rng, symmetry(rng, tuple(sorted(pts)), top))))
            name = f"set-d{d}-{i}.json"
            files = ((name, points_text(pts)),)
            data = {"points": pts}
            for cmd in ("oracle", "directions"):
                jobs.append(Job(f"{cmd}-d{d}-{i}", (cmd, "@" + name), cmd, data, files))
            jobs.append(Job(f"borsuk-d{d}-{i}", ("borsuk", "@" + name, "--exact"),
                            "borsuk", data, files))
    for d in (5,) if tiny else (5, 6):
        jobs.append(Job(f"maximal-d{d}", ("construct", "direction-maximal", "--d", str(d), "--verify"),
                        "maximal", {"d": d}))
    return jobs


# A workload runs the jobs of two mixes. Each run measures one workload for
# the whole of its --seconds, and on a shared host the per-job minimum over
# a run is steadier the longer the run, so the time a set of runs may take
# goes to two long workloads rather than four short ones.
MIXES = {
    "diameter": (diam_wide, fit_dilate),
    "points": (points_dense, points_sparse),
}


def generate(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """The job list of a workload, in a seed-shuffled order."""
    rng = random.Random(f"{workload}/{seed}")
    jobs = [job for mix in MIXES[workload] for job in mix(rng, tiny)]
    rng.shuffle(jobs)
    return jobs
