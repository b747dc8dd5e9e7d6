"""Smoke tests for the benchmark scripts under scripts/.

The scripts reach into private routines of the package (the oracle's scans
and cost model, the dilation kernels), so a renamed internal would break
them without failing any other test. These tests import each script, run
the oracle ladder's row on one small set of each family, run the dilation
script's prune rows, which count the profile's cones, descents, walks and
picks, and run a seeded slice of the CLI fuzz runs.
"""

import importlib
import random
from pathlib import Path

import pytest

from latticediam import (
    PointSet,
    Polygon2,
    brute_force_diameter,
    enumerate_lattice_points,
)
from latticediam.constructions import direction_maximal_polytope

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def scripts_on_path(monkeypatch):
    # each script runs with its own directory first on sys.path
    monkeypatch.syspath_prepend(str(SCRIPTS))


@pytest.mark.parametrize("name", ["bench_cli", "bench_dilation", "bench_oracle", "fuzz_cli"])
def test_scripts_import(scripts_on_path, name):
    assert callable(importlib.import_module(name).main)


def test_oracle_rows_run_on_each_family(scripts_on_path, monkeypatch):
    bench = importlib.import_module("bench_oracle")
    monkeypatch.setattr(bench, "REPEAT", 1)
    quad = Polygon2(((0, 0), (5, 1), (6, 4), (1, 3)))
    sets = [
        ("dense", "quad*2", enumerate_lattice_points(quad.dilate(2)).points),
        ("sparse", "top=1000", bench.sparse_set(random.Random(1), 40, 2, 1000)),
        ("sparse", "top=50", bench.sparse_set(random.Random(2), 20, 3, 50)),
        ("gadget", "direction-maximal", direction_maximal_polytope(3)[0].points),
    ]
    rows = [bench.row(*case) for case in sets]
    for r, (_, _, pts) in zip(rows, sets):
        assert (r["n"], r["d"]) == (len(pts), len(pts[0]))
        assert r["ldiam"] == brute_force_diameter(PointSet(pts)).ldiam
    # the planar sparse row also times the line phase and the pair loop
    planar = rows[1]
    assert planar["line_end"] in ("stop", "handover")
    assert planar["line_steps"] > 0 and 0 < planar["row_steps"] <= planar["pairs"]
    assert "line_s" not in rows[2]
    summary = bench.summary(rows)
    assert summary["planar_rows"] == 1


def test_prune_rows_count_the_cones(scripts_on_path, monkeypatch):
    bench = importlib.import_module("bench_dilation")
    monkeypatch.setattr(bench, "REPEAT", 1)
    monkeypatch.setattr(bench, "MIN_SECONDS", 0)
    rows = bench.prune_rows()
    assert {row["polygon"] for row in rows} == {"skew", "thin"}
    for row in rows:
        assert row["visited"] + row["skipped"] == row["cones"] >= row["vertices"]
        assert 1 <= row["walks"] <= row["visited"]
        assert row["picks"] >= 1
    assert sum(row["skipped"] for row in rows if row["polygon"] == "thin") > 0


def test_fuzz_slice_exits_cleanly(scripts_on_path, tmp_path):
    """20 seeded fuzz runs, each a subprocess bounded in wall time, end with
    an allowed exit code: answered, invalid input, fit refused or over
    budget."""
    fuzz = importlib.import_module("fuzz_cli")
    workdir = str(tmp_path)
    runs = fuzz.cases(27, 20, workdir)
    codes = [fuzz.run_case(argv, text, workdir, 60)[0] for argv, _, text in runs]
    assert all(code in fuzz.ALLOWED for code in codes), list(zip(codes, runs))
    assert {0, 3, 6} <= set(codes), codes
    assert {argv[0] for argv, _, _ in runs} == set(fuzz.COMMANDS)


def test_lone_rows_time_profiles_and_counts(scripts_on_path, monkeypatch):
    bench = importlib.import_module("bench_dilation")
    monkeypatch.setattr(bench, "REPEAT", 1)
    monkeypatch.setattr(bench, "MIN_SECONDS", 0)
    rows = bench.lone_rows()
    assert [row["row"] for row in rows] == (["dilation_profile"] + ["count"] * 12) * 2
    quad = [row for row in rows if row["row"] == "count" and row["polygon"] == "quad"]
    assert quad[-1]["count"] == 2_000_000_000_001
    assert all(row["kernel_calls"]["level_interval"] == 0 for row in quad)
