"""End-to-end command line behavior: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from latticediam import (
    DiameterReport,
    HardnessCheck,
    PointSet,
    Polygon2,
    document_for_point_set,
    document_for_polygon,
    parse_document,
    render_document,
)
from latticediam import BudgetError, borsuk, cli, constructions, diameter, dilation
from latticediam import oracle, svg

from helpers import QUAD, SQUARE, dilate_levels_oracle, wide_polygons

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"


def write_doc(tmp_path, doc, name="input.json") -> str:
    path = tmp_path / name
    path.write_text(render_document(doc))
    return str(path)


def run_module(module, argv, timeout=60) -> subprocess.CompletedProcess:
    """Run `python -m module argv` on this source tree."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


@pytest.fixture
def quad_file(tmp_path):
    return write_doc(tmp_path, document_for_polygon(QUAD, name="quad"))


@pytest.fixture
def square_file(tmp_path):
    return write_doc(tmp_path, document_for_polygon(SQUARE, name="square"))


class TestDiam2d:
    def test_report(self, quad_file, capsys):
        assert cli.run(["diam2d", quad_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "ldiam=4 directions=1 lines=3"
        assert out[1] == "direction=(1,0) segment=(1/3,1)->(5,1)"

    def test_verify_agrees(self, quad_file, capsys):
        assert cli.run(["diam2d", quad_file, "--verify"]) == 0
        captured = capsys.readouterr()
        assert "verify: oracle agrees" in captured.err
        assert "verify" not in captured.out

    def test_verify_counts_lines_against_segments(self, quad_file, monkeypatch, capsys):
        # ldiam and the directions still agree; one line is missing
        compute = diameter.compute_diameter

        def one_line_short(P):
            report = compute(P)
            return DiameterReport(
                report.ldiam, report.lines[1:], report.directions,
                report.representative_segments,
            )

        monkeypatch.setattr(diameter, "compute_diameter", one_line_short)
        assert cli.run(["diam2d", quad_file, "--verify"]) == 4
        err = capsys.readouterr().err
        assert err == (
            "verify: MISMATCH oracle ldiam=4 directions=1 segments=3 lines=2\n"
        )

    @pytest.mark.parametrize("svg", [False, True], ids=["plain", "svg"])
    def test_verify_over_budget_prints_nothing(self, svg, tmp_path, capsys):
        # 50,521 points: the oracle scan is over the default budget, so the
        # run is refused before the report is printed or the picture written
        path = write_doc(tmp_path, document_for_polygon(QUAD.dilate(60)))
        svg_path = tmp_path / "out.svg"
        argv = ["diam2d", path, "--verify"] + (["--svg", str(svg_path)] if svg else [])
        assert cli.run(argv) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "over the budget" in captured.err
        assert not svg_path.exists()

    def test_svg_does_not_change_stdout(self, quad_file, tmp_path, capsys):
        assert cli.run(["diam2d", quad_file]) == 0
        plain = capsys.readouterr().out
        svg_path = tmp_path / "out.svg"
        assert cli.run(["diam2d", quad_file, "--svg", str(svg_path)]) == 0
        assert capsys.readouterr().out == plain
        body = svg_path.read_text()
        assert body.startswith("<svg")
        assert body.rstrip().endswith("</svg>")

    def test_failed_svg_leaves_no_file(self, quad_file, tmp_path, monkeypatch, capsys):
        def failing_render(P, report):
            raise BudgetError("picture too large")

        monkeypatch.setattr(svg, "render_diameter_svg", failing_render)
        svg_path = tmp_path / "out.svg"
        assert cli.run(["diam2d", quad_file, "--svg", str(svg_path)]) != 0
        assert not svg_path.exists()
        # A write that fails after the file was opened leaves neither the
        # target nor the temporary file beside it: here the text cannot be
        # encoded half way through, and then the final rename fails.
        monkeypatch.setattr(svg, "render_diameter_svg", lambda P, report: "<svg>\udc80")
        with pytest.raises(UnicodeEncodeError):
            cli.run(["diam2d", quad_file, "--svg", str(svg_path)])
        assert sorted(os.listdir(tmp_path)) == ["input.json"]
        monkeypatch.undo()
        capsys.readouterr()

        def failing_replace(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(cli.os, "replace", failing_replace)
        assert cli.run(["diam2d", quad_file, "--svg", str(svg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {svg_path}: rename refused\n"
        assert sorted(os.listdir(tmp_path)) == ["input.json"]

    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unwritable_svg_path_exits_2(self, quad_file, tmp_path, target):
        # as an unreadable input: one line on stderr, exit 2, nothing on
        # stdout, and neither the target nor a temporary file left behind
        if target == "missing":
            svg_path = tmp_path / "missing" / "out.svg"
            reason, left = "No such file or directory", ["input.json"]
        else:
            svg_path = tmp_path / "out.svg"
            svg_path.mkdir()
            reason, left = "Is a directory", ["input.json", "out.svg"]
        done = run_module("latticediam", ["diam2d", quad_file, "--svg", str(svg_path)])
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr == f"error: cannot write {svg_path}: {reason}\n"
        assert sorted(os.listdir(tmp_path)) == left
        if target == "directory":
            assert os.listdir(svg_path) == []

    def test_huge_skew_triangle(self, tmp_path):
        # the local scan takes O(log) steps, so 10^12 levels finish at once
        s = 10**12
        triangle = Polygon2(((0, 0), (s, 1), (3 * s + 1, 7)))
        path = write_doc(tmp_path, document_for_polygon(triangle))
        done = run_module("latticediam", ["diam2d", path], timeout=20)
        assert done.returncode == 0
        assert done.stdout.splitlines()[0] == "ldiam=571428571428 directions=1 lines=1"

    def test_svg_refused_over_the_dot_budget(self, tmp_path, capsys):
        s = 10**12
        triangle = Polygon2(((0, 0), (s, 1), (3 * s + 1, 7)))
        path = write_doc(tmp_path, document_for_polygon(triangle))
        svg_path = tmp_path / "out.svg"
        assert cli.run(["diam2d", path, "--svg", str(svg_path)]) == 6
        captured = capsys.readouterr()
        assert "30000000000040 grid dots, over the budget of 200000" in captured.err
        assert captured.out == ""
        assert not svg_path.exists()

    def test_svg_dot_budget_is_exact(self, quad_file, tmp_path, capsys):
        # the quad's margined bounding box holds 9 x 7 = 63 grid dots
        svg_path = tmp_path / "out.svg"
        assert cli.run(["diam2d", quad_file, "--svg", str(svg_path), "--budget", "62"]) == 6
        assert not svg_path.exists()
        assert cli.run(["diam2d", quad_file, "--svg", str(svg_path), "--budget", "63"]) == 0
        assert svg_path.read_text().count("<circle") == 63

    def test_rejects_point_set_document(self, tmp_path, capsys):
        doc = document_for_point_set(PointSet([(0, 0), (1, 1)]))
        path = write_doc(tmp_path, doc)
        assert cli.run(["diam2d", path]) == 3
        assert "error:" in capsys.readouterr().err

    def test_shipped_sample(self, capsys):
        assert cli.run(["diam2d", str(SAMPLES / "demo-quad.json")]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ldiam=4 directions=1 lines=3\n")


class TestOracleAndDirections:
    def test_oracle_on_box(self, capsys):
        assert cli.run(["oracle", str(SAMPLES / "box-4x2-points.json")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "ldiam=4 segments=3 directions=1"
        assert out[1] == "direction=(1,0)"

    def test_oracle_accepts_polygon_documents(self, square_file, capsys):
        assert cli.run(["oracle", square_file]) == 0
        assert capsys.readouterr().out.startswith(
            "ldiam=2 segments=8 directions=4\n"
        )

    def test_directions_listing(self, square_file, capsys):
        assert cli.run(["directions", square_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "directions=4"
        assert set(out[1:]) == {"(1,0)", "(0,1)", "(1,1)", "(1,-1)"}

    def test_directions_of_one_point(self, tmp_path, capsys):
        path = write_doc(tmp_path, document_for_point_set(PointSet([(3, 4)])))
        assert cli.run(["directions", path]) == 0
        assert capsys.readouterr().out == "directions=0\n"

    def test_budget_exit_code(self, capsys):
        path = str(SAMPLES / "box-4x2-points.json")
        assert cli.run(["oracle", path, "--budget", "1"]) == 6
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "argv",
        [["oracle"], ["directions"], ["borsuk", "--exact"], ["diam2d", "--verify"]],
    )
    def test_polygon_refused_before_listing_points(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        # 8,006,001 lattice points: Pick's count refuses without listing one
        def no_listing(P):
            raise AssertionError("lattice points listed before the budget check")

        monkeypatch.setattr(cli, "enumerate_lattice_points", no_listing)
        triangle = Polygon2(((0, 0), (4000, 0), (0, 4000)))
        path = write_doc(tmp_path, document_for_polygon(triangle))
        assert cli.run([argv[0], path] + argv[1:]) == 6
        assert "8006001 points give" in capsys.readouterr().err

    def test_residue_path_is_charged_its_own_cost(self, tmp_path, capsys):
        # 5,641 points give 15,907,620 pairs, but the residue scan takes
        # 6 moduli: 33,846 steps, 67,692 pair steps
        path = write_doc(tmp_path, document_for_polygon(QUAD.dilate(20)))
        assert cli.run(["oracle", path]) == 0
        assert capsys.readouterr().out.startswith("ldiam=93 ")
        assert cli.run(["oracle", path, "--budget", "67691"]) == 6
        assert "5641 points give 33846 residue steps (67692 pair steps)" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("leg, cost", [(300, 7999376), (500, 36970794)])
    def test_dense_right_triangle_refused_before_listing_points(
        self, leg, cost, tmp_path, capsys, monkeypatch
    ):
        def no_listing(P):
            raise AssertionError("lattice points listed before the budget check")

        monkeypatch.setattr(cli, "enumerate_lattice_points", no_listing)
        triangle = Polygon2(((0, 0), (leg, 0), (leg, leg)))
        path = write_doc(tmp_path, document_for_polygon(triangle))
        assert cli.run(["oracle", path]) == 6
        out, err = capsys.readouterr()
        assert out == ""
        assert f"({cost} pair steps), over the budget of 200000" in err

    @pytest.mark.parametrize(
        "argv",
        [["oracle"], ["directions"], ["borsuk", "--exact"], ["diam2d", "--verify"]],
    )
    def test_long_scan_refused_before_listing_points(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        # 11 lattice points pass Pick's count, but the bounding box is
        # 988,389 columns wide and 4,954,611 rows tall
        def no_listing(P):
            raise AssertionError("lattice points listed before the budget check")

        monkeypatch.setattr(cli, "enumerate_lattice_points", no_listing)
        path = write_doc(tmp_path, document_for_polygon(wide_polygons(12)[10]))
        assert cli.run([argv[0], path] + argv[1:]) == 6
        assert (
            "scans at least 988389 lines of the bounding box, over the budget of 200000"
            in capsys.readouterr().err
        )

    def test_long_scan_refused_at_once(self, tmp_path):
        path = write_doc(tmp_path, document_for_polygon(wide_polygons(12)[10]))
        done = run_module("latticediam", ["oracle", path], timeout=20)
        assert done.returncode == 6
        assert done.stdout == ""
        assert "scans at least 988389 lines" in done.stderr

    def test_scan_budget_is_exact(self, tmp_path, capsys):
        # 59 lattice points (1,711 pairs) in a box 4,023 columns wide
        path = write_doc(tmp_path, document_for_polygon(wide_polygons(40)[21]))
        assert cli.run(["oracle", path, "--budget", "4022"]) == 6
        assert "scans at least 4023 lines" in capsys.readouterr().err
        assert cli.run(["oracle", path, "--budget", "4023"]) == 0
        assert capsys.readouterr().out.startswith("ldiam=")

    def test_thin_polygon_is_answered_through_two_rows(self, tmp_path, capsys):
        # conv{(0,0),(10^6,1),(10^6+1,1)}: 10^6 + 2 columns but 2 rows
        triangle = Polygon2(((0, 0), (10**6 + 1, 1), (10**6, 1)))
        path = write_doc(tmp_path, document_for_polygon(triangle))
        assert cli.run(["oracle", path]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "ldiam=1 segments=3 directions=3",
            "direction=(1,0)",
            "direction=(1000000,1)",
            "direction=(1000001,1)",
        ]


class TestLdCount:
    def test_csv(self, square_file, capsys):
        assert cli.run(["ld", square_file, "--k-max", "3"]) == 0
        assert capsys.readouterr().out == "k,count\n1,8\n2,12\n3,16\n"

    def test_json(self, square_file, capsys):
        assert cli.run(
            ["ld-count", square_file, "--k-max", "3", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"counts": [[1, 8], [2, 12], [3, 16]]}

    def test_fit_flag_appends_fit(self, quad_file, capsys):
        # a table shorter than the period must not break the fit
        assert cli.run(["ld", quad_file, "--k-max", "6", "--fit"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("k,count\n1,3\n2,4\n3,3\n4,9\n5,8\n6,5\n")
        payload = json.loads(out.split("6,5\n", 1)[1])
        assert payload["period"] == 3
        assert payload["valid_from"] == 1

    def test_k_max_required(self, square_file):
        with pytest.raises(SystemExit) as exc:
            cli.run(["ld", square_file])
        assert exc.value.code == 2

    @pytest.mark.parametrize("name", ["demo-quad", "demo-square", "demo-triangle"])
    def test_samples_match_the_per_dilate_path(self, name, capsys):
        path = str(SAMPLES / f"{name}.json")
        assert cli.run(["ld-count", path, "--k-max", "12", "--format", "json"]) == 0
        P = Polygon2(
            tuple(tuple(int(c) for c in v)
                  for v in json.loads(Path(path).read_text())["vertices"])
        )
        want = [[k, dilate_levels_oracle(P, k)[0]] for k in range(1, 13)]
        assert json.loads(capsys.readouterr().out) == {"counts": want}

    def test_k_max_over_the_budget_is_refused(self, quad_file, capsys, monkeypatch):
        def no_count(*args):
            raise AssertionError("the count loop started")

        monkeypatch.setattr(diameter, "dilation_profile", no_count)
        assert cli.run(["ld-count", quad_file, "--k-max", "201", "--budget", "200"]) == 6
        out, err = capsys.readouterr()
        assert out == ""
        assert "201 dilates to sample, over the budget of 200" in err

    def test_refused_fit_prints_no_table(self, quad_file, capsys):
        # the quad's fit samples 4q = 12 dilates first
        assert cli.run(["ld", quad_file, "--k-max", "6", "--fit", "--budget", "11"]) == 6
        out, err = capsys.readouterr()
        assert out == ""
        assert "12 dilates to sample" in err

    def test_fit_reuses_the_table_profile(self, quad_file, capsys, monkeypatch):
        built = []
        profile = diameter.dilation_profile

        def counted(P):
            built.append(P)
            return profile(P)

        monkeypatch.setattr(diameter, "dilation_profile", counted)
        monkeypatch.setattr(dilation, "dilation_profile", counted)
        assert cli.run(["ld", quad_file, "--k-max", "6", "--fit"]) == 0
        assert len(built) == 1
        assert json.loads(capsys.readouterr().out.split("6,5\n", 1)[1])["period"] == 3

    def test_fit_counts_each_dilate_once(self, quad_file, capsys, monkeypatch):
        # the table counts k = 1..12 in one batch, and the fit's 4q = 12
        # samples are all cached, so the kernel sees no second batch
        batches = []
        kernel = diameter.DilationProfile._count

        def recorded(profile, ks):
            batches.append(list(ks))
            return kernel(profile, ks)

        monkeypatch.setattr(diameter.DilationProfile, "_count", recorded)
        assert cli.run(["ld", quad_file, "--k-max", "12", "--fit"]) == 0
        assert batches == [list(range(1, 13))]
        out = capsys.readouterr().out
        assert out.startswith("k,count\n1,3\n2,4\n3,3\n")
        assert json.loads(out.split("12,", 1)[1].split("\n", 1)[1])["period"] == 3


class TestLdFit:
    def test_quad_pieces(self, quad_file, capsys):
        assert cli.run(["ld-fit", quad_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "period": 3,
            "pieces": [["2/3", "1"], ["2", "1"], ["4/3", "4/3"]],
            "valid_from": 1,
        }

    def test_small_k_max_is_a_fit_error(self, quad_file, capsys):
        assert cli.run(["ld-fit", quad_file, "--k-max", "5"]) == 5
        assert "error:" in capsys.readouterr().err

    def test_huge_period_is_refused_before_sampling(self, tmp_path, capsys):
        # q = 999,997, so the first horizon 4q is far over the default budget
        P = Polygon2(((0, 0), (10**6, 3), (10**6 + 1, 10**6)))
        path = write_doc(tmp_path, document_for_polygon(P, name="huge q"))
        assert cli.run(["ld-fit", path]) == 6
        out, err = capsys.readouterr()
        assert out == ""
        assert "3999988 dilates to sample, over the budget of 200000" in err

    @pytest.mark.parametrize(
        "argv, horizon",
        [(["--budget", "7"], 8), (["--k-max", "13", "--budget", "12"], 13),
         (["--budget", "15"], 16)],
        ids=["first-horizon", "explicit-k-max", "doubling"],
    )
    def test_horizon_over_the_budget_is_refused(self, tmp_path, capsys, argv, horizon):
        # this pentagon has q = 2 but settles only at k = 4, so its fit
        # doubles the first horizon 4q = 8 once, to 16
        P = Polygon2(((-2, 1), (-1, 0), (0, 0), (1, 3), (-1, 2)))
        path = write_doc(tmp_path, document_for_polygon(P, name="late start"))
        assert cli.run(["ld-fit", path, "--budget", "16"]) == 0
        capsys.readouterr()
        assert cli.run(["ld-fit", path] + argv) == 6
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{horizon} dilates to sample" in err


class TestBorsuk:
    def test_square_partition(self, square_file, capsys):
        assert cli.run(["borsuk", square_file]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "parts=4 bound=2^2=4"
        payload = json.loads(out[1])
        assert payload["parts"] == 4
        assert len(payload["labels"]) == 9

    def test_exact_flag(self, square_file, capsys):
        assert cli.run(["borsuk", square_file, "--exact"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "parts=4 bound=2^2=4 chi=4"

    def test_exact_builds_one_diameter_graph(self, square_file, monkeypatch):
        calls = []
        scan = borsuk.brute_force_diameter

        def counted(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(borsuk, "brute_force_diameter", counted)
        monkeypatch.setattr(oracle, "brute_force_diameter", counted)
        assert cli.run(["borsuk", square_file, "--exact"]) == 0
        assert len(calls) == 1

    def test_exact_builds_adjacency_once(self, square_file, monkeypatch):
        # the neighbour map is built in BorsukGraph.__init__, and the CLI
        # builds one graph for greedy_partition and exact_borsuk_number
        graphs = []
        init = borsuk.BorsukGraph.__init__

        def recorded(self, *args, **kwargs):
            graphs.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(borsuk.BorsukGraph, "__init__", recorded)
        assert cli.run(["borsuk", square_file, "--exact"]) == 0
        assert len(graphs) == 1

    def test_single_point(self, tmp_path, capsys):
        path = write_doc(tmp_path, document_for_point_set(PointSet([(3, 4)])))
        assert cli.run(["borsuk", path]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "parts=1 bound=2^2=4"
        assert json.loads(captured.out.splitlines()[1]) == {
            "labels": [0],
            "parts": 1,
        }
        assert "single point" in captured.err

    def test_cube_sample(self, capsys):
        assert cli.run(["borsuk", str(SAMPLES / "cube-d3.json"), "--exact"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "parts=8 bound=2^3=8 chi=8"
        )


class TestConstruct:
    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "vertex-avoiding", "--m", "2"],
            ["construct", "vertex-avoiding", "--m", "3"],
            ["construct", "hardness", "--a", "2", "--b", "2", "--c", "5"],
            ["construct", "hardness", "--a", "3", "--b", "5", "--c", "7",
             "--d", "4"],
            ["construct", "slope-triangle", "--t", "1", "--x", "3"],
            ["construct", "direction-maximal", "--d", "3"],
            ["construct", "chamber"],
        ],
    )
    def test_verify_ok_and_document_output(self, argv, capsys):
        assert cli.run(argv + ["--verify"]) == 0
        captured = capsys.readouterr()
        assert captured.err.strip() == "verify: ok"
        doc = parse_document(captured.out)
        assert doc.kind in ("polygon", "point_set")

    def test_output_is_deterministic(self, capsys):
        argv = ["construct", "direction-maximal", "--d", "4"]
        assert cli.run(argv) == 0
        first = capsys.readouterr().out
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == first

    def test_chamber_keeps_rational_vertices(self, capsys):
        assert cli.run(["construct", "chamber"]) == 0
        doc = parse_document(capsys.readouterr().out)
        assert doc.kind == "polygon"
        assert ("1/3" in render_document(doc)) and ("17/3" in render_document(doc))

    def test_wide_slope_triangle_verify_refused_at_once(self):
        # 4 lattice points, but a bounding box 2,000,002 lines across
        argv = ["construct", "slope-triangle", "--t", "1", "--x", "1000000", "--verify"]
        done = run_module("latticediam", argv, timeout=20)
        assert done.returncode == 6
        assert done.stdout == ""
        assert "scans at least 2000002 lines of the bounding box" in done.stderr

    def test_missing_parameter(self, capsys):
        assert cli.run(["construct", "hardness", "--a", "2", "--b", "2"]) == 3
        assert "needs --c" in capsys.readouterr().err

    def test_invalid_parameter_value(self, capsys):
        assert cli.run(["construct", "vertex-avoiding", "--m", "1"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_unknown_kind_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["construct", "mystery"])
        assert exc.value.code == 2


class TestHardnessVerify:
    def test_solvable_and_unsolvable(self, capsys):
        argv = ["hardness-verify", "--a", "2", "--b", "2", "--c", "5"]
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == (
            "Z=9 min_f=0 ldiam=9 points=68 direction_ok=True "
            "equivalence_ok=True\n"
        )
        argv = ["hardness-verify", "--a", "3", "--b", "5", "--c", "7"]
        assert cli.run(argv) == 0
        out = capsys.readouterr().out
        assert "Z=12 min_f=1 ldiam=11" in out

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        # no honest instance fails, so fake a failing verdict to pin the
        # exit code contract
        def broken(inst, budget):
            return HardnessCheck(
                ldiam=0, z=inst.Z, min_f=0, n_points=0,
                direction_ok=False, equivalence_ok=False,
            )

        monkeypatch.setattr(constructions, "verify_hardness_instance", broken)
        argv = ["hardness-verify", "--a", "2", "--b", "2", "--c", "5"]
        assert cli.run(argv) == 4
        assert "direction_ok=False" in capsys.readouterr().out

    def test_bad_parameters(self, capsys):
        argv = ["hardness-verify", "--a", "0", "--b", "2", "--c", "5"]
        assert cli.run(argv) == 3
        assert "error:" in capsys.readouterr().err

    def test_huge_gadget_is_refused_before_listing(self):
        # R holds about 5 * 10^14 grid points (x, y); the closed-form column
        # counts pass the point budget in the first column, so the run exits
        # 6 at once instead of listing the grid
        done = run_module(
            "latticediam", ["hardness-verify", "--a", "1", "--b", "2", "--c", "100000"],
            timeout=10,
        )
        assert done.returncode == 6
        assert "more than 500000 lattice points" in done.stderr


class TestTopLevel:
    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.run(["diam2d", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert cli.run(["diam2d", "/nonexistent/file.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_polygon_document(self, tmp_path, capsys):
        clockwise = Polygon2(((0, 0), (2, 0), (2, 2), (0, 2)))
        doc = document_for_polygon(tuple(reversed(clockwise.vertices)))
        path = write_doc(tmp_path, doc)
        assert cli.run(["diam2d", path]) == 3
        assert "error:" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["mystery"])
        assert exc.value.code == 2

    @staticmethod
    def _same_as_run(module, capsys):
        sample = str(SAMPLES / "demo-quad.json")
        assert cli.run(["diam2d", sample]) == 0
        expected = capsys.readouterr().out
        done = run_module(module, ["diam2d", sample])
        assert done.returncode == 0
        assert done.stdout == expected

    def test_python_dash_m(self, capsys):
        self._same_as_run("latticediam", capsys)

    def test_python_dash_m_cli_module(self, capsys):
        self._same_as_run("latticediam.cli", capsys)

    def test_repeated_runs_give_the_same_results(self, tmp_path, capsys):
        """The parser is kept between runs; no run may see a trace of an
        earlier one, whatever its outcome."""
        quad = str(SAMPLES / "demo-quad.json")
        svg_path = tmp_path / "out.svg"
        argvs = (
            ["diam2d", quad, "--svg", str(svg_path)],
            ["ld-count", quad],  # usage error: --k-max is required
            ["oracle", str(SAMPLES / "box-4x2-points.json")],
            ["ld-count", quad, "--k-max", "6", "--fit"],
            ["--help"],
        )

        def outcome(argv):
            try:
                code = cli.run(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            svg = svg_path.read_bytes() if svg_path.exists() else None
            if svg is not None:
                svg_path.unlink()
            return code, captured.out, captured.err, svg

        first = [outcome(argv) for argv in argvs]
        second = [outcome(argv) for argv in argvs]
        assert second == first
        assert [code for code, *_ in first] == [0, 2, 0, 0, 0]
        assert first[0][3] is not None and first[4][1].startswith("usage: latticediam")

    def test_parser_is_built_once_per_process(self):
        assert cli._parsers() is cli._parsers()

    def test_import_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import latticediam.cli\n"
            "print(len(built))\n"
        )
        src = str(Path(cli.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "0\n"


class TestDispatch:
    """run() parses a subcommand's arguments with that subcommand's parser
    alone; every argv gives the full parser's stdout, stderr, exit code and
    files."""

    @staticmethod
    def argvs(quad: str, svg: str) -> list[list[str]]:
        return [
            ["diam2d", quad],
            ["diam2d", quad, "--verify", "--budget", "5000", "--svg", svg],
            ["oracle", quad],
            ["directions", quad, "--budget", "100"],
            ["ld-count", quad, "--k-max", "100", "--format", "json"],
            ["ld", quad, "--k-max", "12", "--fit"],
            ["ld-count", quad, "--k", "7"],
            ["ld-fit", quad, "--k-max", "12"],
            ["borsuk", quad, "--exact", "--node-budget", "50"],
            ["construct", "chamber", "--verify"],
            ["construct", "slope-triangle", "--t", "1", "--x", "3", "--verify"],
            ["hardness-verify", "--a", "1", "--b", "1", "--c", "2"],  # exits 3
            # usage errors and help
            [],
            ["mystery", quad],
            ["-h"],
            ["--help", "diam2d"],
            ["diam2d", "-h"],
            ["ld-count", quad, "--help"],
            ["ld-count", quad],
            ["ld-count", quad, "--k-max", "5", "--format", "xml"],
            ["ld-count", quad, "--k-max", "0"],
            ["diam2d", quad, "--budget", "0"],
            ["diam2d", quad, "extra"],
            ["diam2d", quad, "--k-max", "3"],
            ["--budget", "5", "diam2d", quad],
            ["construct", "cube"],
            ["hardness-verify", "--a", "1"],
            ["ld"],
        ]

    def test_same_as_the_full_parser(self, quad_file, tmp_path, capsys, monkeypatch):
        svg_path = tmp_path / "out.svg"

        def outcome(argv):
            try:
                code = cli.run(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            svg = svg_path.read_bytes() if svg_path.exists() else None
            if svg is not None:
                svg_path.unlink()
            return code, captured.out, captured.err, svg

        argvs = self.argvs(quad_file, str(svg_path))
        direct = [outcome(argv) for argv in argvs]
        monkeypatch.setattr(cli, "_parse", lambda argv: cli._parsers()[0].parse_args(argv))
        full = [outcome(argv) for argv in argvs]
        for argv, got, want in zip(argvs, direct, full):
            assert got == want, argv
        codes = Counter(code for code, *_ in direct)
        assert codes == {0: 15, 2: 12, 3: 1}, codes

    def test_a_subcommand_skips_the_full_parser(self, quad_file, capsys, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the full parser ran")

        monkeypatch.setattr(cli._parsers()[0], "parse_args", refused)
        assert cli.run(["ld", quad_file, "--k-max", "3", "--format", "json"]) == 0
        assert capsys.readouterr().out == '{"counts": [[1, 3], [2, 4], [3, 3]]}\n'
        with pytest.raises(AssertionError, match="full parser"):
            cli.run(["ld-count", quad_file, "--k-max", "3", "stray"])
