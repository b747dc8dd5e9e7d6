"""What each entry point loads: the package namespace resolves its names on
first access, and the command line loads only what a subcommand uses."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latticediam

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

# modules of the 2D, dilation, Borsuk, construction and SVG paths
COMPUTE = {f"latticediam.{m}" for m in (
    "borsuk", "oracle", "constructions", "diameter", "dilation", "lines", "svg"
)}


def fresh(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC}, cwd=ROOT,
    )


def imported(done: subprocess.CompletedProcess) -> set[str]:
    """The modules a run under -X importtime imported, named on its stderr."""
    return {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_cli_import_loads_no_compute_module_and_no_fractions():
    done = fresh(
        "-c",
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import latticediam.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n",
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert "latticediam.cli" in loaded and "latticediam.documents" in loaded
    assert not loaded & (COMPUTE | {"fractions", "decimal"})


def test_oracle_on_an_integer_document_loads_no_fractions():
    done = fresh(
        "-X", "importtime", "-m", "latticediam", "oracle",
        "sample_inputs/box-4x2-points.json",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ldiam=4 segments=3 directions=1\ndirection=(1,0)\n"
    loaded = imported(done)
    assert "latticediam.oracle" in loaded
    assert not loaded & {"fractions", "decimal"}
    assert not loaded & (COMPUTE - {"latticediam.oracle"})


@pytest.mark.parametrize("command, out", [
    ("oracle", "ldiam=4 segments=3 directions=1\ndirection=(1,0)\n"),
    ("borsuk", "parts=2 bound=2^2=4\n"),
])
def test_oracle_and_borsuk_on_a_polygon_load_no_2d_module(command, out):
    # the lattice points of a polygon are read from its level pieces, which
    # live in core: no diameter, lines or svg module, and no fractions
    done = fresh(
        "-X", "importtime", "-m", "latticediam", command, "sample_inputs/demo-quad.json"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(out)
    loaded = imported(done)
    assert {"latticediam.core", "latticediam.oracle"} <= loaded
    assert not loaded & {"fractions", "decimal"}
    assert not loaded & {f"latticediam.{m}" for m in ("diameter", "lines", "svg")}


def test_hardness_verify_loads_no_fractions():
    # the gadget's y range is an integer pair, so no Fraction is built
    done = fresh(
        "-X", "importtime", "-m", "latticediam", "hardness-verify",
        "--a", "3", "--b", "5", "--c", "7",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "Z=12 min_f=1 ldiam=11 points=63 direction_ok=True equivalence_ok=True\n"
    )
    loaded = imported(done)
    assert "latticediam.constructions" in loaded
    assert not loaded & {"fractions", "decimal"}


def test_every_public_name_is_its_defining_module_object():
    assert set(latticediam.__all__) == set(latticediam._MODULE_OF) | {"__version__"}
    listed = dir(latticediam)
    for name, module in latticediam._MODULE_OF.items():
        owner = importlib.import_module(f"latticediam.{module}")
        assert getattr(latticediam, name) is getattr(owner, name), name
        assert name in listed
    assert "__version__" in listed
    star: dict = {}
    exec("from latticediam import *", star)
    assert set(star) - {"__builtins__"} == set(latticediam.__all__)


# names with no caller, deleted from the package and from their modules
DELETED = {
    "ComponentClass": "borsuk",
    "classify_components": "borsuk",
    "conv_is_cube": "borsuk",
    "lattice_width": "core",
    "diameter_directions": "oracle",
    "OppositePair": "diameter",
    "opposite_pairs": "diameter",
    "u_diameter_line": "diameter",
}


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_are_gone(name):
    module = importlib.import_module(f"latticediam.{DELETED[name]}")
    assert name not in latticediam.__all__ and name not in module.__all__
    assert not hasattr(module, name)
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(latticediam, name)


def test_unknown_names_and_submodules():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        latticediam.no_such_name
    from latticediam import svg  # a submodule, not a re-exported name

    assert svg is sys.modules["latticediam.svg"]
