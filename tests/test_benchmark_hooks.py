"""The package names that the benchmark's tracer (perfbench/spans.py) patches
must keep resolving, or the traced runs lose their per-layer figures."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    assert len(spans.TARGETS) > 10
    for mod, attr, _ in spans.TARGETS:
        module = importlib.import_module(f"latticediam.{mod}")
        assert callable(getattr(module, attr)), f"latticediam.{mod}.{attr}"


def test_the_oracle_looks_up_gcd_in_its_module():
    oracle = importlib.import_module("latticediam.oracle")
    assert callable(oracle.gcd)
