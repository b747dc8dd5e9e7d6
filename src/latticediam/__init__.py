"""Exact lattice diameter computations for lattice polygons and point sets.

Everything is integer arithmetic, with Fractions only at report boundaries;
no floats anywhere. The main entry points are compute_diameter (all diameter
lines of a 2D lattice polygon), brute_force_diameter (exact ground truth in
any dimension: a pair scan or a residue-class scan, whichever its cost model
finds cheaper), count_diameter_lines / fit_quasipolynomial (dilation
behavior), the Borsuk partition tools, and the reference constructions.

The public names resolve on first access (PEP 562): importing the package
loads none of its modules, and `from latticediam import compute_diameter`
loads latticediam.diameter and the modules it imports, and no others.
"""

import importlib

__version__ = "0.1.0"

# The public names of each module, re-exported here.
_EXPORTS = {
    "borsuk": (
        "BorsukGraph",
        "BorsukPartition",
        "build_borsuk_graph",
        "exact_borsuk_number",
        "greedy_partition",
    ),
    "constructions": (
        "HardnessCheck",
        "HardnessInstance",
        "PolyConstraint",
        "demo_chamber",
        "direction_maximal_polytope",
        "hardness_instance",
        "hardness_lattice_points",
        "hull_facets",
        "integer_points_of_hull",
        "min_f_on_grid",
        "slope_triangle",
        "vertex_avoiding_polytope",
        "verify_hardness_instance",
    ),
    "core": (
        "Direction",
        "Point",
        "PointSet",
        "Polygon2",
        "RationalPoint",
        "count_lattice_points_polygon",
        "enumerate_lattice_points",
        "segment_lattice_count",
    ),
    "diameter": (
        "DiameterReport",
        "compute_diameter",
        "local_diameter_lines",
    ),
    "dilation": (
        "BlockDecomposition",
        "QuasiPolynomial",
        "chamber_decomposition",
        "count_diameter_lines",
        "fit_quasipolynomial",
    ),
    "documents": (
        "Document",
        "decode_number",
        "document_for_point_set",
        "document_for_polygon",
        "encode_number",
        "load_document",
        "parse_document",
        "point_set_from_document",
        "polygon_from_document",
        "render_document",
    ),
    "errors": (
        "BudgetError",
        "FitError",
        "LatticeDiamError",
        "ParseError",
        "ValidationError",
    ),
    "lines": ("ClippedSegment", "LatticeLine", "clip_line", "lattice_count_on_clip", "nvol"),
    "oracle": (
        "OracleReport",
        "brute_force_diameter",
        "check_rabinowitz",
    ),
    "svg": ("render_diameter_svg",),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str):
    """Import the module that defines a public name, on its first access."""
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
