"""JSON document format for polygons, point sets and construction requests.

One schema for all inputs and outputs: {"kind", "dimension", coordinate rows,
optional "name"}. Coordinates travel as strings ("5", "17/3") so that every
value survives a round trip exactly; raw JSON integers are accepted on input
for convenience but never emitted. In memory an int coordinate stays an
int, so the rows of a point set are its own point tuples. A document whose
coordinates are all canonical integer strings is read, checked and rendered
without loading fractions.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import chain
from typing import TYPE_CHECKING, Sequence

from .core import Polygon2, PointSet
from .errors import ParseError, ValidationError
from .frozen import Frozen

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "Document",
    "encode_number",
    "decode_number",
    "document_for_polygon",
    "document_for_point_set",
    "parse_document",
    "render_document",
    "load_document",
    "polygon_from_document",
    "point_set_from_document",
]

KINDS = ("polygon", "point_set", "construction_request")

_INTEGER = re.compile(r"-?[0-9]+")
# the coordinate strings of whole rows, joined by commas
_INTEGERS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")
# a decimal string with an exponent, in the grammar Fraction reads
_SCIENTIFIC = re.compile(r"\s*[-+]?(?=\d|\.\d)\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?"
                         r"[eE]([-+]?\d+(?:_\d+)*)\s*")


def encode_number(v: int | Fraction) -> str:
    if type(v) is not int:
        from fractions import Fraction

        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise ValidationError(f"cannot encode {v!r} exactly")
    return str(v)


def decode_number(raw: object) -> int | Fraction:
    """Exact value of a document coordinate ("5", "17/3", or a JSON int).

    JSON ints and canonical integer strings (ASCII -?[0-9]+) decode to int;
    every other string goes through Fraction, which accepts and refuses
    exactly what it always has, except an exponent past the int digit
    limit, refused before Fraction expands it.
    """
    if isinstance(raw, bool):
        raise ParseError(f"expected a number, got {raw!r}")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        try:
            if _INTEGER.fullmatch(raw):
                return int(raw)
            from fractions import Fraction

            scientific = _SCIENTIFIC.fullmatch(raw)
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
            if scientific and abs(int(scientific[1])) > limit:
                raise ValueError("exponent too large")
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad number {raw!r}: {exc}") from None
    raise ParseError(f"expected a string-encoded number, got {type(raw).__name__}")


class Document(Frozen):
    """A parsed input file: coordinate rows plus enough context to rebuild it."""

    _fields = ("kind", "dimension", "rows", "name", "construction", "params")

    def __init__(
        self,
        kind: str,
        dimension: int,
        rows: tuple[tuple[int | Fraction, ...], ...] = (),
        name: str = "",
        construction: str = "",
        params: tuple[tuple[str, str], ...] = (),
    ):
        if kind not in KINDS:
            raise ParseError(f"unknown document kind {kind!r}")
        if not isinstance(dimension, int) or dimension < 1:
            raise ParseError("dimension must be a positive integer")
        for row in rows:
            if len(row) != dimension:
                raise ParseError(
                    f"row {tuple(map(str, row))} does not have {dimension} coordinates"
                )
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "construction", construction)
        object.__setattr__(self, "params", params)


def document_for_polygon(
    vertices: Polygon2 | Sequence[Sequence[int | Fraction]], name: str = ""
) -> Document:
    if isinstance(vertices, Polygon2):
        rows = vertices.vertices
    else:
        from fractions import Fraction

        rows = tuple(
            tuple(c if type(c) is int else Fraction(c) for c in v) for v in vertices
        )
    return Document(kind="polygon", dimension=2, rows=rows, name=name)


def document_for_point_set(points: PointSet, name: str = "") -> Document:
    rows = points.points
    return Document(kind="point_set", dimension=points.dim, rows=rows, name=name)


_ROW_KEY = {"polygon": "vertices", "point_set": "points"}


def _render_rows(rows: tuple[tuple[int | Fraction, ...], ...], dimension: int) -> str:
    """The rows as json.dumps(indent=2) writes them one level down, in one
    string format: json.dumps runs its pure Python encoder whenever indent
    is set, about 7 us a point. Every row has `dimension` coordinates, and
    an encoded number needs no JSON escapes."""
    if not rows:
        return "[]"
    coords = tuple(chain.from_iterable(rows))
    types = set(map(type, coords))
    if types != {int}:
        from fractions import Fraction

        if not types <= {int, Fraction}:  # encode_number refuses or converts
            coords = tuple(map(encode_number, coords))
    row = '    [\n      "' + '",\n      "'.join(["%s"] * dimension) + '"\n    ]'
    return "[\n" + ",\n".join([row] * len(rows)) % coords + "\n  ]"


def render_document(doc: Document) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    The coordinate rows come last, since "points" and "vertices" sort after
    every other key, and are written by _render_rows.
    """
    payload: dict[str, object] = {"kind": doc.kind, "dimension": doc.dimension}
    if doc.name:
        payload["name"] = doc.name
    if doc.kind == "construction_request":
        payload["construction"] = doc.construction
        payload["params"] = {k: v for k, v in doc.params}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    head = json.dumps(payload, indent=2, sort_keys=True)[:-2]  # drop "\n}"
    rows = _render_rows(doc.rows, doc.dimension)
    return f'{head},\n  "{_ROW_KEY[doc.kind]}": {rows}\n}}\n'


def parse_document(text: str) -> Document:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:  # an over-long int, deep nesting
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ParseError("document must be a JSON object")
    kind = payload.get("kind")
    if kind not in KINDS:
        raise ParseError(f"unknown document kind {kind!r}")
    dimension = payload.get("dimension")
    if isinstance(dimension, bool) or not isinstance(dimension, int):
        raise ParseError("dimension must be an integer")
    name = payload.get("name", "")
    if not isinstance(name, str):
        raise ParseError("name must be a string")
    if kind == "construction_request":
        construction = payload.get("construction")
        params = payload.get("params", {})
        if not isinstance(construction, str) or not construction:
            raise ParseError("construction_request needs a construction name")
        if not isinstance(params, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in params.items()
        ):
            raise ParseError("params must map strings to string-encoded values")
        return Document(
            kind=kind,
            dimension=dimension,
            name=name,
            construction=construction,
            params=tuple(sorted(params.items())),
        )
    key = _ROW_KEY[kind]
    raw_rows = payload.get(key)
    if not isinstance(raw_rows, list) or not raw_rows:
        raise ParseError(f"{kind} document needs a nonempty {key!r} array")
    rows = _integer_rows(raw_rows, dimension)
    if rows is None:
        rows = []
        for raw in raw_rows:
            if not isinstance(raw, list):
                raise ParseError(f"each row of {key!r} must be an array")
            rows.append(tuple(decode_number(c) for c in raw))
    return Document(kind=kind, dimension=dimension, rows=tuple(rows), name=name)


def _integer_rows(raw_rows: list, dimension: int) -> list[tuple[int, ...]] | None:
    """The rows as int tuples, read in one pass when every row is an array of
    `dimension` canonical integer strings; None otherwise, and the caller
    decodes row by row, refusing what it always has. One regex match checks
    every coordinate of the comma-joined rows; a string holding a comma
    passes it but fails int(), as does one too long to convert."""
    if set(map(type, raw_rows)) != {list} or set(map(len, raw_rows)) != {dimension}:
        return None
    try:
        if not _INTEGERS.fullmatch(",".join(chain.from_iterable(raw_rows))):
            return None
        coords = map(int, chain.from_iterable(raw_rows))
        return list(zip(*[coords] * dimension))
    except (TypeError, ValueError):
        return None


def load_document(path: str) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    return parse_document(text)


def _integral_rows(doc: Document) -> Sequence[tuple[int, ...]]:
    if set(map(type, chain.from_iterable(doc.rows))) == {int}:
        return doc.rows
    out = []
    for row in doc.rows:
        if any(c.denominator != 1 for c in row):
            raise ValidationError(f"row {tuple(map(str, row))} is not integral")
        out.append(tuple(int(c) for c in row))
    return out


def polygon_from_document(doc: Document) -> Polygon2:
    if doc.kind != "polygon":
        raise ValidationError(f"expected a polygon document, got {doc.kind!r}")
    if doc.dimension != 2:
        raise ValidationError("polygon documents must be 2-dimensional")
    return Polygon2(tuple(_integral_rows(doc)))


def point_set_from_document(doc: Document) -> PointSet:
    if doc.kind != "point_set":
        raise ValidationError(f"expected a point_set document, got {doc.kind!r}")
    rows = _integral_rows(doc)
    if not rows:
        raise ValidationError("point sets must be nonempty")
    # every row has doc.dimension coordinates, checked by Document
    return PointSet._sorted(sorted(set(rows)))
