"""JSON document round trips and validation."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticediam import (
    Document,
    ParseError,
    PointSet,
    ValidationError,
    decode_number,
    document_for_point_set,
    document_for_polygon,
    encode_number,
    load_document,
    parse_document,
    point_set_from_document,
    polygon_from_document,
    render_document,
)

from helpers import QUAD


class TestNumberCodec:
    def test_integers_and_fractions(self):
        assert encode_number(5) == "5"
        assert encode_number(Fraction(17, 3)) == "17/3"
        assert decode_number("5") == 5
        assert decode_number("17/3") == Fraction(17, 3)
        assert decode_number(-4) == -4

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ValidationError):
            encode_number(True)
        with pytest.raises(ParseError):
            decode_number(True)

    def test_bad_strings(self):
        with pytest.raises(ParseError):
            decode_number("five")
        with pytest.raises(ParseError):
            decode_number("1/0")
        with pytest.raises(ParseError):
            decode_number(1.5)

    @pytest.mark.parametrize(
        "raw",
        ["5", "-12", " 5", "+5", "05", "-0", "5_0", "٥", "²", "0x5", "1/0",
         "17/3", "5\n", "-", "", "9" * 5000,
         # exponents up to the int digit limit, and malformed ones
         "1e5", "-2.5E+10", " .5e-3 ", "1_0e1_0", "1.e3", "٣e2", "1e4300", "1e-4300",
         "1e", "e5", "1e_5", "x1e99999", "1/2e3", "1e" + "9" * 5000],
    )
    def test_integer_fast_path_decodes_as_fraction_did(self, raw):
        # canonical integer strings skip Fraction; nothing else may change
        try:
            want = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(ParseError) as got:
                decode_number(raw)
            assert str(got.value) == f"bad number {raw!r}: {exc}"
        else:
            assert decode_number(raw) == want

    @pytest.mark.parametrize("raw", ["1e4301", "-1E-4301", " 2.5e1_000_000 ", "1e99999999999"])
    def test_exponents_past_the_digit_limit_are_refused(self, raw):
        with pytest.raises(ParseError, match="exponent too large"):
            decode_number(raw)

    @given(st.fractions())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, q):
        assert decode_number(encode_number(q)) == q


class TestRendering:
    def test_polygon_document_bytes(self):
        doc = document_for_polygon(QUAD, name="quad")
        text = render_document(doc)
        assert text == (
            '{\n'
            '  "dimension": 2,\n'
            '  "kind": "polygon",\n'
            '  "name": "quad",\n'
            '  "vertices": [\n'
            '    [\n      "0",\n      "0"\n    ],\n'
            '    [\n      "5",\n      "1"\n    ],\n'
            '    [\n      "6",\n      "4"\n    ],\n'
            '    [\n      "1",\n      "3"\n    ]\n'
            '  ]\n'
            '}\n'
        )

    def test_rendering_is_deterministic(self):
        doc = document_for_point_set(PointSet([(2, 1, 0), (0, 0, 0)]))
        assert render_document(doc) == render_document(doc)
        assert render_document(doc).endswith("\n")

    def test_integer_rows_render_as_fraction_rows_did(self):
        # point sets and Polygon2 vertices keep their int tuples as rows; the
        # document equals, hashes and renders as its Fraction-row form
        polygon_rows = (
            (0, 0), (Fraction(5), 1), (Fraction(13, 2), "4"), (1.5, True), (-1, 3)
        )
        cases = [
            (document_for_point_set(PointSet([(2, -1, 0), (0, 0, 7)]), "s"), True),
            (document_for_point_set(PointSet([(-3,), (10**30,)])), True),
            (document_for_polygon(QUAD, name="quad"), True),
            (document_for_polygon(polygon_rows), False),
        ]
        for doc, ints in cases:
            if ints:
                assert all(type(c) is int for row in doc.rows for c in row)
            old = Document(
                kind=doc.kind,
                dimension=doc.dimension,
                rows=tuple(tuple(map(Fraction, row)) for row in doc.rows),
                name=doc.name,
            )
            assert doc == old and hash(doc) == hash(old)
            assert render_document(doc) == render_document(old)
        # a coordinate that is not an int goes through Fraction, as before
        rows = document_for_polygon(polygon_rows).rows
        assert rows == tuple(tuple(map(Fraction, row)) for row in polygon_rows)
        assert [type(c).__name__ for row in rows for c in row] == (
            ["int"] * 2 + ["Fraction", "int"] + ["Fraction"] * 4 + ["int"] * 2
        )

    def test_construction_request_payload(self):
        doc = Document(
            kind="construction_request",
            dimension=3,
            construction="vertex-avoiding",
            params=(("m", "3"),),
        )
        text = render_document(doc)
        assert '"construction": "vertex-avoiding"' in text
        assert '"m": "3"' in text
        assert "vertices" not in text


class TestParsing:
    def test_polygon_round_trip(self):
        doc = document_for_polygon(QUAD, name="quad")
        back = parse_document(render_document(doc))
        assert back == doc
        assert polygon_from_document(back).vertices == QUAD.vertices

    def test_point_set_round_trip(self):
        S = PointSet([(0, 0, 0), (2, 1, 0), (-1, 4, 2)])
        back = point_set_from_document(
            parse_document(render_document(document_for_point_set(S)))
        )
        assert back.points == S.points

    def test_rational_rows_survive(self):
        doc = Document(
            kind="point_set",
            dimension=2,
            rows=((Fraction(1, 3), Fraction(1)), (Fraction(17, 3), Fraction(3))),
        )
        back = parse_document(render_document(doc))
        assert back.rows == doc.rows

    def test_raw_integers_accepted(self):
        back = parse_document(
            '{"kind": "point_set", "dimension": 2, "points": [[0, 1], [2, 3]]}'
        )
        assert back.rows == ((0, 1), (2, 3))

    def test_construction_request_round_trip(self):
        doc = Document(
            kind="construction_request",
            dimension=3,
            construction="hardness",
            params=(("a", "2"), ("b", "2"), ("c", "5")),
        )
        assert parse_document(render_document(doc)) == doc

    def test_error_carries_line_and_column(self):
        with pytest.raises(ParseError, match=r"line 2 column 11"):
            parse_document('{\n  "kind": !,\n}')

    def test_structural_errors(self):
        with pytest.raises(ParseError, match="JSON object"):
            parse_document("[1, 2]")
        with pytest.raises(ParseError, match="kind"):
            parse_document('{"kind": "mystery", "dimension": 2}')
        with pytest.raises(ParseError, match="dimension"):
            parse_document('{"kind": "polygon", "dimension": "2"}')
        with pytest.raises(ParseError, match="dimension"):
            parse_document('{"kind": "polygon", "dimension": true}')
        with pytest.raises(ParseError, match="nonempty"):
            parse_document('{"kind": "polygon", "dimension": 2, "vertices": []}')
        with pytest.raises(ParseError, match="array"):
            parse_document(
                '{"kind": "polygon", "dimension": 2, "vertices": ["0,0"]}'
            )
        with pytest.raises(ParseError, match="name"):
            parse_document(
                '{"kind": "point_set", "dimension": 1, "points": [["0"]],'
                ' "name": 7}'
            )
        with pytest.raises(ParseError, match="construction"):
            parse_document('{"kind": "construction_request", "dimension": 2}')
        with pytest.raises(ParseError, match="params"):
            parse_document(
                '{"kind": "construction_request", "dimension": 2,'
                ' "construction": "chamber", "params": {"m": 3}}'
            )

    def test_row_width_must_match_dimension(self):
        with pytest.raises(ParseError, match="coordinates"):
            parse_document(
                '{"kind": "point_set", "dimension": 3, "points": [["0", "0"]]}'
            )


class TestConversionGuards:
    def test_kind_mismatch(self):
        poly_doc = document_for_polygon(QUAD)
        with pytest.raises(ValidationError):
            point_set_from_document(poly_doc)
        pts_doc = document_for_point_set(PointSet([(0, 0), (1, 1)]))
        with pytest.raises(ValidationError):
            polygon_from_document(pts_doc)

    def test_polygon_must_be_planar(self):
        doc = Document(kind="polygon", dimension=3, rows=((0, 0, 0),) * 0)
        with pytest.raises(ValidationError):
            polygon_from_document(doc)

    def test_integrality_enforced(self):
        doc = Document(
            kind="point_set",
            dimension=2,
            rows=((Fraction(1, 3), Fraction(1)),),
        )
        with pytest.raises(ValidationError, match="integral"):
            point_set_from_document(doc)


class TestLoadDocument:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "quad.json"
        path.write_text(render_document(document_for_polygon(QUAD)))
        assert polygon_from_document(load_document(str(path))).vertices == (
            QUAD.vertices
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_document(str(tmp_path / "absent.json"))


def _doc(kind, dimension, rows):
    key = {"point_set": "points", "polygon": "vertices"}[kind]
    return f'{{"kind": "{kind}", "dimension": {dimension}, "{key}": {rows}}}'


class TestIntegerRows:
    """Rows of canonical integer strings are read in one pass; every other
    document takes the row-by-row path and is refused as it always was."""

    @pytest.mark.parametrize(
        "text, error, message",
        [
            (_doc("point_set", 2, '[["1", "2"], ["3", "x"]]'), ParseError,
             "bad number 'x': Invalid literal for Fraction: 'x'"),
            (_doc("point_set", 2, '[["1", "2"], [true, "4"]]'), ParseError,
             "expected a number, got True"),
            (_doc("point_set", 2, '[["1", "2"], [1.5, "4"]]'), ParseError,
             "expected a string-encoded number, got float"),
            (_doc("point_set", 2, '[["1", "2"], ["1/0", "4"]]'), ParseError,
             "bad number '1/0': Fraction(1, 0)"),
            (_doc("point_set", 2, '[["1,2", "3"]]'), ParseError,
             "bad number '1,2': Invalid literal for Fraction: '1,2'"),
            (_doc("point_set", 2, '[["1", "2"], "3,4"]'), ParseError,
             "each row of 'points' must be an array"),
            (_doc("point_set", 3, '[["1", "2", "3"], ["1", "2"]]'), ParseError,
             "row ('1', '2') does not have 3 coordinates"),
            (_doc("point_set", 0, "[[]]"), ParseError,
             "dimension must be a positive integer"),
            (_doc("point_set", -1, '[["1"]]'), ParseError,
             "dimension must be a positive integer"),
            (_doc("point_set", 2, "[]"), ParseError,
             "point_set document needs a nonempty 'points' array"),
            (_doc("point_set", 2, '[["1", "2"], ["1/3", "4"]]'), ValidationError,
             "row ('1/3', '4') is not integral"),
            (_doc("point_set", 2, '[["1", "2"], [3, "1/2"]]'), ValidationError,
             "row ('3', '1/2') is not integral"),
            (_doc("polygon", 2, '[["0", "0"], ["1", "0"]]'), ValidationError,
             "expected a point_set document, got 'polygon'"),
        ],
    )
    def test_refusals_keep_their_text(self, text, error, message):
        with pytest.raises(error) as got:
            point_set_from_document(parse_document(text))
        assert str(got.value) == message

    @pytest.mark.parametrize(
        "rows, message",
        [
            ('[["0", "0"], ["1", "0"]]', "a polygon needs at least 3 vertices"),
            ('[["0", "0"], ["1", "0"], ["0", "1/2"]]', "row ('0', '1/2') is not integral"),
            ('[["0", "0"], ["0", "1"], ["1", "0"]]',
             "vertices must be strictly convex and counter-clockwise"),
        ],
    )
    def test_polygon_refusals_keep_their_text(self, rows, message):
        with pytest.raises(ValidationError) as got:
            polygon_from_document(parse_document(_doc("polygon", 2, rows)))
        assert str(got.value) == message

    def test_digits_past_the_conversion_limit(self):
        raw = "9" * 5000
        with pytest.raises(ParseError) as got:
            parse_document(_doc("point_set", 1, f'[["{raw}"], ["1"]]'))
        assert str(got.value).startswith(f"bad number {raw!r}: Exceeds the limit")

    def test_empty_and_mistyped_documents(self):
        with pytest.raises(ValidationError, match="^point sets must be nonempty$"):
            point_set_from_document(Document(kind="point_set", dimension=2))
        with pytest.raises(ValidationError, match="^polygon documents must be 2-dimensional$"):
            polygon_from_document(parse_document(_doc("polygon", 3, '[["0", "0", "0"]]')))

    def test_one_pass_read_matches_the_row_path(self, monkeypatch):
        text = _doc(
            "point_set", 3,
            '[["3", "-1", "0"], ["0", "05", "-0"], ["3", "-1", "0"], ["-7", "2", "99999999999999999999"]]',
        )
        want_rows = ((3, -1, 0), (0, 5, 0), (3, -1, 0), (-7, 2, 99999999999999999999))
        S = PointSet(want_rows)
        # the one-pass read decodes no single coordinate and builds the set
        # through the trusted constructor
        import latticediam.documents as documents

        def refused(*args):
            raise AssertionError("decoded coordinate by coordinate")

        monkeypatch.setattr(documents, "decode_number", refused)
        monkeypatch.setattr(PointSet, "__init__", refused)
        doc = parse_document(text)
        assert doc.rows == want_rows
        assert all(type(c) is int for row in doc.rows for c in row)
        got = point_set_from_document(doc)
        monkeypatch.undo()
        assert got == S and got.points == S.points

    def test_mixed_rows_decode_as_before(self):
        doc = parse_document(_doc("point_set", 2, '[["6/3", "1"], [2, "3"], ["+1", " 2"]]'))
        assert doc.rows == ((Fraction(2), 1), (2, 3), (Fraction(1), Fraction(2)))
        assert point_set_from_document(doc).points == ((1, 2), (2, 1), (2, 3))

    def test_strings_int_accepts_but_are_not_canonical(self):
        # int() reads each of these, Fraction too; they keep decoding as
        # decode_number reads them one by one
        raw = [["+1", " 2"], ["3\n", "4"], ["\u0665", "-6"]]
        doc = parse_document(_doc("point_set", 2, json.dumps(raw)))
        want = tuple(tuple(decode_number(c) for c in row) for row in raw)
        assert doc.rows == want
        assert [type(c) for row in doc.rows for c in row] == [
            type(c) for row in want for c in row
        ]
        assert type(doc.rows[0][0]) is Fraction


def _rendered_by_json(doc):
    """render_document as it was: the whole payload through json.dumps."""
    payload = {"kind": doc.kind, "dimension": doc.dimension}
    if doc.kind == "construction_request":
        payload["construction"] = doc.construction
        payload["params"] = dict(doc.params)
    else:
        key = "vertices" if doc.kind == "polygon" else "points"
        payload[key] = [[encode_number(c) for c in row] for row in doc.rows]
    if doc.name:
        payload["name"] = doc.name
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestRenderingBytes:
    def test_every_sample(self):
        from pathlib import Path

        samples = sorted((Path(__file__).resolve().parent.parent / "sample_inputs").glob("*.json"))
        assert samples
        for path in samples:
            doc = load_document(str(path))
            assert render_document(doc) == _rendered_by_json(doc), path.name

    @pytest.mark.parametrize(
        "doc",
        [
            document_for_polygon(
                ((Fraction(1, 3), 1), (1, 3), (Fraction(17, 3), Fraction(3)), (5, 1)),
                name="chamber",
            ),
            document_for_point_set(PointSet([(-(10**40),), (0,), (7,)]), name="naïve \"q\""),
            document_for_point_set(PointSet([(1, 2, 3, 4), (0, 0, 0, -1)])),
            Document(kind="point_set", dimension=2, rows=((Fraction(1, 2), 3), (4, 5))),
            Document(kind="polygon", dimension=3),
            Document(
                kind="construction_request", dimension=3, construction="hardness",
                params=(("a", "2"), ("c", "5")), name="gadget",
            ),
        ],
    )
    def test_matches_json_dumps(self, doc):
        assert render_document(doc) == _rendered_by_json(doc)

    def test_unencodable_coordinates_are_refused(self):
        for bad in (True, 1.5):
            doc = Document(kind="point_set", dimension=2, rows=((bad, 0),))
            with pytest.raises(ValidationError, match="cannot encode"):
                render_document(doc)
