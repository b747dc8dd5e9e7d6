"""The immutable value classes: constructors, equality, hash, repr, frozenness
and order, as the frozen dataclasses they replace behaved; and the import of
the command line, which must not load dataclasses or inspect."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from latticediam import (
    BlockDecomposition,
    BorsukGraph,
    BorsukPartition,
    DiameterReport,
    Direction,
    Document,
    HardnessCheck,
    HardnessInstance,
    LatticeLine,
    OracleReport,
    ParseError,
    PointSet,
    PolyConstraint,
    Polygon2,
    QuasiPolynomial,
)
from latticediam.lines import ClippedSegment

X = Direction((1, 0))
LINE = LatticeLine((0, 1), X)
SEGMENT = ClippedSegment(
    a=(Fraction(1, 3), Fraction(1)), b=(Fraction(5), Fraction(1)), line=LINE,
    t1=Fraction(1, 3), t2=Fraction(5),
)
PAIR = PointSet([(1, 0), (0, 0)])
CONSTRAINT = PolyConstraint(terms=((1, (1, 0, 0)),), rhs=2)

# class, keyword arguments, the fields they store (in order), exact repr
CASES = [
    (Direction, {"vec": (2, -4)}, ((1, -2),), "Direction((1, -2))"),
    (
        Polygon2, {"vertices": ((0, 0), (1, 0), (0, 1))},
        (((0, 0), (1, 0), (0, 1)),),
        "Polygon2(vertices=((0, 0), (1, 0), (0, 1)))",
    ),
    (PointSet, {"points": [(1, 0), (0, 0)]}, (((0, 0), (1, 0)),),
     "PointSet(points=((0, 0), (1, 0)))"),
    (
        LatticeLine, {"base": (3, 1), "dir": (-2, 0)}, ((0, 1), X),
        "LatticeLine(base=(0, 1), dir=Direction((1, 0)))",
    ),
    (
        ClippedSegment,
        {"a": SEGMENT.a, "b": SEGMENT.b, "line": LINE, "t1": Fraction(1, 3),
         "t2": Fraction(5)},
        (SEGMENT.a, SEGMENT.b, LINE, Fraction(1, 3), Fraction(5)),
        "ClippedSegment(a=(Fraction(1, 3), Fraction(1, 1)), "
        "b=(Fraction(5, 1), Fraction(1, 1)), "
        "line=LatticeLine(base=(0, 1), dir=Direction((1, 0))), "
        "t1=Fraction(1, 3), t2=Fraction(5, 1))",
    ),
    (
        DiameterReport,
        {"ldiam": 4, "lines": (LINE,), "directions": (X,),
         "representative_segments": (SEGMENT,)},
        (4, (LINE,), (X,), (SEGMENT,)),
        f"DiameterReport(ldiam=4, lines=({LINE!r},), directions=(Direction((1, 0)),), "
        f"representative_segments=({SEGMENT!r},))",
    ),
    (
        QuasiPolynomial,
        {"period": 2, "pieces": ((Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(3, 2))),
         "valid_from": 1},
        (2, ((Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(3, 2))), 1),
        "QuasiPolynomial(period=2, pieces=((Fraction(1, 1), Fraction(0, 1)), "
        "(Fraction(1, 2), Fraction(3, 2))), valid_from=1)",
    ),
    (
        BlockDecomposition, {"q": 3, "w": 2, "per_residue": ((1, 1, 1), (3, 0, 0))},
        (3, 2, ((1, 1, 1), (3, 0, 0))),
        "BlockDecomposition(q=3, w=2, per_residue=((1, 1, 1), (3, 0, 0)))",
    ),
    (
        OracleReport,
        {"ldiam": 1, "segments": (((0, 0), (1, 0)),), "directions": (X,)},
        (1, (((0, 0), (1, 0)),), (X,)),
        "OracleReport(ldiam=1, segments=(((0, 0), (1, 0)),), "
        "directions=(Direction((1, 0)),))",
    ),
    (
        BorsukGraph, {"vertices": PAIR, "edges": (((0, 0), (1, 0)),), "diam": 1},
        (PAIR, (((0, 0), (1, 0)),), 1),
        "BorsukGraph(vertices=PointSet(points=((0, 0), (1, 0))), "
        "edges=(((0, 0), (1, 0)),), diam=1)",
    ),
    (
        BorsukPartition,
        {"parts": (PointSet([(0, 0)]), PointSet([(1, 0)])), "labels": {(0, 0): 0, (1, 0): 1}},
        ((PointSet([(0, 0)]), PointSet([(1, 0)])), {(0, 0): 0, (1, 0): 1}),
        "BorsukPartition(parts=(PointSet(points=((0, 0),)), PointSet(points=((1, 0),))), "
        "labels={(0, 0): 0, (1, 0): 1})",
    ),
    (PolyConstraint, {"terms": ((1, (1, 0, 0)),), "rhs": 2}, (((1, (1, 0, 0)),), 2),
     "PolyConstraint(terms=((1, (1, 0, 0)),), rhs=2)"),
    (
        HardnessInstance,
        {"a": 2, "b": 2, "c": 5, "dim": 3, "Z": 9, "x_range": (1, 4),
         "y_range": (0, 7), "base_point": (1, 0),
         "constraints": (CONSTRAINT,)},
        (2, 2, 5, 3, 9, (1, 4), (0, 7), (1, 0), (CONSTRAINT,)),
        "HardnessInstance(a=2, b=2, c=5, dim=3, Z=9, x_range=(1, 4), "
        "y_range=(0, 7), base_point=(1, 0), "
        "constraints=(PolyConstraint(terms=((1, (1, 0, 0)),), rhs=2),))",
    ),
    (
        HardnessCheck,
        {"ldiam": 9, "z": 9, "min_f": 0, "n_points": 68, "direction_ok": True,
         "equivalence_ok": False},
        (9, 9, 0, 68, True, False),
        "HardnessCheck(ldiam=9, z=9, min_f=0, n_points=68, direction_ok=True, "
        "equivalence_ok=False)",
    ),
    (
        Document,
        {"kind": "point_set", "dimension": 2, "rows": ((0, 0), (Fraction(1, 2), 3)),
         "name": "n", "construction": "c", "params": (("m", "2"),)},
        ("point_set", 2, ((0, 0), (Fraction(1, 2), 3)), "n", "c", (("m", "2"),)),
        "Document(kind='point_set', dimension=2, rows=((0, 0), (Fraction(1, 2), 3)), "
        "name='n', construction='c', params=(('m', '2'),))",
    ),
]

IDS = [case[0].__name__ for case in CASES]
UNHASHABLE = (BorsukPartition,)  # it holds a dict


def fields_of(obj, names):
    return tuple(getattr(obj, name) for name in names)


@pytest.mark.parametrize("cls, kwargs, fields, text", CASES, ids=IDS)
class TestValueClass:
    def test_fields_and_positional_constructor(self, cls, kwargs, fields, text):
        by_keyword = cls(**kwargs)
        by_position = cls(*kwargs.values())
        assert fields_of(by_keyword, kwargs) == fields
        assert fields_of(by_position, kwargs) == fields
        assert by_keyword == by_position

    def test_equal_within_its_class_only(self, cls, kwargs, fields, text):
        obj = cls(**kwargs)
        assert obj == cls(**kwargs)
        assert not obj != cls(**kwargs)
        assert obj.__eq__(fields) is NotImplemented
        assert obj != fields

        class Sub(cls):
            pass

        assert obj.__eq__(Sub(**kwargs)) is NotImplemented
        assert obj != Sub(**kwargs)

    def test_hash_is_the_hash_of_the_fields(self, cls, kwargs, fields, text):
        obj = cls(**kwargs)
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(obj)
        else:
            assert hash(obj) == hash(fields)
            assert hash(obj) == hash(cls(**kwargs))

    def test_repr(self, cls, kwargs, fields, text):
        assert repr(cls(**kwargs)) == text

    def test_fields_cannot_be_set_or_deleted(self, cls, kwargs, fields, text):
        obj = cls(**kwargs)
        for name in kwargs:
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert fields_of(obj, kwargs) == fields


def test_every_value_class_has_a_case():
    import importlib
    import pkgutil

    import latticediam
    from latticediam.frozen import Frozen, Ordered

    found = set()
    for info in pkgutil.iter_modules(latticediam.__path__):
        module = importlib.import_module(f"latticediam.{info.name}")
        found |= {
            obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, Frozen)
            and obj.__module__ == module.__name__
        }
    assert found - {Frozen, Ordered} == {case[0] for case in CASES}


def test_two_classes_with_equal_fields_differ():
    assert BlockDecomposition(1, 2, ()) != QuasiPolynomial(1, 2, ())


class TestOrder:
    def test_directions_order_by_their_vectors(self):
        vecs = [(1, 1), (0, 1), (1, -3), (2, 1), (1, 0)]
        dirs = [Direction(v) for v in vecs]
        assert [d.vec for d in sorted(dirs)] == sorted(vecs)
        a, b = Direction((0, 1)), Direction((1, 0))
        assert a < b and a <= b and b > a and b >= a
        assert a <= Direction((0, 1)) and a >= Direction((0, 1))
        assert not a < Direction((0, 1)) and not a > Direction((0, 1))

    def test_lines_order_by_base_then_direction(self):
        lines = [
            LatticeLine((0, 0), (1, 1)),
            LatticeLine((0, 0), (0, 1)),
            LatticeLine((0, 5), (1, 0)),
            LatticeLine((1, 0), (0, 1)),
            LatticeLine((-1, 3), (1, 2)),
        ]
        want = sorted(lines, key=lambda line: (line.base, line.dir.vec))
        assert sorted(lines) == want
        a, b = lines[1], lines[0]  # same base (0, 0), directions (0, 1) < (1, 1)
        assert a < b and a <= b and b > a and b >= a
        assert a <= LatticeLine((0, 7), (0, 1)) and a >= LatticeLine((0, 7), (0, 1))

    @pytest.mark.parametrize("obj", [Direction((1, 0)), LatticeLine((0, 0), (1, 0))])
    def test_no_order_across_classes(self, obj):
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(obj, op)((1, 0)) is NotImplemented
        with pytest.raises(TypeError):
            obj < (1, 0)
        with pytest.raises(TypeError):
            Direction((1, 0)) < LatticeLine((0, 0), (1, 0))

    def test_unordered_classes(self):
        with pytest.raises(TypeError):
            PointSet([(0, 0)]) < PointSet([(1, 0)])


class TestDocument:
    def test_defaults(self):
        doc = Document("polygon", 2)
        assert (doc.rows, doc.name, doc.construction, doc.params) == ((), "", "", ())
        assert doc == Document(kind="polygon", dimension=2)

    def test_keyword_construction(self):
        doc = Document(dimension=1, kind="point_set", name="x", rows=((3,),))
        names = ("kind", "dimension", "rows", "name", "construction", "params")
        assert fields_of(doc, names) == ("point_set", 1, ((3,),), "x", "", ())

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"kind": "circle", "dimension": 2}, "unknown document kind 'circle'"),
            ({"kind": "polygon", "dimension": 0}, "dimension must be a positive integer"),
            ({"kind": "polygon", "dimension": "2"}, "dimension must be a positive integer"),
            (
                {"kind": "polygon", "dimension": 2, "rows": ((1, 2), (Fraction(1, 3),))},
                "row ('1/3',) does not have 2 coordinates",
            ),
        ],
    )
    def test_parse_errors(self, kwargs, message):
        with pytest.raises(ParseError) as got:
            Document(**kwargs)
        assert str(got.value) == message

    def test_missing_arguments(self):
        with pytest.raises(TypeError):
            Document("polygon")
        with pytest.raises(TypeError):
            Document("polygon", 2, (), "", "", (), "extra")


def test_borsuk_graph_caches_do_not_change_its_value():
    # the neighbour map is set once, in __init__, and is not a field
    graph = BorsukGraph(PAIR, (((0, 0), (1, 0)),), 1)
    assert graph.neighbours == {(0, 0): {(1, 0)}, (1, 0): {(0, 0)}}
    assert graph.max_degree() == 1
    with pytest.raises(AttributeError):
        graph.neighbours = {}
    twin = BorsukGraph(PAIR, (((0, 0), (1, 0)),), 1)
    assert graph.neighbours is not twin.neighbours
    assert graph == twin and hash(graph) == hash(twin) and repr(graph) == repr(twin)
    assert graph._values == (PAIR, (((0, 0), (1, 0)),), 1)
    loner = BorsukGraph(PointSet([(0, 0)]), (), 0)
    assert loner.neighbours == {} and loner.max_degree() == 0


def test_cli_import_loads_no_dataclasses_or_inspect():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import latticediam.cli\n"
        "print(sorted((set(sys.modules) - before) & {'dataclasses', 'inspect'}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True,
        timeout=60, env=os.environ,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
