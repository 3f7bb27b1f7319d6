"""The contract of the fourteen value types: frozen, slotted, compared and copied by field."""

import copy
import math
import os
import pickle
import subprocess
import sys

import pytest

import simnorm
from simnorm import (
    AngleClass,
    AngleTriple,
    Point,
    QuadNormalForm,
    Quadrilateral,
    SideClass,
    SideLengths,
    SimilarityTransform,
    Tolerance,
    Triangle,
    TriangleClass,
)
from simnorm.figures import Arc, FigurePanel, Marker, Region, Segment

P, Q, R, S = Point(0.0, 0.0), Point(2.0, 0.0), Point(2.0, 2.0), Point(0.0, 2.0)
EDGE, MARK = Segment(0.0, 0.0, 1.0, 0.0), Marker(0.5, 1.0, "apex", "point")
EDGE_TEXT = "Segment(x1=0.0, y1=0.0, x2=1.0, y2=0.0)"

# (make a fresh value, its repr, its fields in constructor order)
CASES = [
    (lambda: Point(1.0, -2.5), "Point(x=1.0, y=-2.5)", (1.0, -2.5)),
    (lambda: Tolerance(), "Tolerance(eps=1e-09)", (1e-9,)),
    (
        lambda: SimilarityTransform(-2.0 + 0.5j, 1, True),
        "SimilarityTransform(a=(-2+0.5j), b=(1+0j), reflect=True)",
        (complex(-2.0, 0.5), complex(1.0, 0.0), True),
    ),
    (
        lambda: Triangle.of(P, Q, R),
        "Triangle(vertices=(Point(x=0.0, y=0.0), Point(x=2.0, y=0.0), Point(x=2.0, y=2.0)))",
        ((P, Q, R),),
    ),
    (lambda: SideLengths.of(5.0, 3.0, 4.0), "SideLengths(a=3.0, b=4.0, c=5.0)", (3.0, 4.0, 5.0)),
    (
        lambda: AngleTriple(1.0, 0.5, math.pi - 1.5),
        "AngleTriple(alpha=0.5, beta=1.0, gamma=1.6415926535897931)",
        (0.5, 1.0, math.pi - 1.5),
    ),
    (
        lambda: TriangleClass(AngleClass.RIGHT, SideClass.SCALENE),
        "TriangleClass(angle_class=<AngleClass.RIGHT: 'right'>, "
        "side_class=<SideClass.SCALENE: 'scalene'>)",
        (AngleClass.RIGHT, SideClass.SCALENE),
    ),
    (
        lambda: Quadrilateral.of(P, Q, R, S),
        "Quadrilateral(vertices=(Point(x=0.0, y=0.0), Point(x=2.0, y=0.0), "
        "Point(x=2.0, y=2.0), Point(x=0.0, y=2.0)))",
        ((P, Q, R, S),),
    ),
    (
        lambda: QuadNormalForm(Point(0.5, 0.5), Point(0.5, -0.5)),
        "QuadNormalForm(c=Point(x=0.5, y=0.5), d=Point(x=0.5, y=-0.5))",
        (Point(0.5, 0.5), Point(0.5, -0.5)),
    ),
    (lambda: Segment(0.0, 0.0, 1.0, 0.0), EDGE_TEXT, (0.0, 0.0, 1.0, 0.0)),
    (
        lambda: Arc(0.5, 0.0, r=0.5, t0=0.0, t1=1.5),
        "Arc(cx=0.5, cy=0.0, r=0.5, t0=0.0, t1=1.5)",
        (0.5, 0.0, 0.5, 0.0, 1.5),
    ),
    (
        lambda: Marker(0.5, 1.0, "apex", "point"),
        "Marker(x=0.5, y=1.0, label='apex', role='point')",
        (0.5, 1.0, "apex", "point"),
    ),
    (
        lambda: Region(outline=(EDGE,), label="acute"),
        f"Region(label='acute', outline=({EDGE_TEXT},))",
        ("acute", (EDGE,)),
    ),
    (
        lambda: FigurePanel("plane", (0.0, 0.0, 1.0, 1.0), (EDGE,), (), (), (MARK,), "a caption"),
        f"FigurePanel(space='plane', viewport=(0.0, 0.0, 1.0, 1.0), boundary=({EDGE_TEXT},), "
        f"right_locus=(), regions=(), markers=({MARK!r},), caption='a caption')",
        ("plane", (0.0, 0.0, 1.0, 1.0), (EDGE,), (), (), (MARK,), "a caption"),
    ),
]
IDS = [text.split("(", 1)[0] for _, text, _ in CASES]


@pytest.mark.parametrize("make, text, fields", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(make, text, fields):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text, fields", CASES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(make, text, fields):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(fields)
    assert a.__eq__(fields) is NotImplemented
    assert a != fields


def test_values_of_different_classes_never_compare_equal():
    values = [make() for make, _, _ in CASES]
    for i, a in enumerate(values):
        for b in values[i + 1 :]:
            assert a != b and b != a

    class Marked(Point):
        pass

    assert Point(1.0, 2.0) != Marked(1.0, 2.0)
    assert Marked(1.0, 2.0) == Marked(1.0, 2.0)


@pytest.mark.parametrize("make, text, fields", CASES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(make, text, fields):
    value = make()
    name = type(value).__match_args__[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, fields[0])
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")
    assert getattr(value, name) == fields[0]


@pytest.mark.parametrize("make, text, fields", CASES, ids=IDS)
def test_copy_deepcopy_and_pickle_round_trip(make, text, fields):
    value = make()
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value) and back == value and repr(back) == text


@pytest.mark.parametrize("make, text, fields", CASES, ids=IDS)
def test_positional_match_patterns(make, text, fields):
    match make():
        case Point(x, y):
            got = (x, y)
        case Tolerance(eps):
            got = (eps,)
        case SimilarityTransform(a, b, reflect):
            got = (a, b, reflect)
        case Triangle(vertices) | Quadrilateral(vertices):
            got = (vertices,)
        case SideLengths(a, b, c):
            got = (a, b, c)
        case AngleTriple(alpha, beta, gamma):
            got = (alpha, beta, gamma)
        case TriangleClass(angle_class, side_class):
            got = (angle_class, side_class)
        case QuadNormalForm(c, d):
            got = (c, d)
        case Segment(x1, y1, x2, y2):
            got = (x1, y1, x2, y2)
        case Arc(cx, cy, r, t0, t1):
            got = (cx, cy, r, t0, t1)
        case Marker(x, y, label, role):
            got = (x, y, label, role)
        case Region(label, outline):
            got = (label, outline)
        case FigurePanel(space, viewport, boundary, right_locus, regions, markers, caption):
            got = (space, viewport, boundary, right_locus, regions, markers, caption)
    assert got == fields


def test_the_shared_constructor_fills_fields_by_position_then_by_name():
    assert Segment(0.0, 0.0, y2=0.0, x2=1.0) == Segment(y1=0.0, x2=1.0, x1=0.0, y2=0.0) == EDGE
    right = TriangleClass(side_class=SideClass.SCALENE, angle_class=AngleClass.RIGHT)
    assert right == TriangleClass(AngleClass.RIGHT, SideClass.SCALENE)


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((0.0, 0.0, 1.0), {}),
        ((), {"x1": 0.0, "y1": 0.0, "x2": 1.0}),
        ((0.0, 0.0, 1.0, 0.0, 2.0), {}),
        ((0.0, 0.0, 1.0, 0.0), {"z": 0.0}),
        ((0.0, 0.0, 1.0), {"z": 0.0}),
        ((0.0, 0.0, 1.0), {"x1": 0.0}),
        ((0.0, 0.0, 1.0), {"x1": 0.0, "y2": 0.0}),
    ],
    ids=[
        "too-few", "too-few-by-name", "too-many", "unknown", "unknown-for-missing",
        "repeated", "repeated-and-missing-filled",
    ],
)
def test_the_shared_constructor_rejects_missing_extra_and_unknown_fields(args, kwargs):
    with pytest.raises(TypeError, match=r"Segment\(\) takes each of \('x1', 'y1', 'x2', 'y2'\) once"):
        Segment(*args, **kwargs)


@pytest.mark.parametrize("module", ["simnorm.cli", "simnorm.figures"])
def test_cli_import_loads_neither_dataclasses_nor_inspect(module):
    # -S keeps site hooks from loading them on the package's behalf; with
    # simnorm.figures, that covers every module of the package
    src = os.path.dirname(os.path.dirname(simnorm.__file__))
    proc = subprocess.run(
        [
            sys.executable,
            "-S",
            "-c",
            f"import sys, {module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
