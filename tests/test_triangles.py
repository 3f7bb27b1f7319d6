"""Triangle value types, the placement pipeline, and the circle form."""

import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from helpers import (
    apply_to_triangle,
    collinear_triangle,
    needle,
    rand_thick_triangle,
    rand_transform,
    rand_triangle,
)
from oracles import (
    is_normal_circle_triangle,
    list_sort_classify,
    list_sort_normal_point,
    pipeline_normal_point,
    shoelace_area,
)
from simnorm import (
    AngleClass,
    AngleTriple,
    DegenerateAngles,
    FormKind,
    InvalidSides,
    Point,
    SideClass,
    SideLengths,
    Tolerance,
    Triangle,
    TriangleClass,
    UnboundedType,
    a_normal_point,
    b_normal_point,
    c_normal_point,
    circle_normal_form,
    classify,
    distance,
    in_a_domain,
    in_b_domain,
    in_c_domain,
    in_domain,
    normal_point,
    side_lengths,
    triangle_from_sides,
    triangles_similar,
)
from simnorm import cli, triangles
from simnorm.triangles import _sorted3

EQUILATERAL = Point(0.5, math.sqrt(3.0) / 2.0)


def tri(*coords):
    pts = [Point(x, y) for x, y in coords]
    return Triangle.of(*pts)


# value types


def test_triangle_rejects_single_point():
    p = Point(2.0, 3.0)
    with pytest.raises(ValueError):
        Triangle.of(p, p, p)


def test_triangle_allows_two_coincident_vertices():
    t = tri((0.0, 0.0), (0.0, 0.0), (1.0, 1.0))
    assert t.vertices[0] == t.vertices[1]


def test_side_lengths_sorted_and_validated():
    s = SideLengths.of(5.0, 3.0, 4.0)
    assert (s.a, s.b, s.c) == (3.0, 4.0, 5.0)
    with pytest.raises(InvalidSides):
        SideLengths.of(1.0, 1.0, 3.0)
    with pytest.raises(InvalidSides):
        SideLengths.of(-1.0, 2.0, 2.0)
    # zero shortest side is a valid degenerate triple
    assert SideLengths.of(0.0, 2.0, 2.0).a == 0.0


def test_side_lengths_ratios():
    assert SideLengths.of(3.0, 4.0, 5.0).ratios() == (0.6, 0.8, 1.0)


def test_side_lengths_of_is_order_insensitive():
    perms = [(3.0, 4.0, 5.0), (5.0, 4.0, 3.0), (4.0, 5.0, 3.0)]
    triples = {SideLengths.of(*p) for p in perms}
    assert len(triples) == 1


def test_sorted3_orders_as_sorted_does():
    # the value types and the batch parse sort triples by compare and swap;
    # it must return sorted()'s very objects, NaN and ties included, so that
    # an error message names the same value
    values = [math.nan, float("nan"), -math.inf, -1.0, -0.0, 0.0, 1.0, float("1.0"), 2.0, math.inf]
    for triple in itertools.product(values, repeat=3):
        got = _sorted3(*triple)
        assert all(g is w for g, w in zip(got, sorted(triple), strict=True)), triple


@pytest.mark.parametrize(
    "sides, message",
    [
        ((math.nan, 1.0, math.inf), "side lengths must be finite, got nan"),
        ((1.0, math.inf, math.nan), "side lengths must be finite, got inf"),
        ((-1.0, 1.0, 1.0), "side lengths must be nonnegative, got -1.0"),
        ((1.0, 0.5, 1.0), "sides must be sorted ascending: (1.0, 0.5, 1.0)"),
        ((0.0, 0.0, 0.0), "longest side must be positive"),
        ((1.0, 2.0, 4.0), "triangle inequality fails: (1.0, 2.0, 4.0)"),
    ],
)
def test_side_lengths_name_the_first_check_that_fails(sides, message):
    with pytest.raises(InvalidSides) as info:
        SideLengths(*sides)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "angles, message",
    [
        ((1.0, math.inf, math.nan), "angles must be finite, got inf"),
        ((math.nan, -math.inf, 1.0), "angles must be finite, got nan"),
        ((1.6, -0.1, 1.6415926535897931), "smallest angle must be positive, got -0.1"),
        ((1.0, 1.0, 1.0), "angles must sum to pi, got 3.0"),
        ((1e308, 1e308, 1e308), "angles must sum to pi, got inf"),
    ],
)
def test_angle_triple_names_the_first_check_that_fails(angles, message):
    with pytest.raises(DegenerateAngles) as info:
        AngleTriple(*angles)
    assert str(info.value) == message


def test_angle_triple_sorted_and_validated():
    a = AngleTriple(1.0, 0.5, math.pi - 1.5)
    assert a.alpha == 0.5
    assert a.as_tuple() == tuple(sorted(a.as_tuple()))
    with pytest.raises(DegenerateAngles):
        AngleTriple(0.0, 1.0, math.pi - 1.0)
    with pytest.raises(DegenerateAngles):
        AngleTriple(0.5, 0.5, 0.5)


def test_side_lengths_from_triangle():
    s = side_lengths(tri((0.0, 0.0), (3.0, 0.0), (0.0, 4.0)))
    assert (s.a, s.b, s.c) == (3.0, 4.0, 5.0)


# landmarks for the one-vertex forms


def test_equilateral_normal_point_all_forms():
    t = triangle_from_sides(SideLengths.of(1.0, 1.0, 1.0))
    for fn in (c_normal_point, b_normal_point, a_normal_point):
        p = fn(t)
        assert abs(p.x - EQUILATERAL.x) <= 1e-12
        assert abs(p.y - EQUILATERAL.y) <= 1e-12


def test_right_345_normal_points():
    t = tri((0.0, 0.0), (3.0, 0.0), (0.0, 4.0))
    assert c_normal_point(t).close_to(Point(0.64, 0.48), Tolerance(1e-12))
    assert b_normal_point(t).close_to(Point(1.0, 0.75), Tolerance(1e-12))
    assert a_normal_point(t).close_to(Point(1.0, 4.0 / 3.0), Tolerance(1e-12))


def test_obtuse_234_b_point():
    t = triangle_from_sides(SideLengths.of(2.0, 3.0, 4.0))
    expected = Point(7.0 / 6.0, math.sqrt(135.0) / 18.0)
    assert b_normal_point(t).close_to(expected, Tolerance(1e-12))


def test_repeated_vertex_pins_c_and_b_to_unit_anchor():
    t = tri((2.0, 5.0), (2.0, 5.0), (-1.0, 3.0))
    assert c_normal_point(t).close_to(Point(1.0, 0.0), Tolerance(1e-12))
    assert b_normal_point(t).close_to(Point(1.0, 0.0), Tolerance(1e-12))
    with pytest.raises(UnboundedType):
        a_normal_point(t)


def test_normal_point_dispatch():
    t = tri((0.0, 0.0), (3.0, 0.0), (0.0, 4.0))
    assert normal_point(FormKind.C_VERTEX, t) == c_normal_point(t)
    assert normal_point(FormKind.B_VERTEX, t) == b_normal_point(t)
    assert normal_point(FormKind.A_VERTEX, t) == a_normal_point(t)
    with pytest.raises(ValueError):
        normal_point(FormKind.CIRCLE, t)


# pipeline properties


def test_normal_points_lie_in_their_regions():
    rng = random.Random(401)
    for _ in range(300):
        t = rand_thick_triangle(rng)
        pc = c_normal_point(t)
        pb = b_normal_point(t)
        pa = a_normal_point(t)
        assert in_c_domain(pc)
        assert in_b_domain(pb)
        assert in_a_domain(pa)
        for p in (pc, pb, pa):
            assert p.y >= -1e-12
            assert p.x >= 0.5 - 1e-12


def test_domains_give_a_verdict_far_out():
    # squared distances overflow to inf instead of raising OverflowError
    assert in_a_domain(Point(1e200, 1e308))
    assert not in_b_domain(Point(1e308, 0.5))
    assert not in_c_domain(Point(1e308, 0.5))


def test_degenerate_triangles_map_to_the_axis():
    rng = random.Random(402)
    for _ in range(60):
        t = collinear_triangle(rng)
        assert abs(c_normal_point(t).y) <= 1e-12
        assert abs(b_normal_point(t).y) <= 1e-12


def test_similarity_invariance_of_normal_points():
    rng = random.Random(403)
    for _ in range(250):
        t = rand_thick_triangle(rng)
        g = rand_transform(rng)
        img = apply_to_triangle(g, t)
        for fn in (c_normal_point, b_normal_point, a_normal_point):
            assert fn(t).close_to(fn(img), Tolerance(1e-7))


def test_vertex_order_invariance():
    rng = random.Random(404)
    for _ in range(120):
        t = rand_thick_triangle(rng)
        perm = list(t.vertices)
        rng.shuffle(perm)
        shuffled = Triangle.of(*perm)
        for fn in (c_normal_point, b_normal_point, a_normal_point):
            assert fn(t).close_to(fn(shuffled), Tolerance(1e-9))


def test_c_point_height_matches_area():
    rng = random.Random(405)
    for _ in range(200):
        t = rand_thick_triangle(rng)
        s = side_lengths(t)
        area = shoelace_area(*t.vertices)
        expected = 2.0 * area / (s.c * s.c)
        assert c_normal_point(t).y == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_placement_matches_trig_pipeline():
    # criterion 02's input mix: 10% collinear, 5% repeated vertex
    rng = random.Random(408)
    for _ in range(2000):
        t = rand_triangle(rng, degenerate_fraction=0.10, repeat_fraction=0.05)
        for rank, fn in ((2, c_normal_point), (1, b_normal_point), (0, a_normal_point)):
            if rank == 0 and side_lengths(t).a == 0.0:
                continue
            want = pipeline_normal_point(t, rank)
            have = fn(t)
            limit = 1e-13 * max(1.0, abs(want.x), abs(want.y))
            assert abs(have.x - want.x) <= limit
            assert abs(have.y - want.y) <= limit


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except UnboundedType:
        return "UnboundedType"


def test_side_pass_matches_the_list_sort_oracle():
    shapes = [
        ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)),
        ((0.0, 0.0), (2.0, 0.0), (1.0, 3.0)),
        ((1.0, 1.0), (1.0, 1.0), (4.0, 5.0)),
        ((0.0, 0.0), (1.0, 0.0), (3.0, 0.0)),
        # rescaled first: side lengths that overflow, a subnormal right triangle
        ((-1.7e308, 0.0), (1.7e308, 0.0), (0.0, 1e308)),
        ((0.0, 0.0), (4e-323, 0.0), (4e-323, 3e-323)),
    ]
    cases = [tri(*order) for shape in shapes for order in itertools.permutations(shape)]
    rng = random.Random(410)
    for k in range(2000):
        t = rand_triangle(rng, degenerate_fraction=0.10, repeat_fraction=0.05)
        if k % 4 == 1:
            # a needle: the third vertex near the midpoint of the first two
            p, q, _ = t.vertices
            h = rng.choice((1e-3, 1e-7, 1e-12))
            t = tri((p.x, p.y), (q.x, q.y), ((p.x + q.x) / 2 + h, (p.y + q.y) / 2 - h))
        elif k % 4 == 2:
            scale = rng.choice((1e-12, 1e200))
            t = Triangle.of(*(Point(scale * v.x, scale * v.y) for v in t.vertices))
        cases.append(t)
    for t in cases:
        for rank, fn in enumerate((a_normal_point, b_normal_point, c_normal_point)):
            assert _outcome(fn, t) == _outcome(list_sort_normal_point, t, rank), (t, rank)
        assert repr(classify(t)) == repr(list_sort_classify(t)), t


def test_classify_takes_three_side_lengths(monkeypatch):
    calls = []

    def hypot(*coords):
        calls.append(coords)
        return real_hypot(*coords)

    real_hypot = math.hypot
    monkeypatch.setattr(math, "hypot", hypot)
    for t, passes in (
        (tri((0.0, 0.0), (3.0, 0.0), (0.0, 4.0)), 1),
        (tri((1.0, 1.0), (1.0, 1.0), (4.0, 5.0)), 1),
        # measured once more on the rescaled copy
        (tri((-1.7e308, 0.0), (1.7e308, 0.0), (0.0, 1e308)), 2),
    ):
        calls.clear()
        classify(t)
        assert len(calls) == 3 * passes


def test_normal_point_matches_the_list_sort_oracle():
    # the side of each rank is picked by comparisons on the lengths; the
    # oracle sorts (length, (i, j)) pairs, so exact ties in every vertex
    # order must pick the same side
    shapes = [
        ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
        ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)),
        ((0.0, 0.0), (2.0, 0.0), (1.0, 3.0)),
        ((0.0, 0.0), (2.0, 0.0), (1.0, 0.5)),
        ((1.0, 1.0), (1.0, 1.0), (4.0, 5.0)),
        ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
        ((-1.7e308, 0.0), (1.7e308, 0.0), (0.0, 1e308)),
        ((0.0, 0.0), (4e-323, 0.0), (4e-323, 3e-323)),
        # the rescale is capped by the coordinates and leaves the side subnormal
        ((1e308, 0.0), (1e308, 5e-324), (1e308, 0.0)),
    ]
    cases = [tri(*order) for shape in shapes for order in itertools.permutations(shape)]
    rng = random.Random(415)
    for k in range(1000):
        if k % 3 == 0:
            # small integer coordinates: many exact ties among the lengths
            t = tri(*((float(rng.randint(-2, 2)), float(rng.randint(-2, 2))) for _ in range(3)))
            if t.vertices[0] == t.vertices[1] == t.vertices[2]:
                continue
        else:
            t = rand_triangle(rng, degenerate_fraction=0.10, repeat_fraction=0.05)
        scale = rng.choice((1.0, 1e-300, 1e300))
        cases.append(Triangle.of(*(Point(scale * v.x, scale * v.y) for v in t.vertices)))
    kinds = (FormKind.A_VERTEX, FormKind.B_VERTEX, FormKind.C_VERTEX)
    for t in cases:
        for rank, kind in enumerate(kinds):
            want = _outcome(list_sort_normal_point, t, rank)
            assert _outcome(normal_point, kind, t) == want, (t, kind)
        assert repr(classify(t)) == repr(list_sort_classify(t)), t


def _placement_cases(rng, count):
    """count seeded triangles over the whole float range, for the placement pin.

    Random triangles, needles, near-flat triangles of relative height
    1e-16...1e-1 and small-integer triangles (exact ties, isosceles,
    repeated vertices, signed zeros), each taken as it is or scaled by 2**k
    for k in [-1074, 1023], capped so that no coordinate overflows.
    """
    small = (-2.0, -1.0, -0.0, 0.0, 1.0, 2.0)
    cases = []
    while len(cases) < count:
        family = len(cases) % 4
        if family == 0:
            verts = [(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)) for _ in range(3)]
        elif family == 1:
            # sides (a, 1, 1 + a t), turned and moved
            pts = needle(10.0 ** rng.uniform(-15.0, -1.0), rng.random())
            turn = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            move = complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
            zs = [complex(x, y) * turn + move for x, y in pts]
            verts = [(z.real, z.imag) for z in zs]
        elif family == 2:
            # the third vertex off the line of the first two by h times their distance
            (px, py), (qx, qy) = ((rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)) for _ in "pq")
            s, h = rng.uniform(-0.5, 1.5), 10.0 ** rng.uniform(-16.0, -1.0)
            dx, dy = qx - px, qy - py
            verts = [(px, py), (qx, qy), (px + s * dx - h * dy, py + s * dy + h * dx)]
        else:
            verts = [(rng.choice(small), rng.choice(small)) for _ in range(3)]
        if rng.random() < 0.5:
            top = math.frexp(max(abs(v) for xy in verts for v in xy))[1]
            k = min(rng.randint(-1074, 1023), 1024 - top)
            verts = [(math.ldexp(x, k), math.ldexp(y, k)) for x, y in verts]
        if not verts[0] == verts[1] == verts[2]:
            cases.append(tri(*verts))
    return cases


def test_placement_matches_complex_division_bit_for_bit():
    # the placement writes CPython's complex quotient out in floats; the
    # oracle divides complex numbers, so every outcome, UnboundedType
    # included, must be the same to the last bit, across the float range
    rng = random.Random(431)
    for t in _placement_cases(rng, 30000):
        for rank, fn in enumerate((a_normal_point, b_normal_point, c_normal_point)):
            assert _outcome(fn, t) == _outcome(list_sort_normal_point, t, rank), (t, rank)


def test_point_from_vertices_matches_the_side_pass_and_placement():
    # the one-frame kernel repeats _side_pass and _place for the callers
    # that want one point; every outcome, UnboundedType included, must be
    # the same to the last bit, at every rank and eps, across the float range
    rng = random.Random(433)
    for t in _placement_cases(rng, 30000):
        (x0, y0), (x1, y1), (x2, y2) = ((p.x, p.y) for p in t.vertices)
        sides = triangles._side_pass(x0, y0, x1, y1, x2, y2)
        for rank in (0, 1, 2):
            for e in (1e-9, 1e-15, 5e-324):
                have = _outcome(triangles._point_from_vertices, x0, y0, x1, y1, x2, y2, rank, e)
                assert have == _outcome(triangles._place, sides, rank, e), (t, rank, e)


def test_the_triangle_path_builds_no_complex(monkeypatch, capsys):
    # the placement divides in plain floats: a complex() call made by any
    # public triangle function or by a normalize --points record fails here
    def no_complex(*args):
        raise AssertionError("complex() called on the triangle path")

    monkeypatch.setattr(triangles, "complex", no_complex, raising=False)
    unit = tri((0.0, 0.0), (3.0, 0.0), (0.0, 4.0))
    # rescaled first: its side lengths overflow
    huge = tri((-1.7e308, 0.0), (1.7e308, 0.0), (0.0, 1e308))
    kinds = (FormKind.A_VERTEX, FormKind.B_VERTEX, FormKind.C_VERTEX)
    for t in (unit, huge):
        for fn in (a_normal_point, b_normal_point, c_normal_point, classify):
            fn(t)
        for kind in kinds:
            p = normal_point(kind, t)
            assert in_domain(kind, p)
        assert triangles_similar(t, unit) is (t is unit)
    assert in_a_domain(EQUILATERAL) and in_b_domain(EQUILATERAL) and in_c_domain(EQUILATERAL)
    assert side_lengths(unit) == SideLengths(3.0, 4.0, 5.0)
    triangle_from_sides(SideLengths(3.0, 4.0, 5.0))
    assert is_normal_circle_triangle(circle_normal_form(AngleTriple(0.5, 1.0, math.pi - 1.5)))
    for kind in ("a", "b", "c"):
        argv = ["normalize", "--kind", kind, "--points", "0,0", "3,0", "0,4"]
        assert cli.main(argv) == 0, kind
        assert capsys.readouterr().out.startswith("command: normalize\n")


def test_triangles_similar_matches_the_list_sort_oracle():
    # copies moved by about half an eps stay similar, by about two eps not
    rng = random.Random(416)
    tols = (Tolerance(), Tolerance(1e-6))
    for k in range(2000):
        t = rand_triangle(rng, degenerate_fraction=0.10, repeat_fraction=0.05)
        tol = tols[k % 2]
        if k % 4 == 0:
            u = rand_triangle(rng, degenerate_fraction=0.10, repeat_fraction=0.05)
        elif k % 4 == 1:
            u = apply_to_triangle(rand_transform(rng), t)
        else:
            p = list_sort_normal_point(t, 2)
            step = tol.eps * (0.5 if k % 4 == 2 else 2.0) * rng.uniform(0.9, 1.1)
            u = tri((0.0, 0.0), (1.0, 0.0), (p.x + rng.choice((-step, 0.0, step)), p.y + step))
        want = list_sort_normal_point(t, 2).close_to(list_sort_normal_point(u, 2), tol)
        assert triangles_similar(t, u, tol) is want, (t, u)


def test_each_call_makes_one_side_pass(monkeypatch):
    calls = []

    def hypot(*coords):
        calls.append(coords)
        return real_hypot(*coords)

    real_hypot = math.hypot
    monkeypatch.setattr(math, "hypot", hypot)
    unit = tri((0.0, 0.0), (3.0, 0.0), (0.0, 4.0))
    # side lengths that overflow: measured once more on the rescaled copy
    huge = tri((-1.7e308, 0.0), (1.7e308, 0.0), (0.0, 1e308))
    kinds = (FormKind.A_VERTEX, FormKind.B_VERTEX, FormKind.C_VERTEX)
    for t, passes in ((unit, 1), (huge, 2)):
        for call in (
            lambda: c_normal_point(t),
            lambda: b_normal_point(t),
            lambda: a_normal_point(t),
            *(lambda kind=kind: normal_point(kind, t) for kind in kinds),
            lambda: classify(t),
        ):
            calls.clear()
            call()
            assert len(calls) == 3 * passes
        calls.clear()
        triangles_similar(t, unit)
        assert len(calls) == 3 * passes + 3
        calls.clear()
        triangles_similar(t, t)
        assert len(calls) == 6 * passes


def test_classify_returns_the_shared_class_values():
    shapes = (
        ((0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3.0) / 2.0)),
        ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
        ((0.0, 0.0), (3.0, 0.0), (0.0, 4.0)),
        ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
        ((0.0, 0.0), (4.0, 0.0), (1.0, 0.5)),
    )
    for shape in shapes:
        cls = classify(tri(*shape))
        fresh = TriangleClass(cls.angle_class, cls.side_class)
        assert cls == fresh and hash(cls) == hash(fresh) and repr(cls) == repr(fresh)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(cls, protocol))
            assert back == cls and back.angle_class is cls.angle_class
            assert back.side_class is cls.side_class


def test_near_max_triangle_classifies():
    # its side lengths overflow, those of its rescaled copy do not
    cls = classify(tri((-1.7e308, 0.0), (1.7e308, 0.0), (0.0, 1e308)))
    assert cls.angle_class is AngleClass.OBTUSE
    assert cls.side_class is SideClass.ISOSCELES


def test_shortest_side_form_beyond_float_range_is_unbounded():
    t = tri((0.0, 0.0), (1e-300, 0.0), (1e15, 1.0))
    with pytest.raises(UnboundedType):
        a_normal_point(t, Tolerance(5e-324))
    # sides (2**-511, 1, 1): below 2**-510 at any eps, as normal_point_from_sides has it
    t = tri((0.0, 0.0), (2.0**-511, 0.0), (2.0**-512, 1.0))
    with pytest.raises(UnboundedType):
        a_normal_point(t, Tolerance(5e-324))


def test_extreme_scales_share_the_unit_scale_form():
    t = tri((0.0, 0.0), (4.0, 0.0), (0.0, 3.0))
    for scale in (1e-12, 1e200):
        image = tri((0.0, 0.0), (4.0 * scale, 0.0), (0.0, 3.0 * scale))
        for fn in (c_normal_point, b_normal_point, a_normal_point):
            assert fn(image).close_to(fn(t), Tolerance(1e-15))
        assert classify(image) == classify(t)
        assert triangles_similar(t, image)
    rng = random.Random(409)
    for _ in range(50):
        t = rand_thick_triangle(rng)
        assert triangles_similar(t, Triangle.of(*(Point(1e-10 * v.x, 1e-10 * v.y) for v in t.vertices)))


def test_dyadic_triangles_keep_their_form_at_every_power_of_two_scale():
    # the first is the 3-4-5 triangle, whose copy at 4e-323 used to place on
    # subnormal operands and land at (0.666..., 0.5)
    right = tri((0.0, 0.0), (4.0, 0.0), (4.0, 3.0))
    obtuse = tri((0.0, 0.0), (4.0, 0.0), (5.0, 2.0))
    needle = tri((0.0, 0.0), (64.0, 0.0), (32.0, 1.0))
    for t in (right, obtuse, needle):
        forms = [fn(t) for fn in (c_normal_point, b_normal_point, a_normal_point)]
        coords = [c for v in t.vertices for c in (v.x, v.y)]
        checked = 0
        for k in range(-1074, 1024):
            # only scales where every coordinate stays finite and exact
            try:
                scaled = [math.ldexp(c, k) for c in coords]
            except OverflowError:
                continue
            if any(math.ldexp(c, -k) != o for c, o in zip(scaled, coords)):
                continue
            image = tri(*zip(scaled[::2], scaled[1::2]))
            for fn, form in zip((c_normal_point, b_normal_point, a_normal_point), forms):
                assert fn(image).close_to(form, Tolerance(1e-15)), (k, fn.__name__)
            checked += 1
        assert checked > 2080


def test_near_max_triangle_is_rescaled_not_rejected():
    # all three side lengths overflow to inf
    t = tri((-1.7e308, 0.0), (1.7e308, 0.0), (0.0, 1e308))
    assert c_normal_point(t).close_to(Point(0.5, 0.29411764705882354), Tolerance(1e-15))
    unit = tri((-1.7, 0.0), (1.7, 0.0), (0.0, 1.0))
    for fn in (b_normal_point, a_normal_point):
        assert fn(t).close_to(fn(unit), Tolerance(1e-15))
    assert triangles_similar(t, unit)


def test_triangle_from_sides_roundtrip():
    rng = random.Random(406)
    for _ in range(200):
        t = rand_thick_triangle(rng)
        s = side_lengths(t)
        rebuilt = side_lengths(triangle_from_sides(s))
        assert rebuilt.a == pytest.approx(s.a, rel=1e-12, abs=1e-12)
        assert rebuilt.b == pytest.approx(s.b, rel=1e-12, abs=1e-12)
        assert rebuilt.c == pytest.approx(s.c, rel=1e-12, abs=1e-12)


# similarity test


def test_triangles_similar_accepts_transformed_copies():
    rng = random.Random(407)
    for _ in range(100):
        t = rand_thick_triangle(rng)
        g = rand_transform(rng)
        assert triangles_similar(t, apply_to_triangle(g, t))


def test_triangles_similar_rejects_different_shapes():
    t1 = triangle_from_sides(SideLengths.of(3.0, 4.0, 5.0))
    t2 = triangle_from_sides(SideLengths.of(3.0, 4.0, 6.0))
    assert not triangles_similar(t1, t2)
    assert triangles_similar(t1, t1)


# classification


def test_classify_landmarks():
    right = tri((0.0, 0.0), (3.0, 0.0), (0.0, 4.0))
    cls = classify(right)
    assert cls.angle_class is AngleClass.RIGHT
    assert cls.side_class is SideClass.SCALENE

    eq = triangle_from_sides(SideLengths.of(1.0, 1.0, 1.0))
    cls = classify(eq)
    assert cls.angle_class is AngleClass.ACUTE
    assert cls.side_class is SideClass.EQUILATERAL

    obtuse = triangle_from_sides(SideLengths.of(2.0, 3.0, 4.0))
    cls = classify(obtuse)
    assert cls.angle_class is AngleClass.OBTUSE
    assert cls.side_class is SideClass.SCALENE

    iso = triangle_from_sides(SideLengths.of(1.0, 1.0, math.sqrt(2.0)))
    cls = classify(iso)
    assert cls.angle_class is AngleClass.RIGHT
    assert cls.side_class is SideClass.ISOSCELES


def test_classify_degenerate_wins_over_angle_class():
    rng = random.Random(408)
    for _ in range(40):
        cls = classify(collinear_triangle(rng))
        assert cls.angle_class is AngleClass.DEGENERATE
    # a repeated vertex lands exactly on the anchor where the right-angle
    # circle meets the axis; degeneracy must take precedence
    cls = classify(tri((1.0, 1.0), (1.0, 1.0), (4.0, 5.0)))
    assert cls.angle_class is AngleClass.DEGENERATE


def test_classify_respects_tolerance():
    # nudge one leg so the right angle is off by far more than default eps
    # but well within a loose one
    t = tri((0.0, 0.0), (3.0, 0.0), (0.0001, 4.0))
    assert classify(t).angle_class is not AngleClass.RIGHT
    assert classify(t, Tolerance(1e-4)).angle_class is AngleClass.RIGHT


# circle form


def test_circle_form_equilateral():
    t = circle_normal_form(AngleTriple(math.pi / 3.0, math.pi / 3.0, math.pi / 3.0))
    a, b, c = t.vertices
    assert c == Point(1.0, 0.0)
    assert a.close_to(Point(-0.5, math.sqrt(3.0) / 2.0), Tolerance(1e-12))
    assert b.close_to(Point(-0.5, -math.sqrt(3.0) / 2.0), Tolerance(1e-12))


def test_circle_form_vertices_on_unit_circle():
    rng = random.Random(409)
    for _ in range(200):
        alpha = rng.uniform(1e-3, math.pi / 3.0 - 1e-3)
        beta = rng.uniform(alpha, math.pi / 2.0 - alpha / 2.0 - 1e-3)
        t = circle_normal_form(AngleTriple(alpha, beta, math.pi - alpha - beta))
        for v in t.vertices:
            assert abs(math.hypot(v.x, v.y) - 1.0) <= 1e-12
        assert is_normal_circle_triangle(t)


def test_circle_form_recovers_angles():
    rng = random.Random(410)
    for _ in range(200):
        alpha = rng.uniform(1e-3, math.pi / 3.0 - 1e-3)
        beta = rng.uniform(alpha, math.pi / 2.0 - alpha / 2.0 - 1e-3)
        gamma = math.pi - alpha - beta
        t = circle_normal_form(AngleTriple(alpha, beta, gamma))
        s = side_lengths(t)
        got = sorted(
            (
                math.acos((s.b * s.b + s.c * s.c - s.a * s.a) / (2.0 * s.b * s.c)),
                math.acos((s.a * s.a + s.c * s.c - s.b * s.b) / (2.0 * s.a * s.c)),
                math.acos((s.a * s.a + s.b * s.b - s.c * s.c) / (2.0 * s.a * s.b)),
            )
        )
        for want, have in zip((alpha, beta, gamma), got):
            assert abs(want - have) <= 1e-9


def test_circle_form_right_angle_gives_diameter():
    rng = random.Random(411)
    for _ in range(100):
        alpha = rng.uniform(1e-3, math.pi / 4.0 - 1e-3)
        beta = math.pi / 2.0 - alpha
        t = circle_normal_form(AngleTriple(alpha, beta, math.pi / 2.0))
        a, b, _ = t.vertices
        assert abs(a.x + b.x) <= 1e-12
        assert abs(a.y + b.y) <= 1e-12


def test_is_normal_circle_triangle_rejects_off_circle_copies():
    t = circle_normal_form(AngleTriple(0.5, 0.6, math.pi - 1.1))
    g = rand_transform(random.Random(412))
    moved = apply_to_triangle(g, t)
    assert not is_normal_circle_triangle(moved)
    shifted = Triangle.of(*(Point(v.x + 0.25, v.y) for v in t.vertices))
    assert not is_normal_circle_triangle(shifted)
    # on the circle, but no vertex at (1, 0)
    on_circle = [Point(math.cos(k * math.pi / 6), math.sin(k * math.pi / 6)) for k in range(12)]
    turned = Triangle.of(on_circle[3], on_circle[7], on_circle[11])
    assert not is_normal_circle_triangle(turned)
    # a vertex at (1, 0), but both others above the axis
    above = Triangle.of(on_circle[0], on_circle[2], on_circle[4])
    assert not is_normal_circle_triangle(above)


@given(
    st.floats(min_value=0.05, max_value=math.pi / 3.0 - 0.01),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_circle_form_labels_angles_in_sorted_order(alpha, frac):
    beta = alpha + (math.pi / 2.0 - alpha / 2.0 - alpha) * frac * 0.98
    gamma = math.pi - alpha - beta
    t = circle_normal_form(AngleTriple(alpha, beta, gamma))
    a, b, c = t.vertices
    # alpha is the angle subtended at vertex A, and so on cyclically
    s = side_lengths(Triangle.of(a, b, c))
    assert distance(b, c) <= distance(a, c) + 1e-12
    assert distance(a, c) <= distance(a, b) + 1e-12
