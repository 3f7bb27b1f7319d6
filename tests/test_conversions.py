"""Closed-form conversions between sides, angles, and normal points."""

import json
import math
import random
from fractions import Fraction

import pytest

from helpers import near_boundary_angles, rand_angles, rand_thick_triangle
from oracles import exact_c_height, exact_normal_x, exact_smallest_angle
from simnorm import (
    AngleTriple,
    DegenerateAngles,
    FormKind,
    InvalidSides,
    OutOfDomain,
    Point,
    SideLengths,
    Tolerance,
    Triangle,
    UnboundedType,
    a_normal_point,
    angles_from_normal_point,
    angles_from_sides,
    c_normal_point,
    normal_point_from_angles,
    normal_point_from_sides,
    side_lengths,
    sides_from_angles,
    triangle_from_sides,
)
from simnorm.cli import main
from simnorm.triangles import _point_angles, _radicand

ONE_POINT_KINDS = (FormKind.C_VERTEX, FormKind.B_VERTEX, FormKind.A_VERTEX)

RIGHT_345 = AngleTriple(math.asin(0.6), math.asin(0.8), math.pi / 2.0)


# closed-form landmarks


def test_points_from_sides_345():
    s = SideLengths.of(3.0, 4.0, 5.0)
    assert normal_point_from_sides(FormKind.C_VERTEX, s).close_to(Point(0.64, 0.48), Tolerance(1e-12))
    assert normal_point_from_sides(FormKind.B_VERTEX, s).close_to(Point(1.0, 0.75), Tolerance(1e-12))
    assert normal_point_from_sides(FormKind.A_VERTEX, s).close_to(
        Point(1.0, 4.0 / 3.0), Tolerance(1e-12)
    )


def test_points_from_sides_equilateral():
    s = SideLengths.of(2.0, 2.0, 2.0)
    want = Point(0.5, math.sqrt(3.0) / 2.0)
    for kind in ONE_POINT_KINDS:
        assert normal_point_from_sides(kind, s).close_to(want, Tolerance(1e-12))


def test_degenerate_sides_give_exact_axis_points():
    s = SideLengths.of(0.0, 2.5, 2.5)
    assert normal_point_from_sides(FormKind.C_VERTEX, s) == Point(1.0, 0.0)
    assert normal_point_from_sides(FormKind.B_VERTEX, s) == Point(1.0, 0.0)
    with pytest.raises(UnboundedType):
        normal_point_from_sides(FormKind.A_VERTEX, s)
    flat = SideLengths.of(1.0, 2.0, 3.0)
    p = normal_point_from_sides(FormKind.C_VERTEX, flat)
    assert p.y == 0.0
    assert p.x == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_needles_keep_x_in_every_form():
    # the shortest-side x used to cancel in a^2 - b^2 + c^2 (relative error
    # 2.1e-5 on this sample); the factored difference of squares keeps it
    rng = random.Random(509)
    for _ in range(20_000):
        a = 10.0 ** rng.uniform(-8.0, -1.0)
        s = SideLengths(a, 1.0, 1.0 + a * rng.uniform(0.0, 0.99))
        for rank, kind in enumerate((FormKind.A_VERTEX, FormKind.B_VERTEX, FormKind.C_VERTEX)):
            want = exact_normal_x(s.a, s.b, s.c, rank)
            got = normal_point_from_sides(kind, s).x
            assert abs(got - want) <= 1e-15 * want, (s, kind)


def test_shortest_side_form_stops_where_its_square_underflows():
    for sides in ((1e-200, 4.0, 4.0), (180.0, 1e200, 1e200), (5e-324, 1.0, 1.0)):
        with pytest.raises(UnboundedType):
            normal_point_from_sides(FormKind.A_VERTEX, SideLengths.of(*sides))
    # just above the threshold the form is still computed, and accurately
    a = math.ldexp(1.0, -510)
    s = SideLengths.of(a, 1.0, 1.0)
    p = normal_point_from_sides(FormKind.A_VERTEX, s)
    assert p.x == 0.5
    assert p.y == pytest.approx(1.0 / a, rel=1e-15)


def test_circle_kind_has_no_point():
    with pytest.raises(ValueError):
        normal_point_from_sides(FormKind.CIRCLE, SideLengths.of(3.0, 4.0, 5.0))
    with pytest.raises(ValueError):
        normal_point_from_angles(FormKind.CIRCLE, RIGHT_345)
    with pytest.raises(ValueError):
        angles_from_normal_point(FormKind.CIRCLE, Point(0.64, 0.48))


def test_points_from_angles_landmarks():
    assert normal_point_from_angles(FormKind.C_VERTEX, RIGHT_345).close_to(
        Point(0.64, 0.48), Tolerance(1e-12)
    )
    assert normal_point_from_angles(FormKind.A_VERTEX, RIGHT_345).close_to(
        Point(1.0, 4.0 / 3.0), Tolerance(1e-12)
    )
    iso_right = AngleTriple(math.pi / 4.0, math.pi / 4.0, math.pi / 2.0)
    assert normal_point_from_angles(FormKind.B_VERTEX, iso_right).close_to(
        Point(1.0, 1.0), Tolerance(1e-12)
    )


def test_sides_from_angles_normalizes_the_kind_side():
    for kind, idx in ((FormKind.C_VERTEX, 2), (FormKind.B_VERTEX, 1), (FormKind.A_VERTEX, 0)):
        s = sides_from_angles(RIGHT_345, kind)
        assert (s.a, s.b, s.c)[idx] == 1.0
    s = sides_from_angles(RIGHT_345, FormKind.C_VERTEX)
    assert s.a == pytest.approx(0.6, abs=1e-15)
    assert s.b == pytest.approx(0.8, abs=1e-15)
    with pytest.raises(ValueError):
        sides_from_angles(RIGHT_345, FormKind.CIRCLE)


def _outcome(fn, *args):
    try:
        fn(*args)
    except Exception as exc:
        return type(exc).__name__
    return "ok"


def test_angles_routes_meet_the_a_form_limit_as_the_sides_route_does():
    # alpha far below 2**-510 has no a form by any route: the angles routes
    # raise UnboundedType, as the sides route does, instead of returning a
    # point 1e200 out or failing in Point or SideLengths
    rng = random.Random(521)
    alphas = [1e-200, 1e-310] + [10.0 ** rng.uniform(-320.0, -1.0) for _ in range(3000)]
    for alpha in alphas:
        b = (math.pi - alpha) / 2.0
        t = AngleTriple(alpha, b, math.pi - alpha - b)
        want = _outcome(normal_point_from_sides, FormKind.A_VERTEX, sides_from_angles(t))
        assert want == ("UnboundedType" if alpha < 2.0**-510 else "ok"), alpha
        assert _outcome(normal_point_from_angles, FormKind.A_VERTEX, t) == want, alpha
        assert _outcome(sides_from_angles, t, FormKind.A_VERTEX) == want, alpha


def test_angles_from_sides_landmarks():
    got = angles_from_sides(SideLengths.of(3.0, 4.0, 5.0))
    assert got.alpha == pytest.approx(math.asin(0.6), abs=1e-12)
    assert got.beta == pytest.approx(math.asin(0.8), abs=1e-12)
    assert got.gamma == pytest.approx(math.pi / 2.0, abs=1e-12)
    eq = angles_from_sides(SideLengths.of(7.0, 7.0, 7.0))
    for value in eq.as_tuple():
        assert value == pytest.approx(math.pi / 3.0, abs=1e-12)


def test_angles_from_sides_degenerate_inputs():
    with pytest.raises(DegenerateAngles):
        angles_from_sides(SideLengths.of(1.0, 2.0, 3.0))
    with pytest.raises(DegenerateAngles):
        angles_from_sides(SideLengths.of(0.0, 1.0, 1.0))


def test_angles_from_sides_on_needles():
    # the first triple is the acos route's worst case; the sweep covers
    # shortest sides 1e-9..1e-5 against two nearly equal long ones
    worst = (1.266695087165927e-08, 1.0, 1.0000000047911015)
    got = angles_from_sides(SideLengths(*worst)).alpha
    assert abs(got - exact_smallest_angle(*worst)) <= 1e-12 * got
    rng = random.Random(507)
    for _ in range(300):
        a = 10.0 ** rng.uniform(-9.0, -5.0)
        s = SideLengths(a, 1.0, 1.0 + a * rng.uniform(0.05, 0.95))
        if normal_point_from_sides(FormKind.C_VERTEX, s).y <= Tolerance().eps:
            with pytest.raises(DegenerateAngles):
                angles_from_sides(s)
            continue
        want = exact_smallest_angle(s.a, s.b, s.c)
        assert abs(angles_from_sides(s).alpha - want) <= 1e-12 * want


def test_angles_from_sides_below_rounding_eps():
    # the c point of an isosceles triple can sit an ulp outside the unit
    # circle; angles_from_sides still reads its angles
    s = SideLengths.of(0.21659939713061338, 0.7110582877913587, 0.7110582877913587)
    got = angles_from_sides(s, Tolerance(1e-17))
    assert got.alpha == pytest.approx(2.0 * math.asin(s.a / (2.0 * s.b)), rel=1e-12)


def test_sides_at_extreme_scales():
    unit = SideLengths.of(3.0, 4.0, 5.0)
    for kind in ONE_POINT_KINDS:
        want = normal_point_from_sides(kind, unit)
        # exact power-of-two copies give bit-identical points
        for e in (-1060, -600, 600, 1000):
            scaled = SideLengths.of(math.ldexp(3.0, e), math.ldexp(4.0, e), math.ldexp(5.0, e))
            assert normal_point_from_sides(kind, scaled) == want
        for scale in (1e-200, 1e200):
            scaled = SideLengths.of(3.0 * scale, 4.0 * scale, 5.0 * scale)
            assert normal_point_from_sides(kind, scaled).close_to(want, Tolerance(1e-15))


# inverse direction


def test_angles_from_normal_point_landmarks():
    back = angles_from_normal_point(FormKind.C_VERTEX, Point(0.64, 0.48))
    assert back.alpha == pytest.approx(math.asin(0.6), abs=1e-12)
    assert back.gamma == pytest.approx(math.pi / 2.0, abs=1e-12)
    back = angles_from_normal_point(FormKind.A_VERTEX, Point(1.0, 4.0 / 3.0))
    assert back.alpha == pytest.approx(math.asin(0.6), abs=1e-12)
    eq = angles_from_normal_point(FormKind.B_VERTEX, Point(0.5, math.sqrt(3.0) / 2.0))
    for value in eq.as_tuple():
        assert value == pytest.approx(math.pi / 3.0, abs=1e-12)


def test_apex_angle_far_up_the_shortest_side_region():
    # the a-form triangle of p has sides 1, |p| and |p - 1|, and far up the
    # region the apex p carries the smallest angle; as pi minus the two
    # anchor angles it lost up to 8e-8 of itself at y = 1e10.  The form's
    # limit 1 <= eps * c stops the points above y = 1e9 at the default eps,
    # so they are read at an eps under which each of them has a form
    tol = Tolerance(1e-13)
    rng = random.Random(512)
    points = [(0.5, 1e10), (0.7, 3e6)]
    points += [(rng.uniform(0.5, 3.0), 10.0 ** rng.uniform(3.0, 12.0)) for _ in range(500)]
    for x, y in points:
        b, c = sorted((math.hypot(x, y), math.hypot(x - 1.0, y)))
        want = exact_smallest_angle(1.0, b, c)
        got = angles_from_normal_point(FormKind.A_VERTEX, Point(x, y), tol).alpha
        assert abs(got - want) <= 1e-14 * want, (x, y)


def test_angles_from_a_point_meet_the_form_limit_as_its_triangle_does():
    # p stands for the triangle (0,0), (1,0), p: under the a form its angles
    # exist exactly when a_normal_point of that triangle does, at every eps
    with pytest.raises(UnboundedType):
        angles_from_normal_point(FormKind.A_VERTEX, Point(0.5, 1e200))
    rng = random.Random(513)
    tols = (Tolerance(), Tolerance(1e-15), Tolerance(5e-324))
    for k in range(3000):
        tol = tols[k % 3]
        y = 10.0 ** rng.uniform(0.0, 300.0)
        x = rng.uniform(0.5, 3.0) if k % 2 else 0.5 + y * rng.uniform(0.0, 2.0)
        t = Triangle.of(Point(0.0, 0.0), Point(1.0, 0.0), Point(x, y))
        try:
            a_normal_point(t, tol)
            want = "AngleTriple"
        except UnboundedType:
            want = "UnboundedType"
        try:
            got = type(angles_from_normal_point(FormKind.A_VERTEX, Point(x, y), tol)).__name__
        except UnboundedType:
            got = "UnboundedType"
        assert got == want, (x, y, tol)


def test_angles_from_normal_point_degenerate_marker():
    with pytest.raises(DegenerateAngles):
        angles_from_normal_point(FormKind.C_VERTEX, Point(0.75, 0.0))
    with pytest.raises(DegenerateAngles):
        angles_from_normal_point(FormKind.C_VERTEX, Point(1.0, 0.0))
    with pytest.raises(DegenerateAngles):
        angles_from_normal_point(FormKind.B_VERTEX, Point(1.5, 0.0))


def test_angles_from_normal_point_rejects_outside_points():
    with pytest.raises(OutOfDomain):
        angles_from_normal_point(FormKind.C_VERTEX, Point(3.0, 3.0))
    with pytest.raises(OutOfDomain):
        angles_from_normal_point(FormKind.C_VERTEX, Point(0.2, 0.2))
    with pytest.raises(OutOfDomain):
        angles_from_normal_point(FormKind.B_VERTEX, Point(0.9, 0.1))
    with pytest.raises(OutOfDomain):
        angles_from_normal_point(FormKind.A_VERTEX, Point(0.8, 0.3))


# roundtrips


def test_angle_roundtrip_all_kinds():
    rng = random.Random(501)
    for i in range(400):
        vals = near_boundary_angles(rng) if i % 2 == 0 else rand_angles(rng)
        ang = AngleTriple(*vals)
        for kind in ONE_POINT_KINDS:
            back = angles_from_normal_point(kind, normal_point_from_angles(kind, ang))
            for want, have in zip(ang.as_tuple(), back.as_tuple()):
                assert abs(want - have) <= 1e-9


def test_point_angles_come_sorted_in_every_region():
    # the batch records keep this float triple, with no AngleTriple to sort it
    rng = random.Random(503)
    for i in range(400):
        vals = near_boundary_angles(rng) if i % 2 == 0 else rand_angles(rng)
        for kind in ONE_POINT_KINDS:
            p = normal_point_from_angles(kind, AngleTriple(*vals))
            got = _point_angles(p.x, p.y, 1e-9)
            assert got == angles_from_normal_point(kind, p).as_tuple(), (kind, p)
    # within eps left of x = 1/2, the angle at the origin passes the one at (1, 0)
    for p in (Point(0.5 - 1e-10, 0.6), Point(0.5 - 5e-10, 0.8)):
        want = angles_from_normal_point(FormKind.C_VERTEX, p).as_tuple()
        assert _point_angles(p.x, p.y, 1e-9) == want, p


def test_side_ratio_roundtrip_all_kinds():
    rng = random.Random(502)
    for i in range(400):
        if i % 4 == 0:
            s = sides_from_angles(AngleTriple(*near_boundary_angles(rng)))
        else:
            s = side_lengths(rand_thick_triangle(rng))
        for kind in ONE_POINT_KINDS:
            back = angles_from_normal_point(kind, normal_point_from_sides(kind, s))
            recovered = sides_from_angles(back, kind)
            for want, have in zip(s.ratios(), recovered.ratios()):
                assert abs(want - have) <= 1e-7


def test_trig_route_matches_sides_route():
    rng = random.Random(503)
    for _ in range(300):
        ang = AngleTriple(*rand_angles(rng))
        for kind in ONE_POINT_KINDS:
            via_trig = normal_point_from_angles(kind, ang)
            via_sides = normal_point_from_sides(kind, sides_from_angles(ang, kind))
            assert via_trig.close_to(via_sides, Tolerance(1e-9))


def test_closed_form_matches_pipeline():
    rng = random.Random(504)
    for _ in range(300):
        t = rand_thick_triangle(rng)
        s = side_lengths(t)
        assert normal_point_from_sides(FormKind.C_VERTEX, s).close_to(
            c_normal_point(t), Tolerance(1e-9)
        )


def test_angles_from_sides_matches_point_route():
    rng = random.Random(505)
    for _ in range(200):
        s = side_lengths(rand_thick_triangle(rng))
        direct = angles_from_sides(s)
        via_point = angles_from_normal_point(
            FormKind.C_VERTEX, normal_point_from_sides(FormKind.C_VERTEX, s)
        )
        for want, have in zip(direct.as_tuple(), via_point.as_tuple()):
            assert abs(want - have) <= 1e-9


# the radicand


def test_radicand_matches_factored_product():
    rng = random.Random(506)
    for _ in range(300):
        s = side_lengths(rand_thick_triangle(rng))
        a, b, c = s.a, s.b, s.c
        product = (a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)
        # thin triples lose relative accuracy in both routes alike, so the
        # comparison carries an absolute floor at the natural fourth-power scale
        floor = 1e-12 * (a + b + c) ** 4
        assert _radicand(a, b, c) == pytest.approx(product, rel=1e-9, abs=floor)


def test_radicand_vanishes_exactly_on_equal_split():
    # a zero shortest side with the other two equal must cancel exactly,
    # whatever the magnitudes involved
    for b in (0.1, 1.0, 3.7, 1e6, 12345.6789):
        assert _radicand(0.0, b, b) == 0.0


def test_flat_triples_keep_their_height():
    rng = random.Random(508)
    for _ in range(2000):
        a = rng.uniform(0.1, 1.0)
        b = rng.uniform(0.1, 1.0)
        s = SideLengths.of(a, b, (a + b) * (1.0 - 10.0 ** rng.uniform(-14.0, -4.0)))
        want = exact_c_height(s.a, s.b, s.c)
        assert abs(normal_point_from_sides(FormKind.C_VERTEX, s).y - want) <= 1e-12 * want
        vertex = triangle_from_sides(s).vertices[2]
        assert abs(vertex.y / s.c - want) <= 1e-12 * want


def test_height_clamp_window():
    # a hair beyond flat from rounding alone is clamped to the axis
    s = SideLengths.of(1.0, 1.0, 2.0 - 1e-13)
    p = normal_point_from_sides(FormKind.C_VERTEX, s)
    assert p.y >= 0.0
    # within the slack of SideLengths a triple past flat lies on the axis
    p = normal_point_from_sides(FormKind.C_VERTEX, SideLengths(1.0, 1.0, 2.0 + 1e-10))
    assert p.y == 0.0
    # beyond that slack the triple is rejected by SideLengths itself
    with pytest.raises(InvalidSides):
        SideLengths(1.0, 1.0, 2.0 + 1e-8)


def _slack_triples(rng):
    """Sorted triples with c * (1 - 1e-9) < a + b <= c, exactly, at scales 1 and 2**+-500."""
    out = []
    for family in ("needle", "isosceles", "scalene") * 40:
        if family == "needle":
            a = 10.0 ** rng.uniform(-8.0, -3.0)
        elif family == "isosceles":
            a = 0.5 * (1.0 - 10.0 ** rng.uniform(-12.0, -6.0))
        else:
            a = rng.uniform(0.01, 0.5)
        # short of c = 1 by 1e-9 at most, the slack of SideLengths
        b = 1.0 - 10.0 ** rng.uniform(-15.0, -9.05) - a
        while Fraction(a) + Fraction(b) > 1:
            b = math.nextafter(b, 0.0)
        for k in (0, -500, 500):
            out.append(tuple(math.ldexp(v, k) for v in sorted((a, b, 1.0))))
    return out


def test_triples_inside_the_side_slack_are_flat_on_every_route(capsys):
    # SideLengths is the only triangle-inequality gate: what it accepts is
    # flat, never rejected later by a conversion or by the CLI
    for a, b, c in _slack_triples(random.Random(509)):
        s = SideLengths(a, b, c)
        for kind in (FormKind.C_VERTEX, FormKind.B_VERTEX):
            assert normal_point_from_sides(kind, s).y <= 1e-9, (kind, s)
        triangle_from_sides(s)
        with pytest.raises(DegenerateAngles):
            angles_from_sides(s)
        code = main(["normalize", "--sides", repr(a), repr(b), repr(c), "--format", "structured"])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert json.loads(out)["degenerate"] is True, s


def test_triangle_from_degenerate_sides():
    t = triangle_from_sides(SideLengths.of(1.0, 2.0, 3.0))
    s = side_lengths(t)
    assert s.a == pytest.approx(1.0, abs=1e-12)
    assert s.b == pytest.approx(2.0, abs=1e-12)
    assert s.c == pytest.approx(3.0, abs=1e-12)
