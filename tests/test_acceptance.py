"""End-to-end acceptance checks, one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
each criterion is a separate test with its own seeded sampling and runtime
budget, so a failure pinpoints the property that broke.
"""

import contextlib
import itertools
import math
import random
import time

from helpers import (
    apply_to_quad,
    apply_to_triangle,
    collinear_triangle,
    near_boundary_angles,
    permuted_quad,
    rand_angles,
    rand_quad,
    rand_thick_triangle,
    rand_transform,
    repeated_vertex_triangle,
)
from figchecks import check_figure
from oracles import (
    _reflection_images,
    is_normal_circle_triangle,
    quads_similar_bruteforce,
    vertex_angle,
)
from simnorm import (
    ORIGIN,
    UNIT_X,
    AngleClass,
    AngleTriple,
    FormKind,
    Point,
    Quadrilateral,
    SideLengths,
    Tolerance,
    Triangle,
    UnboundedType,
    a_normal_point,
    angles_from_normal_point,
    b_normal_point,
    c_normal_point,
    circle_normal_form,
    classify,
    distance,
    normal_point_from_angles,
    normal_point_from_sides,
    normalize_quad,
    quads_similar,
    reflection_orbit_type_count,
    side_lengths,
    sides_from_angles,
    triangle_from_sides,
    triangles_similar,
)
from simnorm.cli import main

ONE_POINT_KINDS = (FormKind.C_VERTEX, FormKind.B_VERTEX, FormKind.A_VERTEX)
PIPELINES = (c_normal_point, b_normal_point, a_normal_point)


@contextlib.contextmanager
def criterion(number, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d} FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"[acceptance] criterion {number:02d} FAIL  {label} (runtime {elapsed:.2f}s)")
        raise AssertionError(f"criterion {number} exceeded {budget}s: {elapsed:.2f}s")
    print(f"[acceptance] criterion {number:02d} PASS  {label} ({elapsed:.2f}s)")


def test_criterion_01_landmark_values():
    with criterion(1, "landmark values"):
        want = Point(0.5, math.sqrt(3.0) / 2.0)
        eq_sides = SideLengths.of(1.0, 1.0, 1.0)
        eq_triangle = triangle_from_sides(eq_sides)
        for kind, pipeline in zip(ONE_POINT_KINDS, PIPELINES):
            for p in (pipeline(eq_triangle), normal_point_from_sides(kind, eq_sides)):
                assert abs(p.x - want.x) <= 1e-12
                assert abs(p.y - want.y) <= 1e-12
        for c in (0.5, 1.0, 3.0, 17.25):
            s = SideLengths.of(0.0, c, c)
            p = normal_point_from_sides(FormKind.C_VERTEX, s)
            assert abs(p.x - 1.0) <= 1e-12
            assert abs(p.y) <= 1e-12
            t = Triangle.of(Point(2.0, 2.0), Point(2.0, 2.0), Point(2.0 + c, 2.0))
            p = c_normal_point(t)
            assert abs(p.x - 1.0) <= 1e-12
            assert abs(p.y) <= 1e-12


def test_criterion_02_pipeline_formula_agreement():
    rng = random.Random(20260819)
    with criterion(2, "pipeline vs closed form on 10,000 triangles", budget=5.0):
        for i in range(10000):
            u = rng.random()
            if u < 0.10:
                t = collinear_triangle(rng)
            elif u < 0.15:
                t = repeated_vertex_triangle(rng)
            else:
                t = rand_thick_triangle(rng)
            s = side_lengths(t)
            for kind, pipeline in zip(ONE_POINT_KINDS, PIPELINES):
                if kind is FormKind.A_VERTEX and s.a == 0.0:
                    for fn in (lambda: pipeline(t), lambda: normal_point_from_sides(kind, s)):
                        try:
                            fn()
                            raise AssertionError("expected UnboundedType")
                        except UnboundedType:
                            pass
                    continue
                via_pipeline = pipeline(t)
                via_formula = normal_point_from_sides(kind, s)
                assert abs(via_pipeline.x - via_formula.x) <= 1e-9
                assert abs(via_pipeline.y - via_formula.y) <= 1e-9


def test_criterion_03_similarity_invariance():
    rng = random.Random(20260820)
    with criterion(3, "similarity invariance for triangles and quadrilaterals", budget=30.0):
        reflects_seen = set()
        for i in range(10000):
            t = rand_thick_triangle(rng)
            g = rand_transform(rng)
            reflects_seen.add(g.reflect)
            image = apply_to_triangle(g, t)
            for pipeline in PIPELINES:
                assert pipeline(t).close_to(pipeline(image), Tolerance(1e-7))
        assert reflects_seen == {True, False}
        for i in range(5000):
            q = rand_quad(rng, special_fraction=0.2)
            g = rand_transform(rng)
            image = permuted_quad(rng, apply_to_quad(g, q))
            assert normalize_quad(q).close_to(normalize_quad(image), Tolerance(1e-7))


def _ratio_gap(s1, s2):
    return max(abs(u - v) for u, v in zip(s1.ratios(), s2.ratios()))


def _profile(q):
    dists = sorted(distance(p, r) for p, r in itertools.combinations(q.vertices, 2))
    top = dists[-1]
    return [d / top for d in dists]


def test_criterion_04_uniqueness():
    rng = random.Random(20260821)
    with criterion(4, "distinct shapes map to distinct normal forms", budget=10.0):
        count = 0
        while count < 5000:
            t1 = rand_thick_triangle(rng)
            t2 = rand_thick_triangle(rng)
            if _ratio_gap(side_lengths(t1), side_lengths(t2)) <= 1e-4:
                continue
            count += 1
            p1 = c_normal_point(t1)
            p2 = c_normal_point(t2)
            assert math.hypot(p1.x - p2.x, p1.y - p2.y) > 1e-6
            assert not triangles_similar(t1, t2)
        count = 0
        while count < 5000:
            q1 = rand_quad(rng, special_fraction=0.1)
            q2 = rand_quad(rng, special_fraction=0.1)
            gap = max(abs(u - v) for u, v in zip(_profile(q1), _profile(q2)))
            if gap <= 1e-4:
                continue
            count += 1
            f1 = normalize_quad(q1)
            f2 = normalize_quad(q2)
            spread = max(
                abs(f1.c.x - f2.c.x),
                abs(f1.c.y - f2.c.y),
                abs(f1.d.x - f2.d.x),
                abs(f1.d.y - f2.d.y),
            )
            assert spread > 1e-6
            assert not quads_similar(q1, q2)


def test_criterion_05_conversion_roundtrips():
    rng = random.Random(20260822)
    with criterion(5, "conversion roundtrips per form kind", budget=10.0):
        for kind in ONE_POINT_KINDS:
            for i in range(10000):
                if i % 10 < 4:
                    ang = AngleTriple(*near_boundary_angles(rng))
                else:
                    ang = AngleTriple(*rand_angles(rng))
                back = angles_from_normal_point(kind, normal_point_from_angles(kind, ang))
                for want, have in zip(ang.as_tuple(), back.as_tuple()):
                    assert abs(want - have) <= 1e-9
                if i % 10 < 4:
                    s = sides_from_angles(ang, kind)
                else:
                    s = side_lengths(rand_thick_triangle(rng))
                recovered = angles_from_normal_point(kind, normal_point_from_sides(kind, s))
                s2 = sides_from_angles(recovered, kind)
                for want, have in zip(s.ratios(), s2.ratios()):
                    assert abs(want - have) <= 1e-7


def test_criterion_06_circle_form():
    rng = random.Random(20260823)
    with criterion(6, "circle form places vertices correctly"):
        for i in range(5000):
            if i % 10 == 0:
                ang = AngleTriple(*near_boundary_angles(rng, gap=1e-4))
            else:
                ang = AngleTriple(*rand_angles(rng))
            t = circle_normal_form(ang)
            a, b, c = t.vertices
            for v in t.vertices:
                assert abs(math.hypot(v.x, v.y) - 1.0) <= 1e-12
            measured = (
                vertex_angle(a, b, c),
                vertex_angle(b, c, a),
                vertex_angle(c, a, b),
            )
            for want, have in zip(ang.as_tuple(), measured):
                assert abs(want - have) <= 1e-9
            assert is_normal_circle_triangle(t)
        for i in range(500):
            alpha = rng.uniform(1e-3, math.pi / 4.0 - 1e-3)
            t = circle_normal_form(AngleTriple(alpha, math.pi / 2.0 - alpha, math.pi / 2.0))
            a, b, _ = t.vertices
            assert abs(a.x + b.x) <= 1e-9
            assert abs(a.y + b.y) <= 1e-9


def test_criterion_07_classification_agreement():
    rng = random.Random(20260824)
    with criterion(7, "classify agrees with the Pythagorean side test"):
        for i in range(10000):
            if i % 20 == 0:
                # exactly right: legs parallel to the axes meet at a vertex
                corner = Point(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
                t = Triangle.of(
                    corner,
                    Point(corner.x + rng.uniform(0.1, 10.0), corner.y),
                    Point(corner.x, corner.y + rng.uniform(0.1, 10.0)),
                )
            else:
                t = rand_thick_triangle(rng)
            s = side_lengths(t)
            gap = s.a * s.a + s.b * s.b - s.c * s.c
            if abs(gap) <= 2.0 * 1e-9 * s.c * s.c:
                want = AngleClass.RIGHT
            elif gap < 0.0:
                want = AngleClass.OBTUSE
            else:
                want = AngleClass.ACUTE
            assert classify(t).angle_class is want


def test_criterion_08_quad_oracle_equivalence():
    rng = random.Random(20260825)
    with criterion(8, "quads_similar matches the brute-force oracle", budget=60.0):
        for i in range(1000):
            if i % 2 == 0:
                q1 = rand_quad(rng, special_fraction=0.3)
                q2 = permuted_quad(rng, apply_to_quad(rand_transform(rng), q1))
            else:
                q1 = rand_quad(rng, special_fraction=0.1)
                q2 = rand_quad(rng, special_fraction=0.1)
            assert quads_similar(q1, q2) == quads_similar_bruteforce(q1, q2)


def test_criterion_09_unit_square_canon():
    rng = random.Random(20260826)
    square = Quadrilateral.of(Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0), Point(0.0, 1.0))
    with criterion(9, "every similar copy of the unit square canonicalizes alike"):
        for _ in range(800):
            image = permuted_quad(rng, apply_to_quad(rand_transform(rng), square))
            form = normalize_quad(image)
            assert abs(form.c.x - 0.5) <= 1e-9
            assert abs(form.c.y - 0.5) <= 1e-9
            assert abs(form.d.x - 0.5) <= 1e-9
            assert abs(form.d.y + 0.5) <= 1e-9


def test_criterion_10_orbit_count():
    rng = random.Random(20260827)
    with criterion(10, "reflection orbit counts match enumeration"):
        seen_counts = set()
        for i in range(1000):
            mode = i % 4
            if mode == 0:
                c = Point(rng.uniform(0.55, 0.95), rng.uniform(0.05, 0.3))
            elif mode == 1:
                c = Point(0.5, rng.uniform(0.05, 0.8))
            elif mode == 2:
                c = Point(rng.uniform(0.55, 0.95), 0.0)
            else:
                c = Point(0.5, 0.0)
            d = rng.choice(_reflection_images(c))
            count = reflection_orbit_type_count(c, d)
            forms = [
                normalize_quad(Quadrilateral.of(ORIGIN, UNIT_X, c, image))
                for image in _reflection_images(d)
            ]
            distinct = []
            for form in forms:
                if not any(form.close_to(seen) for seen in distinct):
                    distinct.append(form)
            assert count == len(distinct)
            seen_counts.add(count)
        assert seen_counts == {1, 2, 4}


def test_criterion_11_figure_reproduction(tmp_path):
    with criterion(11, "domain figures declare the documented curves"):
        assert main(["domains", "--kind", "all", "--out", str(tmp_path)]) == 0
        for kind in ("a", "b", "c", "circle"):
            svg = (tmp_path / f"domain_{kind}.svg").read_text()
            check_figure(kind, svg, tol=1e-9)
