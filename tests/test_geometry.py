"""Foundation layer: points, transforms, reflections, tolerance policy."""

import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from helpers import rand_point, rand_transform
from simnorm import (
    ORIGIN,
    UNIT_X,
    DegenerateSegment,
    Point,
    SimilarityTransform,
    Tolerance,
    distance,
    quasilex_eq,
    reflect_normalize,
    similarity_from_segment,
)

coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
points = st.builds(Point, coord, coord)


def test_tolerance_bounds():
    assert Tolerance(1e-9).eps == 1e-9
    assert Tolerance(1e-12).eps == 1e-12
    with pytest.raises(ValueError):
        Tolerance(0.0)
    with pytest.raises(ValueError):
        Tolerance(-1e-9)
    with pytest.raises(ValueError):
        Tolerance(1e-3)


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point(math.nan, 0.0)
    with pytest.raises(ValueError):
        Point(0.0, math.inf)


def test_point_close_to_is_coordinatewise():
    p = Point(1.0, 2.0)
    assert p.close_to(Point(1.0 + 5e-10, 2.0 - 5e-10))
    assert not p.close_to(Point(1.0 + 2e-9, 2.0))
    assert not p.close_to(Point(1.0, 2.0 + 2e-9))
    assert p.close_to(Point(1.5, 2.0), Tolerance(6e-4)) is False


def test_distance_landmarks():
    assert distance(ORIGIN, UNIT_X) == 1.0
    assert distance(Point(1.0, 2.0), Point(4.0, 6.0)) == 5.0
    assert distance(ORIGIN, ORIGIN) == 0.0


def test_transform_validation_and_normalization():
    with pytest.raises(ValueError):
        SimilarityTransform(a=0.0)
    with pytest.raises(ValueError):
        SimilarityTransform(a=math.inf)
    with pytest.raises(ValueError):
        SimilarityTransform(b=math.nan)
    # a and b are stored as complex numbers, whatever number type they came as
    g = SimilarityTransform(2, -1.5)
    assert type(g.a) is complex and g.a == 2.0
    assert type(g.b) is complex and g.b == -1.5


def test_identity_and_orientation_flag():
    p = Point(3.0, -4.0)
    assert SimilarityTransform().apply(p) == p
    assert not SimilarityTransform().reflect
    assert SimilarityTransform(reflect=True).reflect


def test_reflection_applies_before_rotation():
    g = SimilarityTransform(a=1j, reflect=True)
    img = g.apply(Point(1.0, 1.0))
    # (1, 1) -> reflect (1, -1) -> rotate quarter turn (1, 1)
    assert img.close_to(Point(1.0, 1.0), Tolerance(1e-12))


@given(points, points, points, points, st.booleans())
def test_similarity_from_segment_hits_endpoints(p1, p2, q1, q2, reflect):
    if distance(p1, p2) <= 1e-3 or distance(q1, q2) <= 1e-3:
        return
    g = similarity_from_segment(p1, p2, q1, q2, reflect=reflect)
    span = max(1.0, distance(q1, q2), abs(q1.x), abs(q1.y))
    assert distance(g.apply(p1), q1) <= 1e-8 * span
    assert distance(g.apply(p2), q2) <= 1e-8 * span
    assert g.reflect == reflect


def test_similarity_from_segment_recovers_the_map_it_was_fitted_to():
    rng = random.Random(4040)
    for _ in range(100_000):
        g = rand_transform(rng)
        p1 = rand_point(rng, 10.0)
        p2 = rand_point(rng, 10.0)
        while distance(p1, p2) < 1.0:
            p2 = rand_point(rng, 10.0)
        f = similarity_from_segment(p1, p2, g.apply(p1), g.apply(p2), g.reflect)
        assert f.reflect == g.reflect
        assert abs(f.a - g.a) <= 1e-11 * abs(g.a), (g, p1, p2, f)
        assert abs(f.b - g.b) <= 1e-13 * (20.0 * abs(g.a) + abs(g.b)), (g, p1, p2, f)


def test_import_loads_no_cmath():
    # the complex map needs no cmath, a shared object the package never loaded
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, simnorm; print('cmath' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_similarity_from_segment_orientation():
    # the direct fit keeps the left side on the left, the indirect flips it
    p1, p2 = ORIGIN, UNIT_X
    probe = Point(0.5, 0.5)
    direct = similarity_from_segment(p1, p2, Point(2.0, 1.0), Point(2.0, 3.0))
    indirect = similarity_from_segment(p1, p2, Point(2.0, 1.0), Point(2.0, 3.0), reflect=True)

    def side(a, b, c):
        return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)

    before = side(p1, p2, probe)
    assert side(Point(2.0, 1.0), Point(2.0, 3.0), direct.apply(probe)) * before > 0.0
    assert side(Point(2.0, 1.0), Point(2.0, 3.0), indirect.apply(probe)) * before < 0.0


def test_similarity_from_segment_degenerate_inputs():
    with pytest.raises(DegenerateSegment):
        similarity_from_segment(ORIGIN, ORIGIN, ORIGIN, UNIT_X)
    with pytest.raises(DegenerateSegment):
        similarity_from_segment(ORIGIN, UNIT_X, Point(2.0, 2.0), Point(2.0, 2.0))
    # collapses only within eps
    near = Point(1e-10, 0.0)
    with pytest.raises(DegenerateSegment):
        similarity_from_segment(ORIGIN, near, ORIGIN, UNIT_X)


def test_reflect_normalize_landmarks():
    assert reflect_normalize(Point(0.3, -0.2)) == Point(0.7, 0.2)
    assert reflect_normalize(Point(0.7, 0.2)) == Point(0.7, 0.2)
    assert reflect_normalize(Point(0.5, 0.0)) == Point(0.5, 0.0)


@given(points)
def test_reflect_normalize_lands_in_quadrant(p):
    s = reflect_normalize(p)
    assert s.x >= 0.5
    assert s.y >= 0.0


@given(points)
def test_reflect_normalize_idempotent(p):
    s = reflect_normalize(p)
    assert reflect_normalize(s) == s


@given(points)
def test_reflect_normalize_fixes_all_four_images(p):
    s = reflect_normalize(p)
    for image in (
        Point(1.0 - p.x, p.y),
        Point(p.x, -p.y),
        Point(1.0 - p.x, -p.y),
    ):
        got = reflect_normalize(image)
        # fold distances agree exactly only when 1 - x is exact, so allow ulps
        assert abs(got.x - s.x) <= 1e-12 * max(1.0, abs(s.x))
        assert abs(got.y - s.y) == 0.0


def test_quasilex_eq_tolerance():
    assert quasilex_eq(Point(0.3, 0.2), Point(0.7, -0.2))
    assert quasilex_eq(Point(0.7, 0.2), Point(0.7, 0.2 + 5e-10))
    assert not quasilex_eq(Point(0.7, 0.2), Point(0.7, 0.21))

