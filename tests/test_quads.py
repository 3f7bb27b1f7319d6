"""Four-point canonical forms, the similarity test, and reflection orbits."""

import cmath
import itertools
import math
import random

import pytest

from helpers import (
    apply_to_quad,
    extreme_tie_quad,
    lead_tie_quad,
    permuted_quad,
    rand_quad,
    rand_transform,
)
from oracles import (
    _reflection_images,
    forms_close_verdict,
    pointwise_normalize_quad,
    quads_similar_bruteforce,
    quads_similar_eight_images,
)
from simnorm import (
    ORIGIN,
    UNIT_X,
    DegenerateQuad,
    Point,
    PreconditionViolated,
    Quadrilateral,
    QuadNormalForm,
    Tolerance,
    distance,
    in_c_domain,
    in_d_region,
    normalize_quad,
    quads_similar,
    reflection_orbit_type_count,
)
from simnorm import SimilarityTransform, cli, quads

TOL = Tolerance(1e-9)


def quad(*coords):
    return Quadrilateral.of(*(Point(x, y) for x, y in coords))


UNIT_SQUARE = quad((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


# value types


def test_quadrilateral_rejects_single_point():
    p = Point(1.0, 2.0)
    with pytest.raises(DegenerateQuad):
        Quadrilateral.of(p, p, p, p)


def test_quadrilateral_allows_triple_point():
    p = Point(1.0, 2.0)
    q = Quadrilateral.of(p, p, p, Point(3.0, 4.0))
    assert len(q.vertices) == 4


def test_normal_form_anchors():
    assert ORIGIN == Point(0.0, 0.0)
    assert UNIT_X == Point(1.0, 0.0)
    form = QuadNormalForm(Point(0.5, 0.5), Point(0.5, -0.5))
    assert form.points()[:2] == (ORIGIN, UNIT_X)


# the d region


def test_d_region_examples():
    c = Point(0.5, 0.5)
    assert in_d_region(Point(0.5, -0.5), c)
    assert in_d_region(c, c)
    assert not in_d_region(Point(0.5, 0.9), c)
    # larger fold distance than c is rejected
    assert not in_d_region(Point(0.9, 0.1), c)
    # unit-disc caps around both anchors apply
    assert not in_d_region(Point(0.5, -0.95), Point(0.5, 0.95))
    assert not in_d_region(Point(-0.5, 0.0), c)
    # on a fold tie, a larger |y| than c's is rejected
    assert not in_d_region(Point(0.75, 0.5), Point(0.75, 0.2))


def test_d_region_gives_a_verdict_far_out():
    # squared distances overflow to inf instead of raising OverflowError
    assert not in_d_region(Point(0.5, 0.0), Point(1e200, 0.0))
    assert not in_d_region(Point(1e200, 1e200), Point(0.5, 0.5))


def test_d_region_contains_its_own_c_across_the_domain():
    for i in range(21):
        for j in range(21):
            c = Point(0.5 + i * 0.025, j * 0.05)
            if in_c_domain(c) and c.y >= 0.0:
                assert in_d_region(c, c)


# canonical landmarks


def test_unit_square_canonical_form():
    form = normalize_quad(UNIT_SQUARE)
    assert form.c.close_to(Point(0.5, 0.5), TOL)
    assert form.d.close_to(Point(0.5, -0.5), TOL)


def test_extreme_scales_share_the_unit_square_form():
    form = normalize_quad(UNIT_SQUARE)
    for scale in (1e-12, 1e200):
        image = Quadrilateral.of(*(Point(scale * v.x, scale * v.y) for v in UNIT_SQUARE.vertices))
        assert normalize_quad(image).close_to(form, Tolerance(1e-15))


def test_dyadic_quads_keep_their_form_at_every_power_of_two_scale():
    kite = quad((0.0, 0.0), (2.0, 0.0), (1.0, 1.0), (1.0, -0.5))
    rect = quad((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0))
    for q in (UNIT_SQUARE, rect, kite):
        form = normalize_quad(q)
        coords = [c for v in q.vertices for c in (v.x, v.y)]
        checked = 0
        for k in range(-1074, 1024):
            # only scales where every coordinate stays finite and exact
            try:
                scaled = [math.ldexp(c, k) for c in coords]
            except OverflowError:
                continue
            if any(math.ldexp(c, -k) != o for c, o in zip(scaled, coords)):
                continue
            image = quad(*zip(scaled[::2], scaled[1::2]))
            assert normalize_quad(image).close_to(form, Tolerance(1e-15)), k
            checked += 1
        assert checked > 2090


def test_near_max_rhombus_is_rescaled_not_rejected():
    q = quad((-1.7e308, 0.0), (1.7e308, 0.0), (0.0, 1e308), (0.0, -1e308))
    form = normalize_quad(q)
    assert form.c.close_to(Point(0.5, 0.29411764705882354), Tolerance(1e-15))
    assert form.d.close_to(Point(0.5, -0.29411764705882354), Tolerance(1e-15))


def test_tiny_spread_at_huge_offset_keeps_its_form():
    # rescaling by the spread alone would overflow the x coordinates
    q = quad((1e300, 1e-300), (1e300, 2e-300), (1e300, 3e-300), (1e300, 5e-300))
    form = normalize_quad(q)
    assert (form.c.x, form.c.y) == (0.75, 0.0)
    assert (form.d.x, form.d.y) == (0.4999999999999999, 0.0)


def test_capped_rescale_quad_is_rescaled_once(capsys):
    # the rescale is capped by the coordinates, so the copy's spread stays
    # subnormal, outside the band: the form comes from that copy as it is
    coords = ((1e308, 0.0), (1e308, 5e-324), (1e308, 1e-323), (1e308, 1.5e-323))
    q = quad(*coords)
    form = normalize_quad(q)
    assert repr((form.c.x, form.c.y)) == "(0.6666666666666667, 0.0)"
    assert repr((form.d.x, form.d.y)) == "(0.33333333333333337, 0.0)"
    assert quads_similar(q, quad(*((y, x) for x, y in coords)))
    argv = ["quad-normalize", "--points", *(f"{x!r},{y!r}" for x, y in coords)]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "quad_c: (0.6666666666666667, 0.0)\n" in out
    assert "quad_d: (0.33333333333333337, 0.0)\n" in out


def _oracle_quads():
    h = math.sqrt(3.0) / 2.0
    specials = (
        ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
        ((0.0, 0.0), (2.0, 0.0), (2.0, 0.0), (0.0, 0.0)),
        ((0.0, 0.0), (1.0, 0.0), (0.5, h), (0.5, h / 3.0)),
        ((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (3.0, 0.0)),
        ((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)),
        ((0.0, 0.0), (3.0, 1.0), (0.0, 0.0), (1.0, 2.0)),
    )
    for coords in specials:
        for perm in itertools.permutations(coords):
            yield quad(*perm)
    rng = random.Random(607)
    for _ in range(600):
        yield rand_quad(rng, special_fraction=0.5)


def test_normal_form_is_bit_identical_to_the_pointwise_oracle():
    for q in _oracle_quads():
        assert repr(normalize_quad(q)) == repr(pointwise_normalize_quad(q)), q


def _axis_quads(eps):
    """Quads in the anchor frame whose carried points sit on x = 1/2 or y = 0,
    or 0.5, 1 or 2 eps off them.

    Symmetric shapes put both carried points near an axis at once; the last
    shape puts only the lead there, so that its image across the x-axis can
    win on the trail.
    """
    for off in (0.0, 0.5 * eps, eps, 2.0 * eps):
        for s in (1.0, -1.0):
            # kites across the x-axis: near the midline, and nearly flat
            yield ((0.0, 0.0), (1.0, 0.0), (0.5 + s * off, 0.25), (0.5 + s * off, -0.25))
            yield ((0.0, 0.0), (1.0, 0.0), (0.75, s * off), (0.75, -s * off))
            # isosceles trapezoids across x = 1/2: nearly flat, and nearly a kite
            yield ((0.0, 0.0), (1.0, 0.0), (0.75, s * off), (0.25, s * off))
            yield ((0.0, 0.0), (1.0, 0.0), (0.5 + s * off, 0.25), (0.5 - s * off, 0.25))
            # rectangles placed by a diagonal: carried points off y = 0 by about
            # the height, and off x = 1/2 by about half the excess over a square
            yield ((0.0, 0.0), (1.0, 0.0), (1.0, s * off), (0.0, s * off))
            yield ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0 + 2.0 * s * off), (0.0, 1.0 + 2.0 * s * off))
            # no symmetry: the lead near y = 0, the trail far below it
            yield ((0.0, 0.0), (1.0, 0.0), (0.875, s * off), (0.375, -s * 0.25))


def _dyadic_similarity(rng):
    """z -> a z + b or a conj(z) + b with a a power of two times a power of i,
    and b on a 1/8 grid: exact on the anchor frame's coordinates up to b."""
    a = complex(0.0, 1.0) ** rng.randrange(4) * 2.0 ** rng.randrange(-3, 4)
    b = complex(rng.randrange(-16, 17), rng.randrange(-16, 17)) / 8.0 if rng.random() < 0.5 else 0j
    flip = rng.random() < 0.5

    def move(x, y):
        z = a * complex(x, -y if flip else y) + b
        return (z.real, z.imag)

    return move


@pytest.mark.parametrize("eps", [1e-9, 1e-4])
def test_axis_folds_match_the_pointwise_oracle(eps):
    tol = Tolerance(eps)
    rng = random.Random(611)
    for coords in _axis_quads(eps):
        move = _dyadic_similarity(rng)
        for perm in itertools.permutations(move(x, y) for x, y in coords):
            q = quad(*perm)
            assert repr(normalize_quad(q, tol)) == repr(pointwise_normalize_quad(q, tol)), q


@pytest.mark.parametrize("eps", [1e-18, 1e-12, 9e-4])
def test_forms_match_the_pointwise_oracle_at_the_extreme_eps(eps):
    # the smallest and largest eps decide the ties of the candidate search
    # differently from the default; the comparison must not drift at either
    tol = Tolerance(eps)
    for q in _oracle_quads():
        assert repr(normalize_quad(q, tol)) == repr(pointwise_normalize_quad(q, tol)), q
    rng = random.Random(619)
    for coords in _axis_quads(eps):
        move = _dyadic_similarity(rng)
        for perm in itertools.permutations(move(x, y) for x, y in coords):
            q = quad(*perm)
            assert repr(normalize_quad(q, tol)) == repr(pointwise_normalize_quad(q, tol)), q


def test_normalize_quad_builds_only_the_result_points(monkeypatch):
    made = []

    class CountingPoint(Point):
        def __init__(self, x, y):
            made.append((x, y))
            super().__init__(x, y)

    monkeypatch.setattr(quads, "Point", CountingPoint)
    h = math.sqrt(3.0) / 2.0
    cases = (
        UNIT_SQUARE,
        quad((0.0, 0.0), (1.0, 0.0), (1.5, h), (0.5, h)),
        quad((0.0, 0.0), (0.25, 0.0), (1.5, 0.0), (-1.0, 0.0)),
        quad((0.3, -1.2), (4.1, 0.7), (-2.2, 3.3), (1.9, -2.8)),
    )
    for q in cases:
        made.clear()
        normalize_quad(q)
        assert len(made) == 2


def _carry_cases(rng, count):
    """count seeded sextuples (br, bi, ar, ai, cr, ci) over the whole float range.

    Components come from a pool of random mantissas times 2**k for k in
    [-1074, 1023], signed zeros and small integers; one case in four draws
    all six near a shared exponent instead, and one in six ties |br| = |bi|.
    """
    ldexp = math.ldexp
    pool = [ldexp(rng.uniform(-2.0, 2.0), rng.randint(-1074, 1023)) for _ in range(12000)]
    pool += [0.0, -0.0] * 1000 + [float(n) for n in range(-3, 4)] * 900
    flat = rng.choices(pool, k=6 * count)
    cases = [flat[n : n + 6] for n in range(0, 6 * count, 6)]
    for n in range(0, count, 4):
        top = rng.randint(-1000, 960)
        cases[n] = [ldexp(rng.uniform(-2.0, 2.0), top + rng.randint(-60, 60)) for _ in range(6)]
    for n in range(1, count, 6):
        cases[n][1] = rng.choice((1.0, -1.0)) * cases[n][0]
    return cases


def _complex_quotients(br, bi, ar, ai, cr, ci):
    try:
        w1 = complex(ar, ai) / complex(br, bi)
        w2 = complex(cr, ci) / complex(br, bi)
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc).__name__
    return repr((w1.real, w1.imag, w2.real, w2.imag))


def test_carried_points_match_complex_division_bit_for_bit():
    # both carried points share one ratio and denominator, as two complex
    # divisions by the same divisor do, to the last bit and the sign of zero
    carry = quads._carry
    for case in _carry_cases(random.Random(433), 100000):
        try:
            got = repr(carry(*case))
        except (ZeroDivisionError, OverflowError) as exc:
            got = type(exc).__name__
        assert got == _complex_quotients(*case), case


def test_the_quad_path_builds_no_complex(monkeypatch, capsys):
    # the placements divide in plain floats: a complex() call made by the
    # quad form, the similarity test or a quad record fails here
    def no_complex(*args):
        raise AssertionError("complex() called on the quad path")

    monkeypatch.setattr(quads, "complex", no_complex, raising=False)
    # rescaled first: its distances overflow
    huge = quad((-1.7e308, 0.0), (1.7e308, 0.0), (0.0, 1e308), (0.5e308, -1e308))
    for q in (UNIT_SQUARE, huge):
        form = normalize_quad(q)
        assert in_c_domain(form.c) and in_d_region(form.d, form.c)
        assert quads_similar(q, q)
        assert quads_similar(q, UNIT_SQUARE) is (q is UNIT_SQUARE)
        points = [f"{p.x!r},{p.y!r}" for p in q.vertices]
        for command in ("quad-normalize", "normalize"):
            assert cli.main([command, "--points", *points]) == 0, (command, q)
            assert capsys.readouterr().out.startswith(f"command: {command}\n")


def test_doubled_segment_canonical_form():
    q = quad((0.0, 0.0), (2.0, 0.0), (2.0, 0.0), (0.0, 0.0))
    form = normalize_quad(q)
    assert form.c.close_to(Point(1.0, 0.0), TOL)
    assert form.d.close_to(Point(0.0, 0.0), TOL)


def test_rectangle_differs_from_square():
    rect = quad((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0))
    assert not quads_similar(UNIT_SQUARE, rect)
    assert quads_similar(UNIT_SQUARE, UNIT_SQUARE)


def test_canonical_output_is_admissible():
    rng = random.Random(601)
    for _ in range(250):
        form = normalize_quad(rand_quad(rng, special_fraction=0.25))
        assert in_c_domain(form.c)
        assert form.c.y >= -1e-12
        assert in_d_region(form.d, form.c)


def test_canonical_form_invariant_under_similarity():
    rng = random.Random(602)
    for _ in range(250):
        q = rand_quad(rng, special_fraction=0.25)
        g = rand_transform(rng)
        image = permuted_quad(rng, apply_to_quad(g, q))
        assert normalize_quad(q).close_to(normalize_quad(image), Tolerance(1e-7))


def test_vertex_order_never_matters():
    rng = random.Random(603)
    for _ in range(40):
        q = rand_quad(rng, special_fraction=0.5)
        forms = [
            normalize_quad(Quadrilateral.of(*perm))
            for perm in itertools.permutations(q.vertices)
        ]
        first = forms[0]
        for other in forms[1:]:
            assert first.close_to(other, TOL)


def test_vertex_order_never_changes_the_form_by_an_ulp():
    # exact float equality; only the sign of a zero coordinate may depend on
    # the vertex order, because -0.0 == 0.0
    rng = random.Random(608)
    for _ in range(500):
        q = rand_quad(rng, special_fraction=0.5)
        forms = [normalize_quad(Quadrilateral.of(*perm)) for perm in itertools.permutations(q.vertices)]
        assert all(form == forms[0] for form in forms), (q, forms)


# similarity test


def test_quads_similar_accepts_transformed_copies():
    rng = random.Random(604)
    for _ in range(120):
        q = rand_quad(rng, special_fraction=0.3)
        g = rand_transform(rng)
        assert quads_similar(q, permuted_quad(rng, apply_to_quad(g, q)))


def test_quads_similar_matches_bruteforce_oracle():
    rng = random.Random(605)
    for i in range(60):
        if i % 2 == 0:
            q1 = rand_quad(rng, special_fraction=0.3)
            q2 = permuted_quad(rng, apply_to_quad(rand_transform(rng), q1))
        else:
            q1 = rand_quad(rng)
            q2 = rand_quad(rng)
        assert quads_similar(q1, q2) == quads_similar_bruteforce(q1, q2)


def _copy(rng, q):
    return permuted_quad(rng, apply_to_quad(rand_transform(rng), q))


@pytest.mark.parametrize("make", [extreme_tie_quad, lead_tie_quad])
def test_threshold_copies_are_similar_and_unrelated_ones_are_not(make):
    # rounding in a copy flips normalize_quad's tie decision here, and with
    # it the form by O(1); the verdict must not follow it
    eps = TOL.eps
    rng = random.Random(612)
    for _ in range(400):
        q = make(rng, eps)
        image = _copy(rng, q)
        assert quads_similar_bruteforce(q, image, TOL)
        assert quads_similar(q, image, TOL), (q, image)
        assert quads_similar(image, q, TOL), (q, image)
    for _ in range(100):
        q1 = make(rng, eps)
        q2 = _copy(rng, make(rng, eps))
        assert not quads_similar_bruteforce(q1, q2, TOL)
        assert not quads_similar(q1, q2, TOL), (q1, q2)


def _nudged(rng, q, off):
    """q with one vertex moved by off times its diameter along an axis."""
    diam = max(distance(p, r) for p, r in itertools.combinations(q.vertices, 2))
    verts = list(q.vertices)
    n = rng.randrange(4)
    step = rng.choice((-1.0, 1.0)) * off * diam
    p = verts[n]
    verts[n] = Point(p.x + step, p.y) if rng.random() < 0.5 else Point(p.x, p.y + step)
    return Quadrilateral.of(*verts)


@pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-4])
def test_quads_similar_matches_the_eight_image_loop(eps):
    tol = Tolerance(eps)
    rng = random.Random(618)
    verdicts = set()
    for _ in range(150):
        q = rand_quad(rng, special_fraction=0.5)
        image = _copy(rng, q)
        pairs = [(q, image), (rand_quad(rng), rand_quad(rng))]
        pairs += [(q, _nudged(rng, image, off)) for off in (0.0, 0.5 * eps, eps, 2.0 * eps)]
        for q1, q2 in pairs:
            verdict = quads_similar(q1, q2, tol)
            assert verdict is quads_similar_eight_images(q1, q2, tol), (q1, q2)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_bruteforce_oracle_accepts_copies_at_every_scale():
    rng = random.Random(620)
    for _ in range(5):
        q = rand_quad(rng, special_fraction=0.3)
        for scale in (1e-300, 1e-250, 1e250, 1e300):
            g = SimilarityTransform(
                a=cmath.rect(scale, rng.uniform(-math.pi, math.pi)),
                reflect=rng.random() < 0.5,
                b=complex(scale * rng.uniform(-2.0, 2.0), scale * rng.uniform(-2.0, 2.0)),
            )
            image = permuted_quad(rng, apply_to_quad(g, q))
            assert quads_similar_bruteforce(q, image, TOL), (q, image)
            assert quads_similar_bruteforce(image, q, TOL), (q, image)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_bruteforce_oracle_rejects_a_moved_point_at_every_scale(scale):
    # the third point moves by 10 eps of the diameter, at every scale
    base = ((0.0, 0.0), (1.0, 0.0), (0.7, 0.4), (0.2, -0.3))
    moved = ((0.0, 0.0), (1.0, 0.0), (0.7, 0.4 + 1e-8), (0.2, -0.3))
    q1 = quad(*((scale * x, scale * y) for x, y in base))
    q2 = quad(*((scale * x, scale * y) for x, y in moved))
    assert not quads_similar_bruteforce(q1, q2, TOL)
    assert not quads_similar(q1, q2, TOL)


def _base_pairs(rng):
    """Special-heavy quads paired with themselves, then unrelated generic pairs."""
    for _ in range(40):
        q = rand_quad(rng, special_fraction=0.5)
        yield q, q, True
    for _ in range(40):
        yield rand_quad(rng), rand_quad(rng), False


def _verdict_pairs(rng):
    for q1, q2, similar in _base_pairs(rng):
        yield q1, _copy(rng, q2), similar


@pytest.mark.parametrize("eps", [1e-9, 1e-4])
def test_quads_similar_is_symmetric(eps):
    tol = Tolerance(eps)
    for q1, q2, similar in _verdict_pairs(random.Random(613)):
        assert quads_similar(q1, q2, tol) is similar
        assert quads_similar(q2, q1, tol) is similar


@pytest.mark.parametrize("eps", [1e-9, 1e-4])
def test_quads_similar_ignores_the_vertex_order(eps):
    tol = Tolerance(eps)
    for q1, q2, similar in _verdict_pairs(random.Random(614)):
        for perm in itertools.permutations(q2.vertices):
            assert quads_similar(q1, Quadrilateral.of(*perm), tol) is similar


@pytest.mark.parametrize("eps", [1e-9, 1e-4])
def test_quads_similar_holds_across_the_float_range(eps):
    # the largest distance of each copy falls outside [2**-969, 2**960], so
    # both quads of a pair are aligned on their rescaled frames
    tol = Tolerance(eps)
    rng = random.Random(615)
    for q1, q2, similar in _base_pairs(rng):
        for scale in (1e-310, 1e-300, 1e300, 1e307):
            g = SimilarityTransform(
                a=cmath.rect(scale, rng.uniform(-math.pi, math.pi)),
                reflect=rng.random() < 0.5,
                b=complex(scale * rng.uniform(-2.0, 2.0), scale * rng.uniform(-2.0, 2.0)),
            )
            image = permuted_quad(rng, apply_to_quad(g, q2))
            assert quads_similar(q1, image, tol) is similar, (q1, image)
            assert quads_similar(image, q1, tol) is similar, (q1, image)


@pytest.mark.parametrize("eps", [1e-9, 1e-4])
def test_quads_similar_matches_the_forms_close_verdict_away_from_ties(eps):
    tol = Tolerance(eps)
    rng = random.Random(616)
    for _ in range(200):
        q = rand_quad(rng, special_fraction=0.5)
        image = _copy(rng, q)
        assert quads_similar(q, image, tol) is forms_close_verdict(q, image, tol) is True
        q1 = rand_quad(rng, special_fraction=0.5)
        q2 = rand_quad(rng, special_fraction=0.5)
        assert quads_similar(q1, q2, tol) is forms_close_verdict(q1, q2, tol)


def test_quads_similar_builds_no_normal_form(monkeypatch):
    calls = []
    quad_form = quads._quad_form

    def counting_quad_form(*args):
        calls.append(args)
        return quad_form(*args)

    monkeypatch.setattr(quads, "_quad_form", counting_quad_form)
    rng = random.Random(617)
    for _ in range(20):
        q = rand_quad(rng, special_fraction=0.5)
        assert quads_similar(q, _copy(rng, q))
        quads_similar(q, rand_quad(rng))
    assert calls == []


# reflection orbits


def test_orbit_count_landmarks():
    # generic: all four reflected copies are genuinely different shapes
    assert reflection_orbit_type_count(Point(0.7, 0.3), Point(0.7, 0.3)) == 4
    assert reflection_orbit_type_count(Point(0.7, 0.3), Point(0.3, -0.3)) == 4
    # equal anchor distances: mirror pairs coincide
    assert reflection_orbit_type_count(Point(0.5, 0.4), Point(0.5, 0.4)) == 2
    assert reflection_orbit_type_count(Point(0.5, 0.4), Point(0.5, -0.4)) == 2
    # on the axis: the vertical flip is a no-op
    assert reflection_orbit_type_count(Point(0.8, 0.0), Point(0.2, 0.0)) == 2
    # the fixed point of the whole group
    assert reflection_orbit_type_count(Point(0.5, 0.0), Point(0.5, 0.0)) == 1


def test_orbit_count_requires_shared_image():
    with pytest.raises(PreconditionViolated):
        reflection_orbit_type_count(Point(0.7, 0.3), Point(0.6, 0.3))


def test_orbit_count_matches_enumeration():
    rng = random.Random(606)
    for _ in range(120):
        mode = rng.randrange(4)
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
            if not any(form.close_to(seen, TOL) for seen in distinct):
                distinct.append(form)
        assert count == len(distinct)
