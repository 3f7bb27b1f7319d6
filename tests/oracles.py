"""Independent reference computations the tests compare the library against."""

from __future__ import annotations

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

from simnorm import (
    DEFAULT_TOL,
    ORIGIN,
    Point,
    Quadrilateral,
    QuadNormalForm,
    SimilarityTransform,
    Tolerance,
    Triangle,
    distance,
    normalize_quad,
    reflect_normalize,
    similarity_from_segment,
)
from simnorm import quads
from simnorm.errors import DegenerateSegment, UnboundedType
from simnorm.geometry import _HUGE, _TINY, _rescaled
from simnorm.triangles import TriangleClass, _classify

_X_AXIS_REFLECT = SimilarityTransform(reflect=True)
# reflection across the vertical line x = 1/2: z -> 1 - conj(z)
_MIDLINE_REFLECT = SimilarityTransform(-1.0, 1.0, reflect=True)


def pipeline_normal_point(t: Triangle, rank: int) -> Point:
    """One-vertex normal point by a chain of explicit similarity transforms.

    Moves the side of the requested rank (0 shortest, 2 longest) onto the
    x-axis starting at the origin, reflects the remaining vertex into the
    upper half plane, dilates the side to unit length, and finally reflects
    across x = 1/2 when needed.  Each map is fitted over |p|^2 and applied
    by one complex multiply-add, so it shares no arithmetic with the
    library's placement, CPython's complex quotient (Smith's steps) written
    out in floats bit for bit, and it can referee it.  Sides shorter than
    the absolute eps of similarity_from_segment raise DegenerateSegment.
    """
    v = t.vertices
    pairs = sorted((distance(v[i], v[j]), (i, j)) for i, j in ((0, 1), (0, 2), (1, 2)))
    length, (i, j) = pairs[rank]
    p = similarity_from_segment(v[i], v[j], ORIGIN, Point(length, 0.0)).apply(v[3 - i - j])
    if p.y < 0.0:
        p = _X_AXIS_REFLECT.apply(p)
    p = SimilarityTransform(1.0 / length).apply(p)
    if p.x < 0.5:
        p = _MIDLINE_REFLECT.apply(p)
    return p


def _list_sorted_pairs(t: Triangle) -> tuple[list[tuple[float, tuple[int, int]]], tuple[Point, ...]]:
    """Side lengths with their endpoint indexes, sorted as a list, and the vertices.

    Outside [_TINY, _HUGE] both are those of the copy rescaled by a power of two.
    """
    v = t.vertices
    pairs = sorted((distance(v[i], v[j]), (i, j)) for i, j in ((0, 1), (0, 2), (1, 2)))
    if not _TINY <= pairs[2][0] <= _HUGE:
        xs, ys = _rescaled([p.x for p in v], [p.y for p in v], pairs[2][0])
        v = tuple(map(Point, xs, ys))
        pairs = sorted((distance(v[i], v[j]), (i, j)) for i, j in ((0, 1), (0, 2), (1, 2)))
    return pairs, v


def list_sort_normal_point(t: Triangle, rank: int, tol: Tolerance = DEFAULT_TOL) -> Point:
    """One-vertex normal point from side pairs sorted as a list of tuples.

    Measures the sides with distance(), sorts (length, (i, j)) tuples with
    list.sort and places the free vertex by complex arithmetic on the
    Points.  Same arithmetic as the library's single side pass, different
    ordering code, so the two must agree bit for bit.
    """
    pairs, v = _list_sorted_pairs(t)
    a, c = pairs[0][0], pairs[2][0]
    if rank == 0 and (a <= tol.eps * c or a < 2.0**-510 * c):
        raise UnboundedType("side lengths of type (0, c, c) have no finite shortest-side form")
    _, (i, j) = pairs[rank]
    free = v[3 - i - j]
    zi = complex(v[i].x, v[i].y)
    w = (complex(free.x, free.y) - zi) / (complex(v[j].x, v[j].y) - zi)
    x = w.real
    return Point(x if x >= 0.5 else 1.0 - x, abs(w.imag))


def list_sort_classify(t: Triangle, tol: Tolerance = DEFAULT_TOL) -> TriangleClass:
    """classify from the list-sort c point and the list-sorted side lengths."""
    pairs, _ = _list_sorted_pairs(t)
    a, b, c = (length for length, _ in pairs)
    p = list_sort_normal_point(t, 2)
    return _classify(p.x, p.y, a, b, c, tol.eps)


def _exact_radicand(a: float, b: float, c: float) -> Fraction:
    """16 * area^2 of the triangle with these side lengths, exactly."""
    fa, fb, fc = Fraction(a), Fraction(b), Fraction(c)
    return (fa + fb + fc) * (-fa + fb + fc) * (fa - fb + fc) * (fa + fb - fc)


def _decimal_sqrt(r: Fraction) -> Decimal:
    return (Decimal(r.numerator) / Decimal(r.denominator)).sqrt()


def exact_c_height(a: float, b: float, c: float) -> float:
    """Height of the longest-side normal point, correctly rounded."""
    with localcontext() as ctx:
        ctx.prec = 50
        return float(_decimal_sqrt(_exact_radicand(a, b, c)) / (2 * Decimal(c) ** 2))


def exact_normal_x(a: float, b: float, c: float, rank: int) -> float:
    """First coordinate of the one-vertex normal point anchoring the side of this rank.

    With u the anchored side and d1 <= d0 the free ones of sorted sides
    a <= b <= c, it is (u^2 + d0^2 - d1^2) / (2 u^2), here evaluated exactly
    and rounded once.
    """
    # integers over the common power-of-two denominator, which cancels
    ratios = [v.as_integer_ratio() for v in (a, b, c)]
    den = max(q for _, q in ratios)
    sides = [n * (den // q) for n, q in ratios]
    u = sides.pop(rank)
    d1, d0 = sides
    return float(Fraction(u * u + d0 * d0 - d1 * d1, 2 * u * u))


def exact_smallest_angle(a: float, b: float, c: float) -> float:
    """Angle opposite the shortest side a of sorted sides a <= b <= c.

    Its tangent sqrt(radicand) / (b^2 + c^2 - a^2) is evaluated to 50
    digits; atan is well conditioned, so the float result is within a few
    ulps of the true angle.
    """
    fa, fb, fc = Fraction(a), Fraction(b), Fraction(c)
    with localcontext() as ctx:
        ctx.prec = 50
        den = fb * fb + fc * fc - fa * fa
        tangent = _decimal_sqrt(_exact_radicand(a, b, c)) / (
            Decimal(den.numerator) / Decimal(den.denominator)
        )
    return math.atan(float(tangent))


def _reflection_images(p: Point) -> tuple[Point, Point, Point, Point]:
    """Images of p under the four reflections fixing the anchor pair."""
    return (
        p,
        Point(1.0 - p.x, p.y),
        Point(p.x, -p.y),
        Point(1.0 - p.x, -p.y),
    )


def _key_cmp(a: tuple[float, ...], b: tuple[float, ...], e: float) -> int:
    """Lexicographic comparison treating components within e as tied.

    Placement arithmetic perturbs coordinates by a few ulps, so raw float
    comparison of keys would let that noise decide between reflection
    branches whose folded keys agree; a carried point sitting exactly on a
    symmetry axis would then canonicalize differently for different vertex
    orders of the same quadrilateral.
    """
    for x, y in zip(a, b):
        if x > y + e:
            return 1
        if x < y - e:
            return -1
    return 0


def _pointwise_leading_choices(c1: Point, c2: Point, e: float) -> list[tuple[Point, Point]]:
    m1 = abs(c1.x - 0.5)
    m2 = abs(c2.x - 0.5)
    if m1 > m2 + e:
        return [(c1, c2)]
    if m2 > m1 + e:
        return [(c2, c1)]
    y1 = abs(c1.y)
    y2 = abs(c2.y)
    if y1 > y2 + e:
        return [(c1, c2)]
    if y2 > y1 + e:
        return [(c2, c1)]
    return [(c1, c2), (c2, c1)]


def _pointwise_key(cand: tuple[Point, Point]) -> tuple[float, ...]:
    c, d = cand
    cs = reflect_normalize(c)
    ds = reflect_normalize(d)
    return (cs.x, cs.y, ds.x, ds.y, c.x, c.y, d.x, d.y)


def pointwise_normalize_quad(q: Quadrilateral, tol: Tolerance = DEFAULT_TOL) -> QuadNormalForm:
    """Quad normal form built from validated Points at every step.

    Places the carried points of every extreme pair and endpoint order,
    materializes all four reflection images of both as Points, collects
    every admissible candidate, and then picks the largest by the folded
    key with the raw-coordinate tie-break.  It performs the same float
    operations in the same order as normalize_quad at unit scale, so the
    two must agree bit for bit there; it does not rescale, so it fails on
    quads whose largest distance is subnormal or overflows.
    """
    e = tol.eps
    verts = q.vertices
    pairs = list(itertools.combinations(range(4), 2))
    dists = {pair: distance(verts[pair[0]], verts[pair[1]]) for pair in pairs}
    d_max = max(dists.values())
    extreme = [pair for pair in pairs if dists[pair] >= d_max * (1.0 - e)]

    z = [complex(v.x, v.y) for v in verts]
    candidates: list[tuple[Point, Point]] = []
    for i, j in extreme:
        k, m = (n for n in range(4) if n != i and n != j)
        for src, dst in ((i, j), (j, i)):
            den = z[dst] - z[src]
            w1 = (z[k] - z[src]) / den
            w2 = (z[m] - z[src]) / den
            p1 = Point(w1.real, w1.imag)
            p2 = Point(w2.real, w2.imag)
            for lead, trail in _pointwise_leading_choices(p1, p2, e):
                for li, ti in zip(_reflection_images(lead), _reflection_images(trail)):
                    if li.x >= 0.5 - e and li.y >= -e:
                        candidates.append((li, ti))

    best = candidates[0]
    best_key = _pointwise_key(best)
    for cand in candidates[1:]:
        key = _pointwise_key(cand)
        order = _key_cmp(key, best_key, e)
        if order > 0 or (order == 0 and key > best_key):
            best, best_key = cand, key
    return QuadNormalForm(best[0], best[1])


def _unit_diameter(q: Quadrilateral) -> tuple[tuple[Point, ...], float]:
    """q's vertices times the power of two that brings its diameter into [1/2, 1), and that diameter."""
    v = q.vertices
    d_max = max(distance(p, r) for p, r in itertools.combinations(v, 2))
    xs, ys = _rescaled([p.x for p in v], [p.y for p in v], d_max)
    verts = tuple(map(Point, xs, ys))
    return verts, max(distance(p, r) for p, r in itertools.combinations(verts, 2))


def quads_similar_bruteforce(
    q1: Quadrilateral, q2: Quadrilateral, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Similarity test by exhausting vertex correspondences.

    Tries every ordering of both vertex tuples against each other and both
    orientation classes, fitting the similarity on the first corresponded
    pair that is distinct on both sides and then checking that all four
    vertices land within eps times q2's diameter of where they should.
    Both quads are first brought to unit diameter by an exact power of two,
    so the verdict is the same at every scale.  Slow but free of any
    canonicalization logic, so it can referee the normal-form based test.
    """
    verts1, _ = _unit_diameter(q1)
    verts2, diam2 = _unit_diameter(q2)
    limit = tol.eps * diam2
    for order1 in itertools.permutations(verts1):
        for order2 in itertools.permutations(verts2):
            fit_pair = None
            for i, j in itertools.combinations(range(4), 2):
                if (
                    distance(order1[i], order1[j]) > tol.eps
                    and distance(order2[i], order2[j]) > tol.eps
                ):
                    fit_pair = (i, j)
                    break
            if fit_pair is None:
                continue
            i, j = fit_pair
            for reflect in (False, True):
                try:
                    g = similarity_from_segment(
                        order1[i], order1[j], order2[i], order2[j], reflect=reflect
                    )
                except DegenerateSegment:
                    continue
                if all(
                    distance(g.apply(p), q) <= limit for p, q in zip(order1, order2)
                ):
                    return True
    return False


def quads_similar_eight_images(
    q1: Quadrilateral, q2: Quadrilateral, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """quads_similar trying the eight anchor-fixing images of (a, b) one at a time.

    It makes the same float comparisons as quads._quads_similar, image by
    image instead of as an x choice and a y choice, so the two must agree
    on every pair.  It shares the library's frame and rescale, but carries
    the points by dividing complex numbers.
    """
    e = tol.eps
    dists, d_max, xs, ys = quads._frame(*(c for p in q1.vertices for c in (p.x, p.y)))
    z = [complex(x, y) for x, y in zip(xs, ys)]
    i, j, k, m = quads._PAIR_SPLITS[dists.index(d_max)]
    den = z[j] - z[i]
    a = (z[k] - z[i]) / den
    b = (z[m] - z[i]) / den
    ax, ay, bx, by = a.real, a.imag, b.real, b.imag
    rx, sx = 1.0 - ax, 1.0 - bx
    images = (
        (ax, ay, bx, by), (ax, -ay, bx, -by), (rx, ay, sx, by), (rx, -ay, sx, -by),
        (bx, by, ax, ay), (bx, -by, ax, -ay), (sx, by, rx, ay), (sx, -by, rx, -ay),
    )
    dists, d_max, xs, ys = quads._frame(*(c for p in q2.vertices for c in (p.x, p.y)))
    z = [complex(x, y) for x, y in zip(xs, ys)]
    limit = d_max * (1.0 - 4.0 * e)
    for (i, j, k, m), dist in zip(quads._PAIR_SPLITS, dists):
        if dist < limit:
            continue
        den = z[j] - z[i]
        u = (z[k] - z[i]) / den
        v = (z[m] - z[i]) / den
        ux, uy, vx, vy = u.real, u.imag, v.real, v.imag
        for px, py, qx, qy in images:
            if abs(ux - px) <= e and abs(uy - py) <= e and abs(vx - qx) <= e and abs(vy - qy) <= e:
                return True
    return False


def forms_close_verdict(q1: Quadrilateral, q2: Quadrilateral, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Similarity test by comparing the two normal forms within tol.eps.

    Away from the eps ties of normalize_quad it agrees with quads_similar.
    At a tie, rounding in a copy can make one form jump by O(1), and this
    rule then rejects a true copy.
    """
    return normalize_quad(q1, tol).close_to(normalize_quad(q2, tol), tol)


def shoelace_area(p: Point, q: Point, r: Point) -> float:
    """Unsigned triangle area from the cross product."""
    return abs((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)) / 2.0


def herons_area(a: float, b: float, c: float) -> float:
    """Unsigned triangle area from the side lengths."""
    s = (a + b + c) / 2.0
    return math.sqrt(max(0.0, s * (s - a) * (s - b) * (s - c)))


def _angle_gap(p2: Fraction, q2: Fraction, r2: Fraction, area4: Decimal) -> float:
    """The angle opposite q minus the angle opposite p, sides squared p2 <= q2, r2 the third.

    With 4A four times the area, it is atan2(2 * 4A * (q^2 - p^2),
    (p^2 + r^2 - q^2)(q^2 + r^2 - p^2) + (4A)^2), both terms to 50 digits,
    so a gap of 1e-14 keeps all its digits.
    """
    num = (q2 - p2) * 2
    den = (p2 + r2 - q2) * (q2 + r2 - p2)
    return math.atan2(
        float(area4 * Decimal(num.numerator) / Decimal(num.denominator)),
        float(Decimal(den.numerator) / Decimal(den.denominator) + area4 * area4),
    )


def exact_class_gaps(a2: Fraction, b2: Fraction, c2: Fraction) -> tuple[float, ...]:
    """What the angle and side classes of a triangle bound, from its exact squared sides.

    For squared sides a2 <= b2 <= c2, the angles alpha <= beta <= gamma
    opposite them and the height y of the longest-side normal point, it is
    (y, c/a, pi/2 - gamma, beta - alpha, gamma - beta), each evaluated to 50
    digits and rounded once or passed through one atan2: pi/2 - gamma is
    atan2(a^2 + b^2 - c^2, 4A) for the area A.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        r16 = 2 * (a2 * b2 + b2 * c2 + c2 * a2) - a2 * a2 - b2 * b2 - c2 * c2
        area4 = (Decimal(r16.numerator) / Decimal(r16.denominator)).sqrt()
        c2d = Decimal(c2.numerator) / Decimal(c2.denominator)
        a2d = Decimal(a2.numerator) / Decimal(a2.denominator)
        right = a2 + b2 - c2
        return (
            float(area4 / (2 * c2d)),
            float((c2d / a2d).sqrt()),
            math.atan2(float(Decimal(right.numerator) / Decimal(right.denominator)), float(area4)),
            _angle_gap(a2, b2, c2, area4),
            _angle_gap(b2, c2, a2, area4),
        )


def vertex_angle(v: Point, p: Point, q: Point) -> float:
    """Interior angle at v between rays toward p and q, in [0, pi]."""
    ux, uy = p.x - v.x, p.y - v.y
    wx, wy = q.x - v.x, q.y - v.y
    return math.atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy)


def is_normal_circle_triangle(t: Triangle, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Check whether t is exactly a circle-form representative.

    Requires all vertices on the unit circle, one vertex at (1, 0), one
    strictly above and one strictly below the x-axis, and the recovered
    smallest/median angles inside their constraint region.
    """
    e = tol.eps
    verts = t.vertices
    for v in verts:
        if abs(math.hypot(v.x, v.y) - 1.0) > e:
            return False
    anchor = [v for v in verts if abs(v.x - 1.0) <= e and abs(v.y) <= e]
    if len(anchor) != 1:
        return False
    rest = [v for v in verts if v is not anchor[0]]
    upper = max(rest, key=lambda v: v.y)
    lower = min(rest, key=lambda v: v.y)
    if not (upper.y > 0.0 and lower.y < 0.0):
        return False
    alpha = vertex_angle(upper, lower, anchor[0])
    beta = vertex_angle(lower, upper, anchor[0])
    return alpha <= math.pi / 3.0 + e and alpha - e <= beta <= math.pi / 2.0 - alpha / 2.0 + e
