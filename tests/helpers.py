"""Seeded random generators shared by the test modules.

All sampling goes through an explicit random.Random instance so every
test run sees the same inputs.  Degenerate triangles are generated on a
dyadic grid (multiples of 1/32) where distance arithmetic is exact;
random rotations would turn an exact zero area into sqrt-amplified
noise and the tests would measure rounding instead of the geometry.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random

from simnorm import (
    FormKind, Point, Quadrilateral, SimilarityTransform, Tolerance, Triangle, in_domain
)

# rejection threshold: |cross| relative to longest side squared
MIN_THICKNESS = 1e-6


def rand_point(rng: random.Random, span: float = 10.0) -> Point:
    return Point(rng.uniform(-span, span), rng.uniform(-span, span))


def dyadic(rng: random.Random, limit: int = 64) -> float:
    return rng.randrange(-limit, limit + 1) / 32.0


def _thickness(p: Point, q: Point, r: Point) -> float:
    cross = abs((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x))
    longest = max(math.dist((p.x, p.y), (q.x, q.y)),
                  math.dist((p.x, p.y), (r.x, r.y)),
                  math.dist((q.x, q.y), (r.x, r.y)))
    return cross / (longest * longest)


def rand_thick_triangle(rng: random.Random, span: float = 10.0) -> Triangle:
    """Nondegenerate triangle, rejection-sampled away from collinearity."""
    while True:
        p, q, r = (rand_point(rng, span) for _ in range(3))
        if _thickness(p, q, r) >= MIN_THICKNESS:
            return Triangle.of(p, q, r)


def collinear_triangle(rng: random.Random) -> Triangle:
    """Exactly degenerate: three distinct dyadic points on one horizontal line."""
    y = dyadic(rng)
    xs = rng.sample(range(-64, 65), 3)
    verts = [Point(x / 32.0, y) for x in xs]
    rng.shuffle(verts)
    return Triangle.of(*verts)


def repeated_vertex_triangle(rng: random.Random, span: float = 10.0) -> Triangle:
    p = rand_point(rng, span)
    q = rand_point(rng, span)
    verts = [p, q, rng.choice((p, q))]
    rng.shuffle(verts)
    return Triangle.of(*verts)


def rand_triangle(
    rng: random.Random,
    degenerate_fraction: float = 0.0,
    repeat_fraction: float = 0.0,
    span: float = 10.0,
) -> Triangle:
    roll = rng.random()
    if roll < repeat_fraction:
        return repeated_vertex_triangle(rng, span)
    if roll < repeat_fraction + degenerate_fraction:
        return collinear_triangle(rng)
    return rand_thick_triangle(rng, span)


def rand_transform(
    rng: random.Random, lo: float = 1e-3, hi: float = 1e3
) -> SimilarityTransform:
    scale = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    theta = rng.uniform(-math.pi, math.pi)
    reflect = rng.random() < 0.5
    shift = rand_point(rng, 5.0)
    return SimilarityTransform(cmath.rect(scale, theta), complex(shift.x, shift.y), reflect)


def apply_to_triangle(g: SimilarityTransform, t: Triangle) -> Triangle:
    return Triangle.of(*(g.apply(v) for v in t.vertices))


def apply_to_quad(g: SimilarityTransform, q: Quadrilateral) -> Quadrilateral:
    return Quadrilateral.of(*(g.apply(v) for v in q.vertices))


def permuted_quad(rng: random.Random, q: Quadrilateral) -> Quadrilateral:
    verts = list(q.vertices)
    rng.shuffle(verts)
    return Quadrilateral.of(*verts)


def rand_angles(rng: random.Random, margin: float = 1e-3) -> tuple[float, float, float]:
    """A sorted valid angle triple sampled inside the constraint region."""
    alpha = rng.uniform(margin, math.pi / 3.0 - margin)
    beta = rng.uniform(alpha, math.pi / 2.0 - alpha / 2.0 - margin)
    return (alpha, beta, math.pi - alpha - beta)


def near_boundary_angles(rng: random.Random, gap: float = 1e-6) -> tuple[float, float, float]:
    """Angle triples within gap of a constraint boundary or the right angle."""
    mode = rng.randrange(5)
    if mode == 0:
        # alpha near its upper corner pi/3 (equilateral)
        alpha = math.pi / 3.0 - rng.uniform(0.0, gap)
        beta = rng.uniform(alpha, math.pi / 2.0 - alpha / 2.0)
    elif mode == 1:
        # beta pinned near alpha (isosceles edge)
        alpha = rng.uniform(0.2, math.pi / 3.0 - 0.01)
        beta = alpha + rng.uniform(0.0, gap)
    elif mode == 2:
        # beta near its upper bound (the other isosceles edge)
        alpha = rng.uniform(0.2, math.pi / 3.0 - 0.01)
        beta = math.pi / 2.0 - alpha / 2.0 - rng.uniform(0.0, gap)
    elif mode == 3:
        # gamma near the right angle
        alpha = rng.uniform(0.2, math.pi / 4.0 - 0.01)
        beta = math.pi / 2.0 - alpha + rng.uniform(-gap, gap)
    else:
        # alpha near zero (almost degenerate)
        alpha = gap * rng.uniform(0.5, 1.0)
        beta = rng.uniform(0.3, math.pi / 2.0 - alpha / 2.0 - 0.01)
    return (alpha, beta, math.pi - alpha - beta)


def rand_quad(rng: random.Random, special_fraction: float = 0.0, span: float = 10.0) -> Quadrilateral:
    """Random 4-point multiset; special cases stress the tie-break paths."""
    if rng.random() < special_fraction:
        mode = rng.randrange(4)
        if mode == 0:
            # square
            base = (Point(0.0, 0.0), Point(1.0, 0.0), Point(1.0, 1.0), Point(0.0, 1.0))
        elif mode == 1:
            # rhombus from two reflected equilateral halves
            h = math.sqrt(3.0) / 2.0
            base = (Point(0.0, 0.0), Point(1.0, 0.0), Point(1.5, h), Point(0.5, h))
        elif mode == 2:
            # collinear dyadic points
            y = dyadic(rng)
            xs = rng.sample(range(-64, 65), 4)
            base = tuple(Point(x / 32.0, y) for x in xs)
        else:
            # repeated vertex
            p, q, r = (rand_point(rng, span) for _ in range(3))
            base = (p, q, r, rng.choice((p, q, r)))
        verts = list(base)
        rng.shuffle(verts)
        return Quadrilateral.of(*verts)
    return Quadrilateral.of(*(rand_point(rng, span) for _ in range(4)))


def _threshold_quad(c: tuple[float, float], d: tuple[float, float]) -> Quadrilateral:
    return Quadrilateral.of(Point(0.0, 0.0), Point(1.0, 0.0), Point(*c), Point(*d))


def _lens_distances(c: tuple[float, float], d: tuple[float, float]) -> list[float]:
    """The distances among the anchors (0,0), (1,0) and c, d, except the anchor pair's."""
    return [math.dist(p, q) for p, q in ((c, (0.0, 0.0)), (c, (1.0, 0.0)), (d, (0.0, 0.0)), (d, (1.0, 0.0)), (c, d))]


def extreme_tie_quad(rng: random.Random, eps: float) -> Quadrilateral:
    """A quad whose second-longest pair ties the longest at relative eps.

    The anchors (0,0) and (1,0) are the longest pair; c lies at distance
    1 - eps * (1 +- 1e-7) from the origin, so a similar copy's rounding
    decides whether normalize_quad counts the pair (0, c) as extreme too.
    """
    r = 1.0 - eps * (1.0 + rng.choice((1e-7, -1e-7)))
    angle = rng.uniform(0.3, 0.9) * rng.choice((1.0, -1.0))
    c = (r * math.cos(angle), r * math.sin(angle))
    while True:
        d = (rng.uniform(0.1, 0.9), rng.uniform(-0.6, 0.6))
        dists = _lens_distances(c, d)
        if max(dists[2:]) < 0.9 and dists[4] > 0.05:
            return _threshold_quad(c, d)


def lead_tie_quad(rng: random.Random, eps: float) -> Quadrilateral:
    """A quad whose carried points tie for the lead at eps.

    The anchors (0,0) and (1,0) are the unique longest pair, and the fold
    distances of c and d from x = 1/2 differ by eps * (1 +- 1e-7), so a
    similar copy's rounding decides which of them normalize_quad lets lead.
    """
    while True:
        f = rng.uniform(0.05, 0.3)
        g = f + eps * (1.0 + rng.choice((1e-7, -1e-7)))
        c = (0.5 + rng.choice((1.0, -1.0)) * f, rng.uniform(0.1, 0.6) * rng.choice((1.0, -1.0)))
        d = (0.5 + rng.choice((1.0, -1.0)) * g, rng.uniform(0.1, 0.6) * rng.choice((1.0, -1.0)))
        if rng.random() < 0.5:
            c, d = d, c
        dists = _lens_distances(c, d)
        if max(dists) < 0.95 and dists[4] > 0.05:
            return _threshold_quad(c, d)


def _golden_points(pts) -> str:
    return "points " + " ".join(repr(c) for p in pts for c in p)


def _golden_angles(values, degrees: bool) -> str:
    values = list(values)
    if degrees:
        values = [math.degrees(v) for v in values]
    return "angles " + " ".join(map(repr, values))


def needle(a: float, t: float) -> tuple[tuple[float, float], ...]:
    """The triangle with sides (a, 1, 1 + a*t), its short side on the x-axis.

    The apex x comes from the factored difference of squares (b - c)(b + c),
    which keeps its bits where b^2 - c^2 would cancel.  With the long side
    on the x-axis instead, the apex at x = 1 - a^2/2 would round onto a
    base vertex once a is below about 1e-8.
    """
    b, c = 1.0, 1.0 + a * t
    x = (a + (b - c) * (b + c) / a) / 2.0
    return (0.0, 0.0), (a, 0.0), (x, math.sqrt(max(b * b - x * x, 0.0)))


def golden_lines(seed: int, degrees: bool = False) -> list[tuple[str, frozenset[str]]]:
    """About 2,000 seeded batch lines, each with the kinds it cannot be computed in.

    A kind name in a line's set ("a" or "circle") marks a line whose form
    does not exist at the default eps: a degenerate triangle has no circle
    form, and a shortest side within eps of zero has no a form.  Every line
    computes under kinds b and c.  The lines cover every tag: points with 3
    and 4 points, sides, and angles (in degrees when degrees is set).
    """
    rng = random.Random(seed)
    flat, no_a = frozenset({"circle"}), frozenset({"a", "circle"})
    lines: list[tuple[str, frozenset[str]]] = []

    def add(line: str, skip: frozenset[str] = frozenset()) -> None:
        lines.append((line, skip))

    for _ in range(300):
        add(_golden_points((v.x, v.y) for v in rand_thick_triangle(rng).vertices))
    for _ in range(200):
        u, v, w = rand_thick_triangle(rng).vertices
        sides = [math.dist((p.x, p.y), (q.x, q.y)) for p, q in ((u, v), (u, w), (v, w))]
        rng.shuffle(sides)
        add("sides " + " ".join(map(repr, sides)))
    for _ in range(150):
        values = list(rand_angles(rng))
        rng.shuffle(values)
        add(_golden_angles(values, degrees))
    for _ in range(50):
        add(_golden_angles(near_boundary_angles(rng), degrees))
    # needles with a/c from 1e-8 up, and beyond the default eps (no a form)
    for _ in range(150):
        a = 10.0 ** rng.uniform(-8.0, 0.0)
        t = 0.0 if rng.random() < 0.5 else rng.uniform(-0.9, 0.9)
        pts = needle(a, t)
        add(_golden_points(pts))
        add("sides " + " ".join(repr(math.dist(p, q)) for p, q in itertools.combinations(pts, 2)))
    for _ in range(50):
        a = 10.0 ** rng.uniform(-300.0, -10.0)
        add(_golden_points(needle(a, rng.uniform(-0.9, 0.9))), no_a)
        add(f"sides {a!r} 1.0 1.0", no_a)
        alpha = 2.0 * math.asin(a / 2.0)
        add(_golden_angles((alpha, (math.pi - alpha) / 2.0, (math.pi - alpha) / 2.0), degrees), no_a)
    # near-flat apexes over the unit base: flat up to 1e-10, thick from 1e-8
    for _ in range(100):
        x = rng.uniform(0.0, 1.0)
        if rng.random() < 0.5:
            add(_golden_points(((0.0, 0.0), (1.0, 0.0), (x, 10.0 ** rng.uniform(-15.0, -10.0)))), flat)
        else:
            add(_golden_points(((0.0, 0.0), (1.0, 0.0), (x, 10.0 ** rng.uniform(-8.0, -3.0)))))
    # near-axis apexes around the right-angle arc
    for _ in range(100):
        theta = 10.0 ** rng.uniform(-7.5, -1.0)
        r = 0.5 + rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-12.0, -7.0)
        add(_golden_points(((0.0, 0.0), (1.0, 0.0), (0.5 + r * math.cos(theta), r * math.sin(theta)))))
    # scales 2**-1000 and 2**1000 of random triangles; subnormal dyadic ones,
    # exact at every scale down to 2**-1074
    for _ in range(100):
        k = rng.choice((-1000, 1000))
        add(_golden_points((math.ldexp(v.x, k), math.ldexp(v.y, k)) for v in rand_thick_triangle(rng).vertices))
    for _ in range(100):
        while True:
            pts = [(rng.randrange(-64, 65), rng.randrange(-64, 65)) for _ in range(3)]
            (x0, y0), (x1, y1), (x2, y2) = pts
            if (x1 - x0) * (y2 - y0) != (y1 - y0) * (x2 - x0):
                break
        k = rng.randrange(-1074, -1020)
        add(_golden_points((math.ldexp(x, k), math.ldexp(y, k)) for x, y in pts))
    for _ in range(50):
        add(_golden_points((v.x, v.y) for v in collinear_triangle(rng).vertices), flat)
        add(_golden_points((v.x, v.y) for v in repeated_vertex_triangle(rng).vertices), no_a)
    for sides in ("3 4 5", "1 1 1", "2 1 2"):
        add(f"sides {sides}")
    add("sides 1 2 3", flat)
    for sides in ("0 2 2", "2 0 2", "1e-300 1 1"):
        add(f"sides {sides}", no_a)
    for _ in range(300):
        add(_golden_points((v.x, v.y) for v in rand_quad(rng, special_fraction=0.3).vertices))
    for _ in range(50):
        for make in (extreme_tie_quad, lead_tie_quad):
            add(_golden_points((v.x, v.y) for v in make(rng, 1e-9).vertices))
    # a quad whose form carries -0.0
    add(_golden_points(((-0.625, 0.84375), (-0.34375, 0.84375), (0.4375, 0.84375), (0.90625, 0.84375))))
    add(_golden_points(((-0.34375, 0.84375), (0.4375, 0.84375), (0.90625, 0.84375), (-0.625, 0.84375))))
    rng.shuffle(lines)
    return lines


def _class_boundary_apex(rng: random.Random) -> tuple[float, float]:
    """The apex (x, y) over the unit base of a triangle near a class boundary.

    Half the apexes lie near the right-angle arc: 1e-8 to pi/2 rad along it
    from (1, 0), off it by 1e-12 to 1e-7.  The rest lie near the isosceles
    line x = 1/2, the isosceles arc |p| = 1 or the equilateral apex, by
    offsets of 1e-13 to 1e-4, or anywhere in the c-form lens.
    """
    family = rng.randrange(8)
    if family < 4:
        theta = 10.0 ** rng.uniform(-8.0, math.log10(math.pi / 2.0))
        r = 0.5 + rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-12.0, -7.0)
        return 0.5 + r * math.cos(theta), r * math.sin(theta)
    offset = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-13.0, -4.0)
    if family == 4:
        return 0.5 + offset, 10.0 ** rng.uniform(-6.0, 0.5)
    if family == 5:
        phi = rng.uniform(1e-6, math.pi / 3.0)
        return (1.0 + offset) * math.cos(phi), (1.0 + offset) * math.sin(phi)
    if family == 6:
        lift = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-13.0, -4.0)
        return 0.5 + offset, math.sqrt(3.0) / 2.0 + lift
    x = rng.uniform(0.5, 1.0)
    return x, rng.uniform(1e-6, math.sqrt(1.0 - x * x))


def class_boundary_lines(rng: random.Random, count: int) -> list[tuple[str, list[float]]]:
    """Seeded (tag, numbers) batch lines of triangles near the class boundaries.

    Each triangle has a _class_boundary_apex over the unit base and goes
    down one of the three routes.  A points line carries it through a
    random similarity with its vertices shuffled; a sides line carries its
    side lengths, scaled and shuffled; an angles line carries its angles
    in radians, shuffled, the largest as pi minus the other two.
    """
    lines = []
    for _ in range(count):
        x, y = _class_boundary_apex(rng)
        route = rng.choice(("points", "sides", "angles"))
        if route == "points":
            g = rand_transform(rng)
            vertices = [g.apply(Point(*p)) for p in ((0.0, 0.0), (1.0, 0.0), (x, y))]
            rng.shuffle(vertices)
            numbers = [c for v in vertices for c in (v.x, v.y)]
        elif route == "sides":
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            numbers = [scale * math.hypot(x, y), scale * math.hypot(1.0 - x, y), scale]
        else:
            alpha, beta = math.atan2(y, x), math.atan2(y, 1.0 - x)
            numbers = [alpha, beta, math.pi - alpha - beta]
        rng.shuffle(numbers)
        lines.append((route, numbers))
    return lines


def _region_candidate(rng: random.Random, kind: str, eps: float, family: int) -> tuple[float, float]:
    """One candidate point of a one-vertex region of the family; see region_points."""
    if family == 0:
        # interior: y uniform between the region's floor and ceiling at x
        if kind == "c":
            x = rng.uniform(0.5, 1.0)
            return x, rng.uniform(0.0, 1.0) * math.sqrt(1.0 - x * x)
        if kind == "b":
            x = rng.uniform(0.5, 2.0)
            low = math.sqrt(max(0.0, 1.0 - x * x))
            return x, low + rng.uniform(0.0, 1.0) * (math.sqrt(1.0 - (x - 1.0) ** 2) - low)
        x = rng.uniform(0.5, 4.0)
        return x, math.sqrt(max(0.0, 1.0 - (x - 1.0) ** 2)) + rng.uniform(0.0, 4.0)
    if family == 1:
        # near-flat: a height of 10**U(-12, 0) of the region's height at x,
        # where the region reaches the x-axis; the a region's is taken as x
        h = 10.0 ** rng.uniform(-12.0, 0.0)
        if kind == "c":
            x = rng.uniform(0.5, 1.0)
            return x, h * math.sqrt(1.0 - x * x)
        if kind == "b":
            x = rng.uniform(1.0, 2.0)
            return x, h * math.sqrt(1.0 - (x - 1.0) ** 2)
        x = rng.uniform(2.0, 100.0)
        return x, h * x
    if family == 2:
        # the eps margins: x up to eps below 1/2, or y up to eps below 0
        d = rng.uniform(0.0, 1.0) * eps
        if rng.random() < 0.5:
            x = 0.5 - d
            if kind == "c":
                return x, rng.uniform(0.0, 1.0) * math.sqrt(1.0 - x * x)
            if kind == "b":
                low = math.sqrt(1.0 - eps - x * x)
                high = math.sqrt(1.0 + eps - (x - 1.0) ** 2)
                return x, low + rng.uniform(0.0, 1.0) * (high - low)
            return x, math.sqrt(1.0 - eps - (x - 1.0) ** 2) + rng.uniform(0.0, 4.0)
        if kind == "c":
            return rng.uniform(0.5, 1.0), -d
        if kind == "b":
            return rng.uniform(1.0, 2.0), -d
        return rng.uniform(2.0, 100.0), -d
    # far up the a region, up to y = 1e200
    return rng.uniform(0.5, 2.0), 10.0 ** rng.uniform(0.0, 200.0)


def region_points(rng: random.Random, kind: str, eps: float, count: int) -> list[tuple[float, float]]:
    """Seeded points (x, y) inside the region of the one-vertex form kind at eps.

    Each family contributes count points: interior points, near-flat ones,
    points in the eps margins x < 1/2 and y < 0, and for the a form points
    far up its unbounded region.  A candidate that rounding leaves outside
    the region is drawn again.
    """
    tol = Tolerance(eps)
    form = FormKind(kind)
    points = []
    for family in range(4 if kind == "a" else 3):
        found = 0
        while found < count:
            x, y = _region_candidate(rng, kind, eps, family)
            if in_domain(form, Point(x, y), tol):
                points.append((x, y))
                found += 1
    return points
