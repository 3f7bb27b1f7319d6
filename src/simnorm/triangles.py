"""Triangle value types and the four similarity normal forms.

A triangle is a multiset of three points, at least two of them distinct.
Each nondegenerate similarity class has exactly one representative per
form: the three one-vertex forms pin two vertices to (0,0) and (1,0) and
put the remaining vertex in a closed region of the upper half plane, while
the circle form inscribes the triangle in the unit circle with one vertex
fixed at (1,0).

Every computation lives here as a private kernel on plain floats, eps
included: the side pass and placement from points, also fused into one
frame for the calls that want one point, the closed form from side
lengths, the angle reading, the law of sines and the classification.
The public functions of this module and of conversions unpack their value
types and call those kernels, and so does the command line.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import DegenerateAngles, InvalidSides, UnboundedType
from .geometry import (
    DEFAULT_TOL, ORIGIN, _HUGE, _TINY, Point, Tolerance, _rescaled, _set, _Value, distance
)

# validation slack for value types; independent of predicate tolerances
_ANGLE_SLACK = 1e-9
_SIDE_SLACK = 1e-9


class FormKind(Enum):
    """Which normal form is requested."""

    A_VERTEX = "a"
    B_VERTEX = "b"
    C_VERTEX = "c"
    CIRCLE = "circle"


# the side each one-vertex form sends to the unit segment, by rank among the
# sorted sides: 0 shortest, 1 median, 2 longest
_RANKS = {FormKind.A_VERTEX: 0, FormKind.B_VERTEX: 1, FormKind.C_VERTEX: 2}


def _rank(kind: FormKind) -> int:
    """The anchored side rank of a one-vertex form."""
    rank = _RANKS.get(kind)
    if rank is None:
        raise ValueError("the circle form has no single normal point; use circle_normal_form")
    return rank


class AngleClass(Enum):
    ACUTE = "acute"
    RIGHT = "right"
    OBTUSE = "obtuse"
    DEGENERATE = "degenerate"


class SideClass(Enum):
    EQUILATERAL = "equilateral"
    ISOSCELES = "isosceles"
    SCALENE = "scalene"


class TriangleClass(_Value):
    __slots__ = ("angle_class", "side_class")
    angle_class: AngleClass
    side_class: SideClass

    def __init__(self, angle_class: AngleClass, side_class: SideClass) -> None:
        _set(self, "angle_class", angle_class)
        _set(self, "side_class", side_class)


# the 12 classes, shared like enum members: a row per angle class, in SideClass order
_ACUTE_CLASSES, _RIGHT_CLASSES, _OBTUSE_CLASSES, _DEGENERATE_CLASSES = (
    tuple(TriangleClass(angle, side) for side in SideClass) for angle in AngleClass
)


class Triangle(_Value):
    """Multiset of three vertices; at most one repeated point allowed."""

    __slots__ = ("vertices",)
    vertices: tuple[Point, Point, Point]

    def __init__(self, vertices: tuple[Point, Point, Point]) -> None:
        u, v, w = vertices
        if u == v == w:
            raise ValueError("triangle needs at least two distinct vertices")
        _set(self, "vertices", vertices)

    @classmethod
    def of(cls, p: Point, q: Point, r: Point) -> Triangle:
        return cls((p, q, r))


def _sorted3(x: float, y: float, z: float) -> tuple[float, float, float]:
    """Three numbers in ascending order, as sorted() orders them, NaN included.

    Three compare and swaps give sorted()'s very order on every triple, ties
    and NaN included, without its list and call.
    """
    if x > y:
        x, y = y, x
    if y > z:
        y, z = z, y
        if x > y:
            x, y = y, x
    return x, y, z


def _check_sides(a: float, b: float, c: float) -> None:
    """Raise InvalidSides unless a <= b <= c are the finite sides of a triangle."""
    # a valid triple passes one chained test; past it, the checks run in
    # order and the first that fails names the fault
    if 0.0 <= a <= b <= c < math.inf and c > 0.0 and a + b >= c - _SIDE_SLACK * c:
        return
    for v in (a, b, c):
        if not math.isfinite(v):
            raise InvalidSides(f"side lengths must be finite, got {v!r}")
    if a < 0.0:
        raise InvalidSides(f"side lengths must be nonnegative, got {a!r}")
    if not (a <= b <= c):
        raise InvalidSides(f"sides must be sorted ascending: {(a, b, c)!r}")
    if c <= 0.0:
        raise InvalidSides("longest side must be positive")
    raise InvalidSides(f"triangle inequality fails: {(a, b, c)!r}")


class SideLengths(_Value):
    """Sorted side lengths a <= b <= c of a (possibly degenerate) triangle."""

    __slots__ = ("a", "b", "c")
    a: float
    b: float
    c: float

    def __init__(self, a: float, b: float, c: float) -> None:
        _check_sides(a, b, c)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)

    @classmethod
    def of(cls, x: float, y: float, z: float) -> SideLengths:
        """Sort three lengths; order of arguments does not matter."""
        return cls(*_sorted3(x, y, z))

    def ratios(self) -> tuple[float, float, float]:
        """Scale-free key (a/c, b/c, 1)."""
        return (self.a / self.c, self.b / self.c, 1.0)


def _check_angles(alpha: float, beta: float, gamma: float) -> tuple[float, float, float]:
    """The angles sorted ascending; DegenerateAngles unless they are a triangle's."""
    a, b, c = _sorted3(alpha, beta, gamma)
    # a valid triple passes one chained test; past it, the checks run in
    # order and the first that fails names the fault
    if 0.0 < a and c < math.inf and abs(a + b + c - math.pi) <= _ANGLE_SLACK:
        return a, b, c
    for v in (alpha, beta, gamma):
        if not math.isfinite(v):
            raise DegenerateAngles(f"angles must be finite, got {v!r}")
    if a <= 0.0:
        raise DegenerateAngles(f"smallest angle must be positive, got {a!r}")
    raise DegenerateAngles(f"angles must sum to pi, got {a + b + c!r}")


class AngleTriple(_Value):
    """Interior angles sorted ascending; alpha + beta + gamma = pi.

    The constructor sorts its arguments, so alpha is always the smallest
    angle.  Sorted triples automatically satisfy alpha <= pi/3 and
    beta <= (pi - alpha) / 2.
    """

    __slots__ = ("alpha", "beta", "gamma")
    alpha: float
    beta: float
    gamma: float

    def __init__(self, alpha: float, beta: float, gamma: float) -> None:
        a, b, c = _check_angles(alpha, beta, gamma)
        _set(self, "alpha", a)
        _set(self, "beta", b)
        _set(self, "gamma", c)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)


def _law_of_sines(alpha: float, beta: float, gamma: float, rank: int) -> tuple[float, ...]:
    """The sides opposite alpha, beta and gamma, scaled so the side of the rank is 1.

    The angles come sorted ascending.  Scaled to the shortest side, rank 0,
    the sines first meet the a form's limit with no tolerance: sin alpha is
    the shortest side and the larger of sin beta and sin gamma the longest,
    so sin alpha = 0 or sin alpha < 2**-510 times that raises UnboundedType,
    as the sides route does.  The result is unsorted and unchecked: callers
    sort it and pass it to _check_sides, as SideLengths.of does.
    """
    sines = (math.sin(alpha), math.sin(beta), math.sin(gamma))
    if rank == 0:
        _check_shortest_side(sines[0], max(sines[1], sines[2]), 0.0)
    unit = sines[rank]
    return sines[0] / unit, sines[1] / unit, sines[2] / unit


def side_lengths(t: Triangle) -> SideLengths:
    """Sorted side lengths of a triangle."""
    u, v, w = t.vertices
    return SideLengths.of(distance(u, v), distance(u, w), distance(v, w))


def triangle_from_sides(s: SideLengths) -> Triangle:
    """A concrete triangle with the given side lengths.

    Places the longest side on the x-axis from the origin; the third vertex
    is the longest-side normal point scaled by c, so it sits in the closed
    upper half plane and keeps its height on needle-shaped triples.
    """
    x, y = _point_from_sides(2, s.a, s.b, s.c, 0.0)
    return Triangle((ORIGIN, Point(s.c, 0.0), Point(s.c * x, s.c * y)))


_Sides = tuple[float, float, float, float, float, float, float, float, float]


def _side_pass(x0: float, y0: float, x1: float, y1: float, x2: float, y2: float) -> _Sides:
    """The sides of the triangle z0 = (x0, y0), z1 = (x1, y1), z2 = (x2, y2).

    They are the lengths of (0, 1), (0, 2) and (1, 2), then z1 - z0, z2 - z0
    and z2 - z1 as (dx, dy) pairs.  When the longest side lies outside
    [2**-969, 2**960], the vertices are first rescaled by one exact power of
    two, and the sides are those of the rescaled copy.

    With _place, this is the route of the callers that read the lengths and
    place up to two points from one pass: classify and the CLI's triangle
    record.  A caller that wants one point calls _point_from_vertices, the
    same steps in one frame.
    """
    rescaled = False
    while True:
        dx01, dy01 = x1 - x0, y1 - y0
        dx02, dy02 = x2 - x0, y2 - y0
        dx12, dy12 = x2 - x1, y2 - y1
        l01 = math.hypot(dx01, dy01)
        l02 = math.hypot(dx02, dy02)
        l12 = math.hypot(dx12, dy12)
        longest = l01 if l01 >= l02 else l02
        if l12 > longest:
            longest = l12
        if _TINY <= longest <= _HUGE or rescaled:
            return l01, l02, l12, dx01, dy01, dx02, dy02, dx12, dy12
        # at most one more pass: a capped rescale can leave the copy outside
        rescaled = True
        (x0, x1, x2), (y0, y1, y2) = _rescaled([x0, x1, x2], [y0, y1, y2], longest)


def _check_shortest_side(a: float, c: float, e: float) -> None:
    """Raise UnboundedType when a <= e * c or a < 2**-510 * c: the a form's limit on every route.

    Below 2**-510, 2a^2 of the sides rescaled to c in [1/2, 1) would leave the
    normal float range; above it, _place's |w| <= c / a <= 2**510 cannot overflow.
    """
    if a <= e * c or a < 2.0**-510 * c:
        raise UnboundedType("side lengths of type (0, c, c) have no finite shortest-side form")


def _place(sides: _Sides, rank: int, e: float) -> tuple[float, float]:
    """Closed-form placement behind the three one-vertex forms.

    The sides rank in their stable order (0, 1), (0, 2), (1, 2): the
    shortest is the first minimum, the longest the last maximum, the median
    the side that is neither.  The side of the requested rank (0 shortest,
    2 longest) runs from vertex z_i to z_j; the similarity sending it to
    (0,0)-(1,0) carries the remaining vertex z_k to
    w = (z_k - z_i) / (z_j - z_i).  That quotient is CPython's complex
    division (_Py_c_quot, Smith's algorithm: R. L. Smith, CACM 5(8), 1962)
    written out in floats, bit for bit: it builds no complex object, which
    saves two complex() constructions per placement, and its steps, fixed in
    Python, do not depend on how the interpreter's C code was compiled.  A
    zero divisor raises ZeroDivisionError, as complex division does, but
    none reaches here: the longest and median sides of a triangle are
    positive, and _check_shortest_side guards the shortest.  Folding y to
    |y| reflects across the x-axis, and folding x to max(x, 1 - x) reflects
    across x = 1/2, which swaps the anchor vertices and so makes the
    endpoint order immaterial.  Triangles far from unit size come rescaled
    from _side_pass, so every finite scale gives the same point.  Only the
    shortest-side form reads e, the tolerance of its limit; the other two
    have none and pass 0.0.

    _point_from_vertices repeats these steps after its own side pass, in one
    frame, for the callers that want one point; this split keeps that hot
    path free of the nine-float hand-off, and a test holds the two equal bit
    for bit, UnboundedType included.
    """
    l01, l02, l12, dx01, dy01, dx02, dy02, dx12, dy12 = sides
    side = hi = 2 if l12 >= l01 and l12 >= l02 else 1 if l02 >= l01 else 0
    if rank != 2:
        side = lo = 0 if l01 <= l02 and l01 <= l12 else 1 if l02 <= l12 else 2
        if rank == 0:
            _check_shortest_side(sides[lo], sides[hi], e)
        else:
            side = 3 - lo - hi
    # w = (ar + ai i) / (br + bi i)
    if side == 0:
        ar, ai = dx02, dy02
        br, bi = dx01, dy01
    elif side == 1:
        ar, ai = dx01, dy01
        br, bi = dx02, dy02
    else:
        # z_0 - z_1 is -(z_1 - z_0) exactly
        ar, ai = -dx01, -dy01
        br, bi = dx12, dy12
    # Smith's steps in the order of CPython's _Py_c_quot
    if abs(br) >= abs(bi):
        ratio = bi / br
        den = br + bi * ratio
        x = (ar + ai * ratio) / den
        y = (ai - ar * ratio) / den
    else:
        ratio = br / bi
        den = br * ratio + bi
        x = (ar * ratio + ai) / den
        y = (ai * ratio - ar) / den
    return (x if x >= 0.5 else 1.0 - x), abs(y)


def _point_from_vertices(
    x0: float, y0: float, x1: float, y1: float, x2: float, y2: float, rank: int, e: float
) -> tuple[float, float]:
    """_place(_side_pass(x0, y0, x1, y1, x2, y2), rank, e) in one frame, bit for bit.

    The route of every caller that wants one point: the three one-vertex
    forms, normal_point, both triangles of triangles_similar and the a
    form's limit in conversions.angles_from_normal_point.  The steps are
    those of the two kernels, with no tuple between them: the side pass,
    rescaled at most once, the first-minimum and last-maximum side choice
    with _check_shortest_side under the shortest-side form, Smith's
    quotient in _Py_c_quot's order and the fold.
    """
    hypot = math.hypot
    rescaled = False
    while True:
        dx01, dy01 = x1 - x0, y1 - y0
        dx02, dy02 = x2 - x0, y2 - y0
        dx12, dy12 = x2 - x1, y2 - y1
        l01 = hypot(dx01, dy01)
        l02 = hypot(dx02, dy02)
        l12 = hypot(dx12, dy12)
        # the last maximum; every tie has one value, so it is the longest too
        if l12 >= l01 and l12 >= l02:
            side = hi = 2
            longest = l12
        elif l02 >= l01:
            side = hi = 1
            longest = l02
        else:
            side = hi = 0
            longest = l01
        if _TINY <= longest <= _HUGE or rescaled:
            break
        rescaled = True
        (x0, x1, x2), (y0, y1, y2) = _rescaled([x0, x1, x2], [y0, y1, y2], longest)
    if rank != 2:
        # the first minimum
        if l01 <= l02 and l01 <= l12:
            side = lo = 0
        elif l02 <= l12:
            side = lo = 1
        else:
            side = lo = 2
        if rank == 0:
            _check_shortest_side(l01 if lo == 0 else l02 if lo == 1 else l12, longest, e)
        else:
            side = 3 - lo - hi
    # w = (ar + ai i) / (br + bi i), as in _place
    if side == 0:
        ar, ai = dx02, dy02
        br, bi = dx01, dy01
    elif side == 1:
        ar, ai = dx01, dy01
        br, bi = dx02, dy02
    else:
        ar, ai = -dx01, -dy01
        br, bi = dx12, dy12
    if abs(br) >= abs(bi):
        ratio = bi / br
        den = br + bi * ratio
        x = (ar + ai * ratio) / den
        y = (ai - ar * ratio) / den
    else:
        ratio = br / bi
        den = br * ratio + bi
        x = (ar * ratio + ai) / den
        y = (ai * ratio - ar) / den
    return (x if x >= 0.5 else 1.0 - x), abs(y)


def _radicand(a: float, b: float, c: float) -> float:
    # Kahan's factored 16 * area^2 for sorted a <= b <= c; the parentheses
    # must stay as written: each factor then carries a relative error of a
    # few ulps, so needles and nearly flat triples keep their height, and
    # a zero side against two equal ones cancels exactly
    return (c + (b + a)) * (a - (c - b)) * (a + (c - b)) * (c + (b - a))


def _point_from_sides(rank: int, a: float, b: float, c: float, e: float) -> tuple[float, float]:
    """The one-vertex normal point of the rank from a valid sorted triple a <= b <= c.

    With u the anchored side and d1 <= d0 the free ones, the point is
    ((u^2 + (d0 - d1)(d0 + d1)) / (2u^2), sqrt(radicand) / (2u^2)); the
    factored difference keeps x accurate on needles, and the root, four
    times the area, vanishes exactly on degenerate triples.  The sides are
    first rescaled by an exact power of two that brings c into [1/2, 1), so
    no square overflows and the result is the same at every scale.  Only the
    shortest-side form reads e, as in _place.
    """
    k = -math.frexp(c)[1]
    sa, sb, sc = math.ldexp(a, k), math.ldexp(b, k), math.ldexp(c, k)
    r = _radicand(sa, sb, sc)
    if r < 0.0:
        # the triple passed _check_sides, whose slack lets a + b fall short
        # of c by 1e-9 c: such a triple is flat, not invalid
        r = 0.0
    # u the anchored side, d1 <= d0 the free ones
    if rank == 2:
        u, d1, d0 = sc, sa, sb
    elif rank == 1:
        u, d1, d0 = sb, sa, sc
    else:
        _check_shortest_side(a, c, e)
        u, d1, d0 = sa, sb, sc
    den = 2.0 * u * u
    return (u * u + (d0 - d1) * (d0 + d1)) / den, math.sqrt(r) / den


def c_normal_point(t: Triangle) -> Point:
    """Normal point of the longest-side form.

    The longest side becomes the unit segment and the opposite vertex lands
    in the lens {y >= 0, x >= 1/2, x^2 + y^2 <= 1}.
    """
    p0, p1, p2 = t.vertices
    x, y = _point_from_vertices(p0.x, p0.y, p1.x, p1.y, p2.x, p2.y, 2, 0.0)
    return Point(x, y)


def b_normal_point(t: Triangle) -> Point:
    """Normal point of the median-side form.

    The median side becomes the unit segment; the final reflection leaves
    the longest side incident to the origin, so the remaining vertex lands
    in {y >= 0, x >= 1/2, x^2 + y^2 >= 1, (x-1)^2 + y^2 <= 1}.
    """
    p0, p1, p2 = t.vertices
    x, y = _point_from_vertices(p0.x, p0.y, p1.x, p1.y, p2.x, p2.y, 1, 0.0)
    return Point(x, y)


def a_normal_point(t: Triangle, tol: Tolerance = DEFAULT_TOL) -> Point:
    """Normal point of the shortest-side form.

    The region {y >= 0, x >= 1/2, (x-1)^2 + y^2 >= 1} is unbounded, and the
    side-length type (0, c, c) has no representative in it: the shortest
    side cannot be dilated to unit length.  Such triangles, with shortest
    side a <= tol.eps * c or a < 2**-510 * c, raise UnboundedType.
    """
    p0, p1, p2 = t.vertices
    x, y = _point_from_vertices(p0.x, p0.y, p1.x, p1.y, p2.x, p2.y, 0, tol.eps)
    return Point(x, y)


def normal_point(kind: FormKind, t: Triangle, tol: Tolerance = DEFAULT_TOL) -> Point:
    """The one-vertex normal point for the given kind."""
    p0, p1, p2 = t.vertices
    x, y = _point_from_vertices(p0.x, p0.y, p1.x, p1.y, p2.x, p2.y, _rank(kind), tol.eps)
    return Point(x, y)


def _in_a_region(x: float, y: float, e: float) -> bool:
    return y >= -e and x >= 0.5 - e and (x - 1.0) * (x - 1.0) + y * y >= 1.0 - e


def _in_b_region(x: float, y: float, e: float) -> bool:
    return (
        y >= -e
        and x >= 0.5 - e
        and x * x + y * y >= 1.0 - e
        and (x - 1.0) * (x - 1.0) + y * y <= 1.0 + e
    )


def _in_c_region(x: float, y: float, e: float) -> bool:
    return y >= -e and x >= 0.5 - e and x * x + y * y <= 1.0 + e


# the region tests of the one-vertex forms on (x, y, eps), by anchored side rank
_IN_REGION = (_in_a_region, _in_b_region, _in_c_region)


def in_c_domain(p: Point, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Membership in the longest-side region, inequalities relaxed by eps."""
    return _in_c_region(p.x, p.y, tol.eps)


def in_b_domain(p: Point, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Membership in the median-side region, inequalities relaxed by eps."""
    return _in_b_region(p.x, p.y, tol.eps)


def in_a_domain(p: Point, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Membership in the (unbounded) shortest-side region."""
    return _in_a_region(p.x, p.y, tol.eps)


def in_domain(kind: FormKind, p: Point, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Membership in the region of the given one-vertex form."""
    return _IN_REGION[_rank(kind)](p.x, p.y, tol.eps)


def circle_normal_form(angles: AngleTriple) -> Triangle:
    """Inscribe the triangle with these angles in the unit circle.

    Fixes vertex C at (1, 0); the vertex carrying the smallest angle sits
    at polar angle 2*beta above the x-axis and the vertex carrying beta at
    polar angle -2*alpha below it, so every inscribed angle subtends twice
    itself at the center.  Vertices are returned in (A, B, C) order.
    """
    return Triangle(tuple(Point(x, y) for x, y in _circle_vertices(angles.alpha, angles.beta)))


def _circle_vertices(alpha: float, beta: float) -> tuple[tuple[float, float], ...]:
    """circle_normal_form's vertices as (x, y) pairs, from the two smallest angles."""
    a2, b2 = 2.0 * alpha, 2.0 * beta
    return (math.cos(b2), math.sin(b2)), (math.cos(a2), -math.sin(a2)), (1.0, 0.0)


def _point_angles(x: float, y: float, e: float) -> tuple[float, float, float] | None:
    """The interior angles of a normal triangle with third vertex (x, y), sorted ascending.

    None stands for a point within e of the x-axis, a degenerate triangle,
    so that a batch record tests for one without catching an exception.
    There is no region check.

    For normal points computed by this package: rounding can leave them a
    few ulps outside their region, which an eps below 1e-16 detects.  The
    angles at both anchors and at (x, y) are the same for every form; in the
    longest-side region off the x-axis they pass AngleTriple's checks.  The
    angle at (x, y) comes from the cross product |y| and the dot product
    x(x - 1) + y^2 of the rays to the anchors, not as the complement to pi,
    which cancels when it is tiny.
    """
    if abs(y) <= e:
        return None
    return _sorted3(
        math.atan2(y, x), math.atan2(y, 1.0 - x), math.atan2(abs(y), x * (x - 1.0) + y * y)
    )


def _classify(x: float, y: float, a: float, b: float, c: float, e: float) -> TriangleClass:
    """Classify by the longest-side normal point (x, y) and the sorted side lengths."""
    residual = (x - 0.5) ** 2 + y * y - 0.25
    if y <= e:
        row = _DEGENERATE_CLASSES
    elif abs(residual) <= e:
        row = _RIGHT_CLASSES
    elif residual < 0.0:
        row = _OBTUSE_CLASSES
    else:
        row = _ACUTE_CLASSES
    u = a / c
    v = b / c
    if 1.0 - u <= e:
        return row[0]
    if v - u <= e or 1.0 - v <= e:
        return row[1]
    return row[2]


def classify(t: Triangle, tol: Tolerance = DEFAULT_TOL) -> TriangleClass:
    """Angle class from the longest-side normal point, side class from ratios.

    The triangle is degenerate exactly when its longest-side normal point
    lies within eps of the x-axis, and degeneracy wins over the right-angle
    test: the point (1, 0) lies on the right-angle arc but reports
    DEGENERATE.  The angle test compares the squared-radius residual
    (x - 1/2)^2 + y^2 - 1/4 against eps, which for side lengths matches the
    Pythagorean gap a^2 + b^2 - c^2 scaled by 1 / (2 c^2).  The point and
    the lengths come from one side pass, of the rescaled copy far from unit
    size, so they stay finite whenever the coordinates are.
    """
    p0, p1, p2 = t.vertices
    sides = _side_pass(p0.x, p0.y, p1.x, p1.y, p2.x, p2.y)
    x, y = _place(sides, 2, 0.0)
    a, b, c = _sorted3(sides[0], sides[1], sides[2])
    return _classify(x, y, a, b, c, tol.eps)


def triangles_similar(t1: Triangle, t2: Triangle, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Similarity test via the longest-side canonical key, compared within tol.eps."""
    p0, p1, p2 = t1.vertices
    x1, y1 = _point_from_vertices(p0.x, p0.y, p1.x, p1.y, p2.x, p2.y, 2, 0.0)
    p0, p1, p2 = t2.vertices
    x2, y2 = _point_from_vertices(p0.x, p0.y, p1.x, p1.y, p2.x, p2.y, 2, 0.0)
    return abs(x1 - x2) <= tol.eps and abs(y1 - y2) <= tol.eps


__all__ = [
    "AngleClass",
    "AngleTriple",
    "FormKind",
    "SideClass",
    "SideLengths",
    "Triangle",
    "TriangleClass",
    "a_normal_point",
    "b_normal_point",
    "c_normal_point",
    "circle_normal_form",
    "classify",
    "in_a_domain",
    "in_b_domain",
    "in_c_domain",
    "in_domain",
    "normal_point",
    "side_lengths",
    "triangle_from_sides",
    "triangles_similar",
]
