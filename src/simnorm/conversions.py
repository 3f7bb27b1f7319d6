"""Closed-form conversions between side lengths, angles, and normal points.

The three one-vertex normal points have rational coordinates in the squared
side lengths plus one square root, so they can be computed without placing
any vertices.  The square root is taken of Kahan's factored radicand, which
stays accurate on needle-shaped and nearly flat triples.  Angles are always
read off a normal point with atan2, which stays correct on both sides of the
vertical x = 1 where naive arctangent quotients flip sign; side lengths
reach their angles through the longest-side normal point.
"""

from __future__ import annotations

import math

from .errors import DegenerateAngles, InvalidSides, OutOfDomain, UnboundedType
from .geometry import DEFAULT_TOL, Point, Tolerance
from .triangles import AngleTriple, FormKind, SideLengths, in_domain

# radicand values in [-RADICAND_CLAMP * (a+b+c)^4, 0] are treated as exact
# degeneracy and clamped to zero; anything more negative is a real error
_RADICAND_CLAMP = 1e-12


class _DegenerateMarker:
    """Sentinel returned where a collinear input has no valid angle triple."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr only
        return "DEGENERATE"


DEGENERATE = _DegenerateMarker()


def _radicand(a: float, b: float, c: float) -> float:
    # Kahan's factored 16 * area^2 for sorted a <= b <= c; the parentheses
    # must stay as written: each factor then carries a relative error of a
    # few ulps, so needles and nearly flat triples keep their height, and
    # a zero side against two equal ones cancels exactly
    return (c + (b + a)) * (a - (c - b)) * (a + (c - b)) * (c + (b - a))


def normal_point_from_sides(kind: FormKind, s: SideLengths) -> Point:
    """Closed-form normal point for any one-vertex form.

    The square root of the radicand equals four times the triangle area, so
    the second coordinate vanishes exactly on degenerate triples.  The sides
    are first rescaled by an exact power of two that brings c into [1/2, 1),
    so no square overflows and the result is the same at every scale.
    """
    k = -math.frexp(s.c)[1]
    a, b, c = math.ldexp(s.a, k), math.ldexp(s.b, k), math.ldexp(s.c, k)
    r = _radicand(a, b, c)
    if r < 0.0:
        if r < -_RADICAND_CLAMP * (a + b + c) ** 4:
            raise InvalidSides(f"triangle inequality fails for sides {(s.a, s.b, s.c)!r}")
        r = 0.0
    root = math.sqrt(r)
    if kind is FormKind.C_VERTEX:
        den = 2.0 * c * c
        return Point((-a * a + b * b + c * c) / den, root / den)
    if kind is FormKind.B_VERTEX:
        den = 2.0 * b * b
        return Point((-a * a + b * b + c * c) / den, root / den)
    if kind is FormKind.A_VERTEX:
        if a == 0.0:
            raise UnboundedType("side lengths (0, c, c) have no finite shortest-side form")
        den = 2.0 * a * a
        return Point((a * a - b * b + c * c) / den, root / den)
    raise ValueError("the circle form has no single normal point")


def sides_from_angles(angles: AngleTriple, kind: FormKind = FormKind.C_VERTEX) -> SideLengths:
    """Side lengths by the law of sines, scaled so the kind's own side is 1."""
    alpha, beta, gamma = angles.as_tuple()
    sin_a = math.sin(alpha)
    sin_b = math.sin(beta)
    sin_g = math.sin(gamma)
    if kind is FormKind.C_VERTEX:
        return SideLengths.of(sin_a / sin_g, sin_b / sin_g, 1.0)
    if kind is FormKind.B_VERTEX:
        return SideLengths.of(sin_a / sin_b, 1.0, sin_g / sin_b)
    if kind is FormKind.A_VERTEX:
        if sin_a <= 0.0:
            raise DegenerateAngles("smallest angle must be positive for the shortest-side form")
        return SideLengths.of(1.0, sin_b / sin_a, sin_g / sin_a)
    raise ValueError("the circle form is built from angles directly")


def normal_point_from_angles(kind: FormKind, angles: AngleTriple) -> Point:
    """Normal point of the triangle with the given interior angles.

    In every one-vertex form the normal point sits at a polar angle equal
    to the interior angle at the origin anchor, at the radius the law of
    sines gives for the opposite side pair.  Evaluating that product
    directly avoids squared side lengths, whose rounding would dominate for
    needle shaped triples where two sides dwarf the third.
    """
    alpha, beta, gamma = angles.as_tuple()
    if kind is FormKind.C_VERTEX:
        radius, theta = math.sin(beta) / math.sin(gamma), alpha
    elif kind is FormKind.B_VERTEX:
        radius, theta = math.sin(gamma) / math.sin(beta), alpha
    elif kind is FormKind.A_VERTEX:
        radius, theta = math.sin(gamma) / math.sin(alpha), beta
    else:
        raise ValueError("the circle form has no single normal point")
    return Point(radius * math.cos(theta), radius * math.sin(theta))


def angles_from_normal_point(
    kind: FormKind, p: Point, tol: Tolerance = DEFAULT_TOL
) -> AngleTriple | _DegenerateMarker:
    """Interior angles of the normal triangle with third vertex p.

    Points on the x-axis (within tol.eps) describe collinear configurations
    and return the DEGENERATE marker instead of an angle triple.  atan2 is
    used throughout: the angle at the anchor (1, 0) is pi minus the ray
    angle of p seen from it, which stays correct across x = 1.
    """
    if not in_domain(kind, p, tol):
        raise OutOfDomain(f"{p} is outside the region of the {kind.value!r} form")
    return _point_angles(kind, p, tol)


def _point_angles(kind: FormKind, p: Point, tol: Tolerance) -> AngleTriple | _DegenerateMarker:
    """angles_from_normal_point without the region check.

    For normal points computed by this package: rounding can leave them a
    few ulps outside their region, which an eps below 1e-16 detects.
    """
    if abs(p.y) <= tol.eps:
        return DEGENERATE
    at_origin = math.atan2(p.y, p.x)
    from_unit = math.pi - math.atan2(p.y, p.x - 1.0)
    if kind is FormKind.C_VERTEX:
        alpha = at_origin
        beta = math.atan2(p.y, 1.0 - p.x)
        gamma = math.pi - alpha - beta
    elif kind is FormKind.B_VERTEX:
        alpha = at_origin
        gamma = from_unit
        beta = math.pi - alpha - gamma
    elif kind is FormKind.A_VERTEX:
        beta = at_origin
        gamma = from_unit
        alpha = math.pi - beta - gamma
    else:
        raise ValueError("the circle form has no point domain")
    return AngleTriple(alpha, beta, gamma)


def angles_from_sides(s: SideLengths, tol: Tolerance = DEFAULT_TOL) -> AngleTriple:
    """Interior angles read off the longest-side normal point with atan2.

    Triples whose longest-side normal point lies within tol.eps of the
    x-axis are degenerate, as classify judges them, and raise
    DegenerateAngles since no valid angle triple exists for them.
    """
    angles = _point_angles(FormKind.C_VERTEX, normal_point_from_sides(FormKind.C_VERTEX, s), tol)
    if angles is DEGENERATE:
        raise DegenerateAngles(f"sides {(s.a, s.b, s.c)!r} describe a degenerate triangle")
    return angles
