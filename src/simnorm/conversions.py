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

from .errors import DegenerateAngles, OutOfDomain
from .geometry import DEFAULT_TOL, Point, Tolerance
from .triangles import (
    AngleTriple, FormKind, SideLengths, _check_shortest_side, _rank, _sorted3, in_domain
)

def _radicand(a: float, b: float, c: float) -> float:
    # Kahan's factored 16 * area^2 for sorted a <= b <= c; the parentheses
    # must stay as written: each factor then carries a relative error of a
    # few ulps, so needles and nearly flat triples keep their height, and
    # a zero side against two equal ones cancels exactly
    return (c + (b + a)) * (a - (c - b)) * (a + (c - b)) * (c + (b - a))


def normal_point_from_sides(kind: FormKind, s: SideLengths) -> Point:
    """Closed-form normal point for any one-vertex form.

    With u the anchored side and d1 <= d0 the free ones, the point is
    ((u^2 + (d0 - d1)(d0 + d1)) / (2u^2), sqrt(radicand) / (2u^2)); the
    factored difference keeps x accurate on needles, and the root, four
    times the area, vanishes exactly on degenerate triples.  The sides are
    first rescaled by an exact power of two that brings c into [1/2, 1), so
    no square overflows and the result is the same at every scale.  With no
    tolerance, only the float-range half of the shortest-side form's limit
    applies: a = 0 or a < 2**-510 * c raises UnboundedType.
    """
    return Point(*_point_from_sides(_rank(kind), s.a, s.b, s.c, 0.0))


def _point_from_sides(rank: int, a: float, b: float, c: float, e: float) -> tuple[float, float]:
    """normal_point_from_sides by side rank, on a valid sorted triple a <= b <= c, at tolerance e."""
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


def sides_from_angles(angles: AngleTriple, kind: FormKind = FormKind.C_VERTEX) -> SideLengths:
    """Side lengths by the law of sines, scaled so the kind's own side is 1."""
    sines = (math.sin(angles.alpha), math.sin(angles.beta), math.sin(angles.gamma))
    unit = sines[_rank(kind)]
    return SideLengths.of(sines[0] / unit, sines[1] / unit, sines[2] / unit)


def normal_point_from_angles(kind: FormKind, angles: AngleTriple) -> Point:
    """Normal point of the triangle with the given interior angles.

    In every one-vertex form the normal point sits at a polar angle equal
    to the smaller of the two angles at the ends of the anchored side, at
    the radius the law of sines gives for the longer free side over the
    anchored one: sin(larger of the two) / sin(angle opposite the anchored
    side).  Evaluating that product directly avoids squared side lengths,
    whose rounding would dominate for needle shaped triples where two sides
    dwarf the third.
    """
    rank = _rank(kind)
    values = angles.as_tuple()
    theta, larger = values[:rank] + values[rank + 1 :]
    radius = math.sin(larger) / math.sin(values[rank])
    return Point(radius * math.cos(theta), radius * math.sin(theta))


def angles_from_normal_point(
    kind: FormKind, p: Point, tol: Tolerance = DEFAULT_TOL
) -> AngleTriple:
    """Interior angles of the normal triangle with third vertex p.

    Points on the x-axis (within tol.eps) describe collinear configurations
    and raise DegenerateAngles, as angles_from_sides does.  atan2 is
    used throughout: the angle at the anchor (1, 0) is pi minus the ray
    angle of p seen from it, which stays correct across x = 1.
    """
    if not in_domain(kind, p, tol):
        raise OutOfDomain(f"{p} is outside the region of the {kind.value!r} form")
    angles = _point_angles(p.x, p.y, tol.eps)
    if angles is None:
        raise DegenerateAngles(f"{p} lies on the x-axis: a degenerate triangle")
    return AngleTriple(*angles)


def _point_angles(x: float, y: float, eps: float) -> tuple[float, float, float] | None:
    """angles_from_normal_point of (x, y) as a sorted float triple, without the region check.

    None stands for a point on the x-axis, so that a batch record tests for
    a degenerate triangle without catching an exception.

    For normal points computed by this package: rounding can leave them a
    few ulps outside their region, which an eps below 1e-16 detects.  The
    angles at both anchors and at (x, y) are the same for every form; in the
    longest-side region off the x-axis they pass AngleTriple's checks, so
    batch records build none.  The angle at (x, y) comes from the cross
    product |y| and the dot product x(x - 1) + y^2 of the rays to the
    anchors, not as the complement to pi, which cancels when it is tiny.
    """
    if abs(y) <= eps:
        return None
    return _sorted3(
        math.atan2(y, x), math.atan2(y, 1.0 - x), math.atan2(abs(y), x * (x - 1.0) + y * y)
    )


def angles_from_sides(s: SideLengths, tol: Tolerance = DEFAULT_TOL) -> AngleTriple:
    """Interior angles read off the longest-side normal point with atan2.

    Triples whose longest-side normal point lies within tol.eps of the
    x-axis are degenerate, as classify judges them, and raise
    DegenerateAngles since no valid angle triple exists for them.
    """
    angles = _point_angles(*_point_from_sides(2, s.a, s.b, s.c, tol.eps), tol.eps)
    if angles is None:
        raise DegenerateAngles(f"sides {(s.a, s.b, s.c)!r} describe a degenerate triangle")
    return AngleTriple(*angles)


__all__ = [
    "angles_from_normal_point",
    "angles_from_sides",
    "normal_point_from_angles",
    "normal_point_from_sides",
    "sides_from_angles",
]
