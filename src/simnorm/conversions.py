"""Closed-form conversions between side lengths, angles, and normal points.

The three one-vertex normal points have rational coordinates in the squared
side lengths plus one square root, so they can be computed without placing
any vertices.  The square root is taken of Kahan's factored radicand, which
stays accurate on needle-shaped and nearly flat triples.  Angles are always
read off a normal point with atan2, which stays correct on both sides of the
vertical x = 1 where naive arctangent quotients flip sign; side lengths
reach their angles through the longest-side normal point.

These functions wrap value types around float kernels of the triangles
module: the closed form, the placement from points, the angle reading and
the law of sines.
"""

from __future__ import annotations

import math

from .errors import DegenerateAngles, OutOfDomain
from .geometry import DEFAULT_TOL, Point, Tolerance
from .triangles import (
    AngleTriple, FormKind, SideLengths, _law_of_sines, _point_angles, _point_from_sides,
    _point_from_vertices, _rank, in_domain,
)


def normal_point_from_sides(kind: FormKind, s: SideLengths) -> Point:
    """Closed-form normal point for any one-vertex form.

    With u the anchored side and d1 <= d0 the free ones, the point is
    ((u^2 + (d0 - d1)(d0 + d1)) / (2u^2), sqrt(radicand) / (2u^2)), the same
    at every scale.  With no tolerance, only the float-range half of the
    shortest-side form's limit applies: a = 0 or a < 2**-510 * c raises
    UnboundedType.
    """
    return Point(*_point_from_sides(_rank(kind), s.a, s.b, s.c, 0.0))


def sides_from_angles(angles: AngleTriple, kind: FormKind = FormKind.C_VERTEX) -> SideLengths:
    """Side lengths by the law of sines, scaled so the kind's own side is 1.

    Scaled to the shortest side, the triple first meets the no-tolerance
    half of the a form's limit, as normal_point_from_sides does.
    """
    return SideLengths.of(*_law_of_sines(angles.alpha, angles.beta, angles.gamma, _rank(kind)))


def normal_point_from_angles(kind: FormKind, angles: AngleTriple) -> Point:
    """Normal point of the triangle with the given interior angles.

    In every one-vertex form the normal point sits at a polar angle equal
    to the smaller of the two angles at the ends of the anchored side, at
    the radius the law of sines gives for the longer free side over the
    anchored one: sin(larger of the two) / sin(angle opposite the anchored
    side).  That ratio is the law of sines' own, and evaluating it directly
    avoids squared side lengths, whose rounding would dominate for needle
    shaped triples where two sides dwarf the third.  Under the shortest-side
    form, the law of sines first applies the no-tolerance half of the form's
    limit, as normal_point_from_sides does.
    """
    rank = _rank(kind)
    alpha, beta, gamma = angles.as_tuple()
    sides = _law_of_sines(alpha, beta, gamma, rank)
    # the free angles in ascending order: theta, then the larger one, whose
    # opposite side is the longer free side
    theta = beta if rank == 0 else alpha
    radius = sides[1] if rank == 2 else sides[2]
    return Point(radius * math.cos(theta), radius * math.sin(theta))


def angles_from_normal_point(
    kind: FormKind, p: Point, tol: Tolerance = DEFAULT_TOL
) -> AngleTriple:
    """Interior angles of the normal triangle with third vertex p.

    p stands for the triangle (0,0), (1,0), p.  Under the shortest-side
    form, that triangle's sides meet the form's limit first, as
    a_normal_point meets it: a shortest side a <= tol.eps * c or
    a < 2**-510 * c raises UnboundedType.  Points on the x-axis (within
    tol.eps) describe collinear configurations and raise DegenerateAngles,
    as angles_from_sides does.  atan2 is used throughout: the angle at the
    anchor (1, 0) is pi minus the ray angle of p seen from it, which stays
    correct across x = 1.
    """
    if not in_domain(kind, p, tol):
        raise OutOfDomain(f"{p} is outside the region of the {kind.value!r} form")
    if kind is FormKind.A_VERTEX:
        # the placement meets the limit; the point it returns is not needed
        _point_from_vertices(0.0, 0.0, 1.0, 0.0, p.x, p.y, 0, tol.eps)
    angles = _point_angles(p.x, p.y, tol.eps)
    if angles is None:
        raise DegenerateAngles(f"{p} lies on the x-axis: a degenerate triangle")
    return AngleTriple(*angles)


def angles_from_sides(s: SideLengths, tol: Tolerance = DEFAULT_TOL) -> AngleTriple:
    """Interior angles read off the longest-side normal point with atan2.

    Triples whose longest-side normal point lies within tol.eps of the
    x-axis are degenerate, as classify judges them, and raise
    DegenerateAngles since no valid angle triple exists for them.
    """
    angles = _point_angles(*_point_from_sides(2, s.a, s.b, s.c, 0.0), tol.eps)
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
