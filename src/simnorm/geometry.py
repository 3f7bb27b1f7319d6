"""Plane-geometry foundation: points, tolerances, similarity transforms, reflections.

Everything in this module is an immutable value or a pure function of its
arguments, so it is safe to share between threads and to memoize.
"""

from __future__ import annotations

import math
from operator import attrgetter

from .errors import DegenerateSegment

# constructors store their fields with this, past _Value.__setattr__
_set = object.__setattr__


class _Value:
    """Base of the immutable value types; behaves as a frozen dataclass.

    The field names are the subclass's __slots__, in constructor order.
    Assignment and deletion raise AttributeError; equality holds between
    instances of one class with equal fields; the hash, repr, positional
    match patterns, copy and pickle all follow the field tuple.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        names = cls.__match_args__ = cls.__slots__
        get = attrgetter(*names)
        cls._fields = staticmethod(get if len(names) > 1 else lambda value: (get(value),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._fields(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields(self)


class Tolerance(_Value):
    """Absolute threshold used by the geometric predicates.

    Region membership, classification, and tie detection consult eps.
    Comparisons are meaningful well below unit scale because every canonical
    configuration lives at unit scale, hence the hard upper bound on eps.
    """

    __slots__ = ("eps",)
    eps: float

    def __init__(self, eps: float = 1e-9) -> None:
        if not (0.0 < eps < 1e-3):
            raise ValueError(f"tolerance eps must lie in (0, 1e-3), got {eps!r}")
        _set(self, "eps", eps)


DEFAULT_TOL = Tolerance()


class Point(_Value):
    """A position in the Cartesian plane."""

    __slots__ = ("x", "y")
    x: float
    y: float

    def __init__(self, x: float, y: float) -> None:
        if not (_isfinite(x) and _isfinite(y)):
            raise ValueError(f"point coordinates must be finite, got ({x!r}, {y!r})")
        _set_x(self, x)
        _set_y(self, y)

    def close_to(self, other: Point, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Coordinatewise agreement within tol.eps."""
        return abs(self.x - other.x) <= tol.eps and abs(self.y - other.y) <= tol.eps


# Point.__init__ runs for every point made, so it calls these straight: a
# slot's setter stores into the slot, where _set first looks the field name
# up on the class, and _isfinite skips the attribute lookup on math
_set_x = Point.x.__set__
_set_y = Point.y.__set__
_isfinite = math.isfinite

ORIGIN = Point(0.0, 0.0)
UNIT_X = Point(1.0, 0.0)


def distance(p: Point, q: Point) -> float:
    """Euclidean distance between two points."""
    return math.hypot(q.x - p.x, q.y - p.y)


class SimilarityTransform(_Value):
    """A plane similarity in factored form.

    Applies, in order: reflection across the x-axis (when ``reflect`` is
    set), rotation by ``rotation`` radians about the origin, dilation by
    ``scale``, and translation by ``translation``.  A negative scale is
    folded into an extra half turn on construction, so the stored scale is
    always positive and the orientation class can be read off ``reflect``.
    """

    __slots__ = ("scale", "rotation", "reflect", "translation")
    scale: float
    rotation: float
    reflect: bool
    translation: Point

    def __init__(
        self,
        scale: float = 1.0,
        rotation: float = 0.0,
        reflect: bool = False,
        translation: Point = ORIGIN,
    ) -> None:
        if not math.isfinite(scale) or scale == 0.0:
            raise ValueError(f"scale must be finite and nonzero, got {scale!r}")
        if not math.isfinite(rotation):
            raise ValueError(f"rotation must be finite, got {rotation!r}")
        if scale < 0.0:
            scale, rotation = -scale, rotation + math.pi
        _set(self, "scale", scale)
        # keep the angle in [-pi, pi] so transforms differing by full turns
        # compare equal
        _set(self, "rotation", math.remainder(rotation, math.tau))
        _set(self, "reflect", reflect)
        _set(self, "translation", translation)

    def apply(self, p: Point) -> Point:
        x, y = p.x, p.y
        if self.reflect:
            y = -y
        cos_r = math.cos(self.rotation)
        sin_r = math.sin(self.rotation)
        return Point(
            self.scale * (cos_r * x - sin_r * y) + self.translation.x,
            self.scale * (sin_r * x + cos_r * y) + self.translation.y,
        )


def similarity_from_segment(
    p1: Point,
    p2: Point,
    q1: Point,
    q2: Point,
    reflect: bool = False,
    tol: Tolerance = DEFAULT_TOL,
) -> SimilarityTransform:
    """The unique similarity taking p1 to q1 and p2 to q2.

    With reflect=False the result is direct (orientation preserving), with
    reflect=True it is indirect.  Either endpoint pair collapsing within
    tol.eps raises DegenerateSegment; the threshold is absolute, matching
    the unit-scale tolerance policy.
    """
    if distance(p1, p2) <= tol.eps:
        raise DegenerateSegment(f"source segment endpoints coincide: {p1}, {p2}")
    if distance(q1, q2) <= tol.eps:
        raise DegenerateSegment(f"target segment endpoints coincide: {q1}, {q2}")
    px = p2.x - p1.x
    py = p2.y - p1.y
    qx = q2.x - q1.x
    qy = q2.y - q1.y
    if reflect:
        py = -py
    # complex ratio a = (q2 - q1) / (p2 - p1), conjugating the source first
    # when a reflection is requested
    den = px * px + py * py
    ax = (qx * px + qy * py) / den
    ay = (qy * px - qx * py) / den
    p1x = p1.x
    p1y = -p1.y if reflect else p1.y
    return SimilarityTransform(
        scale=math.hypot(ax, ay),
        rotation=math.atan2(ay, ax),
        reflect=reflect,
        translation=Point(q1.x - (ax * p1x - ay * p1y), q1.y - (ax * p1y + ay * p1x)),
    )


# Shapes whose largest pairwise distance lies outside [_TINY, _HUGE] are
# first brought near unit size by an exact power of two.  Above _TINY, every
# coordinate difference that matters at 53-bit precision relative to the
# extreme pair is a normal float; below _HUGE, no difference, distance or sum
# inside the placement's division can overflow.
_TINY = 2.0**-969
_HUGE = 2.0**960


def _rescaled(xs: list[float], ys: list[float], d_max: float) -> tuple[list[float], list[float]]:
    """The coordinates times the power of two that brings d_max into [1/2, 1).

    The exponent comes from the largest coordinate instead when d_max
    overflowed, and is capped so that scaling up overflows no coordinate.
    Scaling by a power of two is exact (J. L. Blue, ACM TOMS 4(1), 1978).
    """
    top = math.frexp(max(map(abs, xs + ys)))[1]
    k = -top if math.isinf(d_max) else min(-math.frexp(d_max)[1], 1024 - top)
    return [math.ldexp(x, k) for x in xs], [math.ldexp(y, k) for y in ys]


def reflect_normalize(p: Point) -> Point:
    """Map p into the quadrant x >= 1/2, y >= 0 by its mirror images.

    Reflections across the x-axis and across the vertical line x = 1/2 fix
    the anchor pair {(0,0), (1,0)} as a set; this picks the orbit member in
    the upper right quadrant of that symmetry group.
    """
    return Point(0.5 + abs(p.x - 0.5), abs(p.y))


def quasilex_eq(p: Point, q: Point, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Tolerance-aware tie test: the normalized images coincide within tol."""
    return reflect_normalize(p).close_to(reflect_normalize(q), tol)


__all__ = [
    "DEFAULT_TOL",
    "ORIGIN",
    "UNIT_X",
    "Point",
    "SimilarityTransform",
    "Tolerance",
    "distance",
    "quasilex_eq",
    "reflect_normalize",
    "similarity_from_segment",
]
