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
    """Base of the immutable value types: a frozen record of named fields.

    The field names are the subclass's __slots__, in constructor order.
    The shared constructor takes every field once, positionally first and
    then by keyword, and raises TypeError on a missing, extra or unknown
    one; a subclass that validates its arguments or is built on a hot path
    defines its own.  Assignment and deletion raise AttributeError;
    equality holds between instances of one class with equal fields; the
    hash, repr, positional match patterns, copy and pickle all follow the
    field tuple.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        names = cls.__match_args__ = cls.__slots__
        get = attrgetter(*names)
        cls._fields = staticmethod(get if len(names) > 1 else lambda value: (get(value),))

    def __init__(self, *args, **kwargs) -> None:
        given = dict(zip(self.__slots__, args), **kwargs)
        if len(given) != len(args) + len(kwargs) or given.keys() != set(self.__slots__):
            raise TypeError(f"{type(self).__qualname__}() takes each of {self.__slots__} once")
        for name in self.__slots__:
            _set(self, name, given[name])

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
    """A plane similarity as a complex map.

    On z = x + iy it sends z to a*z + b, or to a*conj(z) + b when
    ``reflect`` is set: a reflection across the x-axis first, then the
    rotation and dilation by ``a``, then the translation by ``b``.  The
    orientation class is read off ``reflect``.
    """

    __slots__ = ("a", "b", "reflect")
    a: complex
    b: complex
    reflect: bool

    def __init__(self, a: complex = 1.0, b: complex = 0.0, reflect: bool = False) -> None:
        a, b = complex(a), complex(b)
        if a == 0 or not all(map(_isfinite, (a.real, a.imag, b.real, b.imag))):
            raise ValueError(f"a must be finite and nonzero and b finite, got a={a!r}, b={b!r}")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "reflect", reflect)

    def apply(self, p: Point) -> Point:
        w = self.a * complex(p.x, -p.y if self.reflect else p.y) + self.b
        return Point(w.real, w.imag)


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
    # a = (q2 - q1) / (p2 - p1), conjugating the source first when a
    # reflection is requested, over |p2 - p1|^2 rather than by complex /,
    # so that the tests' pipeline oracle shares no step with Smith's quotient
    den = px * px + py * py
    a = complex((qx * px + qy * py) / den, (qy * px - qx * py) / den)
    z1 = complex(p1.x, -p1.y if reflect else p1.y)
    return SimilarityTransform(a, complex(q1.x, q1.y) - a * z1, reflect)


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
