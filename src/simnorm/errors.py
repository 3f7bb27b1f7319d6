"""Exception types shared across the library.

Every error raised on purpose by this package derives from GeometryError,
so callers can catch one base class at an API boundary.
"""


class GeometryError(Exception):
    """Base class for the domain errors raised by this package."""


class DegenerateSegment(GeometryError):
    """A segment's endpoints coincide, so no similarity can be fitted to it."""


class UnboundedType(GeometryError):
    """The shortest-side form has no finite normal point (side lengths 0, c, c)."""


class DegenerateAngles(GeometryError):
    """An angle triple does not describe a nondegenerate triangle."""


class InvalidSides(GeometryError):
    """Side lengths are negative, unordered, or break the triangle inequality."""


class OutOfDomain(GeometryError):
    """A point lies outside the region required by the requested form."""


class DegenerateQuad(GeometryError):
    """A four-point multiset with fewer than two distinct points."""


class ArityMismatch(GeometryError):
    """Two shapes of different arity were compared."""


class PreconditionViolated(GeometryError):
    """An operation was called outside its documented precondition."""


__all__ = [
    "ArityMismatch",
    "DegenerateAngles",
    "DegenerateQuad",
    "DegenerateSegment",
    "GeometryError",
    "InvalidSides",
    "OutOfDomain",
    "PreconditionViolated",
    "UnboundedType",
]
