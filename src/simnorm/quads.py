"""Canonical representatives of four-point multisets up to similarity.

A quadrilateral here is any multiset of four points with at least two of
them distinct; no convexity or ordering is assumed.  The normal form sends
one pair of points realizing the largest pairwise distance to (0,0)-(1,0)
and records the two carried points as (c, d), with c confined to the
longest-side triangle region and d to a smaller region depending on c.
Every placement choice (which extreme pair, which endpoint order, which of
the four reflections fixing the anchor pair) is enumerated, and the
quasilexicographically largest candidate pair wins, so similar inputs land
on identical representatives.
"""

from __future__ import annotations

import math

from .errors import DegenerateQuad, PreconditionViolated
from .geometry import (
    DEFAULT_TOL,
    ORIGIN,
    UNIT_X,
    _HUGE,
    _TINY,
    Point,
    Tolerance,
    _rescaled,
    _set,
    _Value,
    quasilex_eq,
)

ANCHOR_A = ORIGIN
ANCHOR_B = UNIT_X

# every vertex pair (i, j) in lexicographic order, with the two remaining
# indices (k, m) ascending
_PAIR_SPLITS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2), (1, 2, 0, 3), (1, 3, 0, 2), (2, 3, 0, 1))


class Quadrilateral(_Value):
    """Multiset of four vertices, at least two distinct."""

    __slots__ = ("vertices",)
    vertices: tuple[Point, Point, Point, Point]

    def __init__(self, vertices: tuple[Point, Point, Point, Point]) -> None:
        first = vertices[0]
        if all(v == first for v in vertices[1:]):
            raise DegenerateQuad("quadrilateral needs at least two distinct vertices")
        _set(self, "vertices", vertices)

    @classmethod
    def of(cls, p: Point, q: Point, r: Point, s: Point) -> Quadrilateral:
        return cls((p, q, r, s))


class QuadNormalForm(_Value):
    """Canonical pair (c, d) carried alongside the anchors (0,0) and (1,0)."""

    __slots__ = ("c", "d")
    c: Point
    d: Point

    def __init__(self, c: Point, d: Point) -> None:
        _set(self, "c", c)
        _set(self, "d", d)

    def points(self) -> tuple[Point, Point, Point, Point]:
        return (ANCHOR_A, ANCHOR_B, self.c, self.d)

    def close_to(self, other: QuadNormalForm, tol: Tolerance = DEFAULT_TOL) -> bool:
        return self.c.close_to(other.c, tol) and self.d.close_to(other.d, tol)


def in_d_region(p: Point, c: Point, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Membership in the fourth-point region attached to a canonical c.

    The region keeps p within unit distance of both anchors and of c, and
    below c in the quasilexicographic sense: strictly smaller fold distance
    from x = 1/2, or an equal fold distance (within eps) and |y| <= |c.y|.
    """
    e = tol.eps
    if p.x * p.x + p.y * p.y > 1.0 + e:
        return False
    if (p.x - 1.0) * (p.x - 1.0) + p.y * p.y > 1.0 + e:
        return False
    if (p.x - c.x) * (p.x - c.x) + (p.y - c.y) * (p.y - c.y) > 1.0 + e:
        return False
    fold_p = abs(p.x - 0.5)
    fold_c = abs(c.x - 0.5)
    if fold_p > fold_c + e:
        return False
    if abs(fold_p - fold_c) <= e and abs(p.y) > abs(c.y) + e:
        return False
    return True


def _reflection_images(p: Point) -> tuple[Point, Point, Point, Point]:
    """Images of p under the four reflections fixing the anchor pair."""
    return (
        p,
        Point(1.0 - p.x, p.y),
        Point(p.x, -p.y),
        Point(1.0 - p.x, -p.y),
    )


def _leading_choices(
    x1: float, y1: float, x2: float, y2: float, e: float
) -> tuple[tuple[float, float, float, float], ...]:
    """Which carried point may claim the c slot, as (lead x, y, trail x, y); ties admit both."""
    m1 = abs(x1 - 0.5)
    m2 = abs(x2 - 0.5)
    if m1 > m2 + e:
        return ((x1, y1, x2, y2),)
    if m2 > m1 + e:
        return ((x2, y2, x1, y1),)
    a1 = abs(y1)
    a2 = abs(y2)
    if a1 > a2 + e:
        return ((x1, y1, x2, y2),)
    if a2 > a1 + e:
        return ((x2, y2, x1, y1),)
    return ((x1, y1, x2, y2), (x2, y2, x1, y1))


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


def _pair_distances(xs: list[float], ys: list[float]) -> list[float]:
    return [math.hypot(xs[j] - xs[i], ys[j] - ys[i]) for i, j, _, _ in _PAIR_SPLITS]


def normalize_quad(q: Quadrilateral, tol: Tolerance = DEFAULT_TOL) -> QuadNormalForm:
    """Canonical representative of q's similarity class.

    Enumerates every pair realizing the maximum distance (ties detected at
    relative eps), both endpoint orders under direct placement, and the
    four anchor-fixing reflections; keeps candidates whose leading carried
    point lands in the longest-side region, and returns the largest pair in
    the quasilexicographic pair order.  Exact residual ties between equal
    keys fall through to raw coordinate comparison, which keeps the result
    deterministic for mirror-symmetric inputs.

    The search runs on plain floats and builds Points only for the winning
    c and d.  When the largest distance lies outside [2**-969, 2**960], the
    coordinates are first rescaled by one exact power of two, so the form is
    the same at every scale of the finite float range, subnormal included;
    inputs inside that band are computed unscaled.
    """
    e = tol.eps
    xs = [v.x for v in q.vertices]
    ys = [v.y for v in q.vertices]
    dists = _pair_distances(xs, ys)
    d_max = max(dists)
    if not _TINY <= d_max <= _HUGE:
        xs, ys = _rescaled(xs, ys, d_max)
        dists = _pair_distances(xs, ys)
        d_max = max(dists)
    limit = d_max * (1.0 - e)

    z = [complex(x, y) for x, y in zip(xs, ys)]
    best: tuple[float, ...] | None = None
    for (i, j, k, m), dist in zip(_PAIR_SPLITS, dists):
        if dist < limit:
            continue
        for src, dst in ((i, j), (j, i)):
            # the similarity sending src, dst to the anchors carries p to
            # (p - src) / (dst - src)
            den = z[dst] - z[src]
            w1 = (z[k] - z[src]) / den
            w2 = (z[m] - z[src]) / den
            for lx, ly, tx, ty in _leading_choices(w1.real, w1.imag, w2.real, w2.imag, e):
                # the four reflections fixing the anchor pair
                for cx, cy, dx, dy in (
                    (lx, ly, tx, ty),
                    (1.0 - lx, ly, 1.0 - tx, ty),
                    (lx, -ly, tx, -ty),
                    (1.0 - lx, -ly, 1.0 - tx, -ty),
                ):
                    if cx < 0.5 - e or cy < -e:
                        continue
                    # reflect-normalized images first, raw coordinates last
                    key = (
                        0.5 + abs(cx - 0.5), abs(cy), 0.5 + abs(dx - 0.5), abs(dy),
                        cx, cy, dx, dy,
                    )
                    if best is None:
                        best = key
                        continue
                    order = _key_cmp(key, best, e)
                    if order > 0 or (order == 0 and key > best):
                        best = key
    return QuadNormalForm(Point(best[4], best[5]), Point(best[6], best[7]))


def quads_similar(q1: Quadrilateral, q2: Quadrilateral, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Similarity test via canonical representatives."""
    return normalize_quad(q1, tol).close_to(normalize_quad(q2, tol), tol)


def reflection_orbit_type_count(c: Point, d: Point, tol: Tolerance = DEFAULT_TOL) -> int:
    """Distinct similarity types among the reflection variants of d.

    Requires c and d to share a reflect-normalized image (d lies in the
    reflection orbit of c).  Replacing d by each of its anchor-fixing
    reflection images yields one quadrilateral per distinct image, and
    those quadrilaterals are pairwise non-similar, so the count equals the
    orbit size of c: 4 off both symmetry axes, 2 on exactly one (equal
    anchor distances, i.e. x = 1/2, or on the x-axis), 1 at (1/2, 0) where
    c = d is forced.
    """
    if not quasilex_eq(c, d, tol):
        raise PreconditionViolated("c and d must share a reflect-normalized image")
    e = tol.eps
    on_midline = abs(c.x - 0.5) <= e
    on_axis = abs(c.y) <= e
    if on_midline and on_axis:
        return 1
    if on_midline or on_axis:
        return 2
    return 4


__all__ = [
    "ANCHOR_A",
    "ANCHOR_B",
    "Quadrilateral",
    "QuadNormalForm",
    "in_d_region",
    "normalize_quad",
    "quads_similar",
    "reflection_orbit_type_count",
]
