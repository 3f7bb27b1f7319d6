"""Canonical representatives of four-point multisets up to similarity.

A quadrilateral here is any multiset of four points with at least two of
them distinct; no convexity or ordering is assumed.  The normal form sends
one pair of points realizing the largest pairwise distance to (0,0)-(1,0)
and records the two carried points as (c, d), with c confined to the
longest-side triangle region and d to a smaller region depending on c.
Every placement choice (which extreme pair, which endpoint order) is
enumerated.  Of the four reflections fixing the anchor pair, only those
that fold the leading carried point into that region are tried: one,
unless the point lies within eps of the x-axis or of x = 1/2, where the
image across that axis is a candidate too.  The quasilexicographically
largest candidate pair wins, so similar inputs land on identical
representatives.

The similarity test builds no form.  Those eps decisions make the form jump
when rounding in a copy flips one of them, so quads_similar instead aligns
q2 onto one extreme pair of q1 and compares the carried points within eps,
with no choice of pair or lead that rounding could flip.
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

# every vertex pair (i, j) in lexicographic order, with the two remaining
# indices (k, m) ascending
_PAIR_SPLITS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2), (1, 2, 0, 3), (1, 3, 0, 2), (2, 3, 0, 1))


class Quadrilateral(_Value):
    """Multiset of four vertices, at least two distinct."""

    __slots__ = ("vertices",)
    vertices: tuple[Point, Point, Point, Point]

    def __init__(self, vertices: tuple[Point, Point, Point, Point]) -> None:
        if vertices.count(vertices[0]) == 4:
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
        _set_c(self, c)
        _set_d(self, d)

    def points(self) -> tuple[Point, Point, Point, Point]:
        return (ORIGIN, UNIT_X, self.c, self.d)

    def close_to(self, other: QuadNormalForm, tol: Tolerance = DEFAULT_TOL) -> bool:
        return self.c.close_to(other.c, tol) and self.d.close_to(other.d, tol)


_set_c = QuadNormalForm.c.__set__
_set_d = QuadNormalForm.d.__set__


def in_d_region(p: Point, c: Point, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Membership in the fourth-point region attached to a canonical c.

    The region keeps p within unit distance of both anchors and of c, and
    below c in the quasilexicographic sense: strictly smaller fold distance
    from x = 1/2, or an equal fold distance (within eps) and |y| <= |c.y|.
    The three unit discs are relaxed on their squared radii by eps, which
    is about eps/2 along their normals.
    """
    return _in_d_region(p.x, p.y, c.x, c.y, tol.eps)


def _in_d_region(x: float, y: float, cx: float, cy: float, e: float) -> bool:
    """in_d_region of the point (x, y) against c = (cx, cy)."""
    if x * x + y * y > 1.0 + e:
        return False
    if (x - 1.0) * (x - 1.0) + y * y > 1.0 + e:
        return False
    if (x - cx) * (x - cx) + (y - cy) * (y - cy) > 1.0 + e:
        return False
    fold_p = abs(x - 0.5)
    fold_c = abs(cx - 0.5)
    if fold_p > fold_c + e:
        return False
    if abs(fold_p - fold_c) <= e and abs(y) > abs(cy) + e:
        return False
    return True


def _frame(
    x0: float, y0: float, x1: float, y1: float, x2: float, y2: float, x3: float, y3: float
) -> tuple[tuple[float, ...], float, tuple[float, ...], tuple[float, ...]]:
    """The six pair distances, their maximum and the coordinates as xs, ys.

    The distances come in _PAIR_SPLITS order.  When the largest lies outside
    [_TINY, _HUGE], all four come from the copy rescaled by one exact power
    of two.
    """
    hypot = math.hypot
    rescaled = False
    while True:
        d01 = hypot(x1 - x0, y1 - y0)
        d02 = hypot(x2 - x0, y2 - y0)
        d03 = hypot(x3 - x0, y3 - y0)
        d12 = hypot(x2 - x1, y2 - y1)
        d13 = hypot(x3 - x1, y3 - y1)
        d23 = hypot(x3 - x2, y3 - y2)
        d_max = max(d01, d02, d03, d12, d13, d23)
        if _TINY <= d_max <= _HUGE or rescaled:
            return (d01, d02, d03, d12, d13, d23), d_max, (x0, x1, x2, x3), (y0, y1, y2, y3)
        # at most one rescale: a capped one can leave the copy outside the band
        rescaled = True
        (x0, x1, x2, x3), (y0, y1, y2, y3) = _rescaled([x0, x1, x2, x3], [y0, y1, y2, y3], d_max)


def _carry(
    br: float, bi: float, ar: float, ai: float, cr: float, ci: float
) -> tuple[float, float, float, float]:
    """(ar + ai i) / (br + bi i) and (cr + ci i) / (br + bi i) as four floats.

    Each quotient is CPython's _Py_c_quot (Smith's algorithm: R. L. Smith,
    CACM 5(8), 1962) written out in floats, bit for bit, with its steps in
    the same order.  Its ratio and denominator depend only on the divisor,
    so the two carried points share them.  A zero divisor raises
    ZeroDivisionError, as CPython's quotient does, but none reaches here:
    every placed pair lies at or near the largest distance, which is
    positive.
    """
    if abs(br) >= abs(bi):
        ratio = bi / br
        den = br + bi * ratio
        return (
            (ar + ai * ratio) / den, (ai - ar * ratio) / den,
            (cr + ci * ratio) / den, (ci - cr * ratio) / den,
        )
    ratio = br / bi
    den = br * ratio + bi
    return (
        (ar * ratio + ai) / den, (ai * ratio - ar) / den,
        (cr * ratio + ci) / den, (ci * ratio - cr) / den,
    )


def normalize_quad(q: Quadrilateral, tol: Tolerance = DEFAULT_TOL) -> QuadNormalForm:
    """Canonical representative of q's similarity class.

    Enumerates every pair realizing the maximum distance (ties detected at
    relative eps) and both endpoint orders under direct placement.  The
    carried point farther from x = 1/2, then farther from the x-axis, leads
    (within eps both may).  Each lead is folded straight into the
    longest-side region: its y sign picks the reflection across the x-axis
    and its side of x = 1/2 the reflection across that line, and only a lead
    within eps of an axis also keeps the image on the other side of it.
    The largest candidate in the quasilexicographic pair order wins; keys
    are compared with components within eps tied (placement arithmetic
    perturbs coordinates by a few ulps, and that noise must not pick a
    reflection), and exact residual ties fall through to raw coordinate
    comparison, which keeps the result deterministic for mirror-symmetric
    inputs.

    The search runs on plain floats and builds Points only for the winning
    c and d.  When the largest distance lies outside [2**-969, 2**960], the
    coordinates are first rescaled by one exact power of two, so the form is
    the same at every scale of the finite float range, subnormal included;
    inputs inside that band are computed unscaled.
    """
    p0, p1, p2, p3 = q.vertices
    cx, cy, dx, dy = _quad_form(p0.x, p0.y, p1.x, p1.y, p2.x, p2.y, p3.x, p3.y, tol.eps)
    return QuadNormalForm(Point(cx, cy), Point(dx, dy))


def _quad_form(
    x0: float, y0: float, x1: float, y1: float, x2: float, y2: float, x3: float, y3: float,
    e: float,
) -> tuple[float, float, float, float]:
    """normalize_quad of the vertices (x0, y0) ... (x3, y3) as (cx, cy, dx, dy)."""
    dists, d_max, xs, ys = _frame(x0, y0, x1, y1, x2, y2, x3, y3)
    limit = d_max * (1.0 - e)
    low = 0.5 - e

    # the incumbent key, which the first candidate beats
    b0, b1, b2, b3, b4, b5, b6, b7 = -math.inf, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0
    for (i, j, k, m), dist in zip(_PAIR_SPLITS, dists):
        if dist < limit:
            continue
        for src, dst in ((i, j), (j, i)):
            # the similarity sending src, dst to the anchors carries p to
            # (p - src) / (dst - src)
            ox = xs[src]
            oy = ys[src]
            u1, v1, u2, v2 = _carry(
                xs[dst] - ox, ys[dst] - oy, xs[k] - ox, ys[k] - oy, xs[m] - ox, ys[m] - oy
            )
            # the lead claims the c slot; ties admit both orders
            f1 = abs(u1 - 0.5)
            f2 = abs(u2 - 0.5)
            # f2 <= f1 + e negates f2 > f1 + e exactly; f1 >= f2 - e rounds differently
            if f1 > f2 + e or f2 <= f1 + e and abs(v1) > abs(v2) + e:
                leads = ((u1, v1, u2, v2),)
            elif f2 > f1 + e or abs(v2) > abs(v1) + e:
                leads = ((u2, v2, u1, v1),)
            else:
                leads = ((u1, v1, u2, v2), (u2, v2, u1, v1))
            for lx, ly, tx, ty in leads:
                # the reflections that put the lead at y >= -eps, x >= 1/2 - eps;
                # at least one side of x = 1/2 always passes
                if ly > e:
                    flips = ((ly, ty),)
                elif ly < -e:
                    flips = ((-ly, -ty),)
                else:
                    flips = ((ly, ty), (-ly, -ty))
                rx = 1.0 - lx
                if rx < low:
                    mirrors = ((lx, tx),)
                elif lx < low:
                    mirrors = ((rx, 1.0 - tx),)
                else:
                    mirrors = ((lx, tx), (rx, 1.0 - tx))
                ay = abs(ly)
                aty = abs(ty)
                for cy, dy in flips:
                    for cx, dx in mirrors:
                        # key rows, images first: beyond eps a row decides, within eps the next
                        k0 = 0.5 + abs(cx - 0.5)
                        k2 = 0.5 + abs(dx - 0.5)
                        if k0 > b0 + e or k0 >= b0 - e and (
                            ay > b1 + e or ay >= b1 - e and (
                            k2 > b2 + e or k2 >= b2 - e and (
                            aty > b3 + e or aty >= b3 - e and (
                            cx > b4 + e or cx >= b4 - e and (
                            cy > b5 + e or cy >= b5 - e and (
                            dx > b6 + e or dx >= b6 - e and (
                            dy > b7 + e or dy >= b7 - e and (
                            (k0, ay, k2, aty, cx, cy, dx, dy) > (b0, b1, b2, b3, b4, b5, b6, b7)
                        )))))))):
                            b0, b1, b2, b3, b4, b5, b6, b7 = k0, ay, k2, aty, cx, cy, dx, dy
    return b4, b5, b6, b7


def quads_similar(q1: Quadrilateral, q2: Quadrilateral, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Similarity test by aligning q2 onto one extreme pair of q1.

    q1's first pair at the largest distance is sent to the anchors, which
    carries its other two points to (a, b).  Every pair of q2 within 4*eps
    (relative) of q2's largest distance is sent to the anchors in one
    endpoint order, carrying (u, v).  q1 and q2 are similar when, for one
    such pair, (u, v) matches within eps in each coordinate one of the four
    anchor-fixing images of (a, b) -- w, its conjugate, 1 - w or 1 - conj(w)
    applied to both -- in either order.  Swapping the endpoints maps every
    carried w to 1 - w, one of those images, so one order suffices.  No
    normal form is built and nothing picks a lead, so rounding at an eps
    tie, which can make normalize_quad jump, cannot flip the verdict.
    """
    p0, p1, p2, p3 = q1.vertices
    r0, r1, r2, r3 = q2.vertices
    return _quads_similar(
        p0.x, p0.y, p1.x, p1.y, p2.x, p2.y, p3.x, p3.y,
        r0.x, r0.y, r1.x, r1.y, r2.x, r2.y, r3.x, r3.y,
        tol.eps,
    )


def _quads_similar(
    x0: float, y0: float, x1: float, y1: float, x2: float, y2: float, x3: float, y3: float,
    s0: float, t0: float, s1: float, t1: float, s2: float, t2: float, s3: float, t3: float,
    e: float,
) -> bool:
    """quads_similar of the vertices (x0, y0) ... (x3, y3) and (s0, t0) ... (s3, t3)."""
    dists, d_max, xs, ys = _frame(x0, y0, x1, y1, x2, y2, x3, y3)
    i, j, k, m = _PAIR_SPLITS[dists.index(d_max)]
    # the origin of each placement is ox, oy: sx already names 1 - bx
    ox = xs[i]
    oy = ys[i]
    ax, ay, bx, by = _carry(xs[j] - ox, ys[j] - oy, xs[k] - ox, ys[k] - oy, xs[m] - ox, ys[m] - oy)
    rx, sx = 1.0 - ax, 1.0 - bx

    dists, d_max, xs, ys = _frame(s0, t0, s1, t1, s2, t2, s3, t3)
    limit = d_max * (1.0 - 4.0 * e)
    for (i, j, k, m), dist in zip(_PAIR_SPLITS, dists):
        if dist < limit:
            continue
        ox = xs[i]
        oy = ys[i]
        ux, uy, vx, vy = _carry(
            xs[j] - ox, ys[j] - oy, xs[k] - ox, ys[k] - oy, xs[m] - ox, ys[m] - oy
        )
        # an image of (a, b) in either order: x kept or mirrored, y kept or negated
        if (
            (abs(ux - ax) <= e and abs(vx - bx) <= e or abs(ux - rx) <= e and abs(vx - sx) <= e)
            and (abs(uy - ay) <= e and abs(vy - by) <= e or abs(uy + ay) <= e and abs(vy + by) <= e)
            or (abs(ux - bx) <= e and abs(vx - ax) <= e or abs(ux - sx) <= e and abs(vx - rx) <= e)
            and (abs(uy - by) <= e and abs(vy - ay) <= e or abs(uy + by) <= e and abs(vy + ay) <= e)
        ):
            return True
    return False


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
    "Quadrilateral",
    "QuadNormalForm",
    "in_d_region",
    "normalize_quad",
    "quads_similar",
    "reflection_orbit_type_count",
]
