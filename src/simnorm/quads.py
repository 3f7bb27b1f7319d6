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

import itertools
from dataclasses import dataclass

from .errors import DegenerateQuad, PreconditionViolated
from .geometry import (
    DEFAULT_TOL,
    ORIGIN,
    UNIT_X,
    Point,
    Tolerance,
    distance,
    quasilex_eq,
    reflect_normalize,
)

ANCHOR_A = ORIGIN
ANCHOR_B = UNIT_X

_QUAD_PAIRS = tuple(itertools.combinations(range(4), 2))


@dataclass(frozen=True)
class Quadrilateral:
    """Multiset of four vertices, at least two distinct."""

    vertices: tuple[Point, Point, Point, Point]

    def __post_init__(self) -> None:
        first = self.vertices[0]
        if all(v == first for v in self.vertices[1:]):
            raise DegenerateQuad("quadrilateral needs at least two distinct vertices")

    @classmethod
    def of(cls, p: Point, q: Point, r: Point, s: Point) -> Quadrilateral:
        return cls((p, q, r, s))


@dataclass(frozen=True)
class QuadNormalForm:
    """Canonical pair (c, d) carried alongside the anchors (0,0) and (1,0)."""

    c: Point
    d: Point

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
    if (p.x - 1.0) ** 2 + p.y * p.y > 1.0 + e:
        return False
    if (p.x - c.x) ** 2 + (p.y - c.y) ** 2 > 1.0 + e:
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


def _leading_choices(c1: Point, c2: Point, e: float) -> list[tuple[Point, Point]]:
    """Which carried point may claim the c slot; ties admit both."""
    m1 = abs(c1.x - 0.5)
    m2 = abs(c2.x - 0.5)
    if m1 > m2 + e:
        return [(c1, c2)]
    if m2 > m1 + e:
        return [(c2, c1)]
    y1 = abs(c1.y)
    y2 = abs(c2.y)
    if y1 > y2 + e:
        return [(c1, c2)]
    if y2 > y1 + e:
        return [(c2, c1)]
    return [(c1, c2), (c2, c1)]


def _candidate_key(cand: tuple[Point, Point]) -> tuple[float, ...]:
    c, d = cand
    cs = reflect_normalize(c)
    ds = reflect_normalize(d)
    return (cs.x, cs.y, ds.x, ds.y, c.x, c.y, d.x, d.y)


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


def normalize_quad(q: Quadrilateral, tol: Tolerance = DEFAULT_TOL) -> QuadNormalForm:
    """Canonical representative of q's similarity class.

    Enumerates every pair realizing the maximum distance (ties detected at
    relative eps), both endpoint orders under direct placement, and the
    four anchor-fixing reflections; keeps candidates whose leading carried
    point lands in the longest-side region, and returns the largest pair in
    the quasilexicographic pair order.  Exact residual ties between equal
    keys fall through to raw coordinate comparison, which keeps the result
    deterministic for mirror-symmetric inputs.
    """
    e = tol.eps
    verts = q.vertices
    dists = {pair: distance(verts[pair[0]], verts[pair[1]]) for pair in _QUAD_PAIRS}
    d_max = max(dists.values())
    extreme = [pair for pair in _QUAD_PAIRS if dists[pair] >= d_max * (1.0 - e)]

    z = [complex(v.x, v.y) for v in verts]
    candidates: list[tuple[Point, Point]] = []
    for i, j in extreme:
        k, m = (n for n in range(4) if n != i and n != j)
        for src, dst in ((i, j), (j, i)):
            # the similarity sending src, dst to the anchors carries p to
            # (p - src) / (dst - src)
            den = z[dst] - z[src]
            w1 = (z[k] - z[src]) / den
            w2 = (z[m] - z[src]) / den
            p1 = Point(w1.real, w1.imag)
            p2 = Point(w2.real, w2.imag)
            for lead, trail in _leading_choices(p1, p2, e):
                lead_images = _reflection_images(lead)
                trail_images = _reflection_images(trail)
                for li, ti in zip(lead_images, trail_images):
                    if li.x >= 0.5 - e and li.y >= -e:
                        candidates.append((li, ti))

    best = candidates[0]
    best_key = _candidate_key(best)
    for cand in candidates[1:]:
        key = _candidate_key(cand)
        order = _key_cmp(key, best_key, e)
        if order > 0 or (order == 0 and key > best_key):
            best, best_key = cand, key
    return QuadNormalForm(best[0], best[1])


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
