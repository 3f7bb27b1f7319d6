"""Seeded inputs, operations and correctness checks of the three workloads.

Each workload draws its inputs from ``random.Random(f"{name}:{seed}")`` and
serializes every float with ``repr``, so one seed always yields the same
bytes.  The proportions of each input class are exact counts, shuffled by
the seed, so every seed carries the same mix.

Every workload has two input sets.  The timed set holds the input classes
the library handles today, so none of its operations may fail.  The hard
set (``hard=True``, drawn from ``f"{name}:hard:{seed}"``) holds the classes
listed in ``HARD``: needles and extreme-scale copies, which today's library
gets wrong in part or in full.  It is run once per benchmark run, untimed,
and its failures are counted and reported, never filtered.

An operation ends in one of four outcomes: ``ok``, ``unbounded`` (the
documented UnboundedType of the shortest-side form; not a failure),
``exception`` (an exception the input class does not document) or
``check`` (an output that fails its check).
"""

from __future__ import annotations

import json
import math
import random

TRI_POINTS = "tri-points"
QUAD_POINTS = "quad-points"
CLI_BATCH = "cli-batch"
WORKLOADS = (TRI_POINTS, QUAD_POINTS, CLI_BATCH)

# inputs per workload: the pool the library workloads cycle through, and
# the number of data lines in the batch file
SIZES = {TRI_POINTS: 2000, QUAD_POINTS: 1000, CLI_BATCH: 30000}
# inputs in each workload's hard set
HARD_SIZES = {TRI_POINTS: 200, QUAD_POINTS: 100, CLI_BATCH: 300}

# input classes with known seed defects (ROADMAP items 2, 3): the hard sets
HARD = frozenset({"needle", "tiny", "huge"})

OK, UNBOUNDED, EXCEPTION, CHECK = "ok", "unbounded", "exception", "check"
FAILED = (EXCEPTION, CHECK)

EPS = 1e-9

# share of each pool per input class; the regular class takes the rest
_TRI_MIX = {"collinear": 0.10, "repeated": 0.05, "flat": 0.02}
_QUAD_MIX = {"square": 0.025, "rhombus": 0.025, "collinear": 0.025, "repeated": 0.025}
# the batch file: thirds of sides (a quarter of them as angles), 3-point
# and 4-point lines
_SIDES_MIX = {"angles": 0.25}
_TRI3_MIX = {"collinear": 0.10, "repeated": 0.05}
_QUAD4_MIX = {"square": 0.025, "rhombus": 0.025, "collinear": 0.025, "repeated": 0.025}
# the hard sets; the batch one holds needle `sides` lines only, because an
# extreme-scale line aborts the whole fail-fast batch
_HARD_MIX = {
    TRI_POINTS: {"needle": 0.5, "tiny": 0.25, "huge": 0.25},
    QUAD_POINTS: {"tiny": 0.5, "huge": 0.5},
    CLI_BATCH: {"needle": 1.0},
}


def _tags(rng: random.Random, n: int, mix: dict[str, float]) -> list[tuple[str, float, float]]:
    """n (input class, u, v) triples in seeded order.

    u and v are stratified uniform draws in [0, 1) within each class, paired
    at random (a Latin hypercube): u sets the size of a hard input's tiny
    side or height and v its scale, so the hard inputs cover both ranges
    evenly on every seed and the share of them that fails does not swing
    from seed to seed.
    """
    counts = {tag: round(n * share) for tag, share in mix.items()}
    counts["regular"] = n - sum(counts.values())
    items = []
    for tag, k in counts.items():
        us = [(i + rng.random()) / k for i in range(k)]
        vs = [(i + rng.random()) / k for i in range(k)]
        rng.shuffle(vs)
        items += [(tag, u, v) for u, v in zip(us, vs)]
    rng.shuffle(items)
    return items


def _scale(v: float) -> float:
    """Maps v in [0, 1) onto the scales 1e-3..1e3."""
    return 10.0 ** (-3.0 + 6.0 * v)


def _similarity(rng: random.Random, scale: float | None = None):
    """A random similarity map of the plane, scale 1e-3..1e3 by default."""
    s = 10.0 ** rng.uniform(-3.0, 3.0) if scale is None else scale
    theta = rng.uniform(0.0, math.tau)
    cos_s, sin_s = s * math.cos(theta), s * math.sin(theta)
    flip = rng.random() < 0.5
    tx, ty = s * rng.uniform(-5.0, 5.0), s * rng.uniform(-5.0, 5.0)

    def apply(p):
        x, y = p[0], -p[1] if flip else p[1]
        return (cos_s * x - sin_s * y + tx, sin_s * x + cos_s * y + ty)

    return apply


def _copy(rng: random.Random, pts, scale: float | None = None) -> list:
    """A similar copy of pts with relabelled vertices."""
    f = _similarity(rng, scale)
    out = [f(p) for p in pts]
    rng.shuffle(out)
    return out


def _extreme_scale(rng: random.Random, tag: str) -> float:
    return (1e-12 if tag == "tiny" else 1e200) * rng.uniform(1.0, 10.0)


def _far_apart(pts, gap: float) -> bool:
    return all(math.dist(p, q) > gap for i, p in enumerate(pts) for q in pts[i + 1 :])


def _regular_triangle(rng: random.Random):
    while True:
        pts = [(rng.random(), rng.random()) for _ in range(3)]
        (ax, ay), (bx, by), (cx, cy) = pts
        cross = abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
        if _far_apart(pts, 0.05) and cross > 0.01:
            return pts


def _collinear(rng: random.Random, n: int):
    angle = rng.uniform(0.0, math.pi)
    dx, dy = math.cos(angle), math.sin(angle)
    while True:
        ts = [rng.random() for _ in range(n)]
        if _far_apart([(t, 0.0) for t in ts], 0.05):
            return [(t * dx, t * dy) for t in ts]


def _triangle(rng: random.Random, tag: str, u: float = 0.5):
    if tag == "collinear":
        return _collinear(rng, 3)
    if tag == "repeated":
        p, q = _regular_triangle(rng)[:2]
        return [p, p, q]
    if tag == "needle":
        # shortest side 1e-8..1e-5 of the others: two long sides nearly equal
        d, phi = 10.0 ** (-8.0 + 3.0 * u), rng.uniform(0.2, math.pi - 0.2)
        return [(0.0, 0.0), (1.0, 0.0), (1.0 + d * math.cos(phi), d * math.sin(phi))]
    if tag == "flat":
        # height 1e-8..1e-5 above the longest side: a + b barely exceeds c
        return [(0.0, 0.0), (1.0, 0.0), (rng.uniform(0.1, 0.9), 10.0 ** (-8.0 + 3.0 * u))]
    return _regular_triangle(rng)


def _quad(rng: random.Random, tag: str, u: float = 0.5):
    if tag == "square":
        return [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    if tag == "rhombus":
        a = rng.uniform(0.3, 1.3)
        c, s = math.cos(a), math.sin(a)
        return [(0.0, 0.0), (1.0, 0.0), (1.0 + c, s), (c, s)]
    if tag == "collinear":
        return _collinear(rng, 4)
    if tag == "repeated":
        p, q, r = _regular_triangle(rng)
        return [p, p, q, r]
    while True:
        pts = [(rng.random(), rng.random()) for _ in range(4)]
        if _far_apart(pts, 0.05):
            return pts


def _fmt(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _flat(pts) -> list[float]:
    return [c for p in pts for c in p]


def _shape_pair_lines(rng: random.Random, n: int, mix, make) -> list[str]:
    lines = []
    for tag, u, v in _tags(rng, n, mix):
        base = make(rng, "regular" if tag in ("tiny", "huge") else tag, u)
        first = _copy(rng, base, _scale(v))
        scale = _extreme_scale(rng, tag) if tag in ("tiny", "huge") else None
        second = _copy(rng, base, scale)
        lines.append(f"{tag} {_fmt(_flat(first))} {_fmt(_flat(second))}")
    return lines


def _sides_line(rng: random.Random, tag: str, u: float, v: float) -> str:
    if tag == "angles":
        (ax, ay), (bx, by), (cx, cy) = _regular_triangle(rng)
        alpha = abs(math.atan2((bx - ax) * (cy - ay) - (by - ay) * (cx - ax),
                               (bx - ax) * (cx - ax) + (by - ay) * (cy - ay)))
        beta = abs(math.atan2((ax - bx) * (cy - by) - (ay - by) * (cx - bx),
                              (ax - bx) * (cx - bx) + (ay - by) * (cy - by)))
        return f"angles {_fmt((alpha, beta, math.pi - alpha - beta))}"
    s = _scale(v)
    if tag == "needle":
        # as `sides 1e-8 1 1`: a tiny side against two nearly equal ones
        a = 10.0 ** (-8.5 + 2.5 * u)
        sides = [a, 1.0, 1.0 + a * rng.uniform(-0.9, 0.9)]
    else:
        p, q, r = _regular_triangle(rng)
        sides = [math.dist(p, q), math.dist(p, r), math.dist(q, r)]
    rng.shuffle(sides)
    return f"sides {_fmt(v * s for v in sides)}"


def batch_lines(rng: random.Random, n: int) -> list[tuple[str, str]]:
    """(input class, line) pairs of a mixed batch file, in file order."""
    third = n // 3
    out = [(tag, _sides_line(rng, tag, u, v)) for tag, u, v in _tags(rng, third, _SIDES_MIX)]
    for tag, u, v in _tags(rng, third, _TRI3_MIX):
        out.append((tag, "points " + _fmt(_flat(_copy(rng, _triangle(rng, tag, u), _scale(v))))))
    for tag, u, v in _tags(rng, n - 2 * third, _QUAD4_MIX):
        out.append((tag, "points " + _fmt(_flat(_copy(rng, _quad(rng, tag, u), _scale(v))))))
    rng.shuffle(out)
    return out


def _tagged_lines(workload: str, seed: int, n: int | None, hard: bool) -> list[tuple[str, str]]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:hard:{seed}" if hard else f"{workload}:{seed}")
    if n is None:
        n = (HARD_SIZES if hard else SIZES)[workload]
    if workload == CLI_BATCH:
        if not hard:
            return batch_lines(rng, n)
        return [(tag, _sides_line(rng, tag, u, v)) for tag, u, v in _tags(rng, n, _HARD_MIX[workload])]
    mix = _HARD_MIX[workload] if hard else (_TRI_MIX if workload == TRI_POINTS else _QUAD_MIX)
    make = _triangle if workload == TRI_POINTS else _quad
    return [(line.split(" ", 1)[0], line) for line in _shape_pair_lines(rng, n, mix, make)]


def generate(workload: str, seed: int, n: int | None = None, hard: bool = False) -> bytes:
    """The workload's input file (its hard set if hard) for this seed, one input per line."""
    return ("\n".join(line for _, line in _tagged_lines(workload, seed, n, hard)) + "\n").encode("ascii")


def batch_tags(seed: int, n: int | None = None, hard: bool = False) -> list[str]:
    """Input class of each line of the cli-batch file (or its hard set) for this seed."""
    return [tag for tag, _ in _tagged_lines(CLI_BATCH, seed, n, hard)]


# --- library workloads ------------------------------------------------------


def load_pool(sn, workload: str, data: bytes) -> list[tuple]:
    """Parse a library workload's input file into (class, shape, copy) items."""
    arity = 3 if workload == TRI_POINTS else 4
    make = sn.Triangle if arity == 3 else sn.Quadrilateral
    pool = []
    for line in data.decode("ascii").splitlines():
        tag, *nums = line.split()
        vals = [float(v) for v in nums]
        pts = [sn.Point(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)]
        pool.append((tag, make(tuple(pts[:arity])), make(tuple(pts[arity:]))))
    return pool


def tri_op(sn, item) -> str:
    """c, b and a normal points and classify on T, then triangles_similar(T, T')."""
    tag, t, copy = item
    try:
        c = sn.c_normal_point(t)
        b = sn.b_normal_point(t)
        try:
            a = sn.a_normal_point(t)
        except sn.UnboundedType:
            a = None
        cls = sn.classify(t)
        similar = sn.triangles_similar(t, copy)
    except Exception:  # an undocumented exception is a failed operation
        return EXCEPTION
    ok = similar and sn.in_c_domain(c) and sn.in_b_domain(b) and (a is None or sn.in_a_domain(a))
    if tag in ("collinear", "repeated"):
        ok = ok and cls.angle_class is sn.AngleClass.DEGENERATE
    if not ok:
        return CHECK
    return OK if a is not None else UNBOUNDED


def quad_op(sn, item) -> str:
    """normalize_quad(Q), then quads_similar(Q, Q')."""
    _, q, copy = item
    try:
        nf = sn.normalize_quad(q)
        similar = sn.quads_similar(q, copy)
    except Exception:  # an undocumented exception is a failed operation
        return EXCEPTION
    if similar and sn.in_c_domain(nf.c) and sn.in_d_region(nf.d, nf.c):
        return OK
    return CHECK


OPS = {TRI_POINTS: tri_op, QUAD_POINTS: quad_op}


def extreme_pairs(sn, q) -> int:
    """Pairs of q's vertices tied for the largest distance, as normalize_quad ties them."""
    v = q.vertices
    dists = [sn.distance(v[i], v[j]) for i in range(4) for j in range(i + 1, 4)]
    top = max(dists)
    return sum(1 for d in dists if d >= top * (1.0 - EPS))


# --- cli-batch ----------------------------------------------------------------


def _close(pair, p) -> bool:
    return abs(pair[0] - p.x) <= EPS and abs(pair[1] - p.y) <= EPS


def check_record(sn, line: str, record: dict) -> bool:
    """One structured `normalize` record against its input line.

    A triangle record must be internally consistent: ``degenerate`` is set
    exactly when ``angle_class`` is degenerate, which in turn holds exactly
    when the normal point lies within eps of the x-axis.  Its normal point
    must match an in-process library call within eps; for angle lines that
    call is ``normal_point_from_angles``, a route the CLI does not take.  A
    quad record must match ``normalize_quad`` and lie in its regions.
    """
    tag, *nums = line.split()
    vals = [float(v) for v in nums]
    if tag == "points" and len(vals) == 8:
        pts = [sn.Point(vals[i], vals[i + 1]) for i in range(0, 8, 2)]
        nf = sn.normalize_quad(sn.Quadrilateral(tuple(pts)))
        c, d = record.get("quad_c"), record.get("quad_d")
        return (
            record.get("in_domain") is True
            and c is not None
            and d is not None
            and _close(c, nf.c)
            and _close(d, nf.d)
            and sn.in_c_domain(nf.c)
            and sn.in_d_region(nf.d, nf.c)
        )
    if tag == "points":
        pts = [sn.Point(vals[i], vals[i + 1]) for i in range(0, 6, 2)]
        expected = sn.c_normal_point(sn.Triangle(tuple(pts)))
    elif tag == "sides":
        expected = sn.normal_point_from_sides(sn.FormKind.C_VERTEX, sn.SideLengths.of(*vals))
    else:
        expected = sn.normal_point_from_angles(sn.FormKind.C_VERTEX, sn.AngleTriple(*vals))
    point = record.get("normal_point")
    if point is None or record.get("in_domain") is not True:
        return False
    flat_class = record.get("angle_class") == "degenerate"
    return (
        _close(point, expected)
        and (record.get("degenerate") is True) == flat_class
        and (point[1] <= EPS) == flat_class
    )


def check_batch_output(sn, lines: list[str], tags: list[str], out: bytes) -> dict[tuple[str, str], int]:
    """Outcome counts by (input class, outcome) of one batch run's stdout."""
    records = out.decode("utf-8").splitlines()
    counts: dict[tuple[str, str], int] = {}
    for i, (line, tag) in enumerate(zip(lines, tags)):
        try:
            outcome = OK if check_record(sn, line, json.loads(records[i])) else CHECK
        except Exception:  # a missing or malformed record, or a reference call that raises
            outcome = CHECK
        counts[(tag, outcome)] = counts.get((tag, outcome), 0) + 1
    return counts
