"""Spans around calls into simnorm, recorded from outside the package.

The tracer wraps module functions and methods at run time: every simnorm
module that bound a traced function by name gets the wrapper, so calls
between modules are seen too.  Spans live in flat in-memory arrays (name,
start, end, parent, operation id) and are written out once, when the run
ends.  A target that no longer exists is skipped, so a refactor that
removes a function yields an absent metric, not a crash.
"""

from __future__ import annotations

import gzip
import statistics
import sys
import time
from array import array

# metric name -> (module, attribute); "Class.method" names a method
FUNCTIONS = {
    "geometry.similarity_from_segment": ("geometry", "similarity_from_segment"),
    "geometry.transform_apply": ("geometry", "SimilarityTransform.apply"),
    "geometry.point_new": ("geometry", "Point.__init__"),
    "geometry.reflect_normalize": ("geometry", "reflect_normalize"),
    "triangles.c_normal_point": ("triangles", "c_normal_point"),
    "triangles.b_normal_point": ("triangles", "b_normal_point"),
    "triangles.a_normal_point": ("triangles", "a_normal_point"),
    "triangles.classify": ("triangles", "classify"),
    "triangles.triangles_similar": ("triangles", "triangles_similar"),
    "triangles.side_lengths": ("triangles", "side_lengths"),
    "triangles.triangle_from_sides": ("triangles", "triangle_from_sides"),
    "conversions.normal_point_from_sides": ("conversions", "normal_point_from_sides"),
    "conversions.angles_from_sides": ("conversions", "angles_from_sides"),
    "conversions.sides_from_angles": ("conversions", "sides_from_angles"),
    "quads.normalize_quad": ("quads", "normalize_quad"),
    "quads.quads_similar": ("quads", "quads_similar"),
    "quads.in_d_region": ("quads", "in_d_region"),
}

# the batch path's stages, as the functions of simnorm.cli that run them
CLI_STAGES = {
    "cli.parse": ("cli", "_batch_shapes"),
    "cli.compute": ("cli", "_triangle_record"),
    "cli.compute.quad": ("cli", "_quad_record"),
    "cli.emit": ("cli", "_emit"),
}

LAYERS = ("geometry", "triangles", "conversions", "quads", "cli")

# (metric, exception name) pairs counted as their own per-layer metrics
RAISED = {
    "triangles.a_normal_point.unbounded": ("triangles.a_normal_point", "UnboundedType"),
    "conversions.angles_from_sides.degenerate": ("conversions.angles_from_sides", "DegenerateAngles"),
}


class Tracer:
    """Collects spans from wrapped callables.

    A span is stored on exit as (name index, start ns, end ns), so spans are
    in completion order and a parent follows its children; parents and
    operation ids are derived from that order and the timestamps when the
    spans are read, which keeps the wrapper cheap.  An operation is one root
    span: the benchmark's op call for the library workloads, one stage call
    for the batch path.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int]] = []
        self.raised: dict[tuple[int, str], int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns
        append = self.spans.append
        raised = self.raised

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                key = (idx, type(exc).__name__)
                raised[key] = raised.get(key, 0) + 1
                raise
            finally:
                append((idx, t0, clock()))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets: dict[str, tuple[str, str]]) -> list[str]:
        """Wrap each target in every loaded simnorm module; returns the names wrapped."""
        modules = [m for key, m in sorted(sys.modules.items()) if key == "simnorm" or key.startswith("simnorm.")]
        done = []
        for name, (module, attr) in targets.items():
            home = sys.modules.get(f"simnorm.{module}")
            if home is None:
                continue
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            fn = getattr(owner, member, None) if owner is not None else None
            if fn is None:
                continue
            wrapped = self.wrap(name, fn)
            if owner_name:
                self._patch(owner, member, wrapped)
            else:
                for m in modules:
                    if getattr(m, member, None) is fn:
                        self._patch(m, member, wrapped)
            done.append(name)
        return done

    def _patch(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    def parents(self) -> list[int]:
        """Row of each span's parent, -1 for a root.

        The spans still open on the stack that started no earlier than a
        span are exactly its children, since they ended before it did.
        """
        parent = [-1] * len(self.spans)
        stack: list[int] = []
        for i, (_, t0, _) in enumerate(self.spans):
            while stack and self.spans[stack[-1]][1] >= t0:
                parent[stack.pop()] = i
            stack.append(i)
        return parent

    def durations(self) -> dict[str, list[int]]:
        """Inclusive span durations in ns, by name."""
        out: dict[str, list[int]] = {n: [] for n in self.names}
        for idx, t0, t1 in self.spans:
            out[self.names[idx]].append(t1 - t0)
        return out

    def self_ns_by_layer(self) -> dict[str, int]:
        """Each layer's self time: span durations minus their child spans."""
        child = [0] * len(self.spans)
        for (_, t0, t1), p in zip(self.spans, self.parents()):
            if p >= 0:
                child[p] += t1 - t0
        out = {layer: 0 for layer in LAYERS}
        for (idx, t0, t1), c in zip(self.spans, child):
            layer = self.names[idx].split(".", 1)[0]
            if layer in out:
                out[layer] += t1 - t0 - c
        return out

    def raised_count(self, name: str, exc_name: str) -> int:
        return sum(v for (idx, e), v in self.raised.items() if self.names[idx] == name and e == exc_name)

    def write(self, path) -> None:
        """Spans as gzipped CSV: name, start_ns, end_ns, parent row, operation id."""
        parent = self.parents()
        op = [0] * len(self.spans)
        roots = 0
        # a parent's row is after its children's, so walk from the end
        for i in range(len(self.spans) - 1, -1, -1):
            if parent[i] < 0:
                roots += 1
                op[i] = roots
            else:
                op[i] = op[parent[i]]
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as out:
            out.write("name,start_ns,end_ns,parent,op\n")
            for (idx, t0, t1), p, o in zip(self.spans, parent, op):
                out.write(f"{self.names[idx]},{t0},{t1},{p},{roots - o}\n")


def function_metrics(tracer: Tracer) -> dict[str, float]:
    """``<name>.us`` (median inclusive µs per call) and ``<name>.calls``."""
    out: dict[str, float] = {}
    for name, durs in tracer.durations().items():
        if name not in FUNCTIONS:
            continue
        out[f"{name}.calls"] = len(durs)
        out[f"{name}.us"] = statistics.median(durs) / 1000.0 if durs else 0.0
    for metric, (name, exc_name) in RAISED.items():
        if name in tracer.names:
            out[metric] = tracer.raised_count(name, exc_name)
    return out


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """``<layer>.self_us_per_op``: each layer's self time per operation."""
    return {f"{layer}.self_us_per_op": ns / 1000.0 / ops for layer, ns in tracer.self_ns_by_layer().items()}


def stage_metrics(tracer: Tracer, records: int) -> dict[str, float]:
    """``cli.<stage>.us_per_record`` from the stage spans of one batch run."""
    totals: dict[str, int] = {}
    for name, durs in tracer.durations().items():
        stage = ".".join(name.split(".")[:2])
        totals[stage] = totals.get(stage, 0) + sum(durs)
    return {f"{stage}.us_per_record": ns / 1000.0 / records for stage, ns in totals.items()}


# simnorm module -> import metric; other simnorm modules count as the package
IMPORT_BUCKETS = {
    "simnorm.geometry": "geometry",
    "simnorm.triangles": "triangles",
    "simnorm.conversions": "conversions",
    "simnorm.quads": "quads",
    "simnorm.figures": "figures",
    "simnorm.cli": "cli",
}
IMPORT_METRICS = tuple(IMPORT_BUCKETS.values()) + ("package", "stdlib")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Self import ms per bucket from ``python -X importtime`` output."""
    out = {name: 0.0 for name in IMPORT_METRICS}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:") :].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        module = fields[2].strip()
        if module == "simnorm" or module.startswith("simnorm."):
            bucket = IMPORT_BUCKETS.get(module, "package")
        else:
            bucket = "stdlib"
        out[bucket] += int(fields[0]) / 1000.0
    return out
