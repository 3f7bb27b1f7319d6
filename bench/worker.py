"""Worker child of the benchmark driver; one process per measurement.

    worker.py run WORKLOAD INPUTS HARD SECONDS RESULT
    worker.py trace WORKLOAD INPUTS HARD SECONDS RESULT SPANS
    worker.py trace-cli FULL_FILE PREFIX_FILE RESULT OUTPUT SPANS

``run`` cycles a closed loop with one caller through the library workload's
input pool for SECONDS under a speed probe (see speed.py) and writes each
full pass's time, as wall time and in reference units, and the outcome
counts to RESULT (JSON).  ``trace`` times untraced passes for half of
SECONDS, then makes one traced pass.  Both then make one untimed pass over
the workload's hard set HARD and add its outcome counts as ``hard``.  ``trace-cli`` runs ``simnorm.cli.main``
in-process on the batch files: untraced, with stage spans only (its stdout
goes to OUTPUT for the driver to check), with every function span on the
prefix file, and under tracemalloc.  Spans are written to SPANS at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import simnorm

import speed
import tracing
import workloads


def _pass(op, pool, counts: dict) -> float:
    t0 = time.perf_counter()
    for item in pool:
        key = (item[0], op(simnorm, item))
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - t0


def _outcomes(counts: dict) -> list:
    return [[tag, outcome, n] for (tag, outcome), n in sorted(counts.items())]


def run(workload: str, pool, seconds: float) -> dict:
    op = workloads.OPS[workload]
    _pass(op, pool, {})  # warm-up, not counted
    counts: dict = {}
    walls, refs = [], []
    deadline = time.perf_counter() + seconds
    with speed.Probe() as probe:
        while not walls or time.perf_counter() < deadline:
            probe.take()
            wall, ref = speed.measured(_pass(op, pool, counts), probe.take())
            walls.append(wall)
            refs.append(ref)
    return {"pool": len(pool), "walls": walls, "refs": refs, "outcomes": _outcomes(counts)}


def trace_library(workload: str, pool, seconds: float, spans_path: str) -> dict:
    op = workloads.OPS[workload]
    untraced = run(workload, pool, seconds / 2.0)["walls"]
    tracer = tracing.Tracer()
    tracer.install(tracing.FUNCTIONS)
    counts: dict = {}
    try:
        traced = _pass(tracer.wrap("bench.op", op), pool, counts)
    finally:
        tracer.uninstall()
    metrics = tracing.function_metrics(tracer)
    metrics.update(tracing.layer_metrics(tracer, len(pool)))
    pairs = 0
    if workload == workloads.QUAD_POINTS:
        pairs = sum(workloads.extreme_pairs(simnorm, q) for _, a, b in pool for q in (a, b))
    metrics["quads.extreme_pairs"] = pairs
    metrics["trace.overhead_frac"] = traced / statistics.median(untraced) - 1.0
    tracer.write(spans_path)
    return {"pool": len(pool), "metrics": metrics, "outcomes": _outcomes(counts)}


def _cli_main(path: str) -> tuple[int, str, float]:
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = simnorm.cli.main(["normalize", "--batch", path, "--format", "structured"])
    return code, sink.getvalue(), time.perf_counter() - t0


def _lines(path: str) -> list[str]:
    with open(path, encoding="ascii") as handle:
        return [line for line in handle.read().splitlines() if line.strip()]


def _quads(lines: list[str]):
    for line in lines:
        vals = [float(v) for v in line.split()[1:]]
        if len(vals) == 8:
            yield simnorm.Quadrilateral(tuple(simnorm.Point(vals[i], vals[i + 1]) for i in range(0, 8, 2)))


def trace_cli(full: str, prefix: str, output_path: str, spans_path: str) -> dict:
    import simnorm.cli  # only here: the library workloads must not pay for it

    records = len(_lines(full))
    prefix_lines = _lines(prefix)
    untraced = statistics.median(_cli_main(prefix)[2] for _ in range(3))

    stages = tracing.Tracer()
    stages.install(tracing.CLI_STAGES)
    try:
        code, out, _ = _cli_main(full)
    finally:
        stages.uninstall()
    with open(output_path, "w", encoding="utf-8") as handle:
        handle.write(out)
    metrics = tracing.stage_metrics(stages, records)

    tracer = tracing.Tracer()
    tracer.install({**tracing.FUNCTIONS, **tracing.CLI_STAGES})
    try:
        traced = _cli_main(prefix)[2]
    finally:
        tracer.uninstall()
    metrics.update(tracing.function_metrics(tracer))
    metrics.update(tracing.layer_metrics(tracer, len(prefix_lines)))
    metrics["quads.extreme_pairs"] = sum(workloads.extreme_pairs(simnorm, q) for q in _quads(prefix_lines))
    metrics["trace.overhead_frac"] = traced / untraced - 1.0

    tracemalloc.start()
    try:
        _cli_main(full)
        metrics["cli.peak_traced_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    metrics["cli.records"] = records
    tracer.write(spans_path)
    return {"exit_code": code, "metrics": metrics}


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "trace-cli":
        full, prefix, result_path, output_path, spans_path = rest
        result = trace_cli(full, prefix, output_path, spans_path)
    else:
        workload, inputs, hard, seconds, result_path, *spans = rest
        pool, hard_pool = (workloads.load_pool(simnorm, workload, Path(path).read_bytes()) for path in (inputs, hard))
        if mode == "run":
            result = run(workload, pool, float(seconds))
        else:
            result = trace_library(workload, pool, float(seconds), spans[0])
        counts: dict = {}
        _pass(workloads.OPS[workload], hard_pool, counts)
        result["hard"] = _outcomes(counts)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
