"""simnorm benchmark driver.

    python3 bench/run.py --workload tri-points --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --repeat 10

Run from the root of a source checkout; nothing needs building.  The driver
is one process that starts one worker child at a time, with ``src`` on the
child's PYTHONPATH.  Every load is a closed loop with one caller.

With ``--trace 0`` it prints the end-to-end metrics of one workload:
``shapes_per_s``, ``setup_s`` and ``peak_rss_mb``.  With ``--trace 1`` it
prints the per-layer metrics from a separate traced run.  The last line of
stdout is always one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; ``attempted`` and ``failed`` count the timed
workload's operations.  Every run also makes one untimed pass over the
workload's hard set (inputs with known seed defects) and reports its
outcome counts, in the per-layer ``hard.*`` metrics and above the last line.  ``--repeat N`` runs
the untraced benchmark on N consecutive seeds and prints each end-to-end
metric's spread next to the bound in BENCHMARK.json.

Inputs, outputs, spans and a full result record per run go to ``bench/out``.
See bench/README.md for the workloads and the metric-to-layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

ENTRY = {workloads.TRI_POINTS: "simnorm", workloads.QUAD_POINTS: "simnorm", workloads.CLI_BATCH: "simnorm.cli"}
SETUP_LAUNCHES = 21
CHILD_TIMEOUT_S = 120
IMPORTTIME_LAUNCHES = 5
# the traced batch run records every function span on this many leading lines
TRACE_PREFIX_LINES = 10000
# per-layer metrics that only the batch path can produce
CLI_ONLY = ("cli.parse.us_per_record", "cli.compute.us_per_record", "cli.emit.us_per_record",
            "cli.peak_traced_mb", "cli.records")


class BenchError(Exception):
    """A child failed or produced no result: the run measures nothing."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def _spawn(cmd: list[str], stdout_path: Path | None = None) -> tuple[float, float, str]:
    """Run one child to completion: (wall s, peak RSS MB, stderr).

    The child is reaped with os.wait4 so its own peak RSS is read, not that
    of every child so far.  A child still running after CHILD_TIMEOUT_S is
    killed and reaped, and the run fails.
    """
    err_path = OUT / "child-stderr.txt"
    with open(stdout_path or os.devnull, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise BenchError(f"{' '.join(cmd[1:4])} did not finish within {CHILD_TIMEOUT_S} s") from None
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:4])} exited {proc.returncode}: {stderr[-2000:]}")
    return wall, usage.ru_maxrss / 1024.0, stderr


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _worker(*args: str) -> list[str]:
    return [sys.executable, str(ROOT / "bench" / "worker.py"), *args]


def measure_setup(entry: str) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing entry, and of bare interpreters around them."""
    cmd = [sys.executable, "-c", f"import {entry}"]
    bare = [sys.executable, "-c", "pass"]
    _spawn(cmd)  # compiles and caches bytecode, as an installed package has
    times, bares = [], [_spawn(bare)[0]]
    for _ in range(SETUP_LAUNCHES):
        times.append(_spawn(cmd)[0])
        bares.append(_spawn(bare)[0])
    return times, bares


def measure_imports(entry: str) -> dict[str, float]:
    """Median self import ms per module bucket over several launches."""
    runs = [tracing.parse_importtime(_spawn([sys.executable, "-X", "importtime", "-c", f"import {entry}"])[2])
            for _ in range(IMPORTTIME_LAUNCHES)]
    return {f"{name}.import_ms": statistics.median(r[name] for r in runs) for name in tracing.IMPORT_METRICS}


def _tally(outcomes) -> dict:
    """Operation counts from (input class, outcome, n) triples."""
    tally = {"attempted": 0, "exception": 0, "check": 0, "by_class": {}}
    for tag, outcome, n in outcomes:
        tally["attempted"] += n
        tally["by_class"].setdefault(tag, {})[outcome] = n
        if outcome in workloads.FAILED:
            tally[outcome] += n
    return tally


def _check_batch(seed: int, lines: list[str], output: Path, hard: bool = False) -> list:
    import simnorm

    out = output.read_bytes()
    records = out.count(b"\n")
    if records != len(lines):
        raise BenchError(f"batch output has {records} records for {len(lines)} lines")
    counts = workloads.check_batch_output(simnorm, lines, workloads.batch_tags(seed, hard=hard), out)
    return [[tag, outcome, n] for (tag, outcome), n in sorted(counts.items())]


def _run_batch_child(result_path: Path, inputs: Path, stdout_path: Path) -> tuple[float, float, dict]:
    """One CLI batch child: (spawn wall s, peak RSS MB, the child's own result)."""
    cmd = [sys.executable, str(ROOT / "bench" / "cli_child.py"), str(result_path),
           "normalize", "--batch", str(inputs), "--format", "structured"]
    wall, peak, _ = _spawn(cmd, stdout_path)
    child = json.loads(result_path.read_text())
    if child["exit_code"] != 0:
        raise BenchError(f"simnorm normalize --batch exited {child['exit_code']}")
    return wall, peak, child


def _hard_batch(seed: int, hard: Path) -> dict:
    """Tally of one untimed CLI run over the batch hard set."""
    output = OUT / "cli-batch-hard-stdout.txt"
    _run_batch_child(OUT / "cli-batch-hard-child.json", hard, output)
    return _tally(_check_batch(seed, hard.read_text(encoding="ascii").splitlines(), output, hard=True))


def _library(workload: str, inputs: Path, hard: Path, seconds: float) -> tuple[dict, dict, dict, dict]:
    result_path = OUT / f"{workload}-result.json"
    _, rss, _ = _spawn(_worker("run", workload, str(inputs), str(hard), repr(seconds), str(result_path)))
    result = json.loads(result_path.read_text())
    rate_info = _rates(result["pool"], result["refs"], result["walls"], f"pass over {result['pool']} inputs")
    metrics = {"shapes_per_s": rate_info.pop("median"), "peak_rss_mb": rss}
    return metrics, rate_info, _tally(result["outcomes"]), _tally(result["hard"])


def _rates(work: int, ref_times: list[float], walls: list[float], sample: str) -> dict:
    """Median rate in reference units over the samples, with quartiles and the wall-clock rate."""
    q1, med, q3 = _quartiles([work / t for t in ref_times])
    return {"median": med, "q1": q1, "q3": q3, "samples": len(walls), "sample": sample,
            "wall_median": statistics.median(work / t for t in walls)}


def _batch(seed: int, inputs: Path, hard: Path, seconds: float) -> tuple[dict, dict, dict, dict]:
    lines = inputs.read_text(encoding="ascii").splitlines()
    result_path = OUT / "cli-batch-child.json"
    first, spawned, walls, refs, rss = OUT / "cli-batch-stdout.txt", [], [], [], []
    digest = None
    t_end = time.perf_counter() + seconds
    while not spawned or time.perf_counter() + statistics.median(spawned) <= t_end:
        path = first if not walls else OUT / "cli-batch-stdout-next.txt"
        wall, peak, child = _run_batch_child(result_path, inputs, path)
        spawned.append(wall)
        walls.append(child["wall"])
        refs.append(child["ref"])
        rss.append(peak)
        this = hashlib.sha256(path.read_bytes()).hexdigest()
        if digest is not None and this != digest:
            raise BenchError("batch output differs between runs of the same file")
        digest = this
    outcomes = _check_batch(seed, lines, first)
    tally = _tally([[tag, outcome, n * len(walls)] for tag, outcome, n in outcomes])
    rate_info = _rates(len(lines), refs, walls, f"CLI run over {len(lines)} lines")
    metrics = {"shapes_per_s": rate_info.pop("median"), "peak_rss_mb": statistics.median(rss)}
    return metrics, rate_info, tally, _hard_batch(seed, hard)


def _traced(workload: str, seed: int, inputs: Path, hard: Path, seconds: float) -> tuple[dict, dict, dict]:
    spans = OUT / f"{workload}-spans.csv.gz"
    result_path = OUT / f"{workload}-trace.json"
    if workload == workloads.CLI_BATCH:
        lines = inputs.read_text(encoding="ascii").splitlines()
        prefix = OUT / "cli-batch-prefix.txt"
        prefix.write_text("\n".join(lines[:TRACE_PREFIX_LINES]) + "\n", encoding="ascii")
        output = OUT / "cli-batch-traced-stdout.txt"
        _spawn(_worker("trace-cli", str(inputs), str(prefix), str(result_path), str(output), str(spans)))
        result = json.loads(result_path.read_text())
        tally = _tally(_check_batch(seed, lines, output))
        hard_tally = _hard_batch(seed, hard)
    else:
        _spawn(_worker("trace", workload, str(inputs), str(hard), repr(seconds), str(result_path), str(spans)))
        result = json.loads(result_path.read_text())
        tally, hard_tally = _tally(result["outcomes"]), _tally(result["hard"])
    metrics = result["metrics"]
    if workload != workloads.CLI_BATCH:
        metrics.update({name: 0 for name in CLI_ONLY})  # the library workloads never enter the CLI
    metrics.update(measure_imports(ENTRY[workload]))
    metrics["ops.attempted"] = tally["attempted"]
    metrics["hard.attempted"] = hard_tally["attempted"]
    metrics["hard.failed.exception"] = hard_tally["exception"]
    metrics["hard.failed.check"] = hard_tally["check"]
    return metrics, tally, hard_tally


def _meta(workload: str, seed: int, seconds: float, trace: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "simnorm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One measured run; returns the full result record (also saved to bench/out)."""
    OUT.mkdir(parents=True, exist_ok=True)
    inputs, hard = OUT / f"{workload}-inputs.txt", OUT / f"{workload}-hard.txt"
    inputs.write_bytes(workloads.generate(workload, seed))
    hard.write_bytes(workloads.generate(workload, seed, hard=True))
    meta = _meta(workload, seed, seconds, trace)
    details: dict = {}
    if trace:
        metrics, tally, hard_tally = _traced(workload, seed, inputs, hard, seconds)
    else:
        setup, bares = measure_setup(ENTRY[workload])
        if workload == workloads.CLI_BATCH:
            metrics, details["shapes_per_s"], tally, hard_tally = _batch(seed, inputs, hard, seconds)
        else:
            metrics, details["shapes_per_s"], tally, hard_tally = _library(workload, inputs, hard, seconds)
        q1, metrics["setup_s"], q3 = _quartiles(speed.to_reference(setup, bares, speed.REF_LAUNCH_S))
        details["setup_s"] = {"q1": q1, "q3": q3, "samples": len(setup), "sample": f"import {ENTRY[workload]}",
                              "wall_median": statistics.median(setup)}
    failed = tally["exception"] + tally["check"]
    units = _units()
    record = {
        "correct": failed == 0,
        "attempted": tally["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")} for name, value in sorted(metrics.items())},
    }
    full = {"meta": meta, "details": details, "outcomes": tally["by_class"], "hard": hard_tally, "result": record}
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(full, indent=1) + "\n")
    return full


def _print_run(full: dict) -> None:
    meta, record = full["meta"], full["result"]
    print(f"workload {meta['workload']}  seed {meta['seed']}  trace {meta['trace']}  "
          f"(closed loop, one caller; input size {workloads.SIZES[meta['workload']]})")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, m in record["metrics"].items():
        extra = full["details"].get(name)
        note = ""
        if extra:
            note = (f"  q1 {extra['q1']:.6g}  q3 {extra['q3']:.6g}  median of {extra['samples']} "
                    f"({extra['sample']}); wall-clock median {extra['wall_median']:.6g}")
        print(f"  {name:44s} {m['value']:>14.6g} {m['unit']:8s}{note}")
    exc = sum(v.get("exception", 0) for v in full["outcomes"].values())
    print(f"  operations: {record['attempted']} attempted, {record['failed']} failed "
          f"({exc} exception, {record['failed'] - exc} check); correct={record['correct']}")
    for tag, counts in sorted(full["outcomes"].items()):
        print(f"    {tag:10s} " + "  ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    hard = full["hard"]
    print(f"  hard set (known seed defects, untimed, not in the counts above): {hard['attempted']} attempted, "
          f"{hard['exception']} exception, {hard['check']} check")
    for tag, counts in sorted(hard["by_class"].items()):
        print(f"    {tag:10s} " + "  ".join(f"{k} {v}" for k, v in sorted(counts.items())))


def repeat(names: list[str], seed: int, seconds: float, n: int) -> dict:
    """Untraced runs on n consecutive seeds; each metric's spread against its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary: dict = {}
    for workload in names:
        runs = []
        for s in range(seed, seed + n):
            full = run_once(workload, s, seconds, 0)
            runs.append(full)
            vals = {k: round(v["value"], 6) for k, v in full["result"]["metrics"].items()}
            print(f"{workload} seed {s}: {vals} correct={full['result']['correct']}", flush=True)
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = _quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            summary[workload][metric["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                                 "bound": metric["bound"]}
            if metric["name"] == "setup_s":
                verdict = "no spread gate"
            else:
                steady, within = spread < metric["bound"] / 3, spread <= metric["bound"]
                verdict = "steady" if steady else ("within bound" if within else "TOO WIDE")
            print(f"  {workload:12s} {metric['name']:14s} median {med:.6g} {metric['unit']}  "
                  f"IQR/median {spread:.4f}  bound {metric['bound']}  {verdict}")
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="steadiness mode: runs on this many seeds")
    args = parser.parse_args(argv)
    if not (SRC / "simnorm" / "__init__.py").is_file():
        print(f"error: no simnorm sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.repeat:
            print(json.dumps(repeat(names, args.seed, args.seconds, args.repeat)))
            return 0
        if len(names) != 1:
            parser.error("--workload all needs --repeat")
        full = run_once(names[0], args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_run(full)
    print(json.dumps(full["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
