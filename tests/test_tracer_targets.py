"""The functions the benchmark tracer wraps, and every simnorm name the benchmark calls, exist."""

import ast
import importlib
import importlib.util
from pathlib import Path

import simnorm.cli  # binds simnorm; the benchmark imports cli before it calls simnorm.cli.main

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("simnorm_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_callable():
    # the tracer skips a target it cannot find, so a renamed function would
    # turn its metric into an absent one without any error
    tracing = _load_tracing()
    targets = {**tracing.FUNCTIONS, **tracing.CLI_STAGES}
    assert targets
    missing = []
    for name, (module, attr) in targets.items():
        obj = importlib.import_module(f"simnorm.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{name} -> simnorm.{module}.{attr}")
    assert not missing, f"tracer targets missing from simnorm: {missing}"


def _bench_chains() -> set[tuple[str, ...]]:
    """The longest sn.X.Y / simnorm.X.Y attribute chains in bench/*.py, without the root name."""
    chains = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            if parts and isinstance(node, ast.Name) and node.id in ("sn", "simnorm"):
                chains.add(tuple(reversed(parts)))
    return {c for c in chains if not any(len(d) > len(c) and d[: len(c)] == c for d in chains)}


def test_every_simnorm_name_the_bench_calls_resolves():
    # the bench reaches the library as sn (the simnorm module) or simnorm; a
    # removed name would fail every bench run as outputs_incorrect instead
    chains = _bench_chains()
    assert ("in_a_domain",) in chains and ("cli", "main") in chains
    missing = []
    for chain in sorted(chains):
        obj = simnorm
        for part in chain:
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append("simnorm." + ".".join(chain))
    assert not missing, f"names the bench calls are missing from simnorm: {missing}"
