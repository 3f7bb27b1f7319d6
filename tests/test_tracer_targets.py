"""The functions the benchmark tracer wraps exist in simnorm."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


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
