"""One CLI batch run, as ``python -m simnorm ARGS...``, timed from inside.

    cli_child.py RESULT ARGS...

Runs simnorm's ``__main__`` in this process the way ``-m`` does, under a
speed probe, and writes to RESULT (JSON) the exit code and the time from
the start of ``__main__`` (simnorm's import included) until its stdout is
flushed, as wall time and in reference units (see speed.py).  Only the
standard library and speed.py are loaded before the clock starts.
"""

import json
import runpy
import sys
import time

import speed


def main() -> int:
    result_path, *args = sys.argv[1:]
    sys.argv = ["simnorm", *args]
    code = 0
    with speed.Probe() as probe:
        t0 = time.perf_counter()
        try:
            runpy.run_module("simnorm", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
        sys.stdout.flush()
        elapsed = time.perf_counter() - t0
    wall, ref = speed.measured(elapsed, probe.take())
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"exit_code": code, "wall": wall, "ref": ref}, handle)
    return code if isinstance(code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
