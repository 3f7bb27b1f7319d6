"""The bytes of the CLI's records pinned by SHA-256.

normalize --batch has one digest per kind, format and angle unit, and the
single-shape commands normalize, convert, quad-normalize, classify and
similar one per command and format.

A seeded file of about 2,000 lines from helpers.golden_lines runs through
cli.main in process, for each --kind, in text and structured format, with
its angles in radians and in degrees.  A batch stops at its first failing
line, so a run takes only the lines whose form exists: the a runs leave out
the shortest sides within eps of zero, and the circle runs the degenerate
triangles.  Each digest covers the exit code, stdout and stderr.

The single-shape runs take every 40th line of the same file, alternately
in radians and in degrees (with --degrees), as command-line flags: each
line under every kind for normalize, under one kind in turn for convert,
as one shape for quad-normalize and classify, and against itself or the
next line for similar.  convert --point adds seeded points inside the a,
b and c regions.  Runs that fail are kept, so error lines are pinned too.

The angles come from the platform libm through math.atan2, sin and cos,
while math.hypot is CPython's own code, so these digests describe one
toolchain (CPython 3.11.7 on glibc), as the SVG digests of test_figures do.
A change that moves a digest changes output bytes, and says so.
"""

import hashlib
import random

import pytest

from helpers import golden_lines, region_points
from simnorm.cli import main

SEED = 15

# SHA-256 of f"{exit code}\n{stdout}\0{stderr}", by kind, format and angle unit
GOLDEN_SHA256 = {
    ("a", "text", "radians"): "44377d43f77ec6dd5ae3a8f997df0115f8ac6e855ef2806b59a38d5a0fb99ad5",
    ("a", "text", "degrees"): "f7639f603b017d0f122567e6184188e6b9684e0b238c2f36c3dd69feeefea423",
    ("a", "structured", "radians"): "ab9d30c103bf1ecea8000ea4d9eb227b8f71c479ae140ea6f5d1cef76d223007",
    ("a", "structured", "degrees"): "4cef462377fae18a9b84b907f6319c64ff6c92e3e53542fe28fc586d1f9732f4",
    ("b", "text", "radians"): "92ed7500e8cdc8ac8af0d73c3a82d6b22a885f864f8834ccd69ceae1a5e51b90",
    ("b", "text", "degrees"): "5c87759f479d8da671f2c99464e76c0c4c8ceae059796ae995673b951cf5759e",
    ("b", "structured", "radians"): "f7e18185c91987144a9c7a482beb31e324dc540efa72a11b1e7f5dc7dcea635e",
    ("b", "structured", "degrees"): "b586f6ee38059301146a5a5ca62e16497de181d4bebcc5c55343d49cecee12e8",
    ("c", "text", "radians"): "46c4a1712482929e06cc86dd3eed618be0a767dc6884022b0f9306ece5e58a51",
    ("c", "text", "degrees"): "765b3b5f6cdadac31c2dee82790ca8df2ac8109623f10d6ee1df13c7bc75dad8",
    ("c", "structured", "radians"): "8d2840159bb8941f055f6be3088ceb62b020bb6583b6a260dc03d53482962f77",
    ("c", "structured", "degrees"): "0aa44fd305a35bec9b6e91c2fe6c9f0a0e5e57cf057c91ed167133fca9b378bf",
    ("circle", "text", "radians"): "d61c98e33daa228e358d120f9af951ba84fb6637c35224125258f6a65a5f9712",
    ("circle", "text", "degrees"): "3471d36085273680149497be7a4385124a9b97a7de318711468042f1d296c1ae",
    ("circle", "structured", "radians"): "ce82d9bd2c2e2d44026ed32c01e241ea3a1d1ec840442316afc666b546d80013",
    ("circle", "structured", "degrees"): "b8dba7dbfce641e80695fcc3573cec44c28d7cfc7702cfb99491b78032a64706",
}

RUNS = [
    (kind, fmt, unit)
    for kind in ("a", "b", "c", "circle")
    for fmt in ("text", "structured")
    for unit in ("radians", "degrees")
]


@pytest.fixture(scope="module")
def batch_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for unit in ("radians", "degrees"):
        lines = golden_lines(SEED, degrees=unit == "degrees")
        for kind in ("a", "b", "c", "circle"):
            text = "".join(line + "\n" for line, skip in lines if kind not in skip)
            (root / f"{kind}-{unit}.txt").write_text(text, encoding="utf-8")
    return root


@pytest.mark.parametrize(("kind", "fmt", "unit"), RUNS, ids=lambda v: v)
def test_batch_output_is_byte_stable(capsys, batch_dir, kind, fmt, unit):
    argv = ["normalize", "--batch", str(batch_dir / f"{kind}-{unit}.txt"), "--kind", kind]
    argv += ["--format", fmt] + (["--degrees"] if unit == "degrees" else [])
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, err
    digest = hashlib.sha256(f"{code}\n{out}\0{err}".encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SHA256[kind, fmt, unit]


# SHA-256 over the runs of a single-shape command, each run adding
# f"{argv}\n{exit code}\n{stdout}\0{stderr}\0", by command and format
SINGLE_SHA256 = {
    ("normalize", "text"): "1e3dff2aa50b152f35d19fda26776fd6c0251304dfe3d52b54e3ebefc988bddc",
    ("normalize", "structured"): "8cddbfbc9df0821bc5b97ca2a7666128755efbdc5b944c79108918ab70dd98b2",
    ("convert", "text"): "76de7ee9ee6f10cd162d8ffe0c9c52c80bcd4e088f42b2a86f4103ddd5f63ed3",
    ("convert", "structured"): "7b419a42f0007133ea276597a36c25668c7e5bd6a8bc224775b36f9b4e39a7b7",
    ("quad-normalize", "text"): "f4593a7cb44c1813cc3b67aa4dd81f15c710587d33cda9183b6f45136574ce34",
    ("quad-normalize", "structured"): "f632365bb183a24fcb7296db9022ce281668503840ccd0ca8cd7726b9c34c599",
    ("classify", "text"): "e92b9e9584275fb3387e8abe2c874ca80d938658f06096e577b433a5b22ff4a0",
    ("classify", "structured"): "90a8bce4968008341db5c84e154aa6056f95510b8deccfa7a60139f349abc399",
    ("similar", "text"): "00f76833678e8cee68c3c6cb67f5b71253f5b9fed4fff7c4caa1323d0896e167",
    ("similar", "structured"): "e7cf07a10c0f2f52b0e22ae73078da49160ff0100f2d90880294e9bf2761ed49",
}

SINGLE_COMMANDS = ("normalize", "convert", "quad-normalize", "classify", "similar")


def _shape_flags(line: str, prefix: str = "") -> list[str]:
    tag, *numbers = line.split()
    if tag == "points":
        return [f"--{prefix}points"] + [f"{x},{y}" for x, y in zip(numbers[::2], numbers[1::2])]
    return [f"--{prefix}{tag}", *numbers]


def _single_runs(command: str) -> list[list[str]]:
    """The argument lists of the seeded single-shape runs of command."""
    radians, degrees = golden_lines(SEED), golden_lines(SEED, degrees=True)
    picked = []
    for n, i in enumerate(range(0, len(radians), 40)):
        line, _ = (degrees if n % 2 else radians)[i]
        picked.append((line, ["--degrees"] if n % 2 else []))
    runs = []
    for n, (line, unit) in enumerate(picked):
        if command == "normalize":
            for kind in ("a", "b", "c", "circle"):
                runs.append([command, *_shape_flags(line), "--kind", kind, *unit])
        elif command == "convert":
            kind = ("a", "b", "c", "circle")[n % 4]
            runs.append([command, *_shape_flags(line), "--kind", kind, *unit])
        elif command == "similar":
            # a shape against itself every third run, else against the next one
            other, _ = picked[n if n % 3 == 0 else (n + 1) % len(picked)]
            runs.append([command, *_shape_flags(line, "a-"), *_shape_flags(other, "b-"), *unit])
        else:
            runs.append([command, *_shape_flags(line), *unit])
    if command == "convert":
        rng = random.Random(SEED)
        for kind in ("a", "b", "c"):
            for x, y in region_points(rng, kind, 1e-9, 4):
                runs.append([command, "--point", f"{x!r},{y!r}", "--kind", kind])
    return runs


@pytest.mark.parametrize("command", SINGLE_COMMANDS)
@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_single_shape_output_is_byte_stable(capsys, command, fmt):
    digest = hashlib.sha256()
    for argv in _single_runs(command):
        code = main(argv + ["--format", fmt])
        out, err = capsys.readouterr()
        digest.update(f"{' '.join(argv)}\n{code}\n{out}\0{err}\0".encode("utf-8"))
    assert digest.hexdigest() == SINGLE_SHA256[command, fmt]
