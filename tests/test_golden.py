"""The bytes of normalize --batch pinned: one SHA-256 per kind, format and angle unit.

A seeded file of about 2,000 lines from helpers.golden_lines runs through
cli.main in process, for each --kind, in text and structured format, with
its angles in radians and in degrees.  A batch stops at its first failing
line, so a run takes only the lines whose form exists: the a runs leave out
the shortest sides within eps of zero, and the circle runs the degenerate
triangles.  Each digest covers the exit code, stdout and stderr.

The angles come from the platform libm through math.atan2, sin and cos,
while math.hypot is CPython's own code, so these digests describe one
toolchain (CPython 3.11.7 on glibc), as the SVG digests of test_figures do.
A change that moves a digest changes output bytes, and says so.
"""

import hashlib

import pytest

from helpers import golden_lines
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
