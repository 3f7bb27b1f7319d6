"""Command-line interface: formats, exit codes, batch mode, file outputs."""

import gc
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

import simnorm
from figchecks import check_figure, markers_by_class
from helpers import (
    class_boundary_lines, golden_lines, needle, rand_angles, rand_quad, rand_triangle, region_points
)
from oracles import exact_class_gaps
from simnorm import (
    AngleTriple,
    DegenerateAngles,
    FormKind,
    GeometryError,
    Point,
    Quadrilateral,
    SideLengths,
    Tolerance,
    Triangle,
    UnboundedType,
    angles_from_normal_point,
    c_normal_point,
    distance,
    in_c_domain,
    in_d_region,
    in_domain,
    normal_point,
    normal_point_from_sides,
    normalize_quad,
    side_lengths,
    sides_from_angles,
)
from simnorm import cli
from simnorm.cli import _build_parser, _emit, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "structured")
    assert code == 0, err
    records = [json.loads(line) for line in out.splitlines() if line]
    return records


# normalize


def test_normalize_sides_text(capsys):
    code, out, err = run(capsys, "normalize", "--sides", "3", "4", "5")
    assert code == 0
    assert err == ""
    assert "normal_point: (0.64, 0.48)" in out
    assert "angle_class: right" in out


def test_normalize_structured_record(capsys):
    (rec,) = run_json(capsys, "normalize", "--sides", "3", "4", "5")
    assert rec["command"] == "normalize"
    assert rec["form_kind"] == "c"
    assert rec["normal_point"] == [0.64, 0.48]
    assert rec["in_domain"] is True
    assert rec["side_ratios"] == [0.6, 0.8, 1.0]


def test_normalize_other_kinds(capsys):
    (rec,) = run_json(capsys, "normalize", "--sides", "3", "4", "5", "--kind", "b")
    assert rec["normal_point"] == pytest.approx([1.0, 0.75])
    (rec,) = run_json(capsys, "normalize", "--sides", "3", "4", "5", "--kind", "a")
    assert rec["normal_point"] == pytest.approx([1.0, 4.0 / 3.0])


def test_normalize_circle_kind(capsys):
    (rec,) = run_json(
        capsys, "normalize", "--angles", "0.6", "0.9", str(math.pi - 1.5), "--kind", "circle"
    )
    assert "normal_point" not in rec
    assert len(rec["circle_vertices"]) == 3
    for x, y in rec["circle_vertices"]:
        assert math.hypot(x, y) == pytest.approx(1.0, abs=1e-12)


def test_normalize_points_input(capsys):
    (rec,) = run_json(capsys, "normalize", "--points", "0,0", "3,0", "0,4")
    assert rec["normal_point"] == pytest.approx([0.64, 0.48])


def test_normalize_quad_points_dispatches(capsys):
    (rec,) = run_json(capsys, "normalize", "--points", "0,0", "1,0", "1,1", "0,1")
    assert rec["quad_c"] == pytest.approx([0.5, 0.5])
    assert rec["quad_d"] == pytest.approx([0.5, -0.5])


def test_points_with_negative_coordinates(capsys):
    (rec,) = run_json(capsys, "normalize", "--points", "1,0", "-1,0", "0,1")
    p = c_normal_point(Triangle.of(Point(1.0, 0.0), Point(-1.0, 0.0), Point(0.0, 1.0)))
    assert rec["normal_point"] == [p.x, p.y]
    coords = ((-1.5, 0.25), (2.0, -1.0), (-0.5, -2.0), (0.75, 1.5))
    (rec,) = run_json(capsys, "normalize", "--points", *(f"{x},{y}" for x, y in coords))
    form = normalize_quad(Quadrilateral.of(*(Point(x, y) for x, y in coords)))
    assert rec["quad_c"] == [form.c.x, form.c.y]
    assert rec["quad_d"] == [form.d.x, form.d.y]
    (rec,) = run_json(
        capsys, "similar", "--a-points", "-1,0", "1,0", "0,-1", "--b-points", "0,0", "-2,0", "-1,1"
    )
    assert rec["similar"] is True


def test_subnormal_square_is_in_domain(capsys):
    (rec,) = run_json(
        capsys, "normalize", "--points", "0,0", "5e-324,0", "5e-324,5e-324", "0,5e-324"
    )
    assert rec["quad_c"] == [0.5, 0.5]
    assert rec["in_domain"] is True


def test_normalize_degenerate_marks_record(capsys):
    (rec,) = run_json(capsys, "normalize", "--points", "0,0", "1,0", "2,0")
    assert rec["degenerate"] is True
    assert "angles" not in rec


def test_normalize_needle_record_is_consistent(capsys):
    (rec,) = run_json(capsys, "normalize", "--sides", "1e-8", "1", "1")
    assert "degenerate" not in rec
    assert rec["angle_class"] != "degenerate"
    assert rec["normal_point"][1] == pytest.approx(1e-8, rel=1e-12)
    assert rec["angles"][0] == pytest.approx(1e-8, rel=1e-12)


def test_normalize_needle_shortest_side_form(capsys):
    (rec,) = run_json(capsys, "normalize", "--sides", "1e-6", "1", "1", "--kind", "a")
    assert rec["normal_point"][0] == 0.5
    assert rec["in_domain"] is True


def test_subnormal_right_triangle_record(capsys):
    (rec,) = run_json(capsys, "normalize", "--points", "0,0", "4e-323,0", "4e-323,3e-323")
    assert rec["normal_point"] == pytest.approx([0.64, 0.48], abs=1e-15)
    assert rec["angle_class"] == "right"


def test_near_max_triangle_record(capsys):
    # all three side lengths overflow; the record reads them off the rescaled copy
    code, out, err = run(capsys, "normalize", "--points", "-1.7e308,0", "1.7e308,0", "0,1e308")
    assert code == 0, err
    assert "normal_point: (0.5, 0.29411764705882354)" in out
    assert "side_ratios: (0.580090674215177, 0.580090674215177, 1.0)" in out
    assert "angle_class: obtuse" in out
    assert "side_class: isosceles" in out


def test_points_whose_coordinates_sum_past_the_float_range_parse(tmp_path, capsys):
    # the parse tests a points line's coordinates through their sum, and only
    # looks at each one when that is not finite, as on these finite lines
    batch = tmp_path / "batch.txt"
    batch.write_text(
        "points 1e308 0 1.5e308 1e308 1.7e308 1.7e308\n"
        "points 1e308 0 1.5e308 1e308 1.7e308 1.7e308 0 1.7e308\n",
        encoding="utf-8",
    )
    tri, quad = run_json(capsys, "normalize", "--batch", str(batch))
    p = c_normal_point(Triangle.of(Point(1e308, 0.0), Point(1.5e308, 1e308), Point(1.7e308, 1.7e308)))
    assert tri["normal_point"] == [p.x, p.y]
    nf = normalize_quad(
        Quadrilateral.of(
            Point(1e308, 0.0), Point(1.5e308, 1e308), Point(1.7e308, 1.7e308), Point(0.0, 1.7e308)
        )
    )
    assert quad["quad_c"] == [nf.c.x, nf.c.y] and quad["quad_d"] == [nf.d.x, nf.d.y]


def test_triangle_record_takes_three_side_lengths(capsys, monkeypatch):
    calls = []

    def hypot(*coords):
        calls.append(coords)
        return real_hypot(*coords)

    real_hypot = math.hypot
    monkeypatch.setattr(math, "hypot", hypot)
    (rec,) = run_json(capsys, "normalize", "--points", "0,0", "3,0", "0,4")
    assert rec["normal_point"] == [0.64, 0.48]
    assert len(calls) == 3
    for kind in ("a", "b", "c"):
        calls.clear()
        run_json(capsys, "normalize", "--points", "0,0", "3,0", "0,4", "--kind", kind)
        assert len(calls) == 3, kind


def test_point_triangle_record_builds_no_side_lengths(capsys, monkeypatch):
    made = []

    def counting(cls):
        real_init = cls.__init__

        def counting_init(self, a, b, c):
            made.append((cls.__name__, a, b, c))
            real_init(self, a, b, c)

        monkeypatch.setattr(cls, "__init__", counting_init)

    counting(SideLengths)
    counting(AngleTriple)
    for kind in ("a", "b", "c", "circle"):
        run_json(capsys, "normalize", "--points", "0,0", "3,0", "0,4", "--kind", kind)
    run_json(capsys, "normalize", "--points", "0,0", "1,0", "2,0")
    # a sides line stays a float triple too
    for kind in ("a", "b", "c", "circle"):
        run_json(capsys, "normalize", "--sides", "3", "4", "5", "--kind", kind)
    assert made == []
    # and an angles line becomes one through the law of sines kernel
    for kind in ("a", "b", "c", "circle"):
        run_json(capsys, "normalize", "--angles", "60", "60", "60", "--kind", kind, "--degrees")
    assert made == []


def test_degrees_flag_converts_both_ways(capsys):
    (rec,) = run_json(capsys, "normalize", "--angles", "60", "60", "60", "--degrees")
    assert rec["angles"] == pytest.approx([60.0, 60.0, 60.0])
    assert rec["normal_point"] == pytest.approx([0.5, math.sqrt(3.0) / 2.0])


# classify and convert


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "--sides", "2", "3", "4")
    assert code == 0
    assert "angle_class: obtuse" in out
    assert "side_class: scalene" in out


def test_classify_rejects_quads(capsys):
    code, _, err = run(capsys, "classify", "--points", "0,0", "1,0", "1,1", "0,1")
    assert code == 3
    assert "error: ArityMismatch" in err


def test_convert_angles_to_point(capsys):
    (rec,) = run_json(capsys, "convert", "--angles", "0.6435011087932844", "0.9272952180016122", str(math.pi / 2.0))
    assert rec["normal_point"] == pytest.approx([0.64, 0.48])


def test_convert_point_back_to_angles(capsys):
    (rec,) = run_json(capsys, "convert", "--point", "0.64,0.48", "--kind", "c")
    assert rec["angles"] == pytest.approx(
        [math.asin(0.6), math.asin(0.8), math.pi / 2.0]
    )
    assert rec["side_ratios"] == pytest.approx([0.6, 0.8, 1.0])


def test_convert_degenerate_point(capsys):
    (rec,) = run_json(capsys, "convert", "--point", "0.75,0", "--kind", "c")
    assert rec["degenerate"] is True
    assert "angles" not in rec


def test_convert_out_of_domain_point(capsys):
    code, _, err = run(capsys, "convert", "--point", "3,3", "--kind", "c")
    assert code == 3
    assert "error: OutOfDomain" in err


def test_convert_far_points_get_a_verdict(capsys):
    code, _, err = run(capsys, "convert", "--point", "1e200,1e308", "--kind", "a")
    assert code == 3
    assert "error: UnboundedType" in err
    code, _, err = run(capsys, "convert", "--point", "1e308,0.5", "--kind", "b")
    assert code == 3
    assert "error: OutOfDomain" in err


def test_convert_point_has_no_circle_form(capsys):
    code, out, err = run(capsys, "convert", "--point", "0.64,0.48", "--kind", "circle")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ValueError: the circle form has no single normal point"), err


def test_convert_rejects_quads(capsys):
    code, _, err = run(capsys, "convert", "--points", "0,0", "1,0", "1,1", "0,1")
    assert code == 3
    assert "error: ArityMismatch" in err


def test_convert_point_with_negative_x_parses(capsys):
    code, _, err = run(capsys, "convert", "--point", "-0.3,0.2", "--kind", "c")
    assert code == 3
    assert "error: OutOfDomain" in err


# similar


def test_similar_triangles(capsys):
    (rec,) = run_json(capsys, "similar", "--a-sides", "3", "4", "5", "--b-sides", "6", "8", "10")
    assert rec["similar"] is True
    (rec,) = run_json(capsys, "similar", "--a-sides", "3", "4", "5", "--b-sides", "3", "4", "6")
    assert rec["similar"] is False


def test_similar_quads(capsys):
    (rec,) = run_json(
        capsys,
        "similar",
        "--a-points", "0,0", "1,0", "1,1", "0,1",
        "--b-points", "5,5", "5,3", "3,3", "3,5",
    )
    assert rec["similar"] is True


def test_similar_quads_accepts_a_copy_whose_form_jumps(capsys):
    # a rotated copy whose normal form differs from the original's by O(1):
    # a pair ties the extreme one at eps, and rounding decides the tie
    code, out, _ = run(
        capsys,
        "similar",
        "--a-points", "0.0,0.0", "1.0,0.0", "0.9818776319265865,0.18951599911943762",
        "0.8674590942690182,-0.22112537682646205",
        "--b-points", "0.0,0.0", "0.07485957623674079,-0.9971940853443002",
        "0.2624871768423776,-0.9649354797048962", "-0.15556729769119185,-0.8815784300876073",
    )
    assert code == 0
    assert "similar: true\n" in out


def test_similar_arity_mismatch(capsys):
    code, _, err = run(
        capsys, "similar", "--a-sides", "3", "4", "5", "--b-points", "0,0", "1,0", "1,1", "0,1"
    )
    assert code == 3
    assert "error: ArityMismatch" in err


# quad-normalize


def test_quad_normalize(capsys):
    (rec,) = run_json(capsys, "quad-normalize", "--points", "0,0", "2,0", "2,0", "0,0")
    assert rec["quad_c"] == pytest.approx([1.0, 0.0])
    assert rec["quad_d"] == pytest.approx([0.0, 0.0])


def test_quad_normalize_needs_four_points(capsys):
    code, _, err = run(capsys, "quad-normalize", "--points", "0,0", "1,0", "1,1")
    assert code == 3
    assert "error: ArityMismatch" in err


# error handling and exit codes


def test_invalid_sides_exit_code(capsys):
    code, _, err = run(capsys, "normalize", "--sides", "1", "1", "9")
    assert code == 2
    assert "error: InvalidSides" in err


def test_unbounded_type_exit_code(capsys):
    code, _, err = run(capsys, "normalize", "--sides", "0", "2", "2", "--kind", "a")
    assert code == 3
    assert "error: UnboundedType" in err


def test_shortest_side_form_beyond_float_range_exit_code(capsys):
    for sides in (("1e-200", "4", "4"), ("1e200", "1e200", "180")):
        code, _, err = run(capsys, "normalize", "--sides", *sides, "--kind", "a")
        assert code == 3
        assert "error: UnboundedType" in err


def test_shortest_side_form_overflow_under_tiny_eps_exit_code(capsys):
    code, _, err = run(
        capsys, "normalize", "--points", "0,0", "1e-300,0", "1e15,1", "--kind", "a", "--eps", "5e-324"
    )
    assert code == 3
    assert "error: UnboundedType" in err


def _isosceles_routes(a):
    """The triangle with sides (a, 1, 1) as vertices, as side lengths and as angles."""
    alpha = 2.0 * math.asin(a / 2.0)
    beta = (math.pi - alpha) / 2.0
    return (
        ["--points", "0,0", f"{a!r},0", f"{a / 2.0!r},{math.sqrt(1.0 - a * a / 4.0)!r}"],
        ["--sides", repr(a), "1", "1"],
        ["--angles", repr(alpha), repr(beta), repr(beta)],
    )


def test_shortest_side_limit_is_the_same_on_every_route(capsys):
    # the shortest-side form stops at a <= eps * c, whatever the input route
    for flags in _isosceles_routes(1e-10):
        code, out, err = run(capsys, "normalize", *flags, "--kind", "a")
        assert code == 3, flags
        assert out == ""
        assert err.startswith("error: UnboundedType: "), err
    records = [
        run_json(capsys, "normalize", *flags, "--kind", "a")[0] for flags in _isosceles_routes(1e-6)
    ]
    assert records[0]["normal_point"] == pytest.approx([0.5, 1e6], rel=1e-9)
    for rec in records[1:]:
        assert rec.keys() == records[0].keys()
        for key, value in rec.items():
            if isinstance(value, list):
                assert value == pytest.approx(records[0][key], rel=1e-9), key
            else:
                assert value == records[0][key], key


_ROUTE_EPS = (5e-324, 1e-300, 1e-200, 1e-100, 1e-12, 1e-9, 9.99e-4)


def _route_outcome(tag, numbers, form, tol):
    """The record's name, or the error's, of one triangle line through one form."""
    try:
        cli._triangle_record("normalize", cli._shape(tag, numbers, False), form, tol, False)
    except (GeometryError, ValueError) as exc:
        return type(exc).__name__
    return "record"


def test_every_route_has_one_outcome_at_every_eps():
    # needles (a, 1, 1) and (a, 1, 1 + a*t) with a/c down to 1e-300, from
    # points, from sides and (isosceles only) from angles: the routes agree
    # on a record or on one error name, whatever eps the shortest-side limit
    # meets, also below the float-range bound 2**-510
    rng = random.Random(2602)
    forms = [cli._form(FormKind(k)) for k in ("a", "b", "c")]
    tols = [Tolerance(eps) for eps in _ROUTE_EPS]
    outcomes = set()
    for _ in range(1000):
        a = 10.0 ** rng.uniform(-300.0, 0.0)
        isosceles = rng.random() < 0.5
        t = 0.0 if isosceles else rng.uniform(-0.9, 0.9)
        points = [v for p in needle(a, t) for v in p]
        routes = [("points", points), ("sides", [a, 1.0, 1.0 + a * t])]
        if isosceles:
            alpha = 2.0 * math.asin(a / 2.0)
            routes.append(("angles", [alpha, (math.pi - alpha) / 2.0, (math.pi - alpha) / 2.0]))
        for form in forms:
            for tol in tols:
                seen = {tag: _route_outcome(tag, numbers, form, tol) for tag, numbers in routes}
                assert len(set(seen.values())) == 1, (a, t, form, tol.eps, seen)
                outcomes |= set(seen.values())
    assert outcomes == {"record", "UnboundedType"}


def test_shortest_side_limit_holds_for_convert_point(capsys):
    # an a-form point far up its region stands for sides 1, |p|, |p - 1|;
    # convert --point and normalize --sides of those sides agree on the limit,
    # also where the angle at p underflows (y = 1e200), and on the ratios
    for y, ok in ((1e200, False), (1e10, False), (1e4, True)):
        sides = ["1", repr(math.hypot(0.5, y)), repr(math.hypot(0.5, y))]
        routes = (["convert", "--point", f"0.5,{y!r}"], ["normalize", "--sides", *sides])
        if not ok:
            for argv in routes:
                code, out, err = run(capsys, *argv, "--kind", "a")
                assert code == 3, argv
                assert out == ""
                assert err.startswith("error: UnboundedType: "), err
            continue
        point_rec, sides_rec = (run_json(capsys, *argv, "--kind", "a")[0] for argv in routes)
        for rec in (point_rec, sides_rec):
            assert rec["normal_point"] == pytest.approx([0.5, y], rel=1e-12)
        assert point_rec["side_ratios"] == sides_rec["side_ratios"]


def _text_outcome(capsys, *argv):
    """The exit code, the error name and the text record's fields of one command line."""
    code, out, err = run(capsys, *argv)
    if code:
        assert out == ""
        return code, err.split(":")[1].strip(), None
    return code, None, dict(line.split(": ", 1) for line in out.splitlines())


def test_convert_point_prints_the_record_of_its_triangle(capsys):
    # p stands for the triangle (0,0), (1,0), p: convert --point and
    # normalize --points of that triangle reach one outcome, and on a record
    # the same angles, side ratios and degenerate flag, bit for bit (text
    # output writes floats by repr), for interior, near-flat, eps-margin and
    # far a-form points
    rng = random.Random(2903)
    outcomes = set()
    for kind in ("a", "b", "c"):
        for eps in (1e-12, 1e-9, 1e-6):
            for x, y in region_points(rng, kind, eps, 15):
                flags = ("--kind", kind, "--eps", repr(eps))
                point = f"{x!r},{y!r}"
                conv = _text_outcome(capsys, "convert", "--point", point, *flags)
                norm = _text_outcome(capsys, "normalize", "--points", "0,0", "1,0", point, *flags)
                where = (kind, eps, point)
                assert conv[:2] == norm[:2], where
                if conv[2] is None:
                    outcomes.add(conv[1])
                    continue
                c, n = conv[2], norm[2]
                assert c["normal_point"] == f"({x!r}, {y!r})", where
                assert c.get("angles") == n.get("angles"), where
                assert c.get("degenerate") == n.get("degenerate"), where
                if "degenerate" in c:
                    outcomes.add("degenerate")
                else:
                    assert c["side_ratios"] == n["side_ratios"], where
                    outcomes.add("record")
    assert outcomes == {"record", "degenerate", "UnboundedType"}


def test_bad_point_token_exit_code(capsys):
    code, _, err = run(capsys, "normalize", "--points", "0", "1", "2")
    assert code == 2
    assert "error: ValueError" in err


def test_wrong_point_count_exit_code(capsys):
    code, _, err = run(capsys, "normalize", "--points", "0,0", "1,0")
    assert code == 2
    assert "error: ValueError" in err


def test_degenerate_angles_exit_code(capsys):
    code, _, err = run(capsys, "normalize", "--angles", "0", "1.5", str(math.pi - 1.5))
    assert code == 3
    assert "error: DegenerateAngles" in err


def test_bad_eps_exit_code(capsys):
    code, _, err = run(capsys, "normalize", "--sides", "3", "4", "5", "--eps", "1")
    assert code == 2
    assert "error: ValueError" in err


def test_argparse_errors_exit_code(capsys):
    assert main(["normalize"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["normalize", "--sides", "3", "4"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["normalize", "--help"]) == 0


_FUZZ_NUMBERS = (
    "0", "1", "-1", "2", "0.5", "1e-8", "1e-200", "5e-324", "1e200", "1.7e308",
    "inf", "nan", "60", "90", "180",
)
_ERROR_LINE = re.compile(r"^error: [A-Za-z]+: ", re.MULTILINE)


def _fuzz_shape(rng, prefix, arity):
    """Shape flags that argparse accepts, with values drawn to stress the library."""
    flag = rng.choice(("points", "sides", "angles"))
    if flag == "points":
        tokens = []
        for _ in range(arity or rng.choice((3, 4))):
            if rng.random() < 0.05:
                tokens.append(rng.choice(("x,1", "1", "1,2,3")))
            else:
                tokens.append(f"{rng.choice(_FUZZ_NUMBERS)},{rng.choice(_FUZZ_NUMBERS)}")
        return [f"--{prefix}points", *tokens]
    # equal values are common so that valid needles and isosceles triples turn up
    pool = rng.sample(_FUZZ_NUMBERS, 3)
    return [f"--{prefix}{flag}", *(rng.choice(pool) for _ in range(3))]


def _fuzz_argv(rng):
    command = rng.choice(("normalize", "classify", "convert", "similar", "quad-normalize"))
    if command == "similar":
        arity = rng.choice((None, 3, 4))
        argv = [command, *_fuzz_shape(rng, "a-", arity), *_fuzz_shape(rng, "b-", arity)]
    elif command == "convert" and rng.random() < 0.3:
        argv = [command, "--point", f"{rng.choice(_FUZZ_NUMBERS)},{rng.choice(_FUZZ_NUMBERS)}"]
    else:
        argv = [command, *_fuzz_shape(rng, "", 4 if command == "quad-normalize" else None)]
    if command in ("normalize", "convert") and rng.random() < 0.5:
        argv += ["--kind", rng.choice(("a", "b", "c", "circle"))]
    if rng.random() < 0.3:
        argv.append("--degrees")
    if rng.random() < 0.2:
        argv += ["--eps", rng.choice(_FUZZ_NUMBERS)]
    return argv


def test_fuzzed_command_lines_end_in_a_record_or_an_error_line(capsys):
    rng = random.Random(811)
    codes = set()
    for _ in range(1000):
        argv = _fuzz_argv(rng)
        code, out, err = run(capsys, *argv)
        assert code in (0, 2, 3), argv
        if code == 0:
            assert out and not err, argv
        else:
            assert _ERROR_LINE.search(err), (argv, err)
        codes.add(code)
    assert codes == {0, 2, 3}


# batch mode


def test_batch_mixed_records(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text(
        "sides 3 4 5\n"
        "\n"
        "# comment line\n"
        "angles 1.0471975511965976 1.0471975511965976 1.0471975511965976\n"
        "points 0 0 1 0 1 1 0 1\n"
    )
    records = run_json(capsys, "normalize", "--batch", str(batch))
    assert len(records) == 3
    assert records[0]["normal_point"] == [0.64, 0.48]
    assert records[1]["normal_point"] == pytest.approx([0.5, math.sqrt(3.0) / 2.0])
    assert records[2]["quad_c"] == pytest.approx([0.5, 0.5])


def test_batch_error_reports_line_number(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text("sides 3 4 5\nsides 1 1 9\n")
    code, _, err = run(capsys, "normalize", "--batch", str(batch))
    assert code == 2
    assert "line 2" in err


def test_batch_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "normalize", "--batch", "/nonexistent/batch.txt")
    assert code == 4


def test_main_restores_the_collector_state(capsys):
    runs = (
        (("normalize", "--sides", "3", "4", "5"), 0),
        (("normalize", "--sides", "1", "1", "9"), 2),
        (("normalize", "--no-such-flag"), 2),
        (("normalize", "--sides", "0", "2", "2", "--kind", "a"), 3),
        (("normalize", "--batch", "/nonexistent/batch.txt"), 4),
    )
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            if enabled:
                gc.enable()
            else:
                gc.disable()
            for argv, expected in runs:
                code, _, _ = run(capsys, *argv)
                assert code == expected, argv
                assert gc.isenabled() is enabled, argv
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def _mixed_batch(rng, n):
    """n batch lines: side lengths, angles, triangles (some collinear or with a repeated vertex) and quads."""
    lines = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.25:
            u, v, w = rand_triangle(rng).vertices
            lines.append(f"sides {distance(u, v)!r} {distance(u, w)!r} {distance(v, w)!r}")
        elif roll < 0.35:
            lines.append("angles " + " ".join(map(repr, rand_angles(rng))))
        elif roll < 0.7:
            t = rand_triangle(rng, degenerate_fraction=0.1, repeat_fraction=0.05)
            lines.append("points " + " ".join(f"{p.x!r} {p.y!r}" for p in t.vertices))
        else:
            q = rand_quad(rng, special_fraction=0.1)
            lines.append("points " + " ".join(f"{p.x!r} {p.y!r}" for p in q.vertices))
    return "\n".join(lines) + "\n"


def test_a_batch_makes_no_reference_cycles(tmp_path, capsys):
    # main pauses the collector on this premise: the garbage a batch leaves
    # in cycles does not grow with its length
    one = tmp_path / "one.txt"
    one.write_text("sides 3 4 5\n", encoding="utf-8")
    many = tmp_path / "many.txt"
    many.write_text(_mixed_batch(random.Random(1412), 2000), encoding="utf-8")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        counts = []
        for path in (one, many):
            for fmt in ("text", "structured"):
                gc.collect()
                code, _, err = run(capsys, "normalize", "--batch", str(path), "--format", fmt)
                assert code == 0, err
                counts.append(gc.collect())
    finally:
        if was_enabled:
            gc.enable()
    assert counts == [counts[0]] * 4, counts


def test_batch_calls_each_stage_function_once_per_stage_or_record(tmp_path, capsys, monkeypatch):
    # the benchmark times the batch stages by wrapping these four functions;
    # a batch that stopped calling one would read 0 in that stage's metric
    counts = dict.fromkeys(("_batch_shapes", "_triangle_record", "_quad_record", "_emit"), 0)
    for name in counts:

        def counted(*args, _real=getattr(cli, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cli, name, counted)
    batch = tmp_path / "batch.txt"
    batch.write_text(
        "sides 3 4 5\n# a comment\npoints 0 0 1 0 1 1 0 1\n\nangles 1 1 1.1415926535897931\n"
        "points 0 0 1 0 0 1\npoints 0 0 2 0 2 2 0 3\npoints 0 0 1 0 2 0\n",
        encoding="utf-8",
    )
    for fmt in ("structured", "text"):
        counts.update(dict.fromkeys(counts, 0))
        code, out, err = run(capsys, "normalize", "--batch", str(batch), "--format", fmt)
        assert code == 0, err
        assert counts == {"_batch_shapes": 1, "_triangle_record": 4, "_quad_record": 2, "_emit": 1}


def _library_fields(line, kind):
    """The fields of a structured batch record for this line, from the public value-type API."""
    tag, *nums = line.split()
    vals = [float(v) for v in nums]
    if tag == "points" and len(vals) == 8:
        nf = normalize_quad(Quadrilateral(tuple(map(Point, vals[::2], vals[1::2]))))
        return {
            "quad_c": (nf.c.x, nf.c.y),
            "quad_d": (nf.d.x, nf.d.y),
            "in_domain": in_c_domain(nf.c) and in_d_region(nf.d, nf.c),
        }
    if tag == "points":
        t = Triangle(tuple(map(Point, vals[::2], vals[1::2])))
        s = side_lengths(t)
        pc = c_normal_point(t)
        p = normal_point(kind, t)
    else:
        s = SideLengths.of(*vals) if tag == "sides" else sides_from_angles(AngleTriple(*vals))
        pc = normal_point_from_sides(FormKind.C_VERTEX, s)
        p = normal_point_from_sides(kind, s)
    fields = {"normal_point": (p.x, p.y), "in_domain": in_domain(kind, p), "side_ratios": s.ratios()}
    # a record's angles are those of its longest-side normal point, in any form
    try:
        fields["angles"] = angles_from_normal_point(FormKind.C_VERTEX, pc).as_tuple()
    except DegenerateAngles:
        fields["degenerate"] = True
    return fields


@pytest.mark.parametrize("kind", [None, "a", "b", "c"])
def test_batch_records_match_the_library(tmp_path, capsys, kind):
    # the batch runs on the private float kernels, the library on value types;
    # both must give the same floats.  --kind names the triangle form only, so
    # the quads keep their quad form under it
    lines = _mixed_batch(random.Random(1411), 1500).splitlines()
    form = FormKind.C_VERTEX if kind is None else FormKind(kind)
    kept, expected = [], []
    for line in lines:
        try:
            expected.append(_library_fields(line, form))
        except GeometryError:
            continue  # repeated vertices have no shortest-side form
        kept.append(line)
    assert len(kept) > 900
    batch = tmp_path / "batch.txt"
    batch.write_text("\n".join(kept) + "\n", encoding="utf-8")
    argv = ["normalize", "--batch", str(batch)] + ([] if kind is None else ["--kind", kind])
    records = run_json(capsys, *argv)
    assert len(records) == len(kept)
    assert sum("degenerate" in want for want in expected) > 10
    assert sum("quad_c" in want for want in expected) > 300
    for line, rec, want in zip(kept, records, expected):
        assert ("angles" in rec, "degenerate" in rec) == ("angles" in want, "degenerate" in want)
        for key, value in want.items():
            got = tuple(rec[key]) if isinstance(value, tuple) else rec[key]
            assert repr(got) == repr(value), (line, key)


@pytest.mark.parametrize(
    "text, code, message",
    [
        # the parse stage reads every line before any record is computed
        (
            "points 0 0 0 0 0 0\nsides 3 4 5\npoints 0 0 1 0 inf 1\n",
            2,
            "ValueError: line 3: point coordinates must be finite, got (inf, 1.0)",
        ),
        (
            "sides 3 4 5\npoints 1 1 1 1 1 1 1 1\n",
            3,
            "DegenerateQuad: line 2: quadrilateral needs at least two distinct vertices",
        ),
        (
            "points 2 2 2 2 2 2\n",
            2,
            "ValueError: line 1: triangle needs at least two distinct vertices",
        ),
        (
            "points 0 0 1 0 1 1 0 1\npoints 0 0 1\n",
            2,
            "ValueError: line 2: expected 3 or 4 points, got 1.5",
        ),
        (
            "sides 3 4 5\nquad 0 0 1 0 1 1 0 1\n",
            2,
            "ValueError: line 2: unknown record tag 'quad'",
        ),
        (
            "sides 3 4 5\nsides 3 4\n",
            2,
            "ValueError: line 2: record 'sides' takes 3 numbers, got 2",
        ),
        (
            "angles 1 1 1.1415 0.5\n",
            2,
            "ValueError: line 1: record 'angles' takes 3 numbers, got 4",
        ),
    ],
)
def test_batch_errors_keep_their_order_and_messages(tmp_path, capsys, text, code, message):
    batch = tmp_path / "batch.txt"
    batch.write_text(text, encoding="utf-8")
    assert run(capsys, "normalize", "--batch", str(batch)) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_batch_file_may_start_with_a_byte_order_mark(tmp_path, capsys, fmt):
    text = "sides 3 4 5\npoints 0 0 1 0 1 1 0 1\nangles 1 1 1.1415926535897931\n"
    plain = tmp_path / "plain.txt"
    plain.write_text(text, encoding="utf-8")
    marked = tmp_path / "marked.txt"
    marked.write_text("\ufeff" + text, encoding="utf-8")
    expected = run(capsys, "normalize", "--batch", str(plain), "--format", fmt)
    assert expected[0] == 0, expected[2]
    assert run(capsys, "normalize", "--batch", str(marked), "--format", fmt) == expected


def test_byte_order_mark_past_the_first_line_is_an_unknown_tag(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text("sides 3 4 5\n\ufeffsides 3 4 5\n", encoding="utf-8")
    message = "error: ValueError: line 2: unknown record tag '\\ufeffsides'\n"
    assert run(capsys, "normalize", "--batch", str(batch)) == (2, "", message)


def test_bytes_that_are_not_utf8_fail_their_own_line(tmp_path, capsys):
    # the decoder reads ahead, so a bad byte must not fail the read before an earlier line
    batch = tmp_path / "batch.txt"
    batch.write_bytes(b"sides 1 2\nsides 3 4 5\npoints 0 0 1 0 \xff,1\n")
    message = "error: ValueError: line 1: record 'sides' takes 3 numbers, got 2\n"
    assert run(capsys, "normalize", "--batch", str(batch)) == (2, "", message)
    batch.write_bytes(b"sides 3 4 5\n# caf\xe9 \xff\nsides 3 4 5\npoints 0 0 1 0 \xff,1\n")
    message = "error: ValueError: line 4: could not convert string to float: '\\udcff,1'\n"
    assert run(capsys, "normalize", "--batch", str(batch)) == (2, "", message)
    batch.write_bytes(b"sides 3 4 5\n\xfe\xffsides 1 1 1\n")
    message = "error: ValueError: line 2: unknown record tag '\\udcfe\\udcffsides'\n"
    assert run(capsys, "normalize", "--batch", str(batch)) == (2, "", message)


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_a_comment_line_may_hold_any_bytes(tmp_path, capsys, fmt):
    plain = tmp_path / "plain.txt"
    plain.write_bytes(b"sides 3 4 5\npoints 0 0 1 0 1 1 0 1\n")
    commented = tmp_path / "commented.txt"
    commented.write_bytes(b"# caf\xe9\nsides 3 4 5\n#\xff\xfe\x80\npoints 0 0 1 0 1 1 0 1\n")
    expected = run(capsys, "normalize", "--batch", str(plain), "--format", fmt)
    assert expected[0] == 0, expected[2]
    assert run(capsys, "normalize", "--batch", str(commented), "--format", fmt) == expected


@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_a_batch_peaks_at_about_its_records(tmp_path, monkeypatch, fmt):
    # each record takes its shape's slot, so no shape outlives its record;
    # holding every shape beside every record reads about 1.3 here
    batch = tmp_path / "batch.txt"
    batch.write_text(_mixed_batch(random.Random(2701), 3000), encoding="utf-8")
    argv = ["normalize", "--batch", str(batch), "--format", fmt]
    args = _build_parser().parse_args(argv)
    tol = Tolerance(args.eps)
    sink = open(os.devnull, "w", encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        # a first run fills the caches; a full collection empties the free
        # lists, so that both figures below count every block they use
        assert main(argv) == 0
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        records = args.func(args, tol)
        size = tracemalloc.get_traced_memory()[0] - before
        del records
        gc.collect()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
        sink.close()
    assert peak <= 1.15 * size, (peak, size)


def test_degenerate_record_signals_agree():
    # a one-vertex record is flat in all three of its fields or in none
    lines = [line.split() for line, _ in golden_lines(2702)]
    triangles = [(tag, list(map(float, nums))) for tag, *nums in lines if len(nums) != 8]
    flat = total = 0
    for kind in ("a", "b", "c"):
        form = cli._form(FormKind(kind))
        for eps in (1e-12, 1e-9, 1e-6):
            tol = Tolerance(eps)
            for tag, numbers in triangles:
                shape = cli._shape(tag, numbers, False)
                try:
                    record = cli._triangle_record("normalize", shape, form, tol, False)
                except UnboundedType:
                    # the skip sets assume the default eps: at a larger one
                    # more needles have no a form
                    continue
                signals = (
                    record.get("degenerate", False),
                    "angles" not in record,
                    record["angle_class"] == "degenerate",
                )
                assert signals in ((True, True, True), (False, False, False)), (tag, numbers, kind, eps)
                flat += signals[0]
                total += 1
    assert 0 < flat < total, (flat, total)


# The contract of the class words, with y the height of the c-form point,
# a <= b <= c the sides and alpha <= beta <= gamma the angles opposite them:
# a right record has |gamma - pi/2| <= K_RIGHT * eps / y, and an equilateral
# or isosceles record has its matching angle gap (gamma - alpha for
# equilateral, the smaller of beta - alpha and gamma - beta for isosceles)
# at most K_SIDE * eps * c / a.  The residual that _classify compares with
# eps is (ab/c^2) cos(gamma) and y is (ab/c^2) sin(gamma), so
# |gamma - pi/2| = atan(|residual| / y): K_RIGHT = 1.  A side gap within
# eps * c puts sin(gap / 2) within eps * c / a, so the gap is at most
# 2 * asin(eps * c / a): K_SIDE = 2 to first order.  Both are the tightest
# constants: the sampled records come within 5% of them.
K_RIGHT = 1.0
K_SIDE = 2.0


def _class_gaps(tag, numbers):
    """(y, c/a, pi/2 - gamma, beta - alpha, gamma - beta) of the triangle a batch line names."""
    if tag == "angles":
        alpha, beta, gamma = sorted(numbers)
        sa, sb, sc = math.sin(alpha), math.sin(beta), math.sin(gamma)
        return sa * sb / sc, sc / sa, math.pi / 2.0 - gamma, beta - alpha, gamma - beta
    if tag == "sides":
        return exact_class_gaps(*sorted(Fraction(v) ** 2 for v in numbers))
    p = [Fraction(v) for v in numbers]
    squares = [
        (p[2 * i] - p[2 * j]) ** 2 + (p[2 * i + 1] - p[2 * j + 1]) ** 2
        for i, j in ((0, 1), (0, 2), (1, 2))
    ]
    return exact_class_gaps(*sorted(squares))


def test_record_classes_keep_their_angle_bounds():
    # acute and obtuse records put gamma strictly on their side of pi/2, and
    # scalene ones have three distinct angles: at these eps, no rounding of
    # the residual or the side ratios can cross an eps band
    lines = class_boundary_lines(random.Random(1717), 3000)
    gaps = [_class_gaps(tag, numbers) for tag, numbers in lines]
    worst_right = worst_side = 0.0
    seen = set()
    for kind in ("a", "b", "c", "circle"):
        form = cli._form(FormKind(kind))
        for eps in (1e-12, 1e-9, 1e-6):
            tol = Tolerance(eps)
            for (tag, numbers), (y, c_over_a, off_right, low_gap, high_gap) in zip(lines, gaps):
                shape = cli._shape(tag, numbers, False)
                try:
                    record = cli._triangle_record("normalize", shape, form, tol, False)
                except (UnboundedType, DegenerateAngles):
                    continue
                angle_class, side_class = record["angle_class"], record["side_class"]
                seen.add((angle_class, side_class))
                if angle_class == "degenerate":
                    continue
                where = (tag, numbers, kind, eps)
                if angle_class == "right":
                    worst_right = max(worst_right, abs(off_right) * y / eps)
                elif angle_class == "acute":
                    assert off_right > 0.0, where
                else:
                    assert off_right < 0.0, where
                if side_class == "equilateral":
                    worst_side = max(worst_side, (low_gap + high_gap) / (eps * c_over_a))
                elif side_class == "isosceles":
                    worst_side = max(worst_side, min(low_gap, high_gap) / (eps * c_over_a))
                else:
                    assert low_gap > 0.0 and high_gap > 0.0, where
    assert 0.95 * K_RIGHT < worst_right <= K_RIGHT, worst_right
    assert 0.95 * K_SIDE < worst_side <= K_SIDE, worst_side
    for angle_class in ("acute", "right", "obtuse", "degenerate"):
        for side_class in ("isosceles", "scalene"):
            assert (angle_class, side_class) in seen, (angle_class, side_class)
    assert ("acute", "equilateral") in seen


def test_a_right_isosceles_record_can_show_unequal_angles_far_from_90(capsys):
    # the apex sits 5e-8 over the base: gamma is 1.03 degrees from 90,
    # within eps / y = 0.02 rad (1.15 degrees), and the angles opposite the
    # two sides of length about 1 differ by 2.06 degrees, within
    # 2 * eps * c / a = 0.04 rad (2.29 degrees)
    args = ("classify", "--points", "0,0", "1,0", "1.0000000009,5e-08")
    (rec,) = run_json(capsys, *args, "--degrees")
    assert (rec["angle_class"], rec["side_class"]) == ("right", "isosceles")
    want = [2.8647889730758033e-06, 88.9687844449702, 91.03121269024085]
    assert rec["angles"] == pytest.approx(want)
    numbers = [0.0, 0.0, 1.0, 0.0, 1.0000000009, 5e-08]
    y, c_over_a, off_right, low_gap, high_gap = _class_gaps("points", numbers)
    assert abs(off_right) <= K_RIGHT * 1e-9 / y
    assert min(low_gap, high_gap) <= K_SIDE * 1e-9 * c_over_a


def test_structured_batch_lines_are_canonical_json(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text(_mixed_batch(random.Random(1409), 2000), encoding="utf-8")
    code, out, err = run(capsys, "normalize", "--batch", str(batch), "--format", "structured")
    assert code == 0, err
    lines = out.split("\n")
    assert lines.pop() == ""
    assert len(lines) == 2000
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True)


class _Recorder:
    """A stdout that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_batch_writes_whole_records_in_pipe_sized_blocks(tmp_path, capsys, monkeypatch):
    batch = tmp_path / "batch.txt"
    batch.write_text(_mixed_batch(random.Random(1410), 2000), encoding="utf-8")
    for fmt in ("structured", "text"):
        code, expected, err = run(capsys, "normalize", "--batch", str(batch), "--format", fmt)
        assert code == 0, err
        recorder = _Recorder()
        monkeypatch.setattr(sys, "stdout", recorder)
        assert main(["normalize", "--batch", str(batch), "--format", fmt]) == 0
        monkeypatch.undo()
        writes = recorder.writes
        assert "".join(writes) == expected
        assert all(len(w) <= 4096 for w in writes), fmt
        assert len(writes) < 2000 / 2, fmt
        # every block ends a record, and in text the next one starts with the blank line
        assert all(w.endswith("\n") for w in writes), fmt
        if fmt == "text":
            assert writes[0].startswith("command: ")
            assert all(w.startswith("\ncommand: ") for w in writes[1:])


def test_emit_writes_a_long_record_on_its_own(monkeypatch):
    small = {"command": "domains", "outputs": ("a.svg",)}
    long = {"command": "domains", "outputs": ("x" * 5000,)}
    for fmt in ("structured", "text"):
        recorder = _Recorder()
        monkeypatch.setattr(sys, "stdout", recorder)
        _emit([small, long, small], fmt)
        monkeypatch.undo()
        assert len(recorder.writes) == 3
        assert "x" * 5000 in recorder.writes[1]
        assert len(recorder.writes[0]) < 100 and len(recorder.writes[2]) < 100


def _assert_each_line_encodes_its_record_alone(capsys, *argv):
    args = _build_parser().parse_args(list(argv))
    records = args.func(args, Tolerance(args.eps))
    code, out, err = run(capsys, *argv, "--format", "structured")
    assert code == 0, err
    assert out.split("\n") == [json.dumps(rec, sort_keys=True) for rec in records] + [""]


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
def test_grouped_emit_prints_each_record_as_it_encodes_alone(tmp_path, capsys, n):
    # each record of a batch, whatever its layout, is its own JSON line
    batch = tmp_path / "batch.txt"
    batch.write_text(_mixed_batch(random.Random(1900 + n), n), encoding="utf-8")
    _assert_each_line_encodes_its_record_alone(capsys, "normalize", "--batch", str(batch))


def test_grouped_emit_keeps_nested_and_degenerate_records_whole(tmp_path, capsys):
    rng = random.Random(1901)
    circle = tmp_path / "circle.txt"
    circle.write_text(
        "".join(
            "points " + " ".join(f"{p.x!r} {p.y!r}" for p in rand_triangle(rng).vertices) + "\n"
            for _ in range(70)
        ),
        encoding="utf-8",
    )
    argv = ("normalize", "--batch", str(circle), "--kind", "circle")
    _assert_each_line_encodes_its_record_alone(capsys, *argv)
    flat = tmp_path / "flat.txt"
    flat.write_text("points 0 0 1 0 2 0\nsides 3 4 5\n" * 40, encoding="utf-8")
    _assert_each_line_encodes_its_record_alone(capsys, "normalize", "--batch", str(flat))


def test_grouped_emit_keeps_a_record_whole_when_a_string_holds_the_separator(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        capsys, "domains", "--kind", "c", "--out", "x}, {y.svg", "--format", "structured"
    )
    assert code == 0, err
    (line,) = out.splitlines()
    assert json.loads(line)["outputs"] == ["x}, {y.svg"]
    records = [{"command": "domains", "outputs": (f"{i}}}, {{.svg",)} for i in range(70)]
    recorder = _Recorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    _emit(records, "structured")
    monkeypatch.undo()
    assert "".join(recorder.writes).split("\n") == [
        json.dumps(rec, sort_keys=True) for rec in records
    ] + [""]


def _flat_coords(points) -> list[float]:
    return [v for p in points for v in (p.x, p.y)]


def _templated_records(fmt: str) -> list:
    """Seeded batch records of every layout, in fmt, from the CLI's own record functions."""
    rng = random.Random(2101)
    tol = Tolerance(1e-9)
    # at the smallest eps, rounding leaves some isosceles normal points outside their region
    tight = Tolerance(5e-324)
    records = []
    for kind in ("a", "b", "c", "circle"):
        form = cli._form(FormKind(kind))
        for degrees in (False, True):
            lines = [] if kind == "circle" else [("points", [0, 0, 1, 0, 2, 0]), ("sides", [1, 2, 3])]
            for _ in range(10):
                u, v, w = rand_triangle(rng).vertices
                lines.append(("points", _flat_coords((u, v, w))))
                lines.append(("sides", [distance(u, v), distance(u, w), distance(v, w)]))
                angles = rand_angles(rng)
                lines.append(("angles", list(map(math.degrees, angles)) if degrees else angles))
            for tag, numbers in lines:
                shape = cli._shape(tag, numbers, degrees)
                records.append(cli._triangle_record("normalize", shape, form, tol, degrees, fmt))
        for _ in range(20):
            a = rng.uniform(0.5, 2.0)
            c = rng.uniform(a, 1.999 * a)
            for sides in ((a, a, c), (a, c, c)):
                records.append(cli._triangle_record("convert", sides, form, tight, False, fmt))
    for command in ("normalize", "quad-normalize"):
        for _ in range(20):
            shape = tuple(_flat_coords(rand_quad(rng, special_fraction=0.3).vertices))
            records.append(cli._quad_record(command, shape, tol, fmt))
    return records


# the fields of the four layouts a batch writes, in record order: a one-vertex
# form with angles and without them (degenerate), a circle form and a quad
_ONE_VERTEX = ("command", "form_kind", "normal_point", "in_domain", "angle_class", "side_class")
_BATCH_LAYOUTS = [
    _ONE_VERTEX + ("angles", "side_ratios"),
    _ONE_VERTEX + ("side_ratios", "degenerate"),
    ("command", "form_kind", "circle_vertices", "angle_class", "side_class", "angles", "side_ratios"),
    ("command", "quad_c", "quad_d", "in_domain"),
]

# the floats whose repr differs most in form: signed zero, subnormal, the
# smallest normal, and each side of repr's switch to and from exponents
_EDGE_FLOATS = (-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-05, 0.0001, 1.7976931348623157e308)


def _edge_records(fmt: str, start: int) -> list:
    """One record of each batch layout in fmt, in _BATCH_LAYOUTS order, its floats edge floats.

    The kernels the record functions call hand out _EDGE_FLOATS in turn,
    from the one at start on, and the side triple (a, b, 1.0) takes two of
    them, so the ratios a/c and b/c are edge floats too; only the third
    ratio stays 1.0.  in_domain is true for an even start.
    """
    floats = itertools.cycle(_EDGE_FLOATS[start:] + _EDGE_FLOATS[:start])
    inside = start % 2 == 0
    cls = cli._classify(0.64, 0.48, 3.0, 4.0, 5.0, 1e-9)
    tol = Tolerance(1e-9)
    records = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_point_from_sides", lambda *args: _take(floats, 2))
        mp.setattr(cli, "_classify", lambda *args: cls)
        mp.setattr(cli, "_circle_vertices", lambda *args: tuple(_take(floats, 2) for _ in range(3)))
        mp.setattr(cli, "_IN_REGION", (lambda *args: inside,) * 3)
        mp.setattr(cli, "_quad_form", lambda *args: _take(floats, 4))
        mp.setattr(cli, "_in_c_region", lambda *args: inside)
        mp.setattr(cli, "_in_d_region", lambda *args: inside)
        for kind, degenerate in (("c", False), ("b", True), ("circle", False)):
            angles = (lambda *args: None) if degenerate else (lambda *args: _take(floats, 3))
            mp.setattr(cli, "_point_angles", angles)
            sides, form = (next(floats), next(floats), 1.0), cli._form(FormKind(kind))
            records.append(cli._triangle_record("normalize", sides, form, tol, False, fmt))
        quad = (0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0)
        records.append(cli._quad_record("quad-normalize", quad, tol, fmt))
    return records


def _take(floats, n: int) -> tuple:
    return tuple(itertools.islice(floats, n))


def _floats_of(value) -> list:
    """The floats of a record field, in order."""
    if isinstance(value, float):
        return [value]
    if isinstance(value, tuple):
        return [f for v in value for f in _floats_of(v)]
    return []


def test_batch_layouts_are_written_as_json_writes_them(tmp_path, monkeypatch):
    built = _templated_records("text")
    assert {tuple(rec) for rec in built} == set(_BATCH_LAYOUTS)
    assert {rec["in_domain"] for rec in built if "in_domain" in rec} == {True, False}
    assert {rec["form_kind"] for rec in built if "form_kind" in rec} == {"a", "b", "c", "circle"}
    made = [_edge_records("text", start) for start in range(len(_EDGE_FLOATS))]
    for edge in made:
        assert [tuple(rec) for rec in edge] == _BATCH_LAYOUTS
    # every float a layout takes from a kernel or a side length is each edge float in turn
    edges = set(map(repr, _EDGE_FLOATS))
    for layout in range(len(_BATCH_LAYOUTS)):
        values = [[repr(f) for v in edge[layout].values() for f in _floats_of(v)] for edge in made]
        assert all(set(slot) in ({"1.0"}, edges) for slot in zip(*values)), layout
        assert {edge[layout].get("in_domain") for edge in made} in ({True, False}, {None})
    encode = json.dumps
    calls = []
    monkeypatch.setattr(json, "dumps", lambda rec, **kw: calls.append(rec) or encode(rec, **kw))
    # the record functions write the four layouts as json would, and _emit passes them on
    pairs = [(built, _templated_records("structured"))]
    pairs += [(edge, _edge_records("structured", start)) for start, edge in enumerate(made)]
    lines = []
    for records, texts in pairs:
        assert texts == [encode(rec, sort_keys=True) for rec in records]
        lines += texts
    recorder = _Recorder()
    with monkeypatch.context() as mp:
        mp.setattr(sys, "stdout", recorder)
        _emit(lines, "structured")
    assert "".join(recorder.writes) == "".join(line + "\n" for line in lines)
    assert calls == []
    # each other layout, one record per command, goes through json unchanged
    monkeypatch.chdir(tmp_path)
    others = []
    for argv in (
        "classify --sides 3 4 5",
        "convert --point 0.64,0.48",
        "convert --point 0.75,0",
        "similar --a-sides 3 4 5 --b-sides 6 8 10",
        "similar --a-points 0,0 1,0 1,1 0,1 --b-points 0,0 2,0 2,2 0,2",
        "domains --kind c --out c.svg",
        "plot --sides 3 4 5 --out p.svg",
    ):
        args = _build_parser().parse_args(argv.split() + ["--format", "structured"])
        others.extend(args.func(args, Tolerance(args.eps)))
    for rec in others:
        assert type(rec) is dict
        calls.clear()
        assert cli._json_line(rec) == encode(rec, sort_keys=True)
        assert calls == [rec]



@pytest.mark.parametrize("fmt", ["text", "structured"])
def test_structured_records_reach_emit_as_their_json_text(tmp_path, capsys, monkeypatch, fmt):
    # the commands that print a whole record hand _emit its JSON line in
    # structured output, and the dict that text output prints otherwise
    batch = tmp_path / "batch.txt"
    batch.write_text(_mixed_batch(random.Random(2904), 300), encoding="utf-8")
    circle = tmp_path / "circle.txt"
    circle.write_text("sides 2 3 4\npoints 0 0 3 0 0 4\n", encoding="utf-8")
    handed = []
    real_emit = cli._emit
    emit = lambda records, fmt: handed.append(records) or real_emit(records, fmt)
    monkeypatch.setattr(cli, "_emit", emit)
    for argv in (
        f"normalize --batch {batch}",
        f"normalize --batch {circle} --kind circle",
        "normalize --sides 2 3 4",
        "normalize --points 0,0 1,0 2,0 --kind b",
        "normalize --angles 1 1 1.1415926535897931 --kind circle",
        "normalize --points 0,0 2,0 3,1 0,1",
        "convert --sides 3 4 5",
        "convert --points 0,0 1,0 2,0 --kind a",
        "convert --sides 2 3 4 --kind circle",
        "quad-normalize --points 0,0 2,0 3,1 0,1",
    ):
        handed.clear()
        code, out, err = run(capsys, *argv.split(), "--format", fmt)
        assert code == 0, err
        (records,) = handed
        assert records, argv
        assert {type(rec) for rec in records} == {str if fmt == "structured" else dict}, argv

# file outputs


def test_domains_single_kind(tmp_path, capsys):
    out = tmp_path / "c.svg"
    code, _, _ = run(capsys, "domains", "--kind", "c", "--out", str(out))
    assert code == 0
    check_figure("c", out.read_text())


def test_domains_all_kinds(tmp_path, capsys):
    code, _, _ = run(capsys, "domains", "--kind", "all", "--out", str(tmp_path))
    assert code == 0
    for kind in ("a", "b", "c", "circle"):
        svg = (tmp_path / f"domain_{kind}.svg").read_text()
        check_figure(kind, svg)


def test_domains_default_kind_is_all(tmp_path, capsys):
    # without --kind, domains writes the four files --kind all writes
    default, named = tmp_path / "default", tmp_path / "all"
    assert run(capsys, "domains", "--out", str(default))[0] == 0
    assert run(capsys, "domains", "--kind", "all", "--out", str(named))[0] == 0
    names = sorted(path.name for path in named.iterdir())
    assert names == [f"domain_{kind}.svg" for kind in ("a", "b", "c", "circle")]
    assert sorted(path.name for path in default.iterdir()) == names
    for name in names:
        assert (default / name).read_bytes() == (named / name).read_bytes(), name


def test_domains_output_is_deterministic(tmp_path, capsys):
    first = tmp_path / "one.svg"
    second = tmp_path / "two.svg"
    assert run(capsys, "domains", "--kind", "b", "--out", str(first))[0] == 0
    assert run(capsys, "domains", "--kind", "b", "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_plot_marks_the_normal_point(tmp_path, capsys):
    out = tmp_path / "plot.svg"
    code, _, _ = run(capsys, "plot", "--sides", "3", "4", "5", "--out", str(out))
    assert code == 0
    markers = markers_by_class(out.read_text())
    assert any(
        abs(x - 0.64) <= 1e-9 and abs(y - 0.48) <= 1e-9
        for x, y in markers.get("marker-point", [])
    )


def test_plot_circle_draws_triangle(tmp_path, capsys):
    out = tmp_path / "plot.svg"
    code, _, _ = run(
        capsys, "plot", "--sides", "3", "4", "5", "--kind", "circle", "--out", str(out)
    )
    assert code == 0
    assert 'class="shape"' in out.read_text()


def test_write_failure_exit_code(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code, _, err = run(capsys, "domains", "--kind", "c", "--out", str(blocker / "x.svg"))
    assert code == 4


# record layout

# (argv, the whole text-mode stdout); every field a record holds, in order
LAYOUTS = [
    (
        "normalize --sides 2 3 4",
        "command: normalize\n"
        "form_kind: c\n"
        "normal_point: (0.65625, 0.3630921887069453)\n"
        "in_domain: true\n"
        "angle_class: obtuse\n"
        "side_class: scalene\n"
        "angles: (0.5053605102841573, 0.8127555613686607, 1.8234765819369754)\n"
        "side_ratios: (0.5, 0.75, 1.0)\n",
    ),
    (
        "normalize --sides 2 3 4 --kind a",
        "command: normalize\n"
        "form_kind: a\n"
        "normal_point: (1.375, 1.4523687548277813)\n"
        "in_domain: true\n"
        "angle_class: obtuse\n"
        "side_class: scalene\n"
        "angles: (0.5053605102841573, 0.8127555613686607, 1.8234765819369754)\n"
        "side_ratios: (0.5, 0.75, 1.0)\n",
    ),
    (
        "normalize --sides 2 3 4 --kind circle",
        "command: normalize\n"
        "form_kind: circle\n"
        "circle_vertices: (-0.05468750000000003, 0.9985035189440996); "
        "(0.53125, -0.8472151069828724); (1.0, 0.0)\n"
        "angle_class: obtuse\n"
        "side_class: scalene\n"
        "angles: (0.5053605102841573, 0.8127555613686607, 1.8234765819369754)\n"
        "side_ratios: (0.5, 0.75, 1.0)\n",
    ),
    (
        "normalize --sides 1 2 3",
        "command: normalize\n"
        "form_kind: c\n"
        "normal_point: (0.6666666666666666, 0.0)\n"
        "in_domain: true\n"
        "angle_class: degenerate\n"
        "side_class: scalene\n"
        "side_ratios: (0.3333333333333333, 0.6666666666666666, 1.0)\n"
        "degenerate: true\n",
    ),
    (
        "normalize --points 0,0 2,0 3,1 0,1",
        "command: normalize\n"
        "quad_c: (0.9, 0.3)\n"
        "quad_d: (0.4, -0.19999999999999998)\n"
        "in_domain: true\n",
    ),
    (
        "classify --sides 2 3 4",
        "command: classify\n"
        "angle_class: obtuse\n"
        "side_class: scalene\n"
        "angles: (0.5053605102841573, 0.8127555613686607, 1.8234765819369754)\n"
        "side_ratios: (0.5, 0.75, 1.0)\n",
    ),
    (
        "classify --points 0,0 1,0 2,0",
        "command: classify\n"
        "angle_class: degenerate\n"
        "side_class: isosceles\n"
        "side_ratios: (0.5, 0.5, 1.0)\n",
    ),
    (
        "convert --point 0.64,0.48 --kind c",
        "command: convert\n"
        "form_kind: c\n"
        "normal_point: (0.64, 0.48)\n"
        "angles: (0.6435011087932844, 0.9272952180016122, 1.5707963267948966)\n"
        "side_ratios: (0.6, 0.8, 1.0)\n",
    ),
    (
        "convert --point 0.75,0 --kind c",
        "command: convert\n"
        "form_kind: c\n"
        "normal_point: (0.75, 0.0)\n"
        "degenerate: true\n",
    ),
    (
        "similar --a-sides 3 4 5 --b-points 0,0 6,0 0,8",
        "command: similar\n"
        "similar: true\n"
        "key_a: (0.64, 0.48)\n"
        "key_b: (0.64, 0.48)\n",
    ),
    (
        "domains --kind c --out d.svg",
        "command: domains\n"
        "outputs: (d.svg)\n",
    ),
    (
        "plot --sides 3 4 5 --out p.svg",
        "command: plot\n"
        "form_kind: c\n"
        "normal_point: (0.64, 0.48)\n"
        "outputs: (p.svg)\n",
    ),
    (
        "plot --sides 3 4 5 --kind circle --out q.svg",
        "command: plot\n"
        "form_kind: circle\n"
        "circle_vertices: (-0.2799999999999999, 0.9600000000000001); (0.28, -0.96); (1.0, 0.0)\n"
        "outputs: (q.svg)\n",
    ),
]


@pytest.mark.parametrize("argv, text", LAYOUTS, ids=[argv for argv, _ in LAYOUTS])
def test_each_record_prints_its_set_fields_in_order(tmp_path, capsys, monkeypatch, argv, text):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv.split()) == (0, text, "")
    code, out, err = run(capsys, *argv.split(), "--format", "structured")
    assert (code, err) == (0, "")
    # an unset field is left out, never written as null
    assert out.count("\n") == 1 and "null" not in out
    (rec,) = run_json(capsys, *argv.split())
    assert list(rec) == sorted(line.split(":", 1)[0] for line in text.splitlines())


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "simnorm", "normalize", "--sides", "3", "4", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "normal_point: (0.64, 0.48)" in proc.stdout


def test_cli_import_leaves_figures_unloaded():
    # only the drawing commands import simnorm.figures
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, simnorm.cli; print('simnorm.figures' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_json_unloaded():
    # json is imported only for a record outside the batch layouts; -S keeps
    # site hooks from loading it
    src = os.path.dirname(os.path.dirname(simnorm.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, simnorm.cli; print('json' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_structured_batches_leave_json_unloaded(tmp_path):
    # every batch layout is written by its own f-string: none falls back to json
    rng = random.Random(2103)
    triangles = []
    for _ in range(30):
        u, v, w = rand_triangle(rng).vertices
        triangles.append("points " + " ".join(map(repr, _flat_coords((u, v, w)))))
        triangles.append(f"sides {distance(u, v)!r} {distance(u, w)!r} {distance(v, w)!r}")
        triangles.append("angles " + " ".join(map(repr, rand_angles(rng))))
    flat = ["points 0 0 1 0 2 0", "sides 1 2 3"]
    quads = ["points " + " ".join(map(repr, _flat_coords(rand_quad(rng).vertices))) for _ in range(30)]
    batches = [
        ("all", triangles + flat + quads, []),
        ("flat", triangles + flat, ["--kind", "c"]),
        ("circle", triangles, ["--kind", "circle"]),
    ]
    runs = []
    for name, lines, kind in batches:
        path = tmp_path / f"{name}.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        runs.append(["normalize", "--batch", str(path), "--format", "structured", *kind])
    script = (
        "import io, sys\n"
        "from simnorm.cli import main\n"
        "done = []\n"
        f"for argv in {runs!r}:\n"
        "    sys.stdout = io.StringIO()\n"
        "    code = main(argv)\n"
        "    done.append((code, sys.stdout.getvalue().count('\\n')))\n"
        "    sys.stdout = sys.__stdout__\n"
        "print(done, 'json' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(simnorm.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[(0, 122), (0, 92), (0, 90)] False"


def test_closed_stdout_exits_4_without_traceback(tmp_path):
    # the records fill the pipe, so the reader leaves while simnorm still writes
    batch = tmp_path / "batch.txt"
    batch.write_text("sides 3 4 5\n" * 5000, encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "simnorm", "normalize", "--batch", str(batch), "--format", "structured"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert json.loads(proc.stdout.readline())["normal_point"] == [0.64, 0.48]
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 4
    assert err.startswith("error: BrokenPipeError: "), err
    assert "Traceback" not in err


def test_closed_unbuffered_stdout_exits_4_in_text_mode(tmp_path):
    # unbuffered, one large write would end short when the reader leaves,
    # and the rest of the text would be lost without an error
    batch = tmp_path / "batch.txt"
    batch.write_text("sides 3 4 5\n" * 5000, encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "simnorm", "normalize", "--batch", str(batch)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
    )
    assert proc.stdout.readline() == b"command: normalize\n"
    assert proc.stdout.readline() == b"form_kind: c\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 4
    assert err.startswith("error: BrokenPipeError: "), err
    assert "Traceback" not in err


def test_closed_unbuffered_stdout_exits_4_in_structured_mode(tmp_path):
    # unbuffered, each block is one os.write, which a pipe takes whole or not at all
    batch = tmp_path / "batch.txt"
    batch.write_text("sides 3 4 5\n" * 5000, encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, "-m", "simnorm", "normalize", "--batch", str(batch), "--format", "structured"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
    )
    assert json.loads(proc.stdout.readline())["normal_point"] == [0.64, 0.48]
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 4
    assert err.startswith("error: BrokenPipeError: "), err
    assert "Traceback" not in err


def test_closed_stdout_leaves_no_descriptor_open(tmp_path, monkeypatch):
    batch = tmp_path / "batch.txt"
    batch.write_text("sides 3 4 5\n", encoding="utf-8")

    def lowest_free_descriptor():
        fd = os.open(os.devnull, os.O_RDONLY)
        os.close(fd)
        return fd

    first = lowest_free_descriptor()
    for _ in range(3):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", encoding="utf-8") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert main(["normalize", "--batch", str(batch)]) == 4
            monkeypatch.undo()
    assert lowest_free_descriptor() == first


def _encodes(name: str, codec: str) -> bool:
    try:
        name.encode(codec)
    except UnicodeEncodeError:
        return False
    return True


def test_an_out_name_stdout_cannot_encode_exits_4_without_traceback(tmp_path):
    # the SVG is written before its record; a text record whose file name
    # the stdout encoding cannot hold fails with exit 4 and one error line,
    # while structured output escapes the name; a missing --batch file is
    # an I/O error under every encoding
    commands = {
        "domains": lambda name: ["domains", "--kind", "c", "--out", name],
        "plot": lambda name: ["plot", "--kind", "b", "--sides", "3", "4", "5", "--out", name],
        "batch": lambda name: ["normalize", "--batch", "missing-" + name + ".txt"],
    }
    names = ("plain.svg", "\u00e9.svg", "d\udcff.svg")
    runs = [
        (command, encoding, name, "text")
        for command in commands
        for encoding in ("utf-8:strict", "ascii:strict", "latin-1")
        for name in names
    ]
    runs += [("domains", encoding, names[2], "structured") for encoding in ("utf-8:strict", "ascii:strict")]
    for command, encoding, name, fmt in runs:
        proc = subprocess.run(
            [sys.executable, "-m", "simnorm", *commands[command](name), "--format", fmt],
            capture_output=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONIOENCODING": encoding},
        )
        err = proc.stderr.decode("ascii", "backslashreplace")
        case = (command, encoding, name, fmt, proc.returncode, err)
        assert proc.returncode in (0, 2, 3, 4), case
        assert "Traceback" not in err, case
        if command == "batch":
            assert proc.returncode == 4 and err.startswith("error: FileNotFoundError: "), case
            continue
        assert (tmp_path / name).is_file(), case
        codec, _, errors = encoding.partition(":")
        if fmt == "structured" or _encodes(name, codec):
            assert proc.returncode == 0 and err == "", case
        elif errors == "strict" or proc.returncode == 4:
            # with no handler named, the locale picks one: strict, or
            # surrogateescape in the C locale, which writes the raw byte
            assert proc.returncode == 4, case
            assert err == (
                "error: UnicodeEncodeError: the output file was written, but stdout's "
                f"encoding {codec!r} cannot print its name\n"
            ), case
