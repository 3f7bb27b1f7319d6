"""Command line interface: normalize, classify, convert, compare, draw.

Every command builds one or more records and prints them in either
human-readable text or structured JSON (one record per line).  A record is
a dict of its set fields, in the order command, form_kind, normal_point,
circle_vertices, quad_c, quad_d, in_domain, angle_class, side_class,
angles, side_ratios, degenerate, similar, key_a, key_b, outputs.
Numbers are serialized with repr so 64-bit values round-trip exactly.
In structured output, normalize, convert of a shape and quad-normalize
print whole records of four layouts: a one-vertex form with angles and
without them (degenerate), a circle form and a quad.  _triangle_record
and _quad_record then return the record as its JSON line, formatted by one
f-string per layout from their own values, and build no dict; in text
output _triangle_record builds one dict in record order for all three
triangle layouts.  Any other record goes through json.  Those f-strings
quote command, form_kind, angle_class and side_class without escaping,
safe as the program makes all four.

normalize --batch runs in three stages, each over the whole file: parse
every line, then compute every record, then emit them, so an unparsable
line reports ahead of an earlier one that fails to compute.  Each record
takes the list slot of the shape it is made from, so that shape is freed
at once and a batch holds one object per line at its peak, not a shape
and a record.  On a 30,000-line mixed file the process peaks at 27 MB
with structured output, where a record is one string, and at 34 MB with
text output, where it is a dict (CPython 3.11).  A line is split once on
whitespace and its numbers read with float; a points line stays a flat
tuple of floats, and a sides or angles line becomes a sorted float triple
of side lengths, so no line builds a value type.

Exit codes: 0 success, 2 parse or validation error, 3 domain error
(unbounded type, degenerate input, out-of-domain point, arity mismatch),
4 I/O error, a closed stdout included.  Diagnostics go to stderr as
"error: <ErrorName>: <detail>".

main pauses the cyclic garbage collector while a command runs.  A command
makes no reference cycles, so the passes that a batch's many shapes and
records would trigger could free nothing; reference counting frees all of
them.  The collector's state from before the call is restored on return.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from math import isfinite

from .errors import ArityMismatch, DegenerateAngles, GeometryError, InvalidSides, OutOfDomain
from .geometry import Point, Tolerance
from .quads import Quadrilateral, _in_d_region, _quad_form, _quads_similar
from .triangles import (
    _IN_REGION,
    FormKind,
    Triangle,
    _check_angles,
    _check_sides,
    _circle_vertices,
    _classify,
    _in_c_region,
    _law_of_sines,
    _place,
    _point_angles,
    _point_from_sides,
    _rank,
    _side_pass,
    _sorted3,
)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return "; ".join(map(_format_value, value))
        if value and isinstance(value[0], float):
            # a point, an angle or ratio triple or a key: floats only
            return "(" + ", ".join(map(repr, value)) + ")"
        return "(" + ", ".join(map(_format_value, value)) + ")"
    return str(value)


# the records _emit joins at a time, and the most a write carries: PIPE_BUF on Linux
_GROUP = 64
_BLOCK = 4096

def _json_line(rec: str | dict) -> str:
    """A record as a JSON line: the text of a record function as it is, a dict through json."""
    if type(rec) is str:
        return rec
    # imported here, so that text output and batches never load json
    import json

    return json.dumps(rec, sort_keys=True)


def _text_block(rec: dict) -> str:
    """The record as text: one "key: value" line per field."""
    return "\n".join([f"{k}: {_format_value(v)}" for k, v in rec.items()])


def _emit(records: list[dict | str], fmt: str) -> None:
    """Write the records to stdout, as JSON lines or as blocks of text.

    In structured output a record that is already its JSON line, as the
    record functions write the four layouts a batch holds, goes out as it
    is; each of those is one f-string with its keys in sorted order, repr
    floats and true/false: what json writes, for less than its encoder's
    work per record.  The f-strings put command, form_kind, angle_class and
    side_class in quotes unescaped: the program makes those (command names,
    FormKind and class enum values), all plain ASCII words.  A record that
    is a dict, such as one that carries a file name, goes through json.
    Text output prints dicts only.
    """
    if fmt == "structured":
        chunk, sep, lead = _json_line, "\n", ""
    else:
        # a blank line between records, the groups' first ones included
        chunk, sep, lead = _text_block, "\n\n", "\n"
    # Each _GROUP records are joined into one string, which goes out in
    # blocks of whole records of at most _BLOCK characters, line breaks
    # included; those are bytes for the ASCII records a batch writes.  A block
    # ends at the last record boundary, a line break in JSON and a blank line
    # in text, within _BLOCK characters; a longer record goes out on its own.
    # (A blank line inside a text record, which only a file name can hold,
    # passes for a boundary: that splits a write, not the bytes written.)
    # An unbuffered stdout hands each write to one os.write.  On a pipe, a
    # write of up to PIPE_BUF bytes is atomic, so a reader that leaves makes it
    # fail with EPIPE (exit 4) and never return short with the rest of the
    # block lost silently, as one large write would.
    write = sys.stdout.write
    for first in range(0, len(records), _GROUP):
        text = sep.join(map(chunk, records[first : first + _GROUP])) + "\n"
        if first:
            text = lead + text
        pos = 0
        while len(text) - pos > _BLOCK:
            end = text.rfind(sep, pos, pos + _BLOCK) + 1 or text.find(sep, pos) + 1 or len(text)
            write(text[pos:end])
            pos = end
        write(text[pos:])


# a shape is 3 or 4 vertices as a flat tuple of 6 or 8 finite coordinates,
# or the 3 side lengths a <= b <= c of a valid triple
_Shape = tuple[float, ...]


def _coords(token: str) -> list[float]:
    parts = token.split(",")
    if len(parts) != 2:
        raise ValueError(f"point must be 'x,y', got {token!r}")
    return [float(parts[0]), float(parts[1])]


def _shape(tag: str, numbers: list[float], degrees: bool) -> _Shape:
    """The shape a 'points', 'sides' or 'angles' record names.

    Angles become side lengths with the longest side 1, the route every
    triangle record takes from there.
    """
    n = len(numbers)
    if tag == "points":
        if n != 6 and n != 8:
            raise ValueError(f"expected 3 or 4 points, got {n / 2:g}")
        # the sum is finite when every number is, unless it overflows, and
        # then the loop finds nothing to report
        if not isfinite(sum(numbers)):
            # Point raises its own error for the first point that fails
            for x, y in zip(numbers[::2], numbers[1::2]):
                Point(x, y)
        return tuple(numbers)
    if tag != "sides" and tag != "angles":
        raise ValueError(f"unknown record tag {tag!r}")
    if n != 3:
        raise ValueError(f"record {tag!r} takes 3 numbers, got {n}")
    a, b, c = numbers
    if tag == "angles":
        if degrees:
            a, b, c = math.radians(a), math.radians(b), math.radians(c)
        a, b, c = _law_of_sines(*_check_angles(a, b, c), 2)
    a, b, c = _sorted3(a, b, c)
    _check_sides(a, b, c)
    return a, b, c


def _shape_from_args(args, prefix: str = "") -> _Shape:
    points = getattr(args, prefix + "points")
    if points is not None:
        return _shape("points", [v for token in points for v in _coords(token)], args.degrees)
    sides = getattr(args, prefix + "sides")
    if sides is not None:
        return _shape("sides", sides, args.degrees)
    return _shape("angles", getattr(args, prefix + "angles"), args.degrees)


def _arity(shape: _Shape) -> int:
    return 3 if len(shape) == 3 else len(shape) // 2


# a form as the records name it, with its anchored side rank (None for the circle form)
_Form = tuple[str, int | None]


def _form(kind: FormKind) -> _Form:
    """The form of a command's triangle records, looked up once per command."""
    return kind.value, None if kind is FormKind.CIRCLE else _rank(kind)


def _triangle_record(
    command: str, shape: _Shape, form: _Form, tol: Tolerance, degrees: bool, fmt: str = "text"
) -> dict | str:
    """The record of a triangle: three side lengths or three vertices.

    A point triangle gets its lengths and c point from one side pass, which
    the a and b forms reuse.  The lengths are plain floats on both routes: a
    side triple was checked by _check_sides when it was parsed, and a side
    pass yields finite, nonnegative lengths.

    The form point, in_domain and the printed angles are worked out once
    for both formats.  With fmt "structured" the record is its JSON line,
    one f-string per layout (see _emit); otherwise it is one dict, built
    field by field in record order, which text output prints and the
    commands that pick fields read.
    """
    name, rank = form
    if len(shape) == 3:
        sides = None
        a, b, c = shape
        xc, yc = _point_from_sides(2, a, b, c, 0.0)
    elif len(shape) == 6:
        x0, y0, x1, y1, x2, y2 = shape
        if x0 == x1 == x2 and y0 == y1 == y2:
            # past the float test, Triangle raises its own error
            Triangle((Point(x0, y0),) * 3)
        sides = _side_pass(x0, y0, x1, y1, x2, y2)
        a, b, c = _sorted3(sides[0], sides[1], sides[2])
        xc, yc = _place(sides, 2, 0.0)
    else:
        raise ArityMismatch(f"expected a triangle, got {len(shape) // 2} points")
    cls = _classify(xc, yc, a, b, c, tol.eps)
    # _value_ is the member's value itself; .value reaches it through a
    # descriptor call on every record
    angle_class = cls.angle_class._value_
    side_class = cls.side_class._value_
    ang = _point_angles(xc, yc, tol.eps)
    if ang is None:
        if rank is None:
            raise DegenerateAngles(f"sides {(a, b, c)!r} describe a degenerate triangle")
        angles = None
    else:
        angles = tuple(math.degrees(v) for v in ang) if degrees else ang
    if rank is None:
        verts = _circle_vertices(ang[0], ang[1])
        if fmt == "structured":
            (x0, y0), (x1, y1), (x2, y2) = verts
            a0, a1, a2 = angles
            return (
                f'{{"angle_class": "{angle_class}", "angles": [{a0!r}, {a1!r}, {a2!r}], '
                f'"circle_vertices": [[{x0!r}, {y0!r}], [{x1!r}, {y1!r}], [{x2!r}, {y2!r}]], '
                f'"command": "{command}", "form_kind": "{name}", "side_class": "{side_class}", '
                f'"side_ratios": [{a / c!r}, {b / c!r}, 1.0]}}'
            )
        rec = {"command": command, "form_kind": name, "circle_vertices": verts}
    else:
        if rank == 2:
            x, y = xc, yc
        elif sides is not None:
            x, y = _place(sides, rank, tol.eps)
        else:
            x, y = _point_from_sides(rank, a, b, c, tol.eps)
        in_domain = _IN_REGION[rank](x, y, tol.eps)
        if fmt == "structured":
            # both layouts end with the fields from form_kind on
            tail = (
                f'"form_kind": "{name}", "in_domain": {"true" if in_domain else "false"}, '
                f'"normal_point": [{x!r}, {y!r}], "side_class": "{side_class}", '
                f'"side_ratios": [{a / c!r}, {b / c!r}, 1.0]}}'
            )
            if angles is None:
                return (
                    f'{{"angle_class": "{angle_class}", "command": "{command}", "degenerate": true, '
                    f"{tail}"
                )
            a0, a1, a2 = angles
            return (
                f'{{"angle_class": "{angle_class}", "angles": [{a0!r}, {a1!r}, {a2!r}], '
                f'"command": "{command}", {tail}'
            )
        rec = {"command": command, "form_kind": name, "normal_point": (x, y), "in_domain": in_domain}
    rec["angle_class"] = angle_class
    rec["side_class"] = side_class
    if angles is not None:
        rec["angles"] = angles
    rec["side_ratios"] = (a / c, b / c, 1.0)
    if angles is None:
        rec["degenerate"] = True
    return rec


def _quad_record(command: str, shape: _Shape, tol: Tolerance, fmt: str = "text") -> dict | str:
    """The record of a quad: its normal form (cx, cy, dx, dy) and region test.

    fmt picks the record's form, as for _triangle_record.
    """
    x0, y0, x1, y1, x2, y2, x3, y3 = shape
    if x0 == x1 == x2 == x3 and y0 == y1 == y2 == y3:
        # past the float test, Quadrilateral raises its own error
        Quadrilateral((Point(x0, y0),) * 4)
    e = tol.eps
    cx, cy, dx, dy = _quad_form(x0, y0, x1, y1, x2, y2, x3, y3, e)
    in_domain = _in_c_region(cx, cy, e) and _in_d_region(dx, dy, cx, cy, e)
    if fmt == "structured":
        return (
            f'{{"command": "{command}", "in_domain": {"true" if in_domain else "false"}, '
            f'"quad_c": [{cx!r}, {cy!r}], "quad_d": [{dx!r}, {dy!r}]}}'
        )
    return {"command": command, "quad_c": (cx, cy), "quad_d": (dx, dy), "in_domain": in_domain}


def _batch_shapes(path: str, degrees: bool) -> list[tuple[int, _Shape]]:
    """The numbered shapes of a batch file; blank lines and # comments are skipped."""
    shapes = []
    append = shapes.append
    # utf-8-sig drops a byte-order mark at the start of the file, and only
    # there; surrogateescape keeps a byte that is not UTF-8 as a lone
    # surrogate, so that a comment may hold it and any other line fails its
    # own parse, in file order, rather than the read ahead of it
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, start=1):
            words = raw.split()
            if not words or words[0][0] == "#":
                continue
            try:
                append((lineno, _shape(words[0], list(map(float, words[1:])), degrees)))
            except (GeometryError, ValueError) as exc:
                raise type(exc)(f"line {lineno}: {exc}") from exc
    return shapes


def _cmd_normalize(args, tol: Tolerance) -> list[dict | str]:
    if args.batch is not None:
        numbered = _batch_shapes(args.batch, args.degrees)
    else:
        numbered = [(0, _shape_from_args(args))]
    # --kind names the triangle form; a quad always gets the quad form
    form = _form(FormKind(args.kind))
    degrees, fmt = args.degrees, args.format
    # each record takes its shape's slot, so the shape is freed as its
    # record is made and a batch peaks at one record per line
    for i, (lineno, shape) in enumerate(numbered):
        try:
            if len(shape) == 8:
                numbered[i] = _quad_record("normalize", shape, tol, fmt)
            else:
                numbered[i] = _triangle_record("normalize", shape, form, tol, degrees, fmt)
        except (GeometryError, ValueError) as exc:
            if lineno == 0:
                raise
            # batch runs fail fast, pointing at the offending record
            raise type(exc)(f"line {lineno}: {exc}") from exc
    return numbered


def _picked(record: dict, keys: tuple[str, ...]) -> dict:
    """The fields of record named in keys, in record order; a missing one is left out."""
    return {k: v for k, v in record.items() if k in keys}


def _cmd_classify(args, tol: Tolerance) -> list[dict]:
    shape = _shape_from_args(args)
    record = _triangle_record("classify", shape, _form(FormKind.C_VERTEX), tol, args.degrees)
    picked = _picked(record, ("angle_class", "side_class", "angles", "side_ratios"))
    return [{"command": "classify", **picked}]


def _cmd_convert(args, tol: Tolerance) -> list[dict | str]:
    kind = FormKind(args.kind)
    if args.point is None:
        shape = _shape_from_args(args)
        return [_triangle_record("convert", shape, _form(kind), tol, args.degrees, args.format)]
    x, y = _coords(args.point)
    p = Point(x, y)
    # the circle form has no normal point: _rank raises its ValueError
    if not _IN_REGION[_rank(kind)](x, y, tol.eps):
        raise OutOfDomain(f"{p} is outside the region of the {kind.value!r} form")
    # p stands for the triangle (0,0), (1,0), p, so its record is that of
    # normalize --points 0,0 1,0 x,y, the form's limit and degenerate rule included
    triangle = (0.0, 0.0, 1.0, 0.0, x, y)
    record = _triangle_record("convert", triangle, _form(kind), tol, args.degrees)
    keys = ("degenerate",) if "degenerate" in record else ("angles", "side_ratios")
    picked = _picked(record, keys)
    return [{"command": "convert", "form_kind": kind.value, "normal_point": (x, y), **picked}]


def _cmd_similar(args, tol: Tolerance) -> list[dict]:
    a = _shape_from_args(args, "a_")
    b = _shape_from_args(args, "b_")
    if _arity(a) != _arity(b):
        raise ArityMismatch(f"cannot compare arity {_arity(a)} with arity {_arity(b)}")
    e = tol.eps
    if _arity(a) == 4:
        rec_a = _quad_record("similar", a, tol)
        rec_b = _quad_record("similar", b, tol)
        key_a = rec_a["quad_c"] + rec_a["quad_d"]
        key_b = rec_b["quad_c"] + rec_b["quad_d"]
        verdict = _quads_similar(*a, *b, e)
    else:
        form = _form(FormKind.C_VERTEX)
        key_a = _triangle_record("similar", a, form, tol, False)["normal_point"]
        key_b = _triangle_record("similar", b, form, tol, False)["normal_point"]
        verdict = abs(key_a[0] - key_b[0]) <= e and abs(key_a[1] - key_b[1]) <= e
    return [{"command": "similar", "similar": verdict, "key_a": key_a, "key_b": key_b}]


def _cmd_quad_normalize(args, tol: Tolerance) -> list[dict | str]:
    shape = _shape_from_args(args)
    if _arity(shape) != 4:
        raise ArityMismatch("quad-normalize needs exactly 4 points")
    return [_quad_record("quad-normalize", shape, tol, args.format)]


def _write_text(path: str, text: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _cmd_domains(args, tol: Tolerance) -> list[dict]:
    # deferred here and in _cmd_plot: only the drawing commands need figures,
    # and importing it at module level slows every other command's start-up
    from .figures import render_svg

    if args.kind == "all":
        kinds = tuple(FormKind)
        out_dir = args.out if args.out is not None else "."
        paths = [os.path.join(out_dir, f"domain_{k.value}.svg") for k in kinds]
    else:
        kinds = (FormKind(args.kind),)
        paths = [args.out if args.out is not None else f"domain_{args.kind}.svg"]
    for kind, path in zip(kinds, paths):
        _write_text(path, render_svg(kind))
    return [{"command": "domains", "outputs": tuple(paths)}]


def _cmd_plot(args, tol: Tolerance) -> list[dict]:
    from .figures import render_svg

    kind = FormKind(args.kind)
    record = _triangle_record("plot", _shape_from_args(args), _form(kind), tol, args.degrees)
    if kind is FormKind.CIRCLE:
        svg = render_svg(kind, triangle=record["circle_vertices"])
    else:
        svg = render_svg(kind, point=record["normal_point"])
    path = args.out if args.out is not None else f"plot_{kind.value}.svg"
    _write_text(path, svg)
    picked = _picked(record, ("form_kind", "normal_point", "circle_vertices"))
    return [{"command": "plot", **picked, "outputs": (path,)}]


def _add_shape_flags(parser: argparse.ArgumentParser, prefix: str = ""):
    """The required group of shape flags, named --{prefix}points and so on."""
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(f"--{prefix}points", nargs="+", metavar="X,Y", help="3 or 4 vertices")
    group.add_argument(f"--{prefix}sides", nargs=3, type=float, metavar="L", help="3 side lengths")
    group.add_argument(
        f"--{prefix}angles", nargs=3, type=float, metavar="A", help="3 interior angles"
    )
    return group


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads tokens such as -1,0 as values.

    argparse takes a token starting with '-' for an option unless it looks
    like a plain negative number, so a point with a negative x coordinate
    would be rejected.  No option of simnorm contains a comma, so a token
    with one and a single leading '-' is a value; '--flag=value' tokens
    still go to argparse.  _parse_optional returns None for a value.
    """

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:2] != "-" and "," in arg_string:
            return None
        return super()._parse_optional(arg_string)


_KINDS = tuple(k.value for k in FormKind)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--eps", type=float, default=1e-9, help="comparison tolerance")
    common.add_argument("--degrees", action="store_true", help="angles in degrees")
    common.add_argument(
        "--format", choices=("text", "structured"), default="text", help="output format"
    )

    parser = _Parser(
        prog="simnorm",
        description="Canonical representatives of triangles and quadrilaterals up to similarity.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("normalize", parents=[common], help="compute a normal form")
    group = _add_shape_flags(p)
    group.add_argument("--batch", metavar="FILE", help="file of 'tag numbers...' records")
    p.add_argument("--kind", choices=_KINDS, default="c")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("classify", parents=[common], help="angle and side classification")
    _add_shape_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("convert", parents=[common], help="convert between representations")
    _add_shape_flags(p).add_argument("--point", metavar="X,Y", help="normal point to invert")
    p.add_argument("--kind", choices=_KINDS, default="c")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("similar", parents=[common], help="decide similarity of two shapes")
    _add_shape_flags(p, "a-")
    _add_shape_flags(p, "b-")
    p.set_defaults(func=_cmd_similar)

    p = sub.add_parser("quad-normalize", parents=[common], help="quadrilateral normal form")
    _add_shape_flags(p)
    p.set_defaults(func=_cmd_quad_normalize)

    p = sub.add_parser("domains", parents=[common], help="render domain figures to SVG")
    p.add_argument("--kind", choices=(*_KINDS, "all"), default="all")
    p.add_argument("--out", help="output file (directory for --kind all)")
    p.set_defaults(func=_cmd_domains)

    p = sub.add_parser("plot", parents=[common], help="domain figure with a shape's normal point")
    _add_shape_flags(p)
    p.add_argument("--kind", choices=_KINDS, default="c")
    p.add_argument("--out", help="output SVG file")
    p.set_defaults(func=_cmd_plot)

    return parser


def _fail(exc: BaseException, code: int) -> int:
    sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
    return code


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        # _run has returned, so the records it held are freed before the
        # collector restarts: its first pass does not walk a whole batch
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        tol = Tolerance(args.eps)
        records = args.func(args, tol)
    except InvalidSides as exc:
        return _fail(exc, 2)
    except GeometryError as exc:
        return _fail(exc, 3)
    except ValueError as exc:
        return _fail(exc, 2)
    except OSError as exc:
        return _fail(exc, 4)
    try:
        _emit(records, args.format)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader left: point stdout at devnull, so that the flush at exit
        # does not fail again on what is still buffered
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _fail(exc, 4)
    except UnicodeEncodeError as exc:
        # only an --out file name, written before its record, can hold a
        # character that stdout's encoding cannot print
        sys.stderr.write(
            f"error: UnicodeEncodeError: the output file was written, but stdout's "
            f"encoding {exc.encoding!r} cannot print its name\n"
        )
        return 4
    return 0
