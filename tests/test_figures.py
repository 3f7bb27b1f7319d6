"""Domain figures: declared geometry, markers, overlays, determinism."""

import hashlib
import math
import random
import xml.etree.ElementTree as ET

import pytest

from figchecks import SVG_NS, check_figure, declared_curves, markers_by_class
from simnorm import (
    ORIGIN,
    UNIT_X,
    AngleTriple,
    FormKind,
    Point,
    Tolerance,
    Triangle,
    circle_normal_form,
    classify,
    in_domain,
)
from simnorm.cli import main
from simnorm.figures import (
    Segment,
    _a_panel,
    _b_panel,
    _c_panel,
    _circle_panels,
    _samples,
    render_svg,
)

ALL_KINDS = (FormKind.C_VERTEX, FormKind.B_VERTEX, FormKind.A_VERTEX, FormKind.CIRCLE)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_declared_curves_sit_on_expected_loci(kind):
    check_figure(kind.value, render_svg(kind))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_render_is_deterministic(kind):
    assert render_svg(kind) == render_svg(kind)


# SHA-256 of render_svg(kind): the text must not change between runs,
# processes or versions unless the figure itself does
SVG_SHA256 = {
    FormKind.A_VERTEX: "24874868f0e12b55e7dfcb57053672eb901346a32aede0ec061769253ca8aea2",
    FormKind.B_VERTEX: "e52977bbd7cde8fc4fbc99bf0156157044d931e35a29344a515e5116d5aee3ed",
    FormKind.C_VERTEX: "cae5f239e097cc523c78901b5593b3cc3bd9b64c089ad627a06f58b5d3274b30",
    FormKind.CIRCLE: "c298b3ae7ba11a6b0f67d5a6020215a576a8d974f1386bdb90c60c9a2572ac9c",
}


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_render_is_byte_stable(kind):
    svg = render_svg(kind).encode("utf-8")
    assert hashlib.sha256(svg).hexdigest() == SVG_SHA256[kind]


# SHA-256 of the file written by `simnorm plot --sides 3 4 5 --kind K`, on the
# same toolchain as SVG_SHA256: the marked point, its label and the circle
# form's triangle outline must not move between versions either
PLOT_SHA256 = {
    FormKind.A_VERTEX: "a36bb8f9f7d0d68c149ff0015cccb94b2acb522f10c26468beab8db100b0f217",
    FormKind.B_VERTEX: "43cbc2769ec8f4ac4c0ba6515221d2b7bc36da49a32ac076459c4fff6990c453",
    FormKind.C_VERTEX: "da7069baf9d6ad0d4d283bf8a380ed8bddc7057292ed80386f568a264138969f",
    FormKind.CIRCLE: "64b7a9c6370035bc6b16e5727c3fe563e217a567e2b14639615f80160e33b01a",
}


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_plot_is_byte_stable(kind, tmp_path):
    out = tmp_path / "plot.svg"
    assert main(["plot", "--sides", "3", "4", "5", "--kind", kind.value, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PLOT_SHA256[kind]


def test_one_vertex_figures_mark_both_anchors():
    for kind in (FormKind.C_VERTEX, FormKind.B_VERTEX, FormKind.A_VERTEX):
        markers = markers_by_class(render_svg(kind))
        anchors = set(markers.get("marker-anchor", []))
        assert (0.0, 0.0) in anchors
        assert (1.0, 0.0) in anchors


def test_circle_figure_marks_the_unit_anchor():
    markers = markers_by_class(render_svg(FormKind.CIRCLE))
    assert (1.0, 0.0) in set(markers.get("marker-anchor", []))


def test_circle_figure_separates_spaces():
    curves = declared_curves(render_svg(FormKind.CIRCLE))
    spaces = {c.space for c in curves}
    assert spaces == {"plane", "angles"}


def test_unbounded_domain_caption_mentions_clipping():
    svg = render_svg(FormKind.A_VERTEX)
    assert "clip" in svg.lower()


def test_with_point_adds_a_point_marker():
    markers = markers_by_class(render_svg(FormKind.C_VERTEX, point=(0.64, 0.48)))
    assert (0.64, 0.48) in set(markers.get("marker-point", []))


def test_with_triangle_adds_shape_outline():
    t = ((1.0, 0.0), (-0.5, math.sqrt(3.0) / 2.0), (-0.5, -math.sqrt(3.0) / 2.0))
    svg = render_svg(FormKind.CIRCLE, triangle=t)
    root = ET.fromstring(svg)
    polygons = [
        poly for poly in root.iter(f"{SVG_NS}polygon") if poly.get("class") == "shape"
    ]
    assert len(polygons) == 1
    assert len(polygons[0].get("points").split()) == 3


def test_svg_has_no_external_references():
    for kind in ALL_KINDS:
        svg = render_svg(kind)
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")


def test_svg_well_formed_and_sized():
    for kind in ALL_KINDS:
        root = ET.fromstring(render_svg(kind))
        assert root.tag == f"{SVG_NS}svg"
        assert float(root.get("width")) > 0.0
        assert float(root.get("height")) > 0.0


def _polygon(outline):
    """A region's outline as drawn: each curve sampled as the renderer samples it."""
    pts = []
    for curve in outline:
        n = _samples(curve)
        pts.extend(curve.point_at(i / (n - 1)) for i in range(n))
    return pts


def _inside(polygon, x, y):
    inside = False
    for (x1, y1), (x2, y2) in zip(polygon, polygon[1:] + polygon[:1]):
        if (y1 > y) != (y2 > y) and x < x1 + (y - y1) * (x2 - x1) / (y2 - y1):
            inside = not inside
    return inside


def _distance(curve, x, y):
    """Distance from (x, y) to the exact segment or arc."""
    if isinstance(curve, Segment):
        dx, dy = curve.x2 - curve.x1, curve.y2 - curve.y1
        t = ((x - curve.x1) * dx + (y - curve.y1) * dy) / (dx * dx + dy * dy)
        t = min(1.0, max(0.0, t))
        return math.hypot(x - curve.x1 - t * dx, y - curve.y1 - t * dy)
    lo, hi = sorted((curve.t0, curve.t1))
    a = math.atan2(y - curve.cy, x - curve.cx) % math.tau
    if lo <= a <= hi:
        return abs(math.hypot(x - curve.cx, y - curve.cy) - curve.r)
    return min(math.dist((x, y), curve.point_at(0.0)), math.dist((x, y), curve.point_at(1.0)))


def _plane_class(kind):
    def angle_class(x, y):
        p = Point(x, y)
        if not in_domain(kind, p):
            return None
        return classify(Triangle.of(ORIGIN, UNIT_X, p)).angle_class.value

    return angle_class


def _inset_class(alpha, beta):
    if not 0.0 < alpha <= beta <= (math.pi - alpha) / 2.0:
        return None
    angles = AngleTriple(alpha, beta, math.pi - alpha - beta)
    return classify(circle_normal_form(angles)).angle_class.value


# panels with shaded regions, each with the library's verdict on a point of
# its world plane: None outside the domain, else the angle class's value
REGION_PANELS = {
    "c": (_c_panel(), _plane_class(FormKind.C_VERTEX)),
    "b": (_b_panel(), _plane_class(FormKind.B_VERTEX)),
    "a": (_a_panel(), _plane_class(FormKind.A_VERTEX)),
    "circle-inset": (_circle_panels()[1], _inset_class),
}

# the polylines stray up to 5.4e-4 from a unit arc (96 samples per turn), so
# a point this far from every exact curve is on the same side of the drawn one
CURVE_MARGIN = 2e-3


@pytest.mark.parametrize("name", REGION_PANELS)
def test_drawn_regions_agree_with_the_predicates(name):
    panel, verdict = REGION_PANELS[name]
    curves = panel.boundary + panel.right_locus
    curves += tuple(curve for region in panel.regions for curve in region.outline)
    polygons = {region.label: _polygon(region.outline) for region in panel.regions}
    x0, y0, x1, y1 = panel.viewport
    rng = random.Random(1502_00241)
    seen = set()
    for _ in range(3000):
        x, y = rng.uniform(x0, x1), rng.uniform(y0, y1)
        if min(_distance(curve, x, y) for curve in curves) < CURVE_MARGIN:
            continue
        label = verdict(x, y)
        for region, polygon in polygons.items():
            assert _inside(polygon, x, y) == (label == region), (x, y, region, label)
        seen.add(label)
    assert seen == {None, *polygons}


# each one-vertex panel with a point well inside its domain: the inner side
# of a boundary curve is the side that point lies on
DOMAIN_PANELS = {
    FormKind.C_VERTEX: (_c_panel(), (0.75, 0.4)),
    FormKind.B_VERTEX: (_b_panel(), (1.2, 0.7)),
    FormKind.A_VERTEX: (_a_panel(), (1.5, 2.0)),
}


def _inward_normal(curve, x, y, inner):
    """The unit normal of the curve at its point (x, y), toward the side of inner."""
    if isinstance(curve, Segment):
        nx, ny = curve.y1 - curve.y2, curve.x2 - curve.x1
        side = nx * (inner[0] - x) + ny * (inner[1] - y)
    else:
        nx, ny = x - curve.cx, y - curve.cy
        side = math.hypot(inner[0] - curve.cx, inner[1] - curve.cy) - curve.r
    scale = math.copysign(1.0 / math.hypot(nx, ny), side)
    return nx * scale, ny * scale


@pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("kind", DOMAIN_PANELS, ids=lambda k: k.value)
def test_points_ten_eps_off_each_boundary_curve_fall_on_its_drawn_side(kind, eps):
    panel, inner = DOMAIN_PANELS[kind]
    tol = Tolerance(eps)
    step = 10.0 * eps
    for curve in panel.boundary:
        for i in range(500):
            t = 0.01 + 0.98 * i / 499
            x, y = curve.point_at(t)
            nx, ny = _inward_normal(curve, x, y, inner)
            assert in_domain(kind, Point(x + step * nx, y + step * ny), tol), (curve, t)
            assert not in_domain(kind, Point(x - step * nx, y - step * ny), tol), (curve, t)
