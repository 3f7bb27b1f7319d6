"""Domain figures: declared geometry, markers, overlays, determinism."""

import hashlib
import math
import xml.etree.ElementTree as ET

import pytest

from figchecks import SVG_NS, check_figure, declared_curves, markers_by_class
from simnorm import FormKind, Point, Triangle
from simnorm.figures import domain_figure, render_svg, with_point, with_triangle

ALL_KINDS = (FormKind.C_VERTEX, FormKind.B_VERTEX, FormKind.A_VERTEX, FormKind.CIRCLE)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_declared_curves_sit_on_expected_loci(kind):
    check_figure(kind.value, render_svg(domain_figure(kind)))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_render_is_deterministic(kind):
    fig = domain_figure(kind)
    assert render_svg(fig) == render_svg(fig)


# SHA-256 of render_svg(domain_figure(kind)): the text must not change
# between runs, processes or versions unless the figure itself does
SVG_SHA256 = {
    FormKind.A_VERTEX: "24874868f0e12b55e7dfcb57053672eb901346a32aede0ec061769253ca8aea2",
    FormKind.B_VERTEX: "e52977bbd7cde8fc4fbc99bf0156157044d931e35a29344a515e5116d5aee3ed",
    FormKind.C_VERTEX: "cae5f239e097cc523c78901b5593b3cc3bd9b64c089ad627a06f58b5d3274b30",
    FormKind.CIRCLE: "c298b3ae7ba11a6b0f67d5a6020215a576a8d974f1386bdb90c60c9a2572ac9c",
}


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_render_is_byte_stable(kind):
    svg = render_svg(domain_figure(kind)).encode("utf-8")
    assert hashlib.sha256(svg).hexdigest() == SVG_SHA256[kind]


def test_one_vertex_figures_mark_both_anchors():
    for kind in (FormKind.C_VERTEX, FormKind.B_VERTEX, FormKind.A_VERTEX):
        markers = markers_by_class(render_svg(domain_figure(kind)))
        anchors = set(markers.get("marker-anchor", []))
        assert (0.0, 0.0) in anchors
        assert (1.0, 0.0) in anchors


def test_circle_figure_marks_the_unit_anchor():
    markers = markers_by_class(render_svg(domain_figure(FormKind.CIRCLE)))
    assert (1.0, 0.0) in set(markers.get("marker-anchor", []))


def test_circle_figure_separates_spaces():
    curves = declared_curves(render_svg(domain_figure(FormKind.CIRCLE)))
    spaces = {c.space for c in curves}
    assert spaces == {"plane", "angles"}


def test_unbounded_domain_caption_mentions_clipping():
    svg = render_svg(domain_figure(FormKind.A_VERTEX))
    assert "clip" in svg.lower()


def test_with_point_adds_a_point_marker():
    fig = with_point(domain_figure(FormKind.C_VERTEX), Point(0.64, 0.48), "(0.64, 0.48)")
    markers = markers_by_class(render_svg(fig))
    assert (0.64, 0.48) in set(markers.get("marker-point", []))


def test_with_triangle_adds_shape_outline():
    t = Triangle.of(Point(1.0, 0.0), Point(-0.5, math.sqrt(3.0) / 2.0), Point(-0.5, -math.sqrt(3.0) / 2.0))
    svg = render_svg(with_triangle(domain_figure(FormKind.CIRCLE), t))
    root = ET.fromstring(svg)
    polygons = [
        poly for poly in root.iter(f"{SVG_NS}polygon") if poly.get("class") == "shape"
    ]
    assert len(polygons) == 1
    assert len(polygons[0].get("points").split()) == 3


def test_svg_has_no_external_references():
    for kind in ALL_KINDS:
        svg = render_svg(domain_figure(kind))
        assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")


def test_svg_well_formed_and_sized():
    for kind in ALL_KINDS:
        root = ET.fromstring(render_svg(domain_figure(kind)))
        assert root.tag == f"{SVG_NS}svg"
        assert float(root.get("width")) > 0.0
        assert float(root.get("height")) > 0.0
