"""Deterministic SVG figures of the normal-form domains.

render_svg(kind, point=None, triangle=None) is the one public call: it
draws the form's panels (the main panel, plus the angle-plane inset for
the circle form) from small declarative models of curves, markers and
shaded regions, and can mark a point or outline a triangle on the main
panel.  Curve elements carry data-* attributes with full-precision
parameters so the drawn geometry can be checked programmatically; visual
coordinates are written at fixed precision to keep output byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .triangles import FormKind

_SQRT3_2 = math.sqrt(3.0) / 2.0

# world coordinates within a panel live either in the vertex plane or,
# for the circle-form inset, in the (alpha, beta) angle plane
PLANE_SPACE = "plane"
ANGLE_SPACE = "angles"


@dataclass(frozen=True)
class Segment:
    """Straight piece from (x1, y1) to (x2, y2)."""

    x1: float
    y1: float
    x2: float
    y2: float

    def point_at(self, t: float) -> tuple[float, float]:
        return self.x1 + (self.x2 - self.x1) * t, self.y1 + (self.y2 - self.y1) * t


@dataclass(frozen=True)
class Arc:
    """Circular arc centered at (cx, cy) with radius r, swept from t0 to t1."""

    cx: float
    cy: float
    r: float
    t0: float
    t1: float

    def point_at(self, t: float) -> tuple[float, float]:
        a = self.t0 + (self.t1 - self.t0) * t
        return self.cx + self.r * math.cos(a), self.cy + self.r * math.sin(a)


Curve = Segment | Arc


@dataclass(frozen=True)
class Marker:
    """Labeled dot; role picks the CSS class (equilateral, anchor, point)."""

    x: float
    y: float
    label: str
    role: str


@dataclass(frozen=True)
class Region:
    """Filled subregion whose outline is traced head-to-tail along curves."""

    label: str
    outline: tuple[Curve, ...]


@dataclass(frozen=True)
class FigurePanel:
    """One drawing area: a viewport in world coordinates plus its contents."""

    space: str
    viewport: tuple[float, float, float, float]
    boundary: tuple[Curve, ...]
    right_locus: tuple[Curve, ...]
    regions: tuple[Region, ...]
    markers: tuple[Marker, ...]
    caption: str


# the anchors and the equilateral point, shared by the three one-vertex panels
_ONE_VERTEX_MARKERS = (
    Marker(0.0, 0.0, "A", "anchor"),
    Marker(1.0, 0.0, "B", "anchor"),
    Marker(0.5, _SQRT3_2, "equilateral", "equilateral"),
)


def _c_panel() -> FigurePanel:
    return FigurePanel(
        space=PLANE_SPACE,
        viewport=(-0.15, -0.15, 1.15, 1.0),
        boundary=(
            Segment(0.5, 0.0, 1.0, 0.0),
            Segment(0.5, 0.0, 0.5, _SQRT3_2),
            Arc(0.0, 0.0, 1.0, 0.0, math.pi / 3.0),
        ),
        right_locus=(Arc(0.5, 0.0, 0.5, 0.0, math.pi / 2.0),),
        regions=(
            Region(
                "obtuse",
                (
                    Segment(0.5, 0.0, 1.0, 0.0),
                    Arc(0.5, 0.0, 0.5, 0.0, math.pi / 2.0),
                    Segment(0.5, 0.5, 0.5, 0.0),
                ),
            ),
            Region(
                "acute",
                (
                    Arc(0.0, 0.0, 1.0, 0.0, math.pi / 3.0),
                    Segment(0.5, _SQRT3_2, 0.5, 0.5),
                    Arc(0.5, 0.0, 0.5, math.pi / 2.0, 0.0),
                ),
            ),
        ),
        markers=_ONE_VERTEX_MARKERS,
        caption="longest-side domain: third vertex region with right-angle arc",
    )


def _b_panel() -> FigurePanel:
    return FigurePanel(
        space=PLANE_SPACE,
        viewport=(-0.15, -0.15, 2.15, 1.25),
        boundary=(
            Segment(1.0, 0.0, 2.0, 0.0),
            Arc(0.0, 0.0, 1.0, 0.0, math.pi / 3.0),
            Arc(1.0, 0.0, 1.0, 0.0, 2.0 * math.pi / 3.0),
        ),
        right_locus=(Segment(1.0, 0.0, 1.0, 1.0),),
        regions=(
            Region(
                "acute",
                (
                    Arc(0.0, 0.0, 1.0, 0.0, math.pi / 3.0),
                    Arc(1.0, 0.0, 1.0, 2.0 * math.pi / 3.0, math.pi / 2.0),
                    Segment(1.0, 1.0, 1.0, 0.0),
                ),
            ),
            Region(
                "obtuse",
                (
                    Segment(1.0, 0.0, 2.0, 0.0),
                    Arc(1.0, 0.0, 1.0, 0.0, math.pi / 2.0),
                    Segment(1.0, 1.0, 1.0, 0.0),
                ),
            ),
        ),
        markers=_ONE_VERTEX_MARKERS,
        caption="median-side domain: third vertex region with right-angle segment",
    )


def _a_panel() -> FigurePanel:
    return FigurePanel(
        space=PLANE_SPACE,
        viewport=(0.0, 0.0, 3.0, 3.0),
        boundary=(
            Segment(2.0, 0.0, 3.0, 0.0),
            Segment(0.5, _SQRT3_2, 0.5, 3.0),
            Arc(1.0, 0.0, 1.0, 0.0, 2.0 * math.pi / 3.0),
        ),
        right_locus=(Segment(1.0, 1.0, 1.0, 3.0),),
        regions=(
            Region(
                "acute",
                (
                    Arc(1.0, 0.0, 1.0, 2.0 * math.pi / 3.0, math.pi / 2.0),
                    Segment(1.0, 1.0, 1.0, 3.0),
                    Segment(1.0, 3.0, 0.5, 3.0),
                    Segment(0.5, 3.0, 0.5, _SQRT3_2),
                ),
            ),
            Region(
                "obtuse",
                (
                    Arc(1.0, 0.0, 1.0, math.pi / 2.0, 0.0),
                    Segment(2.0, 0.0, 3.0, 0.0),
                    Segment(3.0, 0.0, 3.0, 3.0),
                    Segment(3.0, 3.0, 1.0, 3.0),
                    Segment(1.0, 3.0, 1.0, 1.0),
                ),
            ),
        ),
        markers=_ONE_VERTEX_MARKERS,
        caption="shortest-side domain, clipped to x in [0, 3], y in [0, 3] (unbounded)",
    )


def _circle_panels() -> tuple[FigurePanel, FigurePanel]:
    third = math.pi / 3.0
    quarter = math.pi / 4.0
    half = math.pi / 2.0
    main = FigurePanel(
        space=PLANE_SPACE,
        viewport=(-1.3, -1.3, 1.3, 1.3),
        boundary=(Arc(0.0, 0.0, 1.0, 0.0, math.tau),),
        right_locus=(),
        regions=(),
        markers=(Marker(1.0, 0.0, "C", "anchor"),),
        caption="inscribed form: triangles in the unit circle with C at (1, 0)",
    )
    inset = FigurePanel(
        space=ANGLE_SPACE,
        viewport=(-0.25, -0.25, third + 0.3, half + 0.3),
        boundary=(
            Segment(0.0, 0.0, third, third),
            Segment(0.0, half, third, third),
            Segment(0.0, 0.0, 0.0, half),
        ),
        right_locus=(Segment(0.0, half, quarter, quarter),),
        regions=(
            Region(
                "obtuse",
                (
                    Segment(0.0, 0.0, quarter, quarter),
                    Segment(quarter, quarter, 0.0, half),
                    Segment(0.0, half, 0.0, 0.0),
                ),
            ),
            Region(
                "acute",
                (
                    Segment(quarter, quarter, third, third),
                    Segment(third, third, 0.0, half),
                    Segment(0.0, half, quarter, quarter),
                ),
            ),
        ),
        markers=(Marker(third, third, "equilateral", "equilateral"),),
        caption="smallest two angles: alpha <= beta <= pi/2 - alpha/2",
    )
    return main, inset


_ONE_VERTEX_PANELS = {
    FormKind.C_VERTEX: _c_panel,
    FormKind.B_VERTEX: _b_panel,
    FormKind.A_VERTEX: _a_panel,
}


_PANEL_HEIGHT = 360.0
_MARGIN = 34.0
_GAP = 26.0

_STYLE = (
    "  <style>\n"
    "    .region-acute { fill: #cfe3f5; stroke: none; }\n"
    "    .region-obtuse { fill: #f5dcc2; stroke: none; }\n"
    "    .boundary path { fill: none; stroke: #20242c; stroke-width: 1.6; }\n"
    "    .right-locus path { fill: none; stroke: #b03030; stroke-width: 1.4;"
    " stroke-dasharray: 6 4; }\n"
    "    .shape { fill: none; stroke: #2a6fb0; stroke-width: 1.4; }\n"
    "    .marker-anchor { fill: #20242c; }\n"
    "    .marker-equilateral { fill: #1f8a4c; }\n"
    "    .marker-point { fill: #b03030; }\n"
    "    text { font-family: Menlo, Consolas, monospace; font-size: 12px;"
    " fill: #20242c; }\n"
    "  </style>\n"
)


def _fmt(v: float) -> str:
    out = format(v, ".4f")
    return "0.0000" if out == "-0.0000" else out


class _PanelFrame:
    """Mapping from panel world coordinates to canvas pixels."""

    def __init__(self, panel: FigurePanel, x_offset: float) -> None:
        x0, y0, x1, y1 = panel.viewport
        usable = _PANEL_HEIGHT - 2.0 * _MARGIN
        self.scale = usable / max(x1 - x0, y1 - y0)
        self.width = (x1 - x0) * self.scale + 2.0 * _MARGIN
        self.x_offset = x_offset
        self._x0 = x0
        self._y1 = y1

    def to_canvas(self, x: float, y: float) -> tuple[float, float]:
        return (
            self.x_offset + _MARGIN + (x - self._x0) * self.scale,
            _MARGIN + (self._y1 - y) * self.scale,
        )


def _samples(curve: Curve) -> int:
    if isinstance(curve, Segment):
        return 2
    return max(8, int(round(96.0 * abs(curve.t1 - curve.t0) / math.tau)) + 1)


def _path_data(frame: _PanelFrame, curves: tuple[Curve, ...], close: bool) -> str:
    steps: list[str] = []
    for curve in curves:
        n = _samples(curve)
        for i in range(n):
            x, y = frame.to_canvas(*curve.point_at(i / (n - 1)))
            cmd = "M" if not steps else "L"
            steps.append(f"{cmd} {_fmt(x)} {_fmt(y)}")
    if close:
        steps.append("Z")
    return " ".join(steps)


def _curve_attrs(curve: Curve, space: str) -> str:
    if isinstance(curve, Segment):
        return (
            f'data-curve="segment" data-space="{space}"'
            f' data-x1="{curve.x1!r}" data-y1="{curve.y1!r}"'
            f' data-x2="{curve.x2!r}" data-y2="{curve.y2!r}"'
        )
    return (
        f'data-curve="arc" data-space="{space}"'
        f' data-cx="{curve.cx!r}" data-cy="{curve.cy!r}" data-r="{curve.r!r}"'
        f' data-t0="{curve.t0!r}" data-t1="{curve.t1!r}"'
    )


def _render_panel(
    out: list[str],
    panel: FigurePanel,
    frame: _PanelFrame,
    point: tuple[float, float] | None = None,
    triangle: tuple[tuple[float, float], ...] | None = None,
) -> None:
    out.append('  <g class="regions">\n')
    for region in panel.regions:
        d = _path_data(frame, region.outline, close=True)
        out.append(f'    <path class="region-{region.label}" d="{d}" />\n')
    out.append("  </g>\n")
    for group, curves in (("boundary", panel.boundary), ("right-locus", panel.right_locus)):
        out.append(f'  <g class="{group}">\n')
        for curve in curves:
            d = _path_data(frame, (curve,), close=False)
            out.append(f'    <path {_curve_attrs(curve, panel.space)} d="{d}" />\n')
        out.append("  </g>\n")
    if triangle is not None:
        pts = " ".join("{},{}".format(*map(_fmt, frame.to_canvas(x, y))) for x, y in triangle)
        out.append(f'  <polygon class="shape" points="{pts}" />\n')
    markers = panel.markers
    if point is not None:
        x, y = point
        markers += (Marker(x, y, f"({x:.4f}, {y:.4f})", "point"),)
    out.append('  <g class="markers">\n')
    for m in markers:
        cx, cy = frame.to_canvas(m.x, m.y)
        out.append(
            f'    <circle class="marker-{m.role}" data-x="{m.x!r}" data-y="{m.y!r}"'
            f' cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3.5" />\n'
            f'    <text x="{_fmt(cx + 6.0)}" y="{_fmt(cy - 6.0)}">{_escape(m.label)}</text>\n'
        )
    out.append("  </g>\n")
    cap_x = frame.x_offset + _MARGIN
    out.append(
        f'  <text class="caption" x="{_fmt(cap_x)}" y="{_fmt(_PANEL_HEIGHT - 8.0)}">'
        f"{_escape(panel.caption)}</text>\n"
    )


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(
    kind: FormKind,
    point: tuple[float, float] | None = None,
    triangle: tuple[tuple[float, float], ...] | None = None,
) -> str:
    """The domain figure of one normal form as deterministic SVG 1.1 text.

    point, an (x, y) pair, is marked on the main panel with the label
    "(x, y)" at four decimals; triangle, three (x, y) pairs, is outlined
    there.
    """
    if kind is FormKind.CIRCLE:
        main, inset = _circle_panels()
    else:
        main, inset = _ONE_VERTEX_PANELS[kind](), None
    main_frame = _PanelFrame(main, 0.0)
    total = main_frame.width
    if inset is not None:
        inset_frame = _PanelFrame(inset, main_frame.width + _GAP)
        total = inset_frame.x_offset + inset_frame.width
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(total)}" height="{_fmt(_PANEL_HEIGHT)}" '
        f'viewBox="0 0 {_fmt(total)} {_fmt(_PANEL_HEIGHT)}">\n',
        f"  <title>{_escape(kind.value)} form domain</title>\n",
        _STYLE,
        f'  <rect width="{_fmt(total)}" height="{_fmt(_PANEL_HEIGHT)}" fill="#ffffff" />\n',
    ]
    _render_panel(out, main, main_frame, point, triangle)
    if inset is not None:
        _render_panel(out, inset, inset_frame)
    out.append("</svg>\n")
    return "".join(out)


__all__ = ["render_svg"]
