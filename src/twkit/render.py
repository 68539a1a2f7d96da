"""Deterministic SVG emission for the four figure kinds.

Pure string generation: identical inputs give byte-identical documents.
Coordinates are rounded to two decimals, every document is standalone XML
with a single root <svg> element, and nothing references external resources.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from xml.sax.saxutils import escape

from . import theme
from .analyze import CorrelationMatrix
from .errors import DataError


@dataclass(frozen=True)
class PlotSpec:
    title: str = ""
    width: int = theme.DEFAULT_WIDTH
    height: int = theme.DEFAULT_HEIGHT

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise DataError("plot dimensions must be positive")


def _fmt(x: float) -> str:
    out = f"{x:.2f}"
    return "0.00" if out == "-0.00" else out


# A character outside XML 1.0's Char production: a control character other
# than tab, line feed and carriage return, a lone surrogate, U+FFFE or U+FFFF.
_NOT_XML = re.compile(r"[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


class _Svg:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect x="0.00" y="0.00" width="{_fmt(width)}" height="{_fmt(height)}" '
            f'fill="{theme.BACKGROUND}"/>',
        ]

    def rect(self, x, y, w, h, fill, stroke=None):
        s = f' stroke="{stroke}"' if stroke else ""
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" fill="{fill}"{s}/>'
        )

    def line(self, x1, y1, x2, y2, stroke=theme.AXIS_COLOR, width=1.0):
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"/>'
        )

    def circle(self, cx, cy, r, fill, stroke=None):
        s = f' stroke="{stroke}"' if stroke else ""
        self.parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{fill}"{s}/>')

    def polygon(self, points, fill, stroke=None):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        s = f' stroke="{stroke}"' if stroke else ""
        self.parts.append(f'<polygon points="{coords}" fill="{fill}"{s}/>')

    def text(self, x, y, content, size=theme.FONT_SIZE, anchor="start", fill=theme.AXIS_COLOR):
        content = str(content)
        bad = _NOT_XML.search(content)
        if bad:
            raise DataError(f"text {content!r} holds {bad.group()!r}, which XML 1.0 cannot hold")
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="{theme.FONT_FAMILY}" '
            f'font-size="{size}" text-anchor="{anchor}" fill="{fill}">{escape(content)}</text>'
        )

    def finish(self) -> str:
        return "\n".join(self.parts + ["</svg>"])


def _title(svg: _Svg, spec: PlotSpec):
    if spec.title:
        svg.text(spec.width / 2, theme.MARGIN_TOP / 2 + 4, spec.title, size=theme.TITLE_SIZE, anchor="middle")


def render_importance_bar(importances, spec: PlotSpec) -> str:
    """Horizontal bars, sorted descending by weight, lengths proportional."""
    items = list(importances)
    if not items:
        raise DataError("no importances to plot")
    if any(w < 0 for _, w in items):
        raise DataError("importance weights must be >= 0")
    items.sort(key=lambda kv: -kv[1])
    svg = _Svg(spec.width, spec.height)
    _title(svg, spec)
    x0 = theme.MARGIN_LEFT
    plot_w = spec.width - x0 - theme.MARGIN_RIGHT - 48
    y0 = theme.MARGIN_TOP
    plot_h = spec.height - y0 - theme.MARGIN_BOTTOM
    max_w = max(w for _, w in items) or 1.0
    slot = plot_h / len(items)
    bar_h = slot * 0.62
    for i, (name, weight) in enumerate(items):
        y = y0 + i * slot + (slot - bar_h) / 2
        length = plot_w * (weight / max_w)
        svg.rect(x0, y, length, bar_h, theme.BAR_FILL)
        svg.text(x0 - 6, y + bar_h / 2 + 4, name, anchor="end")
        svg.text(x0 + length + 4, y + bar_h / 2 + 4, f"{weight:.3f}")
    svg.line(x0, y0, x0, y0 + plot_h)
    return svg.finish()


def _panel_layout(n_panels: int, spec: PlotSpec):
    cols = min(3, n_panels)
    rows = (n_panels + cols - 1) // cols
    avail_w = spec.width - theme.MARGIN_LEFT / 2 - theme.MARGIN_RIGHT - (cols - 1) * theme.PANEL_GAP
    avail_h = spec.height - theme.MARGIN_TOP - theme.MARGIN_BOTTOM - (rows - 1) * theme.PANEL_GAP
    pw = avail_w / cols
    ph = avail_h / rows
    boxes = []
    for i in range(n_panels):
        r, c = divmod(i, cols)
        x = theme.MARGIN_LEFT / 2 + c * (pw + theme.PANEL_GAP)
        y = theme.MARGIN_TOP + r * (ph + theme.PANEL_GAP)
        boxes.append((x, y, pw, ph))
    return boxes


def _value_scale(lo: float, hi: float, y: float, h: float):
    span = hi - lo
    if span == 0:
        span = 1.0
        lo -= 0.5
    pad = 0.06 * span

    def to_y(v: float) -> float:
        return y + h - (v - (lo - pad)) / (span + 2 * pad) * h

    return to_y


def render_box_grid(panels, classes, spec: PlotSpec) -> str:
    """One panel per attribute; per class a q1-q3 box with median line,
    whiskers, and a circle per outlier. A constant distribution (whiskers
    collapsed onto the quartiles) draws as a single line instead of a box."""
    panels = list(panels)
    if not panels:
        raise DataError("no panels to plot")
    classes = list(classes)
    svg = _Svg(spec.width, spec.height)
    _title(svg, spec)
    boxes = _panel_layout(len(panels), spec)
    for (attr, per_class), (px, py, pw, ph) in zip(panels, boxes):
        stats = [per_class[c] for c in classes]
        lo = min(min((s.whisker_low,) + s.outliers) for s in stats)
        hi = max(max((s.whisker_high,) + s.outliers) for s in stats)
        to_y = _value_scale(lo, hi, py, ph)
        svg.line(px, py, px, py + ph)
        svg.line(px, py + ph, px + pw, py + ph)
        svg.text(px + pw / 2, py - 6, attr, anchor="middle")
        slot = pw / len(classes)
        box_w = slot * 0.5
        for i, (cls, s) in enumerate(zip(classes, stats)):
            cx = px + (i + 0.5) * slot
            color = theme.PALETTE[i % len(theme.PALETTE)]
            constant = s.whisker_low == s.whisker_high
            if constant:
                svg.line(cx - box_w / 2, to_y(s.median), cx + box_w / 2, to_y(s.median), stroke=color, width=2.0)
            else:
                top, bottom = to_y(s.q3), to_y(s.q1)
                svg.line(cx, to_y(s.whisker_high), cx, top, width=1.0)
                svg.line(cx, bottom, cx, to_y(s.whisker_low), width=1.0)
                svg.line(cx - box_w / 4, to_y(s.whisker_high), cx + box_w / 4, to_y(s.whisker_high))
                svg.line(cx - box_w / 4, to_y(s.whisker_low), cx + box_w / 4, to_y(s.whisker_low))
                if bottom - top > 0:
                    svg.rect(cx - box_w / 2, top, box_w, bottom - top, color, stroke=theme.BOX_EDGE)
                else:
                    svg.line(cx - box_w / 2, top, cx + box_w / 2, top, stroke=theme.BOX_EDGE, width=1.5)
                svg.line(cx - box_w / 2, to_y(s.median), cx + box_w / 2, to_y(s.median), stroke="#000000", width=1.5)
            for v in s.outliers:
                svg.circle(cx, to_y(v), 2.2, "none", stroke=theme.BOX_EDGE)
            svg.text(cx, py + ph + 14, cls, anchor="middle", size=9)
    return svg.finish()


def render_violin_grid(panels, classes, spec: PlotSpec) -> str:
    """Mirrored density silhouettes scaled to a common max width per panel,
    with an interior q1-q3 bar, a min-max line, and a white median dot."""
    panels = list(panels)
    if not panels:
        raise DataError("no panels to plot")
    classes = list(classes)
    svg = _Svg(spec.width, spec.height)
    _title(svg, spec)
    boxes = _panel_layout(len(panels), spec)
    for (attr, per_class), (px, py, pw, ph) in zip(panels, boxes):
        stats = [per_class[c] for c in classes]
        lo = min(s.grid[0] for s in stats)
        hi = max(s.grid[-1] for s in stats)
        max_density = max(max(s.density) for s in stats) or 1.0
        to_y = _value_scale(lo, hi, py, ph)
        svg.line(px, py, px, py + ph)
        svg.line(px, py + ph, px + pw, py + ph)
        svg.text(px + pw / 2, py - 6, attr, anchor="middle")
        slot = pw / len(classes)
        half_w = slot * 0.42
        for i, (cls, s) in enumerate(zip(classes, stats)):
            cx = px + (i + 0.5) * slot
            color = theme.PALETTE[i % len(theme.PALETTE)]
            right = [(cx + half_w * (d / max_density), to_y(v)) for v, d in zip(s.grid, s.density)]
            left = [(cx - half_w * (d / max_density), to_y(v)) for v, d in reversed(list(zip(s.grid, s.density)))]
            svg.polygon(right + left, color)
            svg.line(cx, to_y(s.min), cx, to_y(s.max), stroke="#000000", width=0.8)
            q_top, q_bottom = to_y(s.q3), to_y(s.q1)
            svg.rect(cx - 2, q_top, 4, max(q_bottom - q_top, 0.5), "#000000")
            svg.circle(cx, to_y(s.median), 2.4, "#ffffff", stroke="#000000")
            svg.text(cx, py + ph + 14, cls, anchor="middle", size=9)
    return svg.finish()


def _heat_color(v: float) -> str:
    v = min(max(v, 0.0), 1.0)
    rgb = tuple(
        round(lo + v * (hi - lo)) for lo, hi in zip(theme.HEAT_LOW, theme.HEAT_HIGH)
    )
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def render_heatmap(matrix: CorrelationMatrix, spec: PlotSpec) -> str:
    """n x n colored cells with two-decimal value text and labels on both axes."""
    values = matrix.values
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise DataError("heatmap requires a square matrix")
    n = values.shape[0]
    svg = _Svg(spec.width, spec.height)
    _title(svg, spec)
    x0 = theme.MARGIN_LEFT * 0.75
    y0 = theme.MARGIN_TOP
    size = min(spec.width - x0 - theme.MARGIN_RIGHT, spec.height - y0 - theme.MARGIN_BOTTOM)
    cell = size / n
    for i in range(n):
        for j in range(n):
            v = float(values[i, j])
            x = x0 + j * cell
            y = y0 + i * cell
            svg.rect(x, y, cell, cell, _heat_color(v), stroke="#ffffff")
            text_color = "#ffffff" if v > 0.6 else "#333333"
            svg.text(x + cell / 2, y + cell / 2 + 3.5, f"{v:.2f}", anchor="middle", size=9, fill=text_color)
    for i, name in enumerate(matrix.attributes):
        svg.text(x0 - 6, y0 + (i + 0.5) * cell + 3.5, name, anchor="end", size=9)
        svg.text(x0 + (i + 0.5) * cell, y0 + n * cell + 14, name, anchor="middle", size=9)
    return svg.finish()
