import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from twkit.analyze import BoxStats, CorrelationMatrix, box_stats, kde
from twkit.errors import DataError
from twkit.render import (
    PlotSpec,
    render_box_grid,
    render_heatmap,
    render_importance_bar,
    render_violin_grid,
)

GOLDEN = Path(__file__).parent / "golden"

IMPORTANCES = [
    ("armor_type", 0.34), ("headgear", 0.22), ("weapon", 0.16),
    ("hairstyle", 0.12), ("position", 0.08), ("corps", 0.05),
    ("c_id", 0.02), ("height", 0.01),
]

CLASSES = ["RW", "AW", "LR"]


def _box_panels():
    rng = np.random.default_rng(0)
    panels = []
    for attr in ("headgear", "armor_type"):
        per_class = {}
        for i, cls in enumerate(CLASSES):
            values = rng.normal(loc=2.0 + i, scale=0.8, size=40).tolist()
            values.append(9.0)  # guaranteed outlier
            per_class[cls] = box_stats(values)
        panels.append((attr, per_class))
    # constant distribution drawn as a line
    panels.append(("robe_num", {cls: box_stats([1.0] * 10) for cls in CLASSES}))
    return panels


def _violin_panels():
    rng = np.random.default_rng(1)
    panels = []
    for attr in ("height", "c_id"):
        per_class = {
            cls: kde(rng.normal(loc=175.0 + 3 * i, scale=4.0, size=60), grid_size=32)
            for i, cls in enumerate(CLASSES)
        }
        panels.append((attr, per_class))
    return panels


def _matrix():
    values = np.array([[1.0, 0.91, 0.2], [0.91, 1.0, 0.45], [0.2, 0.45, 1.0]])
    return CorrelationMatrix(("headgear", "hairstyle", "weapon"), values)


def _all_figures():
    return {
        "importance.svg": render_importance_bar(IMPORTANCES, PlotSpec(title="Importance")),
        "box.svg": render_box_grid(_box_panels(), CLASSES, PlotSpec(title="Boxes", width=900, height=520)),
        "violin.svg": render_violin_grid(_violin_panels(), CLASSES, PlotSpec(title="Violins", width=760, height=420)),
        "heatmap.svg": render_heatmap(_matrix(), PlotSpec(title="Correlation", width=520, height=480)),
    }


def test_byte_identical_across_runs():
    first = _all_figures()
    second = _all_figures()
    assert first == second


def test_well_formed_xml_single_root():
    for name, doc in _all_figures().items():
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg"), name
        assert "viewBox" in root.attrib


def _coords_within_viewbox(doc):
    root = ET.fromstring(doc)
    _, _, w, h = (float(v) for v in root.attrib["viewBox"].split())
    for el in root.iter():
        for attr in ("x", "x1", "x2", "cx"):
            if attr in el.attrib:
                assert -1e-9 <= float(el.attrib[attr]) <= w + 1e-9, (el.tag, attr, el.attrib[attr])
        for attr in ("y", "y1", "y2", "cy"):
            if attr in el.attrib:
                assert -1e-9 <= float(el.attrib[attr]) <= h + 1e-9
        if "points" in el.attrib:
            for pair in el.attrib["points"].split():
                px, py = (float(v) for v in pair.split(","))
                assert -1e-9 <= px <= w + 1e-9
                assert -1e-9 <= py <= h + 1e-9


def test_no_coordinates_outside_viewbox():
    for doc in _all_figures().values():
        _coords_within_viewbox(doc)


def test_golden_files():
    figures = _all_figures()
    for name, doc in figures.items():
        golden = (GOLDEN / name).read_text(encoding="utf-8")
        assert doc == golden, f"{name} diverged from its golden file"


class TestImportanceBar:
    def test_proportional_lengths(self):
        doc = render_importance_bar([("a", 0.5), ("b", 0.25), ("c", 0.25)], PlotSpec())
        root = ET.fromstring(doc)
        widths = [float(r.attrib["width"]) for r in root.iter()
                  if r.tag.endswith("rect") and r.attrib.get("fill") == "#4c78a8"]
        assert widths[0] == pytest.approx(2 * widths[1], abs=0.01)

    def test_sorted_descending(self):
        doc = render_importance_bar([("low", 0.1), ("high", 0.9)], PlotSpec())
        assert doc.index(">high<") < doc.index(">low<")

    def test_single_attribute_full_width(self):
        doc = render_importance_bar([("only", 0.4)], PlotSpec())
        root = ET.fromstring(doc)
        bars = [r for r in root.iter() if r.tag.endswith("rect") and r.attrib.get("fill") == "#4c78a8"]
        assert len(bars) == 1

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            render_importance_bar([], PlotSpec())

    def test_negative_weight_rejected(self):
        with pytest.raises(DataError):
            render_importance_bar([("a", -0.1)], PlotSpec())


class TestBoxGrid:
    def test_outlier_circle_count(self):
        stats = BoxStats(q1=1.0, median=2.0, q3=3.0, whisker_low=0.0, whisker_high=4.0,
                         outliers=(8.0, 9.0))
        doc = render_box_grid([("attr", {"RW": stats})], ["RW"], PlotSpec())
        root = ET.fromstring(doc)
        circles = [c for c in root.iter() if c.tag.endswith("circle")]
        assert len(circles) == 2

    def test_constant_class_rendered_as_line_without_box(self):
        stats = box_stats([5.0] * 8)
        doc = render_box_grid([("attr", {"RW": stats})], ["RW"], PlotSpec())
        root = ET.fromstring(doc)
        boxes = [r for r in root.iter() if r.tag.endswith("rect")
                 and r.attrib.get("fill") not in ("#ffffff",)]
        assert len(boxes) == 0  # background only (white), no box rect

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            render_box_grid([], ["RW"], PlotSpec())


class TestViolinGrid:
    def test_mirror_symmetry(self):
        stats = kde(np.random.default_rng(2).normal(size=50), grid_size=16)
        doc = render_violin_grid([("h", {"RW": stats})], ["RW"], PlotSpec())
        root = ET.fromstring(doc)
        polygon = next(p for p in root.iter() if p.tag.endswith("polygon"))
        pts = [tuple(float(v) for v in pair.split(",")) for pair in polygon.attrib["points"].split()]
        n = len(pts) // 2
        right, left = pts[:n], pts[n:]
        center = (max(x for x, _ in right) + min(x for x, _ in left)) / 2
        for (rx, ry), (lx, ly) in zip(right, reversed(left)):
            assert rx - center == pytest.approx(center - lx, abs=0.02)
            assert ry == pytest.approx(ly, abs=0.02)

    def test_white_median_dot_at_mapped_coordinate(self):
        stats = kde([1.0, 2.0, 3.0, 4.0, 5.0], grid_size=16)
        doc = render_violin_grid([("h", {"RW": stats})], ["RW"], PlotSpec())
        root = ET.fromstring(doc)
        dot = next(c for c in root.iter() if c.tag.endswith("circle")
                   and c.attrib.get("fill") == "#ffffff")
        lines = [l for l in root.iter() if l.tag.endswith("line")
                 and l.attrib.get("stroke") == "#000000"]
        spine = lines[0]
        y_min, y_max = sorted((float(spine.attrib["y1"]), float(spine.attrib["y2"])))
        # median of 1..5 is 3 -> midpoint of the min-max spine
        assert float(dot.attrib["cy"]) == pytest.approx((y_min + y_max) / 2, abs=0.02)


class TestHeatmap:
    def test_diagonal_text(self):
        doc = render_heatmap(_matrix(), PlotSpec())
        assert doc.count(">1.00<") >= 3

    def test_endpoint_colors(self):
        values = np.array([[1.0, 0.0], [0.0, 1.0]])
        doc = render_heatmap(CorrelationMatrix(("a", "b"), values), PlotSpec())
        assert "#f7fbff" in doc  # colormap minimum at 0.0
        assert "#08306b" in doc  # colormap maximum at 1.0

    def test_transpose_mirror_cell_texts(self):
        values = np.array([[1.0, 0.3], [0.3, 1.0]])
        m = CorrelationMatrix(("a", "b"), values)
        mt = CorrelationMatrix(("a", "b"), values.T)
        assert render_heatmap(m, PlotSpec()) == render_heatmap(mt, PlotSpec())

    def test_non_square_rejected(self):
        bad = CorrelationMatrix(("a", "b"), np.zeros((2, 3)))
        with pytest.raises(DataError):
            render_heatmap(bad, PlotSpec())
