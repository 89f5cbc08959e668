import re

import pytest

from epicusp import (
    CurveSpec,
    EmptyInput,
    PlanePoint,
    PlotSpec,
    TwoTermSpec,
    render_curve,
    render_singularity_diagram,
)
from epicusp import render
from epicusp.curve import MAX_GRID_SAMPLES, eval_grid

POINTS_RE = re.compile(r'<polyline[^>]* points="([^"]+)"')
MARKER_RE = re.compile(r'class="cusp-marker"[^>]*data-s="([^"]+)" data-t="([^"]+)"')


def polylines(doc: str) -> list[list[tuple[float, float]]]:
    out = []
    for m in POINTS_RE.finditer(doc):
        out.append([tuple(map(float, p.split(","))) for p in m.group(1).split()])
    return out


class TestRenderCurve:
    def test_rejects_empty_input(self):
        with pytest.raises(EmptyInput):
            render_curve([])

    def test_same_input_same_bytes(self):
        specs = [TwoTermSpec(1, 3, -0.5)]
        assert render_curve(specs) == render_curve(specs)

    def test_polyline_traces_the_samples(self):
        spec = TwoTermSpec(1, 3, 0.0)
        plot = PlotSpec(samples=256)
        (coords,) = polylines(render_curve([spec], plot))
        assert len(coords) == 257  # closed: first point repeated
        for (px, py), z in zip(coords, eval_grid(spec, 256)):
            x = px / plot.width * (2 * plot.viewbox) - plot.viewbox
            y = plot.viewbox - py / plot.height * (2 * plot.viewbox)
            assert abs(x - z.real) < 1e-4 and abs(y - z.imag) < 1e-4

    def test_panel_draws_every_curve(self):
        specs = [TwoTermSpec(1, 3, (i - 10) / 10.0) for i in range(21)]
        assert len(polylines(render_curve(specs))) == 21

    def test_three_curves_get_distinct_colors(self):
        doc = render_curve([TwoTermSpec(1, 3, s) for s in (-0.5, 0.0, 0.5)])
        for color in ("#cc2222", "#22aa22", "#2222cc"):
            assert doc.count(f'stroke="{color}"') == 1

    def test_marker_overlay_carries_label(self):
        plot = PlotSpec(markers=((PlanePoint(0.0, 1.0), "cusp"),))
        doc = render_curve([TwoTermSpec(1, 3, -0.5)], plot)
        assert 'class="overlay-marker"' in doc
        assert "<title>cusp</title>" in doc

    def test_wide_curve_expands_the_window(self):
        spec = CurveSpec.from_pairs([(3, 1.0), (7, 2.0)])
        doc = render_curve([spec])
        (coords,) = polylines(doc)
        assert all(0.0 <= v <= 800.0 for xy in coords for v in xy)
        # the start point gamma(0) = 3 sits at 6.3/6.6 of the width
        assert coords[0] == (pytest.approx(763.636, abs=1e-3), pytest.approx(400.0, abs=1e-3))

    def test_rejects_a_curve_past_the_largest_grid_before_sampling(self, monkeypatch):
        def no_grid(spec, n):
            raise AssertionError(f"sampled {n} points")

        monkeypatch.setattr(render, "eval_grid", no_grid)
        plot = PlotSpec(samples=MAX_GRID_SAMPLES + 1)
        with pytest.raises(ValueError, match="need n <="):
            render_curve([TwoTermSpec(1, 3, 0.5)], plot)


class TestSingularityDiagram:
    def test_marks_both_predicted_cusps(self):
        doc = render_singularity_diagram(1, 3)
        marks = MARKER_RE.findall(doc)
        assert sorted(marks) == [("-0.5", "0.25"), ("-0.5", "0.75")]

    def test_single_cusp_pair(self):
        doc = render_singularity_diagram(1, 2)
        assert MARKER_RE.findall(doc) == [("-0.333333", "0.5")]

    def test_dot_count_tracks_the_branch_structure(self):
        # 50 weights with two branch points, the transition weight with
        # four, and 150 with six
        doc = render_singularity_diagram(1, 3)
        assert doc.count('class="udef-dot"') == 1004

    def test_same_input_same_bytes(self):
        assert render_singularity_diagram(1, 2) == render_singularity_diagram(1, 2)
