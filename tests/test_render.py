import re

import pytest

from epicusp import (
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


@pytest.fixture
def no_table(monkeypatch):
    """Fail any test that builds the table of roots of unity a curve is sampled from."""

    def refuse(n):
        raise AssertionError(f"built a table of {n} roots")

    monkeypatch.setattr(render, "_root_table", refuse)


class TestRenderCurve:
    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="nothing to render"):
            render_curve([])

    def test_same_input_same_bytes(self):
        specs = [TwoTermSpec(1, 3, -0.5)]
        assert render_curve(specs) == render_curve(specs)

    def test_polyline_traces_the_samples(self):
        spec = TwoTermSpec(1, 3, 0.0)
        (coords,) = polylines(render_curve([spec], samples=256))
        assert len(coords) == 257  # closed: first point repeated
        for (px, py), z in zip(coords, eval_grid(spec, 256)):
            x = px / 800 * 4.4 - 2.2
            y = 2.2 - py / 800 * 4.4
            assert abs(x - z.real) < 1e-4 and abs(y - z.imag) < 1e-4

    def test_panel_draws_every_curve(self):
        specs = [TwoTermSpec(1, 3, (i - 10) / 10.0) for i in range(21)]
        assert len(polylines(render_curve(specs))) == 21

    def test_three_curves_get_distinct_colors(self):
        doc = render_curve([TwoTermSpec(1, 3, s) for s in (-0.5, 0.0, 0.5)])
        for color in ("#cc2222", "#22aa22", "#2222cc"):
            assert doc.count(f'stroke="{color}"') == 1

    def test_the_fixed_window_holds_every_curve(self):
        # |gamma| <= 2 for every s; the circles at s = -1 and 1 reach it
        doc = render_curve([TwoTermSpec(1, 2, -1.0), TwoTermSpec(3, 7, 1.0), TwoTermSpec(2, 9, 0.3)])
        assert doc.startswith(f'<svg {render.SVG_NS} width="800" height="800" viewBox="0 0 800 800">')
        first, *others = polylines(doc)
        assert all(36.0 <= v <= 764.0 for coords in (first, *others) for xy in coords for v in xy)
        # the start point gamma(0) = 2 sits at 4.2/4.4 of the width
        assert first[0] == (pytest.approx(763.636, abs=1e-3), pytest.approx(400.0, abs=1e-3))

    def test_rejects_a_curve_past_the_largest_grid_before_sampling(self, no_table):
        with pytest.raises(ValueError, match="need n <="):
            render_curve([TwoTermSpec(1, 3, 0.5)], samples=MAX_GRID_SAMPLES + 1)

    @pytest.mark.parametrize("samples", [1e3, 1024.0, 2.5, True, "1024"])
    def test_a_count_that_is_not_an_integer_is_refused_before_sampling(self, no_table, samples):
        with pytest.raises(ValueError, match="samples must be an integer"):
            render_curve([TwoTermSpec(1, 3, 0.5)], samples=samples)

    @pytest.mark.parametrize("bad", [(1, 3, 0.5), None, "spec"])
    def test_an_item_that_is_not_a_spec_is_refused_before_sampling(self, no_table, bad):
        with pytest.raises(TypeError, match=r"specs\[1\] must be a TwoTermSpec"):
            render_curve([TwoTermSpec(1, 3, 0.5), bad, TwoTermSpec(1, 2, 0.0)])

    def test_one_table_serves_a_sweep(self, monkeypatch):
        built = []
        table = render._root_table
        monkeypatch.setattr(render, "_root_table", lambda n: built.append(n) or table(n))
        render_curve([TwoTermSpec(1, 3, s) for s in (-0.5, 0.0, 0.5)], samples=256)
        assert built == [256]


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
