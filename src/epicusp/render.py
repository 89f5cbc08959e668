"""Deterministic SVG documents: curve plots and the singularity diagram.

All documents are built by plain string formatting from sampled values, so
identical inputs give byte-identical output; there is no dependency on a
plotting toolkit.  Curves are drawn as closed polylines, and the
singularity diagram shows where the parametric derivative is undefined
across the weight range with the predicted cusps overlaid as bold markers.

Curve polylines and the diagram's dots are formatted in bulk.  Their
pixel coordinates are the float operations of one point at a time, done
elementwise on arrays, so they have the same bits.  Each polyline, and
each run of up to 256 of a diagram's dots, is one % format over a repeated
"%.3f" template; "%.3f" % v gives the bytes of f"{v:.3f}" for every float,
-0.000 included, so the documents are those of formatting point by point.
"""

from __future__ import annotations

import numpy as np

from .curve import eval_grid
from .singularity import _zero_rows
# MAX_GRID_SAMPLES is re-exported: the command line reads render.MAX_GRID_SAMPLES
from .spec import MAX_GRID_SAMPLES, TwoTermSpec, _grid_size, predicted_cusp_locus

SVG_NS = 'xmlns="http://www.w3.org/2000/svg"'
# curve plots: a square canvas of CANVAS_PX pixels shows the window
# [-HALF_EXTENT, HALF_EXTENT]^2, which holds every curve of the family,
# since |gamma| <= |1-s| + |1+s| = 2
CANVAS_PX = 800
HALF_EXTENT = 2.2
# weights on the uniform grid over [-1, 1] that the singularity diagram draws
DIAGRAM_WEIGHT_COUNT = 201
_UDEF_DOT = '<circle class="udef-dot" cx="%.3f" cy="%.3f" r="1.2" fill="#000000"/>'
# dots per % format: each piece stays ~18 KB, so malloc reuses its memory; a
# diagram's ~130 KB of dots in one piece is mapped and trimmed on every call
_DOTS_PER_FORMAT = 256


def _px(v: float) -> str:
    # fixed decimals keep documents byte-stable and sub-pixel accurate
    return f"{v:.3f}"


def _color_ramp(i: int, count: int) -> str:
    if count == 1:
        return "#000000"
    if count == 3:
        return ("#cc2222", "#22aa22", "#2222cc")[i]
    f = i / (count - 1)
    r = round(40 + f * (204 - 40))
    g = 60
    bl = round(204 + f * (40 - 204))
    return f"#{r:02x}{g:02x}{bl:02x}"


def render_curve(specs: list[TwoTermSpec], samples: int = 1024) -> str:
    """Render one closed polyline per spec into an SVG document.

    Each curve is sampled at samples points, an integer in
    [2, MAX_GRID_SAMPLES]; ValueError is raised before any sampling, as it
    is for an empty list of specs.
    """
    if not specs:
        raise ValueError("nothing to render")
    samples = _grid_size(samples, 2, "samples")
    size, extent = CANVAS_PX, HALF_EXTENT

    def to_px(x, y):
        return (
            (x + extent) / (2 * extent) * size,
            (extent - y) / (2 * extent) * size,
        )

    lines = [
        f'<svg {SVG_NS} width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    points = " ".join(["%.3f,%.3f"] * (samples + 1))
    for i, spec in enumerate(specs):
        z = eval_grid(spec, samples)
        closed = np.append(z, z[:1])
        coords = points % _interleave(*to_px(closed.real, closed.imag))
        lines.append(
            f'<polyline points="{coords}" fill="none" '
            f'stroke="{_color_ramp(i, len(specs))}" stroke-width="1.5"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _interleave(x: np.ndarray, y: np.ndarray) -> tuple[float, ...]:
    """x0, y0, x1, y1, ... as Python floats, the arguments of one % format."""
    return tuple(np.stack((x, y), axis=1).ravel().tolist())


def render_singularity_diagram(a: int, b: int) -> str:
    """Diagram of undefined-derivative parameters across the weight range.

    For each of DIAGRAM_WEIGHT_COUNT weights s on a uniform grid over
    [-1, 1] the parameters where the parametric derivative is undefined
    are drawn as dots (s horizontal, t vertical); the dense grid renders
    the branch curves.  The predicted cusps are overlaid as bold markers
    carrying their (s, t) in data attributes.
    """
    width = height = 800
    s_lo, s_hi = -1.0, 1.0
    t_lo, t_hi = -0.08, 1.08

    def to_px(s, t):
        x = (s - s_lo + 0.1) / (s_hi - s_lo + 0.2) * width
        y = (t_hi - t) / (t_hi - t_lo) * height
        return x, y

    lines = [
        f'<svg {SVG_NS} width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    # frame and reference ticks
    fx0, fy1 = to_px(s_lo, t_lo)
    fx1, fy0 = to_px(s_hi, t_hi)
    lines.append(
        f'<rect x="{_px(fx0)}" y="{_px(fy0)}" width="{_px(fx1 - fx0)}" '
        f'height="{_px(fy1 - fy0)}" fill="none" stroke="#888888" stroke-width="1"/>'
    )
    for s_tick in (-1.0, 0.0, 1.0):
        x, y = to_px(s_tick, t_lo)
        lines.append(
            f'<text x="{_px(x)}" y="{_px(y + 16)}" font-size="12" '
            f'text-anchor="middle">s={s_tick:g}</text>'
        )
    for t_tick in (0.0, 0.5, 1.0):
        x, y = to_px(s_lo, t_tick)
        lines.append(
            f'<text x="{_px(x - 6)}" y="{_px(y + 4)}" font-size="12" '
            f'text-anchor="end">t={t_tick:g}</text>'
        )

    n = DIAGRAM_WEIGHT_COUNT
    weights = s_lo + (s_hi - s_lo) * np.arange(n) / (n - 1)
    t, sizes = _zero_rows(a, b, weights)
    xy = _interleave(*to_px(np.repeat(weights, sizes), t))
    for i in range(0, len(xy), 2 * _DOTS_PER_FORMAT):
        part = xy[i : i + 2 * _DOTS_PER_FORMAT]
        lines.append("\n".join([_UDEF_DOT] * (len(part) // 2)) % part)

    locus = predicted_cusp_locus(a, b)
    for t_frac in locus.t_values:
        s_val, t_val = float(locus.s_bar), float(t_frac)
        x, y = to_px(s_val, t_val)
        lines.append(
            f'<circle class="cusp-marker" cx="{_px(x)}" cy="{_px(y)}" r="5" '
            f'fill="#000000" data-s="{s_val:.6g}" data-t="{t_val:.6g}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
