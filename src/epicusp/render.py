"""Deterministic SVG documents: curve plots and the singularity diagram.

All documents are built by plain string formatting from sampled values, so
identical inputs give byte-identical output; there is no dependency on a
plotting toolkit.  Curves are drawn as closed polylines, and the
singularity diagram shows where the parametric derivative is undefined
across the weight range with the predicted cusps overlaid as bold markers.

Curve plots need no numpy: this module imports only the standard library
and spec, and render_singularity_diagram imports numpy and singularity
when it is called, so a cold `epicusp plot` or `epicusp sweep` loads
neither.  _curve_pixels computes eval_grid's floats in plain Python.
Each term's samples exp(2*pi*i*f*j/n) are the entries (f mod n)*j mod n
of one table of cos and sin of 2*pi*(k/n), as in curve._roots; k/n is
the correctly rounded quotient in Python as in numpy.  The terms are
summed in term order as (0.0 + w_a*e_a) + w_b*e_b.  Each weight is real,
and a real number times a complex sample rounds each part once, so each
part of the sum has eval_grid's bits, signed zeros included, wherever
math.cos and math.sin round as np.cos and np.sin do.
tests/test_bulk_output.py pins this, and CI runs it at each of numpy's
SIMD levels.  One table serves every curve of a call, and each frequency
is gathered from it once.

The pixel coordinates are the float operations of one point at a time:
elementwise on arrays for the diagram's dots and, for a polyline, one
comprehension per coordinate straight from the gathered samples, so they
have the same bits.  Each polyline, and each run of up to 256 of a
diagram's dots, is one % format over a repeated "%.3f" template; "%.3f" % v
gives the bytes of f"{v:.3f}" for every float, -0.000 included, so the
documents are those of formatting point by point.
"""

from __future__ import annotations

import math

# MAX_GRID_SAMPLES is re-exported: the command line reads render.MAX_GRID_SAMPLES
from .spec import MAX_GRID_SAMPLES, TwoTermSpec, _curve, _grid_size, predicted_cusp_locus

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
    is for an empty list of specs, and TypeError for an item that is not
    a TwoTermSpec.
    """
    if not specs:
        raise ValueError("nothing to render")
    samples = _grid_size(samples, 2, "samples")
    specs = [_curve(spec, f"specs[{i}]") for i, spec in enumerate(specs)]
    size = CANVAS_PX
    lines = [
        f'<svg {SVG_NS} width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    points = " ".join(["%.3f,%.3f"] * (samples + 1))
    for i, (px, py) in enumerate(_curve_pixels(specs, samples)):
        # closed: the first point again at the end
        px.append(px[0])
        py.append(py[0])
        lines.append(
            f'<polyline points="{points % _interleave(px, py)}" fill="none" '
            f'stroke="{_color_ramp(i, len(specs))}" stroke-width="1.5"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _root_table(n: int) -> tuple[list[float], list[float]]:
    """cos and sin of 2*pi*(k/n), k = 0..n-1: the parts of curve._roots(0, 1, n)."""
    tau = 2.0 * math.pi
    angles = [tau * (k / n) for k in range(n)]
    return list(map(math.cos, angles)), list(map(math.sin, angles))


def _curve_pixels(specs: list[TwoTermSpec], n: int):
    """For each spec, the lists px and py of the pixel coordinates of gamma(j/n), j = 0..n-1.

    The point x + iy is eval_grid(spec, n)[j], bit for bit (module
    docstring), and each coordinate is one comprehension over the gathered
    samples, (x + HALF_EXTENT) / width * CANVAS_PX and (HALF_EXTENT - y) /
    width * CANVAS_PX, so no list of x or y is held next to them.  One
    table is built for the call, and each frequency's samples are gathered
    from it once.
    """
    size, extent = CANVAS_PX, HALF_EXTENT
    width = 2 * extent
    cos, sin = _root_table(n)
    gathered = {}
    for spec in specs:
        fa, fb = spec.a % n, spec.b % n
        for f in (fa, fb):
            if f not in gathered:
                k = [f * j % n for j in range(n)]
                gathered[f] = [cos[i] for i in k], [sin[i] for i in k]
        (ca, sa), (cb, sb) = gathered[fa], gathered[fb]
        wa, wb = 1.0 - spec.s, 1.0 + spec.s
        yield (
            [(0.0 + wa * p + wb * q + extent) / width * size for p, q in zip(ca, cb)],
            [(extent - (0.0 + wa * p + wb * q)) / width * size for p, q in zip(sa, sb)],
        )


def _interleave(x: list[float], y: list[float]) -> tuple[float, ...]:
    """x0, y0, x1, y1, ... from two lists of one length, the arguments of one % format."""
    xy = [0.0] * (2 * len(x))
    xy[0::2] = x
    xy[1::2] = y
    return tuple(xy)


def render_singularity_diagram(a: int, b: int) -> str:
    """Diagram of undefined-derivative parameters across the weight range.

    For each of DIAGRAM_WEIGHT_COUNT weights s on a uniform grid over
    [-1, 1] the parameters where the parametric derivative is undefined
    are drawn as dots (s horizontal, t vertical); the dense grid renders
    the branch curves.  The predicted cusps are overlaid as bold markers
    carrying their (s, t) in data attributes.
    """
    import numpy as np

    from .singularity import _zero_rows

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
    # x0, y0, x1, y1, ... as Python floats, the arguments of the % formats
    xy = tuple(np.stack(to_px(np.repeat(weights, sizes), t), axis=1).ravel().tolist())
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
