"""Outputs built one item at a time, as references for the array builders.

render_curve, render_singularity_diagram, undefined_derivative_sets and
the record assembly of self_intersections build their documents and lists
from arrays.  These are the same outputs built point by point, set by
set and record by record from the library's own kernels: a Python float
per coordinate, an f-string per dot, a round() per grid flag.  The array
builders must match them byte for byte.

grid_samples gathers gamma(j/n) from the unit-root table at computed
indices, term by term, as eval_grid did before it kept per-frequency
samples; eval_grid must match it bit for bit.  grid_intersection_check
compares every grid pair and every record in Python loops; the array
form must give the same verdict.
"""

import math

import numpy as np

from epicusp import curve, geometry, singularity
from epicusp.curve import (
    PlanePoint,
    TwoTermSpec,
    _unit_roots,
    curve_scale,
    eval_complex,
    eval_grid,
)
from epicusp.geometry import IntersectionRecord, _half_gap_roots
from epicusp.render import CANVAS_PX, DIAGRAM_WEIGHT_COUNT, HALF_EXTENT, SVG_NS, _color_ramp, _px
from epicusp.singularity import _level_root_rows, predicted_cusp_locus
from epicusp.winding import zeros_of_curve


def render_curve(specs, samples: int = 1024) -> str:
    pts = [[PlanePoint(float(v.real), float(v.imag)) for v in eval_grid(s, samples)] for s in specs]
    size, extent = CANVAS_PX, HALF_EXTENT

    def to_px(p):
        return (
            (p.x + extent) / (2 * extent) * size,
            (extent - p.y) / (2 * extent) * size,
        )

    lines = [
        f'<svg {SVG_NS} width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
    ]
    for i, ps in enumerate(pts):
        closed = list(ps) + [ps[0]]
        coords = " ".join("%s,%s" % (_px(x), _px(y)) for x, y in map(to_px, closed))
        lines.append(
            f'<polyline points="{coords}" fill="none" '
            f'stroke="{_color_ramp(i, len(pts))}" stroke-width="1.5"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def undefined_derivative_sets(a: int, b: int, weights) -> list[list[float]]:
    s = np.array(list(weights), dtype=float)
    g = math.gcd(a, b)
    a, b = a // g, b // g
    sets = []
    roots, counts = _level_root_rows(a, b, a, b, s)
    for u in np.split(roots, np.cumsum(counts))[:-1]:
        t = np.concatenate(([0.0], u, [0.5], 1.0 - u[::-1]))
        sets.append(((t + np.arange(g)[:, None]) / g).ravel().tolist())
    return sets


def render_singularity_diagram(a: int, b: int) -> str:
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
    weights = [s_lo + (s_hi - s_lo) * i / (n - 1) for i in range(n)]
    for s, ts in zip(weights, undefined_derivative_sets(a, b, weights)):
        for t in ts:
            x, y = to_px(s, t)
            lines.append(
                f'<circle class="udef-dot" cx="{_px(x)}" cy="{_px(y)}" r="1.2" '
                f'fill="#000000"/>'
            )

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


def self_intersections(spec: TwoTermSpec) -> list[IntersectionRecord]:
    a, b, s = spec.a, spec.b, spec.s
    half_gaps = _half_gap_roots(a, b, s)
    d = b - a
    centre = np.concatenate([np.full(len(half_gaps[m % 2]), m / (2 * d)) for m in range(d)])
    u = np.concatenate([half_gaps[m % 2] for m in range(d)])
    first = np.where(centre < u, centre - u + 1.0, centre - u) % 1.0
    second = centre + u
    t1, t2 = np.minimum(first, second), np.maximum(first, second)
    order = np.lexsort((t2, t1))
    t1, t2 = t1[order], t2[order]
    z1, z2 = eval_complex(spec, t1), eval_complex(spec, t2)
    x, y = 0.5 * (z1.real + z2.real), 0.5 * (z1.imag + z2.imag)

    n = b * b - a * a
    records = []
    for r1, r2, px, py in zip(t1.tolist(), t2.tolist(), x.tolist(), y.tolist()):
        pair = None
        if s == 0.0:
            j1, j2 = round(r1 * n), round(r2 * n)
            if abs(r1 - j1 / n) < 1e-9 and abs(r2 - j2 / n) < 1e-9:
                pair = (j1 % n, j2 % n)
        records.append(IntersectionRecord(r1, r2, PlanePoint(px, py), pair is not None, pair))
    return records


def find_cusps(a: int, b: int):
    locus = predicted_cusp_locus(a, b)
    spec = TwoTermSpec(a, b, float(locus.s_bar))
    ts = [float(t) for t in locus.t_values]
    return singularity._certify_cusps(spec, ts, min(1e-3, 0.01 / (a + b)))


def grid_samples(spec, j: np.ndarray, n: int) -> np.ndarray:
    """gamma(j/n) at integer indices j, gathered from the n-entry table; j wraps mod n.

    The terms are looked up at call time, so that a test can replace them.
    """
    table = _unit_roots(n)
    out = np.zeros(len(j), dtype=complex)
    for f, w in curve._terms(spec):
        k = (f % n) * j
        k -= k // n * n
        e = table[k]
        np.multiply(w, e, out=e)
        out += e
    return out


def circ_dist(x: float, y: float) -> float:
    """The distance between two parameters on the circle [0, 1)."""
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


def grid_intersection_check(a: int, b: int) -> bool:
    spec = TwoTermSpec(a, b, 0.0)
    n = b * b - a * a
    scale = curve_scale(spec)
    pts = eval_complex(spec, np.arange(n) / n)
    oracle = set()
    for j1 in range(n):
        for j2 in range(j1 + 1, n):
            if abs(pts[j1] - pts[j2]) < 1e-12 * scale:
                oracle.add((j1 / n, j2 / n))

    origin_ts = [float(f) for f in zeros_of_curve(a, b)]
    origin_pairs = {
        (u1, u2) for i, u1 in enumerate(origin_ts) for u2 in origin_ts[i + 1 :]
    }

    # looked up at call time, so that a test can replace the detector
    found = [(r.t1, r.t2) for r in geometry.self_intersections(spec)]

    def matches(pair, reference):
        return any(
            circ_dist(pair[0], q[0]) < 1e-9 and circ_dist(pair[1], q[1]) < 1e-9
            for q in reference
        )

    for pair in oracle:
        if not matches(pair, found):
            return False
    for pair in found:
        if not matches(pair, oracle) and not matches(pair, origin_pairs):
            return False
    return True
