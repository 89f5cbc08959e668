"""Outputs built one item at a time, as references for the array builders.

render_curve, render_singularity_diagram, undefined_derivative_sets and
the record assembly of self_intersections build their documents and lists
from arrays.  These are the same outputs built point by point, set by
set and record by record from the library's own kernels: a Python float
per coordinate and an f-string per dot.  The array builders must match
them byte for byte.  The balanced records (s = 0) are built from exact
pairs of Fractions instead, each t being float(Fraction) and each grid
flag read from the Fractions' denominators.

find_cusps certifies each point of the cusp locus numerically, one point
at a time in Python complex arithmetic, as the library did before its
certificates came from the closed form: the one numeric oracle that the
closed-form certificates are compared against.

grid_samples gathers gamma(j/n) from the unit-root table at computed
indices, term by term, as eval_grid did before it kept per-frequency
samples; eval_grid must match it bit for bit.  grid_intersection_check
compares the grid points and then the records in Python loops, within
1e-9, each side sorted and walked so that only near neighbours are
compared; the library's check, which matches the records exactly, must give the
same verdict on the records self_intersections gives.
"""

import math
from fractions import Fraction

import numpy as np

from epicusp import curve, geometry
from epicusp.curve import (
    PlanePoint,
    TwoTermSpec,
    curve_scale,
    eval_complex,
    eval_grid,
)
from epicusp.geometry import IntersectionRecord, _half_gap_roots
from epicusp.render import CANVAS_PX, DIAGRAM_WEIGHT_COUNT, HALF_EXTENT, SVG_NS, _color_ramp, _px
from epicusp.singularity import _level_root_rows
from epicusp.spec import CuspCertificate, predicted_cusp_locus
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
    if s == 0.0:
        return balanced_intersections(a, b)
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
    records = []
    for r1, r2, px, py in zip(t1.tolist(), t2.tolist(), x.tolist(), y.tolist()):
        records.append(IntersectionRecord(r1, r2, PlanePoint(px, py), False, None))
    return records


def balanced_roots(a: int, b: int) -> list[list[Fraction]]:
    """The roots in (0, 1/2) of g_+ and of g_- at s = 0, as sorted Fractions.

    g_+ has the zeros of sin(pi (a+b) u) and of cos(pi (b-a) u), g_- those
    of cos(pi (a+b) u) and of sin(pi (b-a) u); a root of both factors is
    one root.
    """
    p, d = a + b, b - a
    half = Fraction(1, 2)
    plus = {Fraction(k, p) for k in range(1, p)} | {Fraction(2 * k + 1, 2 * d) for k in range(d)}
    minus = {Fraction(2 * k + 1, 2 * p) for k in range(p)} | {Fraction(k, d) for k in range(1, d)}
    return [sorted(u for u in roots if u < half) for roots in (plus, minus)]


def balanced_intersections(a: int, b: int) -> list[IntersectionRecord]:
    """The s = 0 records built one at a time from exact pairs of Fractions.

    Each pair is (m/(2(b-a)) - u mod 1, m/(2(b-a)) + u) for a root u of
    g_{(-1)^m}, ordered, and the pairs are sorted as Fractions.  Each t is
    float(Fraction), and a pair is on the grid j/(b^2 - a^2) when that
    denominator is a multiple of both Fractions' denominators.
    """
    d, n = b - a, b * b - a * a
    roots = balanced_roots(a, b)
    exact = []
    for m in range(d):
        centre = Fraction(m, 2 * d)
        for u in roots[m % 2]:
            exact.append(tuple(sorted(((centre - u) % 1, centre + u))))
    exact.sort()
    spec = TwoTermSpec(a, b, 0.0)
    t1 = np.array([float(f1) for f1, _ in exact])
    t2 = np.array([float(f2) for _, f2 in exact])
    z1, z2 = eval_complex(spec, t1), eval_complex(spec, t2)
    x, y = 0.5 * (z1.real + z2.real), 0.5 * (z1.imag + z2.imag)
    records = []
    for (f1, f2), px, py in zip(exact, x.tolist(), y.tolist()):
        on = n % f1.denominator == 0 and n % f2.denominator == 0
        pair = (int(f1 * n), int(f2 * n)) if on else None
        records.append(IntersectionRecord(float(f1), float(f2), PlanePoint(px, py), on, pair))
    return records


# |gamma'| below this fraction of derivative_scale counts as vanishing, and
# the extrapolated tangent flip must come within this of -1
SINGULAR_RTOL = 1e-7
CUSP_FLIP_TOL = 1e-6


def derivative_scale(spec) -> float:
    """2*pi*(a*|1-s| + b*|1+s|), an upper bound on |gamma'(t)|."""
    return 2.0 * math.pi * (spec.a * abs(1.0 - spec.s) + spec.b * abs(1.0 + spec.s))


def is_singular(spec, t: float) -> bool:
    """x'(t) and y'(t) both within SINGULAR_RTOL of the derivative scale."""
    d = complex(eval_complex(spec, float(t), order=1))
    tol = SINGULAR_RTOL * derivative_scale(spec)
    return abs(d.real) <= tol and abs(d.imag) <= tol


def certificate(spec, t: float, delta: float = 1e-3):
    """The cusp certificate of one point from nine evaluations of gamma', or None.

    One evaluation classifies the point as singular.  The one-sided unit
    tangents at t -+ delta/4^k, k = 0..3, must flip: the fourth-order
    Richardson extrapolant of each consecutive pair of tangent dot products
    must land within CUSP_FLIP_TOL of -1 (at a smooth point it tends to +1).
    A linear Richardson step on the two smallest offsets then cancels the
    tangents' drift.  None where the point is not singular or the tangents
    do not flip.
    """
    if not is_singular(spec, t):
        return None

    def unit_tangent(u):
        d = complex(eval_complex(spec, u, order=1))
        return d / abs(d)

    offsets = [delta / 4**k for k in range(4)]
    left = [unit_tangent(t - d) for d in offsets]
    right = [unit_tangent(t + d) for d in offsets]
    flips = [(lt.conjugate() * rt).real for lt, rt in zip(left, right)]
    for coarse, fine in zip(flips, flips[1:]):
        if (16.0 * fine - coarse) / 15.0 > -1.0 + CUSP_FLIP_TOL:
            return None
    tl = 4.0 * left[3] - left[2]
    tr = 4.0 * right[3] - right[2]
    tl, tr = tl / abs(tl), tr / abs(tr)
    return CuspCertificate(
        s=spec.s,
        t=float(t),
        tangent_left=PlanePoint.from_complex(tl),
        tangent_right=PlanePoint.from_complex(tr),
        flip_dot=(tl.conjugate() * tr).real,
        proven=(spec.a == 1),
    )


def find_cusps(a: int, b: int):
    """certificate at every point of the locus, at the offset min(1e-3, 0.01/(a+b))."""
    locus = predicted_cusp_locus(a, b)
    spec = TwoTermSpec(a, b, float(locus.s_bar))
    delta = min(1e-3, 0.01 / (a + b))
    return [certificate(spec, float(t), delta) for t in locus.t_values]


def grid_samples(spec, j: np.ndarray, n: int) -> np.ndarray:
    """gamma(j/n) at integer indices j, gathered from the n-entry table; j wraps mod n.

    The terms are looked up at call time, so that a test can replace them.
    """
    table = curve._roots(0, 1, n)
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
    tol = 1e-12 * curve_scale(spec)
    pts = eval_complex(spec, np.arange(n) / n)
    # two points within tol have real parts within tol: walk the points in
    # order of real part, each against those that follow it within 2*tol
    xs = pts.real.tolist()
    order = sorted(range(n), key=xs.__getitem__)
    oracle = set()
    for i, j1 in enumerate(order):
        for j2 in order[i + 1 :]:
            if xs[j2] - xs[j1] > 2 * tol:
                break
            if abs(pts[j1] - pts[j2]) < tol:
                oracle.add((min(j1, j2) / n, max(j1, j2) / n))

    origin_ts = [float(f) for f in zeros_of_curve(a, b)]
    origin_pairs = {
        (u1, u2) for i, u1 in enumerate(origin_ts) for u2 in origin_ts[i + 1 :]
    }

    # looked up at call time, so that a test can replace the detector
    found = [(r.t1, r.t2) for r in geometry.self_intersections(spec)]
    return _all_near(oracle, found) and _all_near(found, oracle | origin_pairs)


def _all_near(pairs, reference, tol: float = 1e-9) -> bool:
    """Whether each pair lies within tol of some reference pair, both
    parameters measured by circ_dist.

    Both sides are sorted by their first parameter mod 1 and walked
    together: a reference is tried only when its first parameter mod 1,
    or that moved by a period, lies within 2*tol of the pair's.
    """
    refs = sorted((q[0] % 1.0 + k, q) for q in reference for k in (-1.0, 0.0, 1.0))
    lo = 0
    for p in sorted(pairs, key=lambda p: p[0] % 1.0):
        x = p[0] % 1.0
        while lo < len(refs) and refs[lo][0] < x - 2 * tol:
            lo += 1
        k = lo
        while k < len(refs) and refs[k][0] <= x + 2 * tol:
            q = refs[k][1]
            if circ_dist(p[0], q[0]) < tol and circ_dist(p[1], q[1]) < tol:
                break
            k += 1
        else:
            return False
    return True
