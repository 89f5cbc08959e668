"""Reference computations for the benchmark's output checks.

Nothing here imports epicusp: every expected value is derived from the
curve family's definition,

    gamma(t) = (1-s) exp(2 pi i a t) + (1+s) exp(2 pi i b t),

with exact rational arithmetic where the answer is combinatorial (cusp
locus, intersection grid, zero counts) and plain ``math``/``numpy``
evaluation where it is numerical.  Every ``check_*`` function raises
``Mismatch`` with a short reason when an output is wrong and returns None
otherwise.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import gcd

import numpy as np

TWO_PI = 2.0 * math.pi


class Mismatch(Exception):
    """An output disagrees with the benchmark's reference computation."""


# --- evaluation -----------------------------------------------------------


def gamma(a: int, b: int, s: float, t: float) -> complex:
    """gamma(t) with each phase reduced mod 1 before scaling by 2 pi."""
    pa, pb = TWO_PI * ((a * t) % 1.0), TWO_PI * ((b * t) % 1.0)
    return complex(
        (1.0 - s) * math.cos(pa) + (1.0 + s) * math.cos(pb),
        (1.0 - s) * math.sin(pa) + (1.0 + s) * math.sin(pb),
    )


def gamma_on_grid(a: int, b: int, s: float, n: int) -> np.ndarray:
    """gamma(j/n) for j = 0..n-1, phases reduced exactly in integers."""
    j = np.arange(n, dtype=np.int64)
    pa = TWO_PI * ((a * j) % n) / n
    pb = TWO_PI * ((b * j) % n) / n
    return (1.0 - s) * np.exp(1j * pa) + (1.0 + s) * np.exp(1j * pb)


def _circ(x: float, y: float) -> float:
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


# --- cusps ----------------------------------------------------------------


def cusp_locus(a: int, b: int) -> tuple[Fraction, list[Fraction]]:
    """Singular points of the family: gamma' = 0 forces (1-s) a = (1+s) b
    and exp(2 pi i (b-a) t) = -1, so s = (a-b)/(a+b), t = h/(2(b-a)), h odd."""
    d = 2 * (b - a)
    return Fraction(a - b, a + b), [Fraction(h, d) for h in range(1, d, 2)]


def check_cusps(a: int, b: int, found: list[tuple[float, float]]) -> None:
    """``found`` holds (s, t) per cusp in output order: b-a of them, sorted
    by t, each within 1e-6 of a distinct point of the locus."""
    s_bar, ts = cusp_locus(a, b)
    if len(found) != len(ts):
        raise Mismatch(f"({a},{b}): {len(found)} cusps, expected {len(ts)}")
    for (s, t), t_ref in zip(found, ts):
        if abs(s - float(s_bar)) > 1e-6 or _circ(t, float(t_ref)) > 1e-6:
            raise Mismatch(f"({a},{b}): cusp ({s}, {t}) is not at ({s_bar}, {t_ref})")


# --- s = 0 intersections --------------------------------------------------


def intersection_oracle(a: int, b: int) -> set[tuple[Fraction, Fraction]]:
    """All pairs t1 < t2 in [0, 1) with gamma(t1) = gamma(t2) at s = 0.

    Two unit vectors with a nonzero sum are fixed by it up to order, so a
    non-origin meeting swaps the two terms: a j1 = b j2 and b j1 = a j2
    modulo n = b^2 - a^2 for grid indices j1, j2.  Every grid pair is tested
    exactly in integers; the C(b-a, 2) pairs of origin passages
    t = h/(2(b-a)), h odd, are added (some are grid pairs already).
    """
    if gcd(a, b) != 1:
        raise ValueError("the oracle needs coprime a, b")
    n = b * b - a * a
    j = np.arange(n, dtype=np.int64)
    pairs = set()
    for j1 in range(n):
        hit = ((a * j1 - b * j) % n == 0) & ((b * j1 - a * j) % n == 0) & (j > j1)
        for j2 in np.nonzero(hit)[0].tolist():
            pairs.add((Fraction(j1, n), Fraction(j2, n)))
    _, origin = cusp_locus(a, b)
    for i, u1 in enumerate(origin):
        for u2 in origin[i + 1 :]:
            pairs.add((u1, u2))
    return pairs


def check_intersections_s0(a: int, b: int, found: list[tuple[float, float]]) -> None:
    """The found (t1, t2) pairs equal the oracle's, one to one, within 1e-9."""
    oracle = intersection_oracle(a, b)
    m = 2 * (b * b - a * a)  # every oracle parameter is a multiple of 1/m
    keys = []
    for t1, t2 in found:
        k = []
        for t in (t1, t2):
            r = round(t * m)
            if abs(t * m - r) > 1e-9 * m:
                raise Mismatch(f"({a},{b},0): t={t!r} is off the grid 1/{m}")
            k.append(Fraction(r % m, m))
        keys.append(tuple(sorted(k)))
    if len(set(keys)) != len(keys):
        raise Mismatch(f"({a},{b},0): duplicate records")
    missing, extra = oracle - set(keys), set(keys) - oracle
    if missing or extra:
        raise Mismatch(
            f"({a},{b},0): {len(found)} records, oracle has {len(oracle)};"
            f" {len(missing)} missing, {len(extra)} not in the oracle"
        )


# --- s != 0 intersections -------------------------------------------------


def check_intersections_general(
    a: int, b: int, s: float, found: list[tuple[float, float, complex]]
) -> None:
    """Records (t1, t2, point) at s != 0: each meets at residual
    <= 1e-9 * scale, its point is gamma(t1), and the record set is closed
    under the dihedral maps t -> t + 1/(b-a) and t -> 1 - t."""
    scale = abs(1.0 - s) + abs(1.0 + s)
    for t1, t2, point in found:
        if not 0.0 <= t1 < t2 < 1.0:
            raise Mismatch(f"({a},{b},{s}): record ({t1}, {t2}) not ordered in [0, 1)")
        z1 = gamma(a, b, s, t1)
        if abs(z1 - gamma(a, b, s, t2)) > 1e-9 * scale:
            raise Mismatch(f"({a},{b},{s}): residual too large at ({t1}, {t2})")
        if abs(z1 - point) > 1e-9 * scale:
            raise Mismatch(f"({a},{b},{s}): point {point} is not gamma({t1})")
    check_dihedral_closure(a, b, [(t1, t2) for t1, t2, _ in found])


def check_dihedral_closure(a: int, b: int, pairs: list[tuple[float, float]], tol: float = 1e-7) -> None:
    """gamma(t + 1/(b-a)) is gamma(t) rotated, gamma(1-t) is its mirror
    image, so both maps send intersection pairs to intersection pairs."""
    if not pairs:
        return
    p = np.array(pairs, dtype=float)
    for name, mapped in (
        ("rotation", (p + 1.0 / (b - a)) % 1.0),
        ("reflection", (1.0 - p) % 1.0),
    ):
        mapped = np.sort(mapped, axis=1)
        d1 = np.abs(mapped[:, None, 0] - p[None, :, 0]) % 1.0
        d2 = np.abs(mapped[:, None, 1] - p[None, :, 1]) % 1.0
        d = np.maximum(np.minimum(d1, 1.0 - d1), np.minimum(d2, 1.0 - d2))
        lost = np.min(d, axis=1) > tol
        if np.any(lost):
            raise Mismatch(f"({a},{b}): {int(np.sum(lost))} records have no {name} image")


# --- zeros of x'(t) -------------------------------------------------------


def _cheb_u(k: int) -> list[int]:
    """Coefficients (lowest first) of the Chebyshev polynomial U_k."""
    prev, cur = [1], [0, 2]
    if k == 0:
        return prev
    for _ in range(k - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _peval(p: list[Fraction], x: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _prem(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    num = list(num)
    while len(num) >= len(den):
        q = num[-1] / den[-1]
        shift = len(num) - len(den)
        for i, c in enumerate(den):
            num[i + shift] -= q * c
        num = _trim(num[:-1])
    return num


def _deflate(p: list[Fraction], root: int) -> list[Fraction]:
    """p(x) / (x - root) for an exact root, by synthetic division."""
    out = [Fraction(0)] * (len(p) - 1)
    carry = Fraction(0)
    for i in range(len(p) - 1, 0, -1):
        carry = p[i] + carry * root
        out[i - 1] = carry
    return out


def x_prime_zero_count(a: int, b: int, s: Fraction) -> int:
    """Number of distinct t in [0, 1) with x'(t) = 0, counted exactly.

    x'(t) is proportional to A sin(2 pi a t) + B sin(2 pi b t) with
    A = (1-s) a, B = (1+s) b, which equals sin(2 pi t) g(cos 2 pi t) for
    g = A U_{a-1} + B U_{b-1}.  sin(2 pi t) gives t = 0 and t = 1/2; each
    distinct root of g in (-1, 1) gives two more.  Those roots are counted
    by a Sturm sequence in rational arithmetic.
    """
    s = Fraction(s)
    A, B = (1 - s) * a, (1 + s) * b
    g = [Fraction(0)] * b
    for i, c in enumerate(_cheb_u(a - 1)):
        g[i] += A * c
    for i, c in enumerate(_cheb_u(b - 1)):
        g[i] += B * c
    g = _trim(g)
    for end in (1, -1):
        while len(g) > 1 and _peval(g, end) == 0:
            g = _deflate(g, end)
    if len(g) <= 1:
        return 2
    seq = [g, _trim([i * c for i, c in enumerate(g)][1:])]
    while len(seq[-1]) > 1:
        r = _prem(seq[-2], seq[-1])
        if not r:
            break
        seq.append([-c for c in r])

    def variations(x: int) -> int:
        signs = [v > 0 for v in (_peval(p, x) for p in seq) if v != 0]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    return 2 + 2 * (variations(-1) - variations(1))


# --- winding --------------------------------------------------------------


def winding_by_roots(a: int, b: int, s: float, z0: complex) -> tuple[int, float]:
    """Winding number of gamma about z0 by the argument principle.

    gamma(t) = P(e^{2 pi i t}) for P(z) = (1-s) z^a + (1+s) z^b, so the
    winding number about z0 is the number of roots of P - z0 in |z| < 1.
    Returns the count and the smallest distance of a root's modulus from 1,
    which says how well the count is conditioned.
    """
    coeffs = np.zeros(b + 1, dtype=complex)
    coeffs[0] = 1.0 + s
    coeffs[b - a] = 1.0 - s
    coeffs[b] = -z0
    roots = np.roots(coeffs)
    mod = np.abs(roots)
    return int(np.sum(mod < 1.0)), float(np.min(np.abs(mod - 1.0)))


def min_distance_to_curve(a: int, b: int, s: float, z0: complex, n: int = 8192) -> float:
    return float(np.min(np.abs(gamma_on_grid(a, b, s, n) - z0)))


# --- SVG ------------------------------------------------------------------

_POLYLINE = re.compile(r'<polyline points="([^"]*)"')
_DOT = re.compile(r'<circle class="udef-dot" cx="([^"]+)" cy="([^"]+)"')
_MARKER = re.compile(r'<circle class="cusp-marker" [^>]*data-s="([^"]+)" data-t="([^"]+)"')


def check_curve_svg(doc: str, curves: list[tuple[int, int, float]], samples: int, size: int = 800) -> None:
    """Each curve is one closed polyline of gamma(j/samples), mapped to
    pixels in a square window of half-extent 2.2 (grown to 1.1x the largest
    coordinate if that does not fit), within 1e-3 px."""
    lines = _POLYLINE.findall(doc)
    if len(lines) != len(curves):
        raise Mismatch(f"{len(lines)} polylines, expected {len(curves)}")
    zs = [gamma_on_grid(a, b, s, samples) for a, b, s in curves]
    top = max(float(np.max(np.maximum(np.abs(z.real), np.abs(z.imag)))) for z in zs)
    extent = 2.2 if top <= 2.2 else 1.1 * top
    for (a, b, s), z, text in zip(curves, zs, lines):
        got = np.array([p.split(",") for p in text.split()], dtype=float)
        z = np.append(z, z[0])
        want = np.column_stack(
            [(z.real + extent) / (2 * extent) * size, (extent - z.imag) / (2 * extent) * size]
        )
        if got.shape != want.shape:
            raise Mismatch(f"({a},{b},{s}): {len(got)} polyline points, expected {len(want)}")
        err = float(np.max(np.abs(got - want)))
        if err > 1e-3:
            raise Mismatch(f"({a},{b},{s}): polyline off by {err:.2e} px")


def check_diagram_svg(a: int, b: int, doc: str, s_grid: int = 201) -> None:
    """b-a cusp markers on the locus, and per weight s_i on the uniform grid
    over [-1, 1] as many dots as x' has zeros there."""
    s_bar, ts = cusp_locus(a, b)
    markers = sorted((float(ms), float(mt)) for ms, mt in _MARKER.findall(doc))
    if len(markers) != len(ts):
        raise Mismatch(f"({a},{b}): {len(markers)} cusp markers, expected {len(ts)}")
    for (ms, mt), t_ref in zip(markers, ts):
        if abs(ms - float(s_bar)) > 1e-6 or abs(mt - float(t_ref)) > 1e-6:
            raise Mismatch(f"({a},{b}): marker ({ms}, {mt}) is not at ({s_bar}, {t_ref})")
    # the diagram maps s in [-1, 1] to x = (s + 1.1) / 2.2 * 800
    per_column: dict[int, int] = {}
    for cx, _ in _DOT.findall(doc):
        i = round(((float(cx) / 800.0) * 2.2 - 1.1 + 1.0) * (s_grid - 1) / 2.0)
        per_column[i] = per_column.get(i, 0) + 1
    for i in range(s_grid):
        s = Fraction(-1) + Fraction(2 * i, s_grid - 1)
        want = x_prime_zero_count(a, b, s)
        if per_column.get(i, 0) != want:
            raise Mismatch(
                f"({a},{b}): {per_column.get(i, 0)} dots at s={s}, x' has {want} zeros"
            )
    if set(per_column) - set(range(s_grid)):
        raise Mismatch(f"({a},{b}): dots outside the weight grid")
