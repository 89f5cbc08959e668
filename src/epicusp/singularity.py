"""Singular points of the two-term family: location and certification.

Write z = exp(2*pi*i*t).  The k-th derivative of gamma_{a,b}^s is
(2*pi*i)^k * ((1-s)*a^k*z^a + (1+s)*b^k*z^b), so gamma'(t) = 0 forces
|(1-s)*a| = |(1+s)*b| and z^(b-a) = -1: for every a, the singular points
are exactly s = (a-b)/(a+b), t = h/(2(b-a)) with h odd.  There
gamma'' = (2*pi*i)^2 * (1-s)*a*z^a*(a-b) is nonzero and
gamma''' = 2*pi*i*(a+b) * gamma'', so gamma'' and gamma''' are
perpendicular and each singular point is an ordinary (semicubical) cusp
(Bruce & Giblin, Curves and Singularities, 1992).  find_cusps lists this
locus and certifies each point independently: the one-sided unit tangents
must flip direction across it, their dot product extrapolating to -1 as
the offset shrinks.  The module also carries the rotation construction
that places a chosen cusp on the vertical axis, the closed-form parametric
derivative in that rotated frame, and the loop-birth count that detects
the small loop a cusp unfolds into.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .curve import (
    AnySpec,
    PlanePoint,
    TwoTermSpec,
    _integer,
    derivative_scale,
    eval_complex,
)
from .errors import NotSingular, Unresolved, WindowTooWide

# |gamma'| below this fraction of its natural scale counts as vanishing
SINGULAR_RTOL = 1e-7
CUSP_FLIP_TOL = 1e-6


class PointKind(enum.Enum):
    REGULAR = "Regular"
    VERTICAL_TANGENT = "VerticalTangent"
    HORIZONTAL_TANGENT = "HorizontalTangent"
    SINGULAR = "Singular"


@dataclass(frozen=True)
class CuspCertificate:
    """Evidence that the curve has a cusp at parameter t.

    The one-sided unit tangents are limits from below and above t; at a
    cusp they point in opposite directions, so their dot product is -1.
    ``proven`` records whether the curve lies in the case a = 1 that the
    paper proves; the derivation in the module docstring covers every a.
    """

    s: float
    t: float
    tangent_left: PlanePoint
    tangent_right: PlanePoint
    flip_dot: float
    proven: bool = False


@dataclass(frozen=True)
class CuspLocus:
    """Predicted cusp parameters of the family for fixed (a, b)."""

    s_bar: Fraction
    t_values: tuple[Fraction, ...]
    proven: bool


def classify_point(spec: AnySpec, t: float) -> PointKind:
    """Classify t as regular, vertical/horizontal tangent, or singular."""
    d = complex(eval_complex(spec, float(t), order=1))
    tol = SINGULAR_RTOL * derivative_scale(spec)
    small_x, small_y = abs(d.real) <= tol, abs(d.imag) <= tol
    if small_x and small_y:
        return PointKind.SINGULAR
    if small_x:
        return PointKind.VERTICAL_TANGENT
    if small_y:
        return PointKind.HORIZONTAL_TANGENT
    return PointKind.REGULAR


def _unit_tangent(spec: AnySpec, t: float) -> complex:
    d = complex(eval_complex(spec, t, order=1))
    return d / abs(d)


def certify_cusp(spec: AnySpec, t: float, delta: float = 1e-3) -> Optional[CuspCertificate]:
    """Certify a singular point as a cusp via the unit-tangent flip.

    One-sided unit tangents are evaluated at t +- delta/4^k for four
    shrinking levels.  At a genuine cusp the left/right tangent dot
    product behaves like -cos(c*delta), so Richardson extrapolation of
    consecutive levels must land at -1; at a smooth-but-nearly-singular
    point it tends to +1 instead.  Returns None when certification fails
    (for example at a higher-order singularity).

    Parameters
    ----------
    spec : CurveSpec or TwoTermSpec
    t : float
        Parameter of the candidate point; must classify as Singular.
    delta : float
        Largest one-sided offset, in (0, 1e-3].

    Raises
    ------
    NotSingular
        If the point does not classify as Singular.
    """
    if not 0.0 < delta <= 1e-3:
        raise ValueError("delta must lie in (0, 1e-3]")
    if classify_point(spec, t) is not PointKind.SINGULAR:
        raise NotSingular(f"no singular point at t={t}")

    offsets = [delta / 4**k for k in range(4)]
    left = [_unit_tangent(spec, t - d) for d in offsets]
    right = [_unit_tangent(spec, t + d) for d in offsets]
    flips = [(l.conjugate() * r).real for l, r in zip(left, right)]

    # flip_dot(delta) = -1 + O(delta^2): the fourth-order extrapolant of
    # each consecutive level pair removes that error to O(delta^4)
    for coarse, fine in zip(flips, flips[1:]):
        if (16.0 * fine - coarse) / 15.0 > -1.0 + CUSP_FLIP_TOL:
            return None

    # the one-sided tangent angles drift linearly in delta, so a linear
    # Richardson step on the two smallest offsets cancels the drift
    tl = 4.0 * left[3] - left[2]
    tr = 4.0 * right[3] - right[2]
    tl, tr = tl / abs(tl), tr / abs(tr)
    a_freq = getattr(spec, "a", None)
    return CuspCertificate(
        s=float(getattr(spec, "s", math.nan)),
        t=float(t),
        tangent_left=PlanePoint.from_complex(tl),
        tangent_right=PlanePoint.from_complex(tr),
        flip_dot=(tl.conjugate() * tr).real,
        proven=(a_freq == 1),
    )


def predicted_cusp_locus(a: int, b: int) -> CuspLocus:
    """Cusp parameters: s = (a-b)/(a+b), t = h/(2(b-a)), h odd.

    These are all the singular points of the family, each an ordinary
    cusp, for every a (see the module docstring).  The proven flag records
    whether a = 1, the case the paper proves.
    """
    a, b = _integer(a, "frequency a"), _integer(b, "frequency b")
    if not 1 <= a < b:
        raise ValueError("need 1 <= a < b")
    d = 2 * (b - a)
    return CuspLocus(
        s_bar=Fraction(a - b, a + b),
        t_values=tuple(Fraction(h, d) for h in range(1, d, 2)),
        proven=(a == 1),
    )


def find_cusps(a: int, b: int) -> list[CuspCertificate]:
    """Certify every cusp of the family over s in (-1, 1).

    The singular points are exactly the points of predicted_cusp_locus;
    each is certified by certify_cusp at the float nearest its exact
    (s, t).  Certificates come back sorted by t, b - a of them.

    Raises
    ------
    Unresolved
        If a locus point fails certification.
    """
    locus = predicted_cusp_locus(a, b)
    spec = TwoTermSpec(a, b, float(locus.s_bar))
    delta = min(1e-3, 0.01 / (a + b))
    certs = []
    for t in locus.t_values:
        cert = certify_cusp(spec, float(t), delta=delta)
        if cert is None:
            raise Unresolved(f"({a},{b}): no tangent flip at t = {t}")
        certs.append(cert)
    return certs


def _circ_dist(x: float, y: float) -> float:
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


def rotation_angle(a: int, b: int) -> float:
    """Angle pi*(1/2 - 1/(b-a)) placing the first cusp on the vertical axis."""
    if not 1 <= a < b:
        raise ValueError("need 1 <= a < b")
    return math.pi * (0.5 - 1.0 / (b - a))


def rotated_param_deriv(a: int, b: int, t: float) -> float | None:
    """Closed-form slope of the rotated curve at the cusp weight s = (a-b)/(a+b).

    Equals -tan(pi*(1/(b-a) - (a+b)*t)); returns None at the tangent
    poles, where the rotated curve has a vertical tangent or cusp.
    """
    if not 1 <= a < b:
        raise ValueError("need 1 <= a < b")
    u = 1.0 / (b - a) - (a + b) * float(t)
    # pole whenever the tangent argument hits pi/2 mod pi
    frac = u - 0.5
    if abs(frac - round(frac)) < 1e-9:
        return None
    return -math.tan(math.pi * u)


def loop_birth_count(
    a: int,
    b: int,
    s: float,
    t_center: float | None = None,
    half_width: float | None = None,
) -> int:
    """Sign changes of the rotated x-component near one predicted cusp.

    The window [t_center - half_width, t_center + half_width] is examined
    on a 1001-point grid after rotating the curve so the predicted cusp
    inside the window sits on the vertical axis.  One sign change means
    the curve crosses the axis once (no loop); three mean a small loop
    has been born.  Exact zeros on the grid are skipped so the count is
    stable at the transition weight itself.

    Raises
    ------
    WindowTooWide
        If two or more predicted cusp parameters fall inside the window.
    """
    if not 1 <= a < b:
        raise ValueError("need 1 <= a < b")
    if t_center is None:
        t_center = 1.0 / (2 * (b - a))
    if half_width is None:
        half_width = 0.75 / (2 * (b - a) * (a + b))

    predicted = [(2 * k + 1) / (2 * (b - a)) for k in range(b - a)]
    inside = [tk for tk in predicted if _circ_dist(tk, t_center) <= half_width]
    if len(inside) >= 2:
        raise WindowTooWide(f"{len(inside)} predicted cusps in the window")

    # rotate so the nearest predicted cusp lands on the vertical axis;
    # cusp k is the rotation of cusp 0 by 2*pi*a*k/(b-a)
    k = min(range(b - a), key=lambda i: _circ_dist(predicted[i], t_center))
    phi = rotation_angle(a, b) - 2.0 * math.pi * a * k / (b - a)

    t = np.linspace(t_center - half_width, t_center + half_width, 1001)
    x = (eval_complex(TwoTermSpec(a, b, s), t) * np.exp(1j * phi)).real
    signs = np.sign(x)
    signs = signs[signs != 0.0]
    return int(np.sum(signs[:-1] != signs[1:]))


def undefined_derivative_set(a: int, b: int, s: float) -> list[float]:
    """Parameters in [0, 1) where the parametric derivative is undefined.

    For (a, b) = (1, 3) the set is known in closed form: t = 0 and 1/2
    always, plus the four solutions of 4*pi*t = +-arccos((-2-s)/(3(1+s)))
    mod pi once s >= -1/2 (they coincide in pairs exactly at s = -1/2).
    Other frequency pairs take the zeros of x'(t): sign changes on the grid
    t = j/(256(a+b)) bracket them, and each bracket is bisected down to
    adjacent floats.  This is undefined_derivative_sets for one weight.
    """
    return undefined_derivative_sets(a, b, [s])[0]


def undefined_derivative_sets(a: int, b: int, weights) -> list[list[float]]:
    """undefined_derivative_set(a, b, s) for every s in weights, in order.

    The weights share one t grid and one bisection of all their brackets,
    so many weights cost little more than one; each list holds the same
    floats as a call for its weight alone.
    """
    if not 1 <= a < b:
        raise ValueError("need 1 <= a < b")
    weights = list(weights)
    for s in weights:
        if not -1.0 <= s <= 1.0:
            raise ValueError("s must lie in [-1, 1]")
    if (a, b) == (1, 3):
        return [_one_three_set(s) for s in weights]
    return _x_prime_zeros([TwoTermSpec(a, b, s) for s in weights])


def _one_three_set(s: float) -> list[float]:
    values = [0.0, 0.5]
    if s >= -0.5:
        tbar = math.acos((-2.0 - s) / (3.0 * (1.0 + s))) / (4.0 * math.pi)
        for v in (tbar, 0.5 - tbar, 0.5 + tbar, 1.0 - tbar):
            v %= 1.0
            if all(abs(v - w) > 1e-12 for w in values):
                values.append(v)
    return sorted(values)


def _sin_turns(f: int, t: np.ndarray) -> np.ndarray:
    """sin(2*pi*f*t) with the phase reduction of eval_complex."""
    u = f * t
    return np.sin(2.0 * np.pi * (u - np.floor(u)))


def _bisect_brackets(f, lo: np.ndarray, hi: np.ndarray, v_lo: np.ndarray) -> np.ndarray:
    """One root of f in each sign-change bracket [lo, hi], all halved at once.

    v_lo holds f(lo).  f maps an array of points, one per bracket, to its
    values there.  Every bracket is halved until its ends are adjacent
    floats; of the two, the end with the smaller |f| is returned, so that a
    root which is itself a float, such as t = 1/2, comes out exactly.
    """
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            break
        v_mid = f(mid)
        up = live & (np.sign(v_mid) == np.sign(v_lo))
        lo, v_lo = np.where(up, mid, lo), np.where(up, v_mid, v_lo)
        hi = np.where(live & ~up, mid, hi)
    return np.where(np.abs(f(lo)) <= np.abs(f(hi)), lo, hi)


def _x_prime_coefficients(spec: TwoTermSpec) -> tuple[float, float]:
    """(c_a, c_b) with x'(t) = -c_a*sin(2*pi*a*t) - c_b*sin(2*pi*b*t).

    c_f is the imaginary part of the order-1 coefficient w_f*(2*pi*i*f),
    formed as eval_complex forms it; with a real weight its real part is a
    signed zero.
    """
    ca, cb = ((term.weight * (2j * np.pi * term.frequency)).imag for term in spec.lower().terms)
    return ca, cb


def _x_prime(ca, cb, sin_a: np.ndarray, sin_b: np.ndarray) -> np.ndarray:
    """x'(t) from its coefficients and the sines at t.

    These are the roundings eval_complex(spec, t, order=1).real makes for
    real weights (each term's real part is -c_f*sin rounded once), so the
    bits are the same.
    """
    return 0.0 - ca * sin_a - cb * sin_b


def _x_prime_zeros(specs: list[TwoTermSpec]) -> list[list[float]]:
    """Zeros of x'(t) on [0, 1), one sorted list per spec of one (a, b).

    The grid is scanned one spec at a time with shared sines, and the
    sign-change brackets of all specs are halved together until their ends
    are adjacent floats.
    """
    if not specs:
        return []
    a, b = specs[0].a, specs[0].b
    n = 256 * (a + b)
    t = np.arange(n + 1) / n
    sin_a, sin_b = _sin_turns(a, t), _sin_turns(b, t)
    coef = np.array([_x_prime_coefficients(spec) for spec in specs])
    grid_zeros, brackets, v_brackets = [], [], []
    for ca, cb in coef:
        v = _x_prime(ca, cb, sin_a, sin_b)
        grid_zeros.append(t[:-1][v[:-1] == 0.0].tolist())
        bracket = np.nonzero(v[:-1] * v[1:] < 0.0)[0]
        brackets.append(bracket)
        v_brackets.append(v[bracket])
    counts = [len(k) for k in brackets]
    bracket = np.concatenate(brackets)
    # each bracket carries the coefficients of its own spec
    owner = np.repeat(np.arange(len(specs)), counts)
    ca, cb = coef[owner, 0], coef[owner, 1]

    def xp(u):
        return _x_prime(ca, cb, _sin_turns(a, u), _sin_turns(b, u))

    ends = _bisect_brackets(xp, t[bracket], t[bracket + 1], np.concatenate(v_brackets)).tolist()
    out_sets = []
    start = 0
    for zeros, count in zip(grid_zeros, counts):
        roots = sorted(zeros + ends[start : start + count])
        start += count
        out: list[float] = []
        for r in roots:
            r %= 1.0
            # the roots are sorted and only a final 1.0 wraps to 0.0, so
            # the nearest kept root is the last one or, across t = 0, the first
            if not out or (_circ_dist(r, out[-1]) > 1e-9 and _circ_dist(r, out[0]) > 1e-9):
                out.append(r)
        out_sets.append(sorted(out))
    return out_sets
