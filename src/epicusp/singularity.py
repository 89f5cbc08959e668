"""Singular points of the two-term family: location and certification.

Write z = exp(2*pi*i*t).  The k-th derivative of gamma_{a,b}^s is
(2*pi*i)^k * ((1-s)*a^k*z^a + (1+s)*b^k*z^b), so gamma'(t) = 0 forces
|(1-s)*a| = |(1+s)*b| and z^(b-a) = -1: for every a, the singular points
are exactly s = (a-b)/(a+b), t = h/(2(b-a)) with h odd.  There
gamma'' = (2*pi*i)^2 * (1-s)*a*z^a*(a-b) is nonzero and
gamma''' = 2*pi*i*(a+b) * gamma'', so gamma'' and gamma''' are
perpendicular and each singular point is an ordinary (semicubical) cusp
(Bruce & Giblin, Curves and Singularities, 1992).  find_cusps lists this
locus and certifies each point independently, all of them in one array
pass: the one-sided unit tangents must flip direction across it, their
dot product extrapolating to -1 as the offset shrinks.  The module also
carries the rotation construction that places a chosen cusp on the
vertical axis, the closed-form parametric derivative in that rotated
frame, and the loop-birth count that detects the small loop a cusp
unfolds into.

The zeros of x'(t) and the self-intersections (geometry.py) are both the
roots u in (0, 1/2) of w_a*sin(2*pi*a*u) + w_b*sin(2*pi*b*u), i.e. level
sets of R(u) = sin(2*pi*b*u) / sin(2*pi*a*u); one kernel, _level_roots,
finds them between the breakpoints of R that _monotone_pieces lists.
"""

from __future__ import annotations

import enum
import functools
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
    find_cusps builds the certificates of all of a pair's cusps in one
    array pass; certify_cusp builds one.
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


def certify_cusp(spec: AnySpec, t: float, delta: float = 1e-3) -> Optional[CuspCertificate]:
    """Certify a singular point as a cusp via the unit-tangent flip.

    One-sided unit tangents are evaluated at t +- delta/4^k for four
    shrinking levels, in the one array pass of _certify_cusps.  At a
    genuine cusp the left/right tangent dot product behaves like
    -cos(c*delta), so Richardson extrapolation of consecutive levels must
    land at -1; at a smooth-but-nearly-singular point it tends to +1
    instead.  Returns None when certification fails (for example at a
    higher-order singularity).

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
    return _certify_cusps(spec, [float(t)], delta)[0]


def _certify_cusps(spec: AnySpec, ts, delta: float) -> list[Optional[CuspCertificate]]:
    """certify_cusp at every t in ts, from one evaluation of gamma'.

    gamma' is evaluated once on an array of shape (len(ts), 9): each t,
    then t - delta/4^k and t + delta/4^k for k = 0..3.  Classification,
    unit tangents, flips and final tangents are array operations on it,
    written in real arithmetic so that every certificate has the bits of
    the point-by-point computation: |d| is hypot(x, y), x and y are divided
    separately, and the dot product of two tangents is lx*rx + ly*ry.

    Returns one entry per t: its certificate, or None where the tangents
    do not flip or a one-sided speed is 0.  The first t that is not
    certified decides as it would one point at a time: if it is not
    Singular, NotSingular is raised.
    """
    ts = np.asarray(ts, dtype=float)
    offsets = [delta / 4**k for k in range(4)]
    # t + (-o) is exactly t - o
    steps = np.array([0.0] + [-o for o in offsets] + offsets)
    d = eval_complex(spec, ts[:, None] + steps, order=1)
    tol = SINGULAR_RTOL * derivative_scale(spec)
    singular = (np.abs(d.real[:, 0]) <= tol) & (np.abs(d.imag[:, 0]) <= tol)

    # columns 0..3 are the left tangents, 4..7 the right ones
    ux, uy = _unit(d.real[:, 1:], d.imag[:, 1:])
    flips = ux[:, :4] * ux[:, 4:] + uy[:, :4] * uy[:, 4:]
    # flip_dot(delta) = -1 + O(delta^2): the fourth-order extrapolant of
    # each consecutive level pair removes that error to O(delta^4); a NaN
    # does not fail this test
    fails = ((16.0 * flips[:, 1:] - flips[:, :-1]) / 15.0 > -1.0 + CUSP_FLIP_TOL).any(axis=1)
    certified = singular & ~fails & (d[:, 1:] != 0.0).all(axis=1)
    if not certified.all():
        first = int(np.argmin(certified))
        if not singular[first]:
            raise NotSingular(f"no singular point at t={ts.tolist()[first]}")

    # the one-sided tangent angles drift linearly in delta, so a linear
    # Richardson step on the two smallest offsets cancels the drift;
    # column 0 is the left tangent, column 1 the right one
    tx, ty = _unit(4.0 * ux[:, 3::4] - ux[:, 2::4], 4.0 * uy[:, 3::4] - uy[:, 2::4])
    flip_dot = tx[:, 0] * tx[:, 1] + ty[:, 0] * ty[:, 1]

    s = float(getattr(spec, "s", math.nan))
    proven = getattr(spec, "a", None) == 1
    rows = zip(certified.tolist(), ts.tolist(), tx.tolist(), ty.tolist(), flip_dot.tolist())
    return [
        CuspCertificate(s, t, PlanePoint(x[0], y[0]), PlanePoint(x[1], y[1]), dot, proven)
        if ok
        else None
        for ok, t, x, y, dot in rows
    ]


def _unit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) / hypot(x, y), each part divided separately; (0, 0) gives NaN."""
    r = np.hypot(x, y)
    with np.errstate(invalid="ignore", divide="ignore"):
        return x / r, y / r


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

    The singular points are exactly the points of predicted_cusp_locus.
    All of them are certified in one array pass, the test of certify_cusp
    at the float nearest each exact (s, t), with the same bits as one
    point at a time.  Certificates come back sorted by t, b - a of them.

    Raises
    ------
    Unresolved
        If a locus point fails certification.
    """
    locus = predicted_cusp_locus(a, b)
    spec = TwoTermSpec(a, b, float(locus.s_bar))
    delta = min(1e-3, 0.01 / (a + b))
    certs = _certify_cusps(spec, [float(t) for t in locus.t_values], delta)
    for t, cert in zip(locus.t_values, certs):
        if cert is None:
            raise Unresolved(f"({a},{b}): no tangent flip at t = {t}")
    return certs


def _circ_dist(x: float, y: float) -> float:
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


def rotation_angle(a: int, b: int) -> float:
    """Angle pi*(1/2 - a/(b-a)) placing the first cusp on the vertical axis.

    Cusp 0, at t = 1/(2(b-a)), lies at the angle pi*a/(b-a), so this
    rotation takes it to pi/2 for every a.
    """
    if not 1 <= a < b:
        raise ValueError("need 1 <= a < b")
    return math.pi * (0.5 - a / (b - a))


def rotated_param_deriv(a: int, b: int, t: float) -> float | None:
    """Closed-form slope of the rotated curve at the cusp weight s = (a-b)/(a+b).

    The curve is rotated by rotation_angle(a, b).  There gamma' is a real
    multiple of i*exp(i*pi*(a+b)*t), so the slope equals
    -tan(pi*(a/(b-a) - (a+b)*t)); returns None at the tangent poles,
    where the rotated curve has a vertical tangent or cusp.
    """
    if not 1 <= a < b:
        raise ValueError("need 1 <= a < b")
    u = a / (b - a) - (a + b) * float(t)
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
    inside the window sits on the vertical axis: cusp k is cusp 0 turned
    by 2*pi*a*k/(b-a), so the rotation is rotation_angle(a, b) less that,
    for every a.  One sign change means the curve crosses the axis once
    (no loop); three mean a small loop has been born.  Exact zeros on the
    grid are skipped so the count is stable at the transition weight
    itself.

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

    These are the zeros of x'(t), a multiple of (1-s)*a*sin(2*pi*a*t) +
    (1+s)*b*sin(2*pi*b*t): t = 0, 1/2 and u, 1 - u for each root u that
    _level_roots finds, two zeros that meet counting as one.
    """
    return undefined_derivative_sets(a, b, [s])[0]


def undefined_derivative_sets(a: int, b: int, weights) -> list[list[float]]:
    """undefined_derivative_set(a, b, s) for every s in weights, in order.

    The weights share one bisection.  With g = gcd(a, b), x' is the x' of
    (a/g, b/g) at g*t, so the zeros of that pair are divided by g and
    repeated with period 1/g.
    """
    a, b = _integer(a, "frequency a"), _integer(b, "frequency b")
    if not 1 <= a < b:
        raise ValueError("need 1 <= a < b")
    s = np.array(list(weights), dtype=float)
    if not np.all((-1.0 <= s) & (s <= 1.0)):
        raise ValueError("s must lie in [-1, 1]")
    g = math.gcd(a, b)
    a, b = a // g, b // g
    sets = []
    for u in _level_roots(a, b, a, b, s):
        t = np.concatenate(([0.0], u, [0.5], 1.0 - u[::-1]))
        sets.append(((t + np.arange(g)[:, None]) / g).ravel().tolist())
    return sets


def _sin_turns(f, t: np.ndarray) -> np.ndarray:
    """sin(2*pi*f*t) with the phase reduction of eval_complex; f may be a column."""
    u = f * t
    return np.sin(2.0 * np.pi * (u - np.floor(u)))


def _bisect_brackets(f, lo: np.ndarray, hi: np.ndarray, v_lo: np.ndarray) -> np.ndarray:
    """One root of f in each sign-change bracket [lo, hi], all halved at once.

    v_lo holds f(lo) or its sign.  f maps an array of points, one per
    bracket, to its values there.  Every bracket is halved until its ends
    are adjacent floats; of the two, the end with the smaller |f| is
    returned, so that a root which is itself a float comes out exactly.
    lo only moves to a midpoint of its own sign, so that sign is taken once.
    """
    sign_lo = np.sign(v_lo)
    while True:
        mid = 0.5 * (lo + hi)
        # a bracket of adjacent floats is done and must stay put: its mid is
        # an end, and at lo = 0, where f may be 0 while sign_lo is the
        # sign next to it, moving hi to that mid would collapse the bracket
        live = (lo < mid) & (mid < hi)
        if not live.any():
            break
        up = live & (np.sign(f(mid)) == sign_lo)
        lo = np.where(up, mid, lo)
        hi = np.where(live & ~up, mid, hi)
    return np.where(np.abs(f(lo)) <= np.abs(f(hi)), lo, hi)


@functools.lru_cache(maxsize=64)
def _monotone_pieces(a: int, b: int) -> np.ndarray:
    """0, the poles k/(2a), the zeros of R' and 1/2, sorted, for coprime a < b.

    Between them R(u) = sin(2*pi*b*u) / sin(2*pi*a*u) is monotone.  R' is a
    positive multiple of W(u) = (b-a) sin(2 pi (a+b) u) - (a+b) sin(2 pi (b-a) u)
    off the poles, where W is not 0.  The sign changes of W on
    u = j/(256(a+b)) are bisected; for b <= 200 the breakpoints lie at least
    31 such cells apart.  The read-only array does not depend on s.
    """
    n = 256 * (a + b)
    u = np.arange(1, n // 2) / n

    def w(x):
        return (b - a) * _sin_turns(a + b, x) - (a + b) * _sin_turns(b - a, x)

    v = w(u)
    # an exact zero of W on the scan is bracketed by its neighbours
    u, v = u[v != 0.0], v[v != 0.0]
    k = np.nonzero(np.sign(v[:-1]) != np.sign(v[1:]))[0]
    critical = _bisect_brackets(w, u[k], u[k + 1], v[k])
    poles = np.arange(1, a) / (2 * a)
    pieces = np.sort(np.concatenate(([0.0], poles, critical, [0.5])))
    pieces.flags.writeable = False
    return pieces


def _level_roots(a: int, b: int, ca, cb, s) -> list[np.ndarray]:
    """Sorted roots u in (0, 1/2) of h = wa*sin(2*pi*a*u) + wb*sin(2*pi*b*u), per s.

    wa = ca*(1-s) and wb = cb*(1+s), with ca and cb scalars or columns
    against the weights s, one row each; a < b are coprime.  Between two
    breakpoints of _monotone_pieces h = sin(2*pi*a*u) * (wa + wb*R) has a
    root exactly when it changes sign, and then one; all are bisected at
    once.  At u = 0 and 1/2 the sign is that of g = h / sin(2*pi*u):
    g(0) = wa*a + wb*b, g(1/2) = (-1)^(a-1)*wa*a + (-1)^(b-1)*wb*b.

    Coalescing roots: a breakpoint value within 16*eps*(|ca|*a + |cb|*b)
    counts as 0, a bound on what rounding s to a float and evaluating h
    move it by.  So a level -wa/wb that meets a critical value of R gives
    one double root at the breakpoint, listed once; a 0 at u = 0 or 1/2
    (the cusp weight) is no root, and a 0 never makes a sign change.
    """
    pieces = _monotone_pieces(a, b)
    s = np.asarray(s, dtype=float)[:, None]
    wa, wb = ca * (1.0 - s), cb * (1.0 + s)
    v = wa * _sin_turns(a, pieces) + wb * _sin_turns(b, pieces)
    v[:, :1] = wa * a + wb * b
    v[:, -1:] = (-1) ** (a - 1) * wa * a + (-1) ** (b - 1) * wb * b
    v[np.abs(v) <= 16.0 * np.finfo(float).eps * (np.abs(ca) * a + np.abs(cb) * b)] = 0.0
    sign = np.sign(v)
    row_double, at = np.nonzero(sign[:, 1:-1] == 0.0)
    row, k = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0.0)
    wa_k, wb_k = wa[row, 0], wb[row, 0]

    freqs = np.array([[a], [b]])

    def h(x):
        sa, sb = _sin_turns(freqs, x)
        return wa_k * sa + wb_k * sb

    simple = _bisect_brackets(h, pieces[k], pieces[k + 1], sign[row, k])
    rows = np.concatenate([row_double, row])
    roots = np.concatenate([pieces[at + 1], simple])
    order = np.lexsort((roots, rows))
    counts = np.bincount(rows, minlength=len(s))
    return np.split(roots[order], np.cumsum(counts))[:-1]
