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
dot product extrapolating to -1 as the offset shrinks.  certify_cusp
makes the same singular and flip tests at one point of any curve; points
and tangents elsewhere come from curve.eval_complex.  The module also
carries the closed-form parametric derivative in the frame that puts
cusp 0 on the vertical axis, the loop-birth count that detects the small
loop a cusp unfolds into, and the zeros of x'.

The zeros of x'(t) and the self-intersections (geometry.py) are both the
roots u in (0, 1/2) of w_a*sin(2*pi*a*u) + w_b*sin(2*pi*b*u), i.e. level
sets of R(u) = sin(2*pi*b*u) / sin(2*pi*a*u); one kernel, _level_root_rows,
finds them between the breakpoints of R that _monotone_pieces lists.  It
narrows every bracket with a fixed number of safeguarded Newton steps and
bisects what is left down to adjacent floats.  Each root it returns is an
exact zero of the computed sum, a breakpoint double root, or an end of two
adjacent floats across which the computed sum changes sign; where that sum
changes sign once near a root, the root has the bits of plain bisection.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .curve import derivative_scale, eval_complex
from .errors import NotSingular, Unresolved
# the cusp locus is defined in spec and re-exported here
from .spec import CuspLocus, PlanePoint, TwoTermSpec, _check_pair, predicted_cusp_locus

# |gamma'| below this fraction of its natural scale counts as vanishing
SINGULAR_RTOL = 1e-7
CUSP_FLIP_TOL = 1e-6
# _newton_narrow: Newton steps per bracket, then the probe's half-width in ulps
_NEWTON_STEPS = 8
_PROBE_ULPS = 16


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


def certify_cusp(spec: TwoTermSpec, t: float, delta: float = 1e-3) -> Optional[CuspCertificate]:
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
    spec : TwoTermSpec
    t : float
        Parameter of the candidate point, where gamma' must vanish.
    delta : float
        Largest one-sided offset, in (0, 1e-3].

    Raises
    ------
    NotSingular
        If |x'(t)| or |y'(t)| exceeds SINGULAR_RTOL times the curve's
        derivative scale.
    """
    if not 0.0 < delta <= 1e-3:
        raise ValueError("delta must lie in (0, 1e-3]")
    return _certify_cusps(spec, [float(t)], delta)[0]


def _certify_cusps(spec: TwoTermSpec, ts, delta: float) -> list[Optional[CuspCertificate]]:
    """certify_cusp at every t in ts, from one evaluation of gamma'.

    gamma' is evaluated once on an array of shape (len(ts), 9): each t,
    then t - delta/4^k and t + delta/4^k for k = 0..3.  The singular test,
    unit tangents, flips and final tangents are array operations on it,
    written in real arithmetic so that every certificate has the bits of
    the point-by-point computation: |d| is hypot(x, y), x and y are divided
    separately, and the dot product of two tangents is lx*rx + ly*ry.

    Returns one entry per t: its certificate, or None where the tangents
    do not flip or a one-sided speed is 0.  The first t that is not
    certified decides as it would one point at a time: if it is not
    singular, NotSingular is raised.
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

    proven = spec.a == 1
    rows = zip(certified.tolist(), ts.tolist(), tx.tolist(), ty.tolist(), flip_dot.tolist())
    return [
        CuspCertificate(spec.s, t, PlanePoint(x[0], y[0]), PlanePoint(x[1], y[1]), dot, proven)
        if ok
        else None
        for ok, t, x, y, dot in rows
    ]


def _unit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) / hypot(x, y), each part divided separately; (0, 0) gives NaN."""
    r = np.hypot(x, y)
    with np.errstate(invalid="ignore", divide="ignore"):
        return x / r, y / r


def find_cusps(a: int, b: int) -> list[CuspCertificate]:
    """Certify every cusp of the family over s in (-1, 1).

    The singular points are exactly the points of predicted_cusp_locus.
    All of them are certified in one array pass, the test of certify_cusp
    at the float nearest each exact (s, t), with the same bits as one
    point at a time.  Certificates come back sorted by t, b - a of them.
    Those floats are (a-b)/(a+b) and h/d: true division of integers is
    correctly rounded, so they are float(Fraction) of the locus.

    Raises
    ------
    Unresolved
        If a locus point fails certification.
    """
    a, b = _check_pair(a, b)
    d = 2 * (b - a)
    spec = TwoTermSpec(a, b, (a - b) / (a + b))
    delta = min(1e-3, 0.01 / (a + b))
    certs = _certify_cusps(spec, np.arange(1, d, 2) / d, delta)
    for h, cert in zip(range(1, d, 2), certs):
        if cert is None:
            raise Unresolved(f"({a},{b}): no tangent flip at t = {Fraction(h, d)}")
    return certs


def rotated_param_deriv(a: int, b: int, t: float) -> float | None:
    """Closed-form slope of the rotated curve at the cusp weight s = (a-b)/(a+b).

    The curve is turned by pi*(1/2 - a/(b-a)), which takes cusp 0, at
    t = 1/(2(b-a)) and the angle pi*a/(b-a), to the vertical axis.  There
    gamma' is a real multiple of i*exp(i*pi*(a+b)*t), so the slope equals
    -tan(pi*(a/(b-a) - (a+b)*t)); returns None at the tangent poles,
    where the rotated curve has a vertical tangent or cusp.
    """
    a, b = _check_pair(a, b)
    u = a / (b - a) - (a + b) * float(t)
    # pole whenever the tangent argument hits pi/2 mod pi
    frac = u - 0.5
    if abs(frac - round(frac)) < 1e-9:
        return None
    return -math.tan(math.pi * u)


def loop_birth_count(a: int, b: int, s: float, half_width: float | None = None) -> int:
    """Axis crossings of the rotated x-component near cusp 0.

    Turned as in rotated_param_deriv, cusp 0 at t = 1/(2(b-a)) sits on the
    vertical axis, and at t = 1/(2(b-a)) + v the rotated x-component is
    -/+[(1-s) sin(2 pi a v) - (1+s) sin(2 pi b v)], the numerator of g_- at
    u = v (geometry.py).  Its zeros v in [0, 1) are the listing of
    _zero_rows with the coefficients (1, -1), and the count is the number
    of them within half_width of v = 0, mod 1.  The zeros are 0 and pairs
    v, 1 - v, so that is 1 + 2 * #{v in (0, half_width]}; counting each v
    with its mirror keeps the rounding of 1 - v from splitting a pair.  One
    means the curve crosses the axis once (no loop); three mean a loop has
    been born, however small.  A double root of g_-, where two crossings
    meet, counts as both.  Cusp k is cusp 0 turned by 2*pi*a*k/(b-a), so
    every cusp has this count.

    half_width defaults to 0.75 / (2(b-a)(a+b)).

    Raises
    ------
    ValueError
        If s is outside [-1, 1], or half_width is not a number in
        (0, 1/(2(b-a))): a wider window reaches the midpoint to the next
        cusp.
    """
    a, b = _check_pair(a, b)
    if half_width is None:
        half_width = 0.75 / (2 * (b - a) * (a + b))
    if not 0.0 < half_width < 1.0 / (2 * (b - a)):
        raise ValueError(f"half_width must lie in (0, 1/{2 * (b - a)})")
    v, _ = _zero_rows(a, b, [s], 1.0, -1.0)
    return 1 + 2 * int(np.count_nonzero((0.0 < v) & (v <= half_width)))


def undefined_derivative_sets(a: int, b: int, weights) -> list[list[float]]:
    """Parameters in [0, 1) where the parametric derivative is undefined,
    one list for every s in weights, in order.

    These are the zeros of x'(t), a multiple of (1-s)*a*sin(2*pi*a*t) +
    (1+s)*b*sin(2*pi*b*t): t = 0, 1/2 and u, 1 - u for each root u that
    _level_root_rows finds, two zeros that meet counting as one.  The
    weights share one bisection.  With g = gcd(a, b), x' is the x' of
    (a/g, b/g) at g*t, so the zeros of that pair are divided by g and
    repeated with period 1/g.
    """
    t, sizes = _zero_rows(a, b, weights)
    flat, ends = t.tolist(), np.cumsum(sizes).tolist()
    return [flat[i:j] for i, j in zip([0] + ends, ends)]


def _zero_rows(a: int, b: int, weights, ca=None, cb=None) -> tuple[np.ndarray, np.ndarray]:
    """The zeros t in [0, 1) of h = ca*(1-s)*sin(2*pi*a*t) + cb*(1+s)*sin(2*pi*b*t)
    for every s in weights, as one flat array and the length of each row.

    With g = gcd(a, b), h is the sum of the reduced pair (a/g, b/g) at g*t.
    ca and cb default to a/g and b/g, for which h is x'(t) / (-2*pi*g):
    the rows are then undefined_derivative_sets.

    Each row is 0, its roots u of the reduced sum, 1/2 and their mirrors
    1 - u, each of these then copied to (t + k) / g for k = 0..g-1, all in
    ascending order.  The values of every row are built at once and sorted
    by row and value; rounding keeps that order, so each row has the values
    and the order of building it on its own.
    """
    a, b = _check_pair(a, b)
    s = np.array(list(weights), dtype=float)
    if not np.all((-1.0 <= s) & (s <= 1.0)):
        raise ValueError("s must lie in [-1, 1]")
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if ca is None:
        ca, cb = a, b
    u, counts = _level_root_rows(a, b, ca, cb, s)
    rows = np.arange(len(s))
    row = np.repeat(rows, counts)
    t = np.concatenate([np.zeros(len(s)), u, np.full(len(s), 0.5), 1.0 - u])
    t = ((t + np.arange(g)[:, None]) / g).ravel()
    key = np.tile(np.concatenate([rows, row, rows, row]), g)
    return t[np.lexsort((t, key))], g * (2 * counts + 2)


def _sin_turns(f, t: np.ndarray) -> np.ndarray:
    """sin(2*pi*f*t) with the phase reduction of eval_complex; f may be a column."""
    return np.sin(_turns(f, t))


def _turns(f, t: np.ndarray) -> np.ndarray:
    """The phase 2*pi*f*t reduced as eval_complex reduces it; f may be a column."""
    u = f * t
    return 2.0 * np.pi * (u - np.floor(u))


def _bisect_brackets(f, lo: np.ndarray, hi: np.ndarray, v_lo: np.ndarray, *params) -> np.ndarray:
    """One root of f in each sign-change bracket [lo, hi], all halved at once.

    v_lo holds f(lo) or its sign.  f(x, *params) maps an array of points,
    one per bracket, to its values there; each of params holds one entry
    per bracket.  Every bracket is halved until its ends are adjacent
    floats; of the two, the end with the smaller |f| is returned, so that
    a root which is itself a float comes out exactly.  lo only moves to a
    midpoint of its own sign, so that sign is taken once.  A finished
    bracket leaves the working arrays, so the rounds that one slow bracket
    needs do not carry the others; each bracket's halvings depend on that
    bracket alone.
    """
    sign_lo = np.sign(v_lo)
    out_lo, out_hi = lo.copy(), hi.copy()
    index, work = np.arange(len(lo)), params
    while len(index):
        mid = 0.5 * (lo + hi)
        # a bracket of adjacent floats is done and must stay put: its mid is
        # an end, and at lo = 0, where f may be 0 while sign_lo is the
        # sign next to it, moving hi to that mid would collapse the bracket
        live = (lo < mid) & (mid < hi)
        if not live.all():
            out_lo[index], out_hi[index] = lo, hi
            index, lo, hi, sign_lo = index[live], lo[live], hi[live], sign_lo[live]
            work = [p[live] for p in work]
            continue
        up = np.sign(f(mid, *work)) == sign_lo
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    return np.where(np.abs(f(out_lo, *params)) <= np.abs(f(out_hi, *params)), out_lo, out_hi)


def _level(freqs: np.ndarray, x: np.ndarray, wa, wb) -> np.ndarray:
    """h = wa*sin(2*pi*a*x) + wb*sin(2*pi*b*x), freqs being the column [[a], [b]]."""
    sa, sb = _sin_turns(freqs, x)
    return wa * sa + wb * sb


def _newton_narrow(freqs, wa, wb, lo, hi, sign_lo) -> tuple[np.ndarray, np.ndarray]:
    """Narrow sign-change brackets of h = _level(freqs, u, wa, wb) around their roots.

    Safeguarded Newton (rtsafe; Press et al., Numerical Recipes, 9.4), one
    bracket per entry, all at once.  h and h' come from the same reduced
    phases at an iterate x, x replaces the end of [lo, hi] of its sign,
    and the next x is the Newton step, or the midpoint where that step
    leaves [lo, hi] or h' is 0 or NaN.  A step onto an end has converged:
    the entry stays there for the remaining steps.  No end moves by h at
    an end: at u = 0 and 1/2 h is 0 or rounding noise, while the sign
    there comes from g.  After _NEWTON_STEPS steps the points _PROBE_ULPS
    ulps either side of x move the ends once more, so that bisection of
    the returned brackets takes a few rounds where h is not noise there.

    Every end stays an end of a sign change of h, with the bits that
    _level_root_rows bisects, so where h changes sign once near a root the
    bisection finds the same adjacent floats.  The step count is fixed,
    so each entry's iterates depend on that entry alone.
    """
    slope = 2.0 * np.pi * freqs * np.array([wa, wb])
    x = 0.5 * (lo + hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            phase = _turns(freqs, x)
            sa, sb = np.sin(phase)
            v = wa * sa + wb * sb
            lo, hi = _narrow(lo, hi, sign_lo, x, v)
            step = x - v / (slope * np.cos(phase)).sum(axis=0)
            x = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
    probe = _PROBE_ULPS * np.spacing(x)
    for x in (x - probe, x + probe):
        lo, hi = _narrow(lo, hi, sign_lo, x, _level(freqs, x, wa, wb))
    return lo, hi


def _narrow(lo, hi, sign_lo, x, v) -> tuple[np.ndarray, np.ndarray]:
    """Move the end of [lo, hi] that has the sign of v = h(x) to x; an x
    outside the open bracket moves neither end."""
    inside = (lo < x) & (x < hi)
    up = np.sign(v) == sign_lo
    return np.where(inside & up, x, lo), np.where(inside & ~up, x, hi)


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


def _level_root_rows(a: int, b: int, ca, cb, s) -> tuple[np.ndarray, np.ndarray]:
    """Sorted roots u in (0, 1/2) of h = wa*sin(2*pi*a*u) + wb*sin(2*pi*b*u), per s.

    The roots come back in one array, row after row, with the number of
    roots in each row.  wa = ca*(1-s) and wb = cb*(1+s), with ca and cb
    scalars or columns against the weights s, one row each; a < b are
    coprime.  Between two breakpoints of _monotone_pieces
    h = sin(2*pi*a*u) * (wa + wb*R) has a root exactly when it changes
    sign, and then one.  All brackets are narrowed at once by
    _newton_narrow and then bisected at once.  At u = 0 and 1/2 the sign is that of g = h / sin(2*pi*u):
    g(0) = wa*a + wb*b, g(1/2) = (-1)^(a-1)*wa*a + (-1)^(b-1)*wb*b.

    Root contract: each root is an exact zero of the computed h, a
    breakpoint double root (below), or an end of two adjacent floats across
    which the computed h changes sign.  Where the computed h changes sign
    once near a root, that root has the bits of plain bisection of its
    bracket; where rounding noise gives several sign changes between nearby
    floats, it may be another of them.  Each row's roots depend on that
    row alone.

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
    sign_k = sign[row, k]
    lo, hi = _newton_narrow(freqs, wa_k, wb_k, pieces[k], pieces[k + 1], sign_k)
    simple = _bisect_brackets(functools.partial(_level, freqs), lo, hi, sign_k, wa_k, wb_k)
    rows = np.concatenate([row_double, row])
    roots = np.concatenate([pieces[at + 1], simple])
    order = np.lexsort((roots, rows))
    return roots[order], np.bincount(rows, minlength=len(s))
