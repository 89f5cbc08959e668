"""Singular points of the two-term family, the rotated-frame slope and the zeros of x'.

Write z = exp(2*pi*i*t).  The k-th derivative of gamma_{a,b}^s is
(2*pi*i)^k * ((1-s)*a^k*z^a + (1+s)*b^k*z^b), so gamma'(t) = 0 forces
|(1-s)*a| = |(1+s)*b| and z^(b-a) = -1: for every a, the singular points
are exactly s = (a-b)/(a+b), t = h/(2(b-a)) with h odd.  There
gamma'' = (2*pi*i)^2 * (1-s)*a*z^a*(a-b) is nonzero and
gamma''' = 2*pi*i*(a+b) * gamma'', so gamma'' and gamma''' are
perpendicular and each singular point is an ordinary (semicubical) cusp
(Bruce & Giblin, Curves and Singularities, 1992).  As
gamma'' = 4*pi^2*(1-s)*a*(b-a) * z^a, the one-sided unit tangents there are
-z^a from below and z^a from above, and they flip exactly.  spec.find_cusps
builds every cusp's certificate from these closed forms, with no arrays;
this module re-exports it, as it does CuspCertificate and the locus.  The
module carries the closed-form parametric derivative in the frame that
puts cusp 0 on the vertical axis, the loop-birth count that detects the
small loop a cusp unfolds into, and the zeros of x'.

The zeros of x'(t) and the self-intersections (geometry.py) are both the
roots u in (0, 1/2) of w_a*sin(2*pi*a*u) + w_b*sin(2*pi*b*u), i.e. level
sets of R(u) = sin(2*pi*b*u) / sin(2*pi*a*u), which is monotone between
breakpoints that do not depend on s.  The breakpoints are the poles
k/(2a) of R and the zeros of R', which are the roots of a sum of the same
kind with the frequencies b-a and a+b; each zero of R' lies alone in a
bracket between points k/(2a) and k/(2b), known in closed form (the
proof is in _monotone_pieces).  One kernel, _bracket_roots,
finds all three root sets: the zeros of R' in those brackets, then the
zeros of x', the self-intersections and the axis crossings that
loop_birth_count counts between the breakpoints (_level_root_rows).  It
narrows every bracket with a fixed number of safeguarded Newton steps and
bisects what is left down to adjacent floats, every sum evaluated by
_level with the phases reduced by curve._turns, as eval_complex reduces
them.  Each root it returns is an exact zero of the computed sum, a
breakpoint double root, or an end of two adjacent floats across which the
computed sum changes sign; where that sum changes sign once near a root,
the root has the bits of plain bisection.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .curve import _turns
from .spec import _check_pair, _real, _weight
# the cusp locus and certificates are defined in spec and re-exported here
from .spec import CuspCertificate, CuspLocus, find_cusps, predicted_cusp_locus

# _bracket_roots: Newton steps per bracket, then the probe's half-width in ulps
_NEWTON_STEPS = 8
_PROBE_ULPS = 16


def rotated_param_deriv(a: int, b: int, t: float) -> float | None:
    """Closed-form slope of the rotated curve at the cusp weight s = (a-b)/(a+b).

    The curve is turned by pi*(1/2 - a/(b-a)), which takes cusp 0, at
    t = 1/(2(b-a)) and the angle pi*a/(b-a), to the vertical axis.  There
    gamma' is a real multiple of i*exp(i*pi*(a+b)*t), so the slope equals
    -tan(pi*(a/(b-a) - (a+b)*t)); returns None at the tangent poles,
    where the rotated curve has a vertical tangent or cusp.

    Raises
    ------
    ValueError
        If t is not a finite real number (a bool or a string is refused).
    """
    a, b = _check_pair(a, b)
    u = a / (b - a) - (a + b) * _real(t, "t")
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
    u = v (geometry.py).  Its zeros v in [0, 1) are 0 and pairs v, 1 - v,
    and the count is the number of them within half_width of v = 0, mod 1:
    1 + 2 * #{v in (0, half_width]}.  With g = gcd(a, b) those v are u / g
    for the roots u that _level_root_rows finds for the reduced pair with
    the coefficients (1, -1); the window ends before 1/(2g), so no other
    copy (u + k) / g reaches it.  One means the curve crosses the axis once
    (no loop); three mean a loop has been born, however small.  A double
    root of g_-, where two crossings meet, counts as both.  Cusp k is cusp
    0 turned by 2*pi*a*k/(b-a), so every cusp has this count.

    half_width defaults to 0.75 / (2(b-a)(a+b)).

    Raises
    ------
    ValueError
        If s is not a finite real number in [-1, 1], or half_width is not a
        real number in (0, 1/(2(b-a))): a wider window reaches the midpoint
        to the next cusp.  A bool or a string is refused for s.
    """
    a, b = _check_pair(a, b)
    if half_width is None:
        half_width = 0.75 / (2 * (b - a) * (a + b))
    if not (isinstance(half_width, numbers.Real) and 0.0 < half_width < 1.0 / (2 * (b - a))):
        raise ValueError(f"half_width must lie in (0, 1/{2 * (b - a)})")
    g = math.gcd(a, b)
    v = _level_root_rows(a // g, b // g, 1.0, -1.0, [_weight(s, "s")])[0] / g
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

    Raises
    ------
    ValueError
        If a weight is not a finite real number in [-1, 1] (a bool or a
        string is refused).
    """
    t, sizes = _zero_rows(a, b, np.array([_weight(w, "weights") for w in weights], dtype=float))
    flat, ends = t.tolist(), np.cumsum(sizes).tolist()
    return [flat[i:j] for i, j in zip([0] + ends, ends)]


def _zero_rows(a: int, b: int, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of undefined_derivative_sets for the checked float weights s:
    the zeros t in [0, 1) of x'(t), as one flat array, and each row's length.

    With g = gcd(a, b), x'(t) / (-2*pi*g) is
    h = a'*(1-s)*sin(2*pi*a'*u) + b'*(1+s)*sin(2*pi*b'*u) at u = g*t, for
    the reduced pair a' = a/g, b' = b/g.

    Each row is 0, its roots u of the reduced sum, 1/2 and their mirrors
    1 - u, each of these then copied to (t + k) / g for k = 0..g-1, all in
    ascending order.  The values of every row are built at once and sorted
    by row and value; rounding keeps that order, so each row has the values
    and the order of building it on its own.
    """
    a, b = _check_pair(a, b)
    g = math.gcd(a, b)
    a, b = a // g, b // g
    u, counts = _level_root_rows(a, b, a, b, s)
    rows = np.arange(len(s))
    row = np.repeat(rows, counts)
    t = np.concatenate([np.zeros(len(s)), u, np.full(len(s), 0.5), 1.0 - u])
    t = ((t + np.arange(g)[:, None]) / g).ravel()
    key = np.tile(np.concatenate([rows, row, rows, row]), g)
    return t[np.lexsort((t, key))], g * (2 * counts + 2)


def _level(freqs: np.ndarray, x: np.ndarray, wa, wb) -> np.ndarray:
    """h = wa*sin(2*pi*a*x) + wb*sin(2*pi*b*x), freqs being the column [[a], [b]]."""
    sa, sb = np.sin(_turns(freqs, x))
    return wa * sa + wb * sb


def _bracket_roots(freqs, wa, wb, lo, hi, sign_lo) -> np.ndarray:
    """The root of h = _level(freqs, u, wa, wb) in each sign-change bracket [lo, hi].

    One bracket per entry of wa, wb, lo, hi and sign_lo, the sign of h at
    lo; all are solved at once.  First safeguarded Newton (rtsafe; Press
    et al., Numerical Recipes, 9.4) narrows each bracket.  h and h' come
    from the same reduced phases at an iterate x, x replaces the end of
    [lo, hi] of its sign, and the next x is the Newton step, or the
    midpoint where that step leaves [lo, hi] or h' is 0 or NaN.  A step
    onto an end has converged: the entry stays there for the remaining
    steps.  No end moves by h at an end: at u = 0 and 1/2 h is 0 or
    rounding noise, while the sign there comes from g (_level_root_rows).
    After _NEWTON_STEPS steps the points _PROBE_ULPS ulps either side of x
    move the ends once more, so that the bisection takes a few rounds
    where h is not noise there.

    Then every bracket is halved until its ends are adjacent floats; of
    the two, the end with the smaller |h| is returned, so that a root
    which is itself a float comes out exactly.  lo only moves to a
    midpoint of its own sign.  A finished bracket leaves the working
    arrays, with its weights, so the rounds that one slow bracket needs do
    not carry the others.

    Root contract: each root is an exact zero of the computed h, a
    breakpoint double root (_level_root_rows), or an end of two adjacent
    floats across which the computed h changes sign.  Every end the Newton
    steps leave is an end of a sign change of h, so where the computed h
    changes sign once near a root, that root has the bits of plain
    bisection of its bracket; where rounding noise gives several sign
    changes between nearby floats, it may be another of them.  The step
    count is fixed, so each entry's root depends on that entry alone.
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

    out_lo, out_hi = lo.copy(), hi.copy()
    index, sign, live_wa, live_wb = np.arange(len(lo)), sign_lo, wa, wb
    while len(index):
        mid = 0.5 * (lo + hi)
        # a bracket of adjacent floats is done and must stay put: its mid is
        # an end, and at lo = 0, where h may be 0 while sign is the sign
        # next to it, moving hi to that mid would collapse the bracket
        live = (lo < mid) & (mid < hi)
        if not live.all():
            out_lo[index], out_hi[index] = lo, hi
            index, lo, hi, sign = index[live], lo[live], hi[live], sign[live]
            live_wa, live_wb = live_wa[live], live_wb[live]
            continue
        up = np.sign(_level(freqs, mid, live_wa, live_wb)) == sign
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
    v_lo, v_hi = _level(freqs, out_lo, wa, wb), _level(freqs, out_hi, wa, wb)
    return np.where(np.abs(v_lo) <= np.abs(v_hi), out_lo, out_hi)


def _narrow(lo, hi, sign_lo, x, v) -> tuple[np.ndarray, np.ndarray]:
    """Move the end of [lo, hi] that has the sign of v = h(x) to x; an x
    outside the open bracket moves neither end."""
    inside = (lo < x) & (x < hi)
    up = np.sign(v) == sign_lo
    return np.where(inside & up, x, lo), np.where(inside & ~up, x, hi)


@functools.lru_cache(maxsize=64)
def _monotone_pieces(a: int, b: int) -> np.ndarray:
    """0, the poles k/(2a), the zeros of R' and 1/2, sorted, for coprime a < b.

    Between them R(u) = sin(2*pi*b*u) / sin(2*pi*a*u) is monotone: off the
    poles R' is a positive multiple of
    W(u) = (b-a)*sin(2*pi*(a+b)*u) - (a+b)*sin(2*pi*(b-a)*u).

    With theta = 2*pi*u, W = (a+b)*(b-a)*f(theta) for
    f = sin((a+b)*theta)/(a+b) - sin((b-a)*theta)/(b-a), whose derivative is
    cos((a+b)*theta) - cos((b-a)*theta) = -2*sin(b*theta)*sin(a*theta).  So
    W is strictly monotone between consecutive points of
    {k/(2a)} u {k/(2b)}, and each such bracket holds at most one zero.  At
    the points W(k/(2a)) = (-1)^(k+1)*2a*sin(pi*b*k/a) and
    W(k/(2b)) = (-1)^k*2b*sin(pi*a*k/b).  For coprime a, b and 0 < k < a
    (or b) neither b*k/a nor a*k/b is an integer: no k/(2a) is a k/(2b),
    neither sine vanishes, and |W| >= 2a*sin(pi/a) >= 4 there.  The
    computed W is off by at most about 2*pi*b^2*eps, so the computed signs
    are the exact ones, and a bracket holds a zero exactly when they
    change across it.  The first and last brackets hold none: they end at
    u = 0 and 1/2, where W is 0, and W is monotone on each.

    W is _level with the frequencies (b-a, a+b) and the weights
    (-(a+b), b-a), so _bracket_roots, the kernel of _level_root_rows, finds
    its zeros.  The read-only array does not depend on s.
    """
    poles = np.arange(1, a) / (2 * a)
    points = np.sort(np.concatenate((poles, np.arange(1, b) / (2 * b))))
    freqs = np.array([[b - a], [a + b]])
    sign = np.sign(_level(freqs, points, -(a + b), b - a))
    k = np.nonzero(sign[:-1] != sign[1:])[0]
    wa, wb = np.full(len(k), -(a + b)), np.full(len(k), b - a)
    critical = _bracket_roots(freqs, wa, wb, points[k], points[k + 1], sign[k])
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
    sign, and then one, which _bracket_roots finds for all brackets at
    once; its root contract holds for every root, and each row's roots
    depend on that row alone.  At u = 0 and 1/2 the sign is that of
    g = h / sin(2*pi*u):
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
    freqs = np.array([[a], [b]])
    v = _level(freqs, pieces, wa, wb)
    v[:, :1] = wa * a + wb * b
    v[:, -1:] = (-1) ** (a - 1) * wa * a + (-1) ** (b - 1) * wb * b
    v[np.abs(v) <= 16.0 * np.finfo(float).eps * (np.abs(ca) * a + np.abs(cb) * b)] = 0.0
    sign = np.sign(v)
    row_double, at = np.nonzero(sign[:, 1:-1] == 0.0)
    row, k = np.nonzero(sign[:, :-1] * sign[:, 1:] < 0.0)
    simple = _bracket_roots(freqs, wa[row, 0], wb[row, 0], pieces[k], pieces[k + 1], sign[row, k])
    rows = np.concatenate([row_double, row])
    roots = np.concatenate([pieces[at + 1], simple])
    order = np.lexsort((roots, rows))
    return roots[order], np.bincount(rows, minlength=len(s))
