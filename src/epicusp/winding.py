"""Winding numbers about base points, closed-form and numerical.

For the two-term family the winding number about the origin has a closed
form: a for s < 0 and b for s > 0 (the curve passes through the origin at
s = 0, where the winding number is undefined).  The numerical route tracks
the argument of gamma(t) - z0 around one period and rounds the total
turning; the residual of that rounding is reported as a diagnostic.  A
trapezoidal kernel integral provides an independent oracle for the two
integrals appearing in the closed form's derivation.  The closed form
itself is defined in spec, which needs no numpy, and re-exported here.
"""

from __future__ import annotations

import math

import numpy as np

from .curve import _roots, curve_scale, eval_grid
from .errors import NearPole, OnCurve, Unresolved
from .spec import MAX_GRID_SAMPLES, PlanePoint, TwoTermSpec, _curve, _grid_size, _point, _real, _Record
# the closed forms are defined in spec and re-exported here
from .spec import winding_closed_form, zeros_of_curve

ORIGIN = PlanePoint(0.0, 0.0)


class WindingResult(_Record):
    """Integer winding value with rounding diagnostics."""

    value: int
    residual: float
    samples: int


class KernelParams(_Record):
    """Parameters of the integrand 1 / (beta + alpha * exp(2*pi*i*t)).

    Raises ValueError unless alpha and beta are finite real numbers and
    beta > 0; bools and strings are refused."""

    alpha: float
    beta: float

    def __init__(self, alpha, beta) -> None:
        alpha, beta = _real(alpha, "alpha"), _real(beta, "beta")
        if not beta > 0:
            raise ValueError("beta must be strictly positive")
        super().__init__(alpha, beta)


def winding_numeric(spec: TwoTermSpec, z0: PlanePoint = ORIGIN, n: int = 4096) -> WindingResult:
    """Winding number about z0 by argument tracking on an n-point grid.

    Accumulates the principal-value angle increments of gamma(t) - z0
    between consecutive grid points, the last one closing the period back
    to t = 0, and rounds the total turning to an integer.  n is first
    doubled until it is at least 4 times the frequency b: on a
    coarser grid a term turns by more than pi/2 per step and can alias to
    a slower turning whose increments all look small.  Every increment
    must stay below pi/2; while some does not, the grid is doubled, up to
    MAX_GRID_SAMPLES points.

    Raises
    ------
    TypeError
        If spec is not a TwoTermSpec; no sample is built.
    ValueError
        If n is not an integer in [64, MAX_GRID_SAMPLES], or z0 is not a
        finite PlanePoint or complex number (see spec._point); no sample is built.
    OnCurve
        If some grid sample comes within 1e-9 * curve scale of z0.
    Unresolved
        If reaching 4 times b takes the grid past
        MAX_GRID_SAMPLES, the turning steps still exceed pi/2 on the
        largest grid, or the total turning is not close to an integer
        multiple of 2*pi.
    """
    _curve(spec)
    n = _grid_size(n, 64)
    z0c = _point(z0, "z0")
    dist_tol = 1e-9 * curve_scale(spec)
    # a z0 with a part of 2^500 or more is far off the curve (|gamma| <= 2),
    # and the products of consecutive samples below would overflow there;
    # scaling the samples by a power of two is exact, so the steps keep their bits
    shift = max(math.frexp(abs(z0c.real))[1], math.frexp(abs(z0c.imag))[1])
    m = n
    while m < 4 * spec.b:
        if 2 * m > MAX_GRID_SAMPLES:
            raise Unresolved(f"frequency {spec.b} needs more than {m} samples")
        m *= 2
    while True:
        w = eval_grid(spec, m) - z0c
        if shift > 500:
            w *= math.ldexp(1.0, -shift)
        elif np.min(np.abs(w)) <= dist_tol:
            raise OnCurve("base point lies on the curve within tolerance")
        w = np.append(w, w[0])
        steps = np.angle(w[1:] * np.conj(w[:-1]))
        if np.max(np.abs(steps)) <= np.pi / 2:
            total = float(np.sum(steps))
            value = round(total / (2.0 * np.pi))
            residual = abs(total / (2.0 * np.pi) - value)
            if residual >= 0.25:
                raise Unresolved(f"total turning {total} is far from any integer")
            return WindingResult(value=value, residual=residual, samples=m)
        if 2 * m > MAX_GRID_SAMPLES:
            raise Unresolved(f"turning steps exceed pi/2 on {m} samples")
        m *= 2


def kernel_integral(p: KernelParams, n: int = 2048) -> complex:
    """Trapezoidal value of the integral of 1/(beta + alpha*e^{2*pi*i*t}).

    The integrand is one-periodic and analytic, so the n-point trapezoid
    rule (the mean over a uniform grid) converges spectrally.  The exact
    value is 1/beta for beta > |alpha| and 0 for beta < |alpha|.

    The grid samples e^{2*pi*i*j/n} do not depend on p: they are the
    unit-root table eval_grid gathers from, kept for the few most recent n.

    Raises
    ------
    ValueError
        If n is not an integer in [1, MAX_GRID_SAMPLES] (a bool is refused).
    NearPole
        If beta is within 1e-6 (relative) of |alpha|, where the integrand
        has a pole on the contour.
    """
    n = _grid_size(n, 1)
    span = max(p.beta, abs(p.alpha))
    if abs(p.beta - abs(p.alpha)) < 1e-6 * span:
        raise NearPole("beta too close to |alpha|")
    return complex(np.mean(1.0 / (p.beta + p.alpha * _roots(0, 1, n))))
