"""Pointwise and grid evaluation of curves.

A curve is a finite sum of complex exponentials,

    gamma(t) = sum_j w_j * exp(2*pi*i * a_j * t),

with integer frequencies a_j and complex weights w_j, traced over one period
t in [0, 1).  The specification types (CurveSpec, TwoTermSpec, ...) are
defined in spec, which needs no numpy; this module re-exports them.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

# TwoTermSpec and _integer are only re-exported: they were defined here
from .spec import (
    AnySpec,
    CurveSpec,
    ExponentialTerm,
    PlanePoint,
    TwoTermSpec,
    _integer,
    as_curve,
)

# the most samples winding_numeric, verify_symmetry and render_curve take: 16 MB per complex array
MAX_GRID_SAMPLES = 1 << 20


def curve_scale(spec: AnySpec) -> float:
    """Sum of |w_j|, an upper bound on |gamma(t)|."""
    return float(sum(abs(term.weight) for term in as_curve(spec).terms))


def derivative_scale(spec: AnySpec) -> float:
    """Sum of 2*pi*|a_j|*|w_j|, an upper bound on |gamma'(t)|."""
    c = as_curve(spec)
    return float(sum(2.0 * math.pi * abs(t.frequency) * abs(t.weight) for t in c.terms))


def eval_complex(spec: AnySpec, t, order: int = 0) -> np.ndarray:
    """Vectorized evaluation of gamma or one of its t-derivatives.

    The phase a*t is reduced to a*t - floor(a*t) in [0, 1] before it is
    multiplied by 2*pi, which keeps the angle small for large t.  For every
    finite a*t this is the correctly rounded fractional part, the same float
    as np.mod(a*t, 1.0).  A float ``t`` is evaluated in Python arithmetic
    with the same operations in the same order, which gives the same bits
    as numpy's arithmetic on a 0-d array.  With real weights (every
    TwoTermSpec) that is also what the same t inside an array gives; numpy
    may fuse the complex products of complex weights on long arrays into
    multiply-adds, which moves last bits.

    Parameters
    ----------
    spec : CurveSpec or TwoTermSpec
    t : array_like of float
    order : int
        0 for the curve itself, k >= 1 for d^k/dt^k.

    Returns
    -------
    numpy.ndarray of complex, same shape as ``t`` (0-d for a scalar).
    """
    c = as_curve(spec)
    if isinstance(t, float):
        z = _eval_scalar(c, float(t), order)
        if z is not None:
            return np.array(z)
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    e = np.empty(t.shape, dtype=complex)
    for term in c.terms:
        u = term.frequency * t
        angle = 2.0 * np.pi * (u - np.floor(u))
        factor = (2j * np.pi * term.frequency) ** order
        np.cos(angle, out=e.real)
        np.sin(angle, out=e.imag)
        # scalar first, as in weight * factor * e: with the operands swapped
        # (e *= coef) numpy moves the last bits of complex-weight products
        np.multiply(term.weight * factor, e, out=e)
        out += e
    return out


def eval_grid(spec: AnySpec, n: int) -> np.ndarray:
    """gamma(j/n) for j = 0..n-1, summed from per-frequency grid samples.

    exp(2*pi*i*f*j/n) is the entry (f mod n)*j mod n of one table of n-th
    roots of unity, so the phase is reduced exactly and each term costs a
    gather instead of a cos and a sin.  The gathered samples depend on the
    frequency and n alone and _term_samples keeps the most recent, so a
    sweep over the weights gathers once (above _TABLE_CACHE_LIMIT every
    term gathers from one table built for the call).  Each weight
    multiplies its term's samples and the products are summed in term
    order into zeros, as a gather per call would do, so at every n the
    result has the same bits as that gather.  The table's angles are those
    eval_complex computes for the exact fractions k/n, so at a power-of-two
    n, where j/n is exact, the result has the same bits as
    eval_complex(spec, np.arange(n) / n) for every TwoTermSpec.  At other
    n it is the more accurate of the two, by trailing digits.
    """
    out = np.zeros(n, dtype=complex)
    # above the limit nothing is kept, so the terms gather from one table
    table = _unit_roots(n) if n > _TABLE_CACHE_LIMIT else None
    for term in as_curve(spec).terms:
        if table is None:
            e = _term_samples(term.frequency, n)
        else:
            e = _gather(table, term.frequency)
        out += term.weight * e
    return out


_TABLE_CACHE_LIMIT = 65_536  # larger tables are built per call, not kept alive
_BUILD_BLOCK = 2048  # samples per block when building a table of shifted samples


def _kept(maxsize: int):
    """Keep the maxsize most recent results of build(..., n) for n <= _TABLE_CACHE_LIMIT.

    The results are read-only arrays that do not depend on the weights;
    larger ones are built per call, so no cache holds a long array alive.
    """

    def wrap(build):
        cached = functools.lru_cache(maxsize=maxsize)(build)

        @functools.wraps(build)
        def get(*args):
            return build(*args) if args[-1] > _TABLE_CACHE_LIMIT else cached(*args)

        return get

    return wrap


@_kept(16)
def _unit_roots(n: int) -> np.ndarray:
    """The read-only table exp(2*pi*i*k/n), k = 0..n-1."""
    if n < 1:
        raise ValueError("need n >= 1 grid points")
    angle = 2.0 * np.pi * (np.arange(n) / n)
    table = np.empty(n, dtype=complex)
    np.cos(angle, out=table.real)
    np.sin(angle, out=table.imag)
    table.flags.writeable = False
    return table


@_kept(4)
def _term_samples(f: int, n: int) -> np.ndarray:
    """The read-only exp(2*pi*i*f*j/n), j = 0..n-1: one term's grid samples, unit weight."""
    e = _gather(_unit_roots(n), f)
    e.flags.writeable = False
    return e


def _gather(table: np.ndarray, f: int) -> np.ndarray:
    """The entries (f mod n)*j mod n, j = 0..n-1, of the n-entry table."""
    n = len(table)
    k = (f % n) * np.arange(n)
    k -= k // n * n  # k mod n: numpy divides by a scalar faster than it takes remainders
    return table[k]


@_kept(4)
def _shifted_unit_roots(f: int, d: int, n: int) -> np.ndarray:
    """The read-only exp(2*pi*i*f*(j/n + 1/d)), j = 0..n-1, from eval_complex.

    The samples of one term advanced by 1/d, independent of the table.
    """
    unit = CurveSpec.from_pairs([(f, 1.0)])
    e = np.empty(n, dtype=complex)
    for lo in range(0, n, _BUILD_BLOCK):
        j = np.arange(lo, min(lo + _BUILD_BLOCK, n))
        e[lo : lo + len(j)] = eval_complex(unit, j / n + 1.0 / d)
    e.flags.writeable = False
    return e


def _eval_scalar(c: CurveSpec, t: float, order: int) -> complex | None:
    """eval_complex at one float t in Python arithmetic, or None.

    The operations and their order are those the array path applies to a
    0-d t, which numpy carries out in its scalar arithmetic, so the result
    has the same bits.  A non-finite phase returns None and is left to the
    array path, which turns it into nan.
    """
    out = 0j
    for term in c.terms:
        u = term.frequency * t
        if not math.isfinite(u):
            return None
        angle = 2.0 * math.pi * (u - math.floor(u))
        factor = (2j * math.pi * term.frequency) ** order
        out += term.weight * factor * (math.cos(angle) + 1j * math.sin(angle))
    return out


def evaluate(spec: AnySpec, t: float) -> PlanePoint:
    """Evaluate the curve at parameter t (reduced mod 1 internally)."""
    z = complex(eval_complex(spec, float(t)))
    return PlanePoint.from_complex(z)


def derivative(spec: AnySpec, t: float, order: int = 1) -> PlanePoint:
    """Evaluate the order-th t-derivative of the curve at t.

    Parameters
    ----------
    order : int
        Must be >= 1; order 1 is the tangent vector.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    z = complex(eval_complex(spec, float(t), order=order))
    return PlanePoint.from_complex(z)


def parametric_derivative(spec: AnySpec, t: float) -> float | None:
    """Slope y'(t)/x'(t) of the curve, or None where x'(t) vanishes.

    None covers both vertical tangents (y' != 0) and singular points
    (y' == 0 as well); classification of which is which lives in the
    singularity module.
    """
    d = complex(eval_complex(spec, float(t), order=1))
    # relative threshold so widely scaled frequency pairs behave uniformly
    tol = 1e-9 * derivative_scale(spec)
    if abs(d.real) <= tol:
        return None
    return d.imag / d.real


def rotate(spec: AnySpec, phi: float) -> CurveSpec:
    """Rotate the curve about the origin by phi radians.

    Every weight is multiplied by exp(i*phi); the image of the rotated
    curve is the rotated image of the original.
    """
    c = as_curve(spec)
    ph = cmath.exp(1j * float(phi))
    return CurveSpec(tuple(ExponentialTerm(t.frequency, t.weight * ph) for t in c.terms))


def sample(spec: AnySpec, n: int) -> list[PlanePoint]:
    """Evaluate the curve on the uniform grid t_j = j/n, j = 0..n-1."""
    if n < 2:
        raise ValueError("need n >= 2 samples")
    z = eval_grid(spec, n)
    return [PlanePoint(float(v.real), float(v.imag)) for v in z]


def spec_to_wire(spec: AnySpec) -> dict:
    """Serialize a curve as {"terms": [{"freq", "w_re", "w_im"}, ...]}."""
    c = as_curve(spec)
    return {
        "terms": [
            {"freq": t.frequency, "w_re": t.weight.real, "w_im": t.weight.imag}
            for t in c.terms
        ]
    }


def spec_from_wire(data: dict) -> CurveSpec:
    """Parse the wire format emitted by spec_to_wire; ValueError for anything else."""
    try:
        terms = data["terms"]
        pairs = [(t["freq"], complex(float(t["w_re"]), float(t["w_im"]))) for t in terms]
    except (TypeError, KeyError) as exc:
        raise ValueError("wire format needs a 'terms' list of freq, w_re, w_im") from exc
    except OverflowError as exc:  # an integer weight beyond the float range
        raise ValueError("weight must be finite") from exc
    return CurveSpec.from_pairs(pairs)
