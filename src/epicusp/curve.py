"""Evaluation of the curves: at any parameters, and on the uniform grid.

The curve gamma_{a,b}^s(t) = (1-s) e^{2 pi i a t} + (1+s) e^{2 pi i b t} is
the sum of two terms w * exp(2*pi*i*f*t), which _terms lists as (f, w).
eval_complex, the package's one public evaluation entry point, gives gamma
or any t-derivative at a float or an array of floats; a point, a tangent or
a rotated curve is one complex operation away from it.  eval_grid and the
sample caches below serve the analyses that sweep the grid t = j/n.  The
specification TwoTermSpec is defined in spec, which needs no numpy; this
module re-exports it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# PlanePoint and TwoTermSpec are re-exported: the benchmark harness reads
# curve.TwoTermSpec, and pickles written when both were defined here name
# this module
from .spec import PlanePoint, TwoTermSpec, _integer

# the most samples winding_numeric, kernel_integral, verify_symmetry and render_curve
# take: 16 MB per complex array
MAX_GRID_SAMPLES = 1 << 20


def _terms(spec: TwoTermSpec) -> tuple[tuple[int, complex], tuple[int, complex]]:
    """The curve lowered to its terms (frequency, weight): (a, 1-s) and (b, 1+s).

    The weights are complex(...), so every product below is complex for any s.
    """
    return (spec.a, complex(1.0 - spec.s)), (spec.b, complex(1.0 + spec.s))


def curve_scale(spec: TwoTermSpec) -> float:
    """|1-s| + |1+s|, an upper bound on |gamma(t)|."""
    return float(sum(abs(w) for _, w in _terms(spec)))


def derivative_scale(spec: TwoTermSpec) -> float:
    """2*pi*(a*|1-s| + b*|1+s|), an upper bound on |gamma'(t)|."""
    return float(sum(2.0 * math.pi * abs(f) * abs(w) for f, w in _terms(spec)))


def eval_complex(spec: TwoTermSpec, t, order: int = 0) -> np.ndarray:
    """Vectorized evaluation of gamma or one of its t-derivatives.

    The phase a*t is reduced to a*t - floor(a*t) in [0, 1] before it is
    multiplied by 2*pi, which keeps the angle small for large t.  For every
    finite a*t this is the correctly rounded fractional part, the same float
    as np.mod(a*t, 1.0).  A float ``t`` is a 0-d array: the weights are
    real, so it gets the bits that the same t inside an array gets.

    Parameters
    ----------
    spec : TwoTermSpec
    t : array_like of float
    order : int
        0 for the curve itself, k >= 1 for d^k/dt^k.

    Returns
    -------
    numpy.ndarray of complex, same shape as ``t`` (0-d for a scalar).

    Raises
    ------
    ValueError
        If ``order`` is not an integer >= 0 (a bool is refused), or so
        large that 2*(2*pi*b)**order, a bound on the derivative, overflows
        a float.
    """
    if type(order) is not int:
        order = _integer(order, "order")
    if order < 0:
        raise ValueError("order must be >= 0")
    try:
        # |d^order gamma / dt^order| <= (|1-s| + |1+s|) * (2*pi*b)**order
        if math.isinf(2.0 * (2.0 * math.pi * spec.b) ** order):
            raise OverflowError
    except OverflowError:
        raise ValueError(f"order {order} overflows a float for frequency {spec.b}") from None
    return _eval_terms(_terms(spec), t, order)


def _eval_terms(terms, t, order: int) -> np.ndarray:
    """The sum over (f, w) in terms of w * d^order/dt^order exp(2*pi*i*f*t)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    e = np.empty(t.shape, dtype=complex)
    for f, w in terms:
        u = f * t
        angle = 2.0 * np.pi * (u - np.floor(u))
        factor = (2j * np.pi * f) ** order
        np.cos(angle, out=e.real)
        np.sin(angle, out=e.imag)
        # scalar first, as in weight * factor * e: with the operands swapped
        # (e *= coef) numpy may move the last bits of the complex products
        np.multiply(w * factor, e, out=e)
        out += e
    return out


def eval_grid(spec: TwoTermSpec, n: int) -> np.ndarray:
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
    eval_complex(spec, np.arange(n) / n).  At other n it is the more
    accurate of the two, by trailing digits.
    """
    out = np.zeros(n, dtype=complex)
    # above the limit nothing is kept, so the terms gather from one table
    table = _unit_roots(n) if n > _TABLE_CACHE_LIMIT else None
    for f, w in _terms(spec):
        out += w * (_term_samples(f, n) if table is None else _gather(table, f))
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
    """The read-only exp(2*pi*i*f*(j/n + 1/d)), j = 0..n-1, from _eval_terms.

    The samples of one term advanced by 1/d, independent of the table.
    """
    unit = ((f, complex(1.0)),)
    e = np.empty(n, dtype=complex)
    for lo in range(0, n, _BUILD_BLOCK):
        j = np.arange(lo, min(lo + _BUILD_BLOCK, n))
        e[lo : lo + len(j)] = _eval_terms(unit, j / n + 1.0 / d, 0)
    e.flags.writeable = False
    return e
