"""Evaluation of the curves: at any parameters, and on the uniform grid.

The curve gamma_{a,b}^s(t) = (1-s) e^{2 pi i a t} + (1+s) e^{2 pi i b t} is
the sum of two terms w * exp(2*pi*i*f*t), which _terms lists as (f, w).
eval_complex, the package's one public evaluation entry point, gives gamma
or any t-derivative at a float or an array of floats; a point, a tangent or
a rotated curve is one complex operation away from it.  eval_grid and the
sample caches below serve the analyses that sweep the grid t = j/n, and
the grid advanced by 1/d that verify_symmetry rotates: each term's samples
are a gather from a table of n roots of unity, turned by the term's class
f mod d, whose phases are reduced exactly in integers.  _roots is the
one table cache, for every class and for the unit roots that
winding.kernel_integral reads.  _weighted_samples hands eval_grid and
verify_symmetry each term's weight and samples; above _TABLE_CACHE_LIMIT,
where nothing is kept, it builds one table per class for the call, which
the terms of that class share.  The specification TwoTermSpec is defined
in spec, which needs no numpy; this module re-exports it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# PlanePoint, TwoTermSpec and MAX_GRID_SAMPLES are re-exported: the benchmark
# harness reads curve.TwoTermSpec, pickles written when both classes were
# defined here name this module, and curve.MAX_GRID_SAMPLES is read by name
from .spec import MAX_GRID_SAMPLES, PlanePoint, TwoTermSpec, _curve, _integer


def _terms(spec: TwoTermSpec) -> tuple[tuple[int, complex], tuple[int, complex]]:
    """The curve lowered to its terms (frequency, weight): (a, 1-s) and (b, 1+s).

    The weights are complex(...), so every product below is complex for any s.
    """
    return (spec.a, complex(1.0 - spec.s)), (spec.b, complex(1.0 + spec.s))


def curve_scale(spec: TwoTermSpec) -> float:
    """|1-s| + |1+s|, an upper bound on |gamma(t)|."""
    return float(sum(abs(w) for _, w in _terms(spec)))


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
    t : array_like of int or float
    order : int
        0 for the curve itself, k >= 1 for d^k/dt^k.

    Returns
    -------
    numpy.ndarray of complex, same shape as ``t`` (0-d for a scalar).

    Raises
    ------
    TypeError
        If spec is not a TwoTermSpec.
    ValueError
        If ``t`` is not an integer or a float or an array of them (its
        array dtype decides: a bool, a string, None, a complex number or
        an int past int64 is refused, and so is a bool anywhere inside a
        list or tuple, which numpy would read as 0 or 1), or ``order`` is
        not an integer >= 0 (a bool is refused), or so large that
        2*(2*pi*b)**order, a bound on the derivative, overflows a float.
    """
    _curve(spec)
    # numpy reads a bool among ints as an int, so t = [1, True] would be [1, 1]
    if isinstance(t, (list, tuple)) and _holds_bool(t):
        raise ValueError("t must be an int or a float or an array of them, not bool")
    t = np.asarray(t)
    if t.dtype.kind not in "iuf":
        raise ValueError(f"t must be an int or a float or an array of them, not {t.dtype.name}")
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


def _holds_bool(t) -> bool:
    """Whether a bool, Python's or numpy's, lies anywhere in the nested lists and tuples t."""
    kinds = set(map(type, t))
    if bool in kinds or np.bool_ in kinds:
        return True
    if not any(issubclass(k, (list, tuple)) for k in kinds):
        return False  # flat: no item is looked at in Python
    return any(_holds_bool(x) for x in t if isinstance(x, (list, tuple)))


def _eval_terms(terms, t, order: int) -> np.ndarray:
    """The sum over (f, w) in terms of w * d^order/dt^order exp(2*pi*i*f*t)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    e = np.empty(t.shape, dtype=complex)
    for f, w in terms:
        angle = _turns(f, t)
        factor = (2j * np.pi * f) ** order
        np.cos(angle, out=e.real)
        np.sin(angle, out=e.imag)
        # scalar first, as in weight * factor * e: with the operands swapped
        # (e *= coef) numpy may move the last bits of the complex products
        np.multiply(w * factor, e, out=e)
        out += e
    return out


def _turns(f, t: np.ndarray) -> np.ndarray:
    """2*pi*f*t with the phase u = f*t reduced to u - floor(u) first; f may be a column.

    eval_complex and singularity's level sets both take their angles from here.
    """
    u = f * t
    return 2.0 * np.pi * (u - np.floor(u))


def eval_grid(spec: TwoTermSpec, n: int) -> np.ndarray:
    """gamma(j/n) for j = 0..n-1, summed from per-frequency grid samples.

    exp(2*pi*i*f*j/n) is the entry (f mod n)*j mod n of one table of n-th
    roots of unity, so the phase is reduced exactly and each term costs a
    gather instead of a cos and a sin.  The gathered samples depend on the
    frequency and n alone and _term_samples keeps the most recent, so a
    sweep over the weights gathers once (above _TABLE_CACHE_LIMIT both
    terms gather from one table built for the call, one term at a time).
    Each weight multiplies its term's samples and the products are summed
    in term order into zeros, as a gather per call would do.  For real
    weights, which every TwoTermSpec has, the result so has the same bits
    as that gather at every n; above _TABLE_CACHE_LIMIT a complex weight
    multiplies in place and may round differently.  The table's angles are
    those eval_complex computes for the exact fractions k/n, so at a
    power-of-two n, where j/n is exact, the result has the same bits as
    eval_complex(spec, np.arange(n) / n).  At other n it is the more
    accurate of the two, by trailing digits.  render._curve_pixels
    computes the same floats in plain Python for the curve plots.
    """
    _curve(spec)
    out = np.zeros(n, dtype=complex)
    for w, e in _weighted_samples(spec, 1, n):
        # a gather above the limit is the call's own array: the weight
        # multiplies it in place, as numpy multiplies a temporary (e *= w),
        # and it is freed before the next term's gather is built
        out += np.multiply(e, w, out=e) if e.flags.writeable else w * e
        del e
    return out


_TABLE_CACHE_LIMIT = 65_536  # larger tables are built per call, not kept alive


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


# one verify pass reads six tables: the unit roots at n = 10,000, 4,096,
# 2,048 and 1,024 and the two classes a mod (b-a) of a sweep over pairs
@_kept(6)
def _roots(r: int, d: int, n: int) -> np.ndarray:
    """The read-only table exp(2*pi*i*(k/n + r/d)), k = 0..n-1, for 0 <= r < d.

    The phase is the fraction m/(n*d) with m = (k*d + r*n) mod n*d,
    reduced exactly in integers, and the angle is 2*pi times its correctly
    rounded quotient; with r = 0 and d = 1 that is 2*pi*(k/n).  Past 2**53
    the integers are Python ints, whose true division is still correctly
    rounded.
    """
    if n < 1:
        raise ValueError("need n >= 1 grid points")
    q = n * d
    m = np.arange(n, dtype=np.int64 if q < 2**53 else object) * d + r * n
    m[m >= q] -= q
    angle = 2.0 * np.pi * np.asarray(m / q, dtype=float)
    table = np.empty(n, dtype=complex)
    np.cos(angle, out=table.real)
    np.sin(angle, out=table.imag)
    table.flags.writeable = False
    return table


@_kept(8)
def _term_samples(f: int, d: int, n: int) -> np.ndarray:
    """The read-only exp(2*pi*i*f*(j/n + 1/d)), j = 0..n-1: one term's samples, unit weight.

    f*(j/n + 1/d) is (f*j mod n)/n + (f mod d)/d mod 1, so the samples are
    a gather at f*j mod n from the table of the class f mod d.  d = 1 gives
    the grid samples exp(2*pi*i*f*j/n), gathered from the unit roots.
    """
    e = _gather(_roots(f % d, d, n), f)
    e.flags.writeable = False
    return e


def _weighted_samples(spec: TwoTermSpec, d: int, n: int):
    """Each term's (weight, samples exp(2*pi*i*f*(j/n + 1/d))), in term order.

    Up to _TABLE_CACHE_LIMIT the samples are _term_samples' kept ones.
    Above it nothing is kept: the call builds one table per class f mod d
    among the terms, and each term is gathered from its class's table when
    the caller asks for it, as a writable array of its own.  The samples
    have the same bits either way.
    """
    if n <= _TABLE_CACHE_LIMIT:
        return [(w, _term_samples(f, d, n)) for f, w in _terms(spec)]
    table = functools.cache(lambda r: _roots(r, d, n))  # one per class, for this call
    return ((w, _gather(table(f % d), f)) for f, w in _terms(spec))


def _gather(table: np.ndarray, f: int) -> np.ndarray:
    """The entries (f mod n)*j mod n, j = 0..n-1, of the n-entry table."""
    n = len(table)
    k = (f % n) * np.arange(n)
    k -= k // n * n  # k mod n: numpy divides by a scalar faster than it takes remainders
    return table[k]
