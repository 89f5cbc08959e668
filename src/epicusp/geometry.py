"""Symmetry verification and self-intersections of the two-term family.

The image of gamma_{a,b}^s carries the dihedral symmetry of order b-a for
coprime a, b: advancing the parameter by 1/(b-a) rotates the point by
2*pi*a/(b-a), and reversing it mirrors across the x-axis.  Both are checked
on the grid t_j = j/n.  Each term's grid samples exp(2*pi*i*f*j/n) are
gathered once from one table of n-th roots of unity, and the curve is
their weighted sum; the reflection gamma(1 - t_j) = gamma(t_{(n-j) mod n})
reads the same samples at the mirrored indices.  With d = b-a the
advanced samples exp(2*pi*i*f*(j/n + 1/d)) are a gather from the table
turned by the class f mod d, whose phases ((f*j mod n)*d + (f mod d)*n)
mod n*d over n*d are reduced exactly in integers; a and b share that
class.  Both kinds of per-term samples depend on the frequency and n
alone, so curve keeps them for the next weight; above its cache limit,
where nothing is kept, the terms of one class gather from one table built
for the call.  The grid is walked in blocks of a few thousand samples,
read as slices, so a check allocates nothing of size n beyond the kept
samples.

The group is no larger than D_{b-a} when b-a >= 2 and |s| < 1.  Expanding
the product of gamma with its conjugate,

    |gamma(t)|^2 = 2(1 + s^2) + 2(1 - s^2) cos(2 pi (b-a) t),

so the modulus is at most 2 and reaches 2 exactly at t = k/(b-a), where
gamma = 2 exp(2 pi i a k/(b-a)): b-a equally spaced points of the circle
|z| = 2, distinct since a is prime to b-a.  For b-a >= 2 no disk of radius
below 2 holds them all, so |z| <= 2 is the image's smallest enclosing
disk, which is unique.  A symmetry of the image maps that disk to itself,
so it fixes 0, keeps the modulus and permutes the b-a points; the
isometries fixing 0 that permute the vertices of a regular (b-a)-gon form
D_{b-a}.  The image has all of it: the turn by 2*pi*a/(b-a) generates the
turns by multiples of 2*pi/(b-a), a being prime to b-a.  For b-a = 1 the
modulus 2 is reached at t = 0 alone, and the question stays open.

Self-intersections reduce to one-dimensional roots.  Write
t1 = sigma/2 - u and t2 = sigma/2 + u.  Since
exp(2*pi*i*f*t2) - exp(2*pi*i*f*t1) = 2i * exp(pi*i*f*sigma) * sin(2*pi*f*u),
gamma(t1) = gamma(t2) holds exactly when

    (1-s) sin(2 pi a u) + exp(pi i (b-a) sigma) (1+s) sin(2 pi b u) = 0.

For coprime a, b, |s| < 1 and 0 < u < 1/2 the two sines never vanish
together, so the phase factor is real: sigma = m/(b-a) for an integer m,
and the factor is (-1)^m.  Dividing by sin(2 pi u) > 0 leaves u a root of

    g_+-(u) = [(1-s) sin(2 pi a u) +- (1+s) sin(2 pi b u)] / sin(2 pi u)
            = (1-s) U_{a-1}(cos 2 pi u) +- (1+s) U_{b-1}(cos 2 pi u)

with the sign (-1)^m, U_k being the Chebyshev polynomials of the second
kind.  A pair of distinct parameters mod 1 has exactly two representations
(sigma/2, u) with 0 < u < 1/2, namely (sigma/2, u) and
(sigma/2 + 1/2, 1/2 - u), so the pairs t1 = m/(2(b-a)) - u (mod 1),
t2 = m/(2(b-a)) + u for m = 0, ..., b-a-1 and every root u of g_{(-1)^m}
list each self-intersection exactly once.  The ends are known in closed
form, U_{k-1}(1) = k and U_{k-1}(-1) = (-1)^(k-1) k:

    g_+-(0) = (1-s) a +- (1+s) b,
    g_+-(1/2) = (-1)^(a-1) (1-s) a +- (-1)^(b-1) (1+s) b.

g_-(0) and one of the g_+-(1/2) vanish at the cusp weight
s = (a-b)/(a+b), where the loop a cusp gives birth to still has zero size.
singularity._level_root_rows finds the roots from g's numerator, whose
sign it shares inside (0, 1/2).

For the balanced weight s = 0 the roots are rational, and spec lists the
pairs from integers (spec._balanced_intersections, which proves it); the
listing needs no numpy, so `epicusp intersect -s 0` calls it directly.
Only the other weights load singularity, for _level_root_rows.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .curve import _weighted_samples, curve_scale, eval_complex
from .spec import PlanePoint, TwoTermSpec, _check_pair, _curve, _grid_size, _Record, zeros_of_curve
# IntersectionRecord is defined in spec and re-exported: pickles written
# while it was defined here name this module
from .spec import IntersectionRecord, _balanced_intersections, _check_isolated


_SYMMETRY_BLOCK = 4096  # indices j per block, and as many mirrors: 64 KB per complex array


class SymmetryReport(_Record):
    """Measured deviations from the dihedral symmetry identities."""

    claimed_order: int
    rotation_deviation: float
    reflection_deviation: float
    coprime: bool
    degenerate: bool = False

    @property
    def verified(self) -> bool:
        return (
            self.coprime
            and self.rotation_deviation < 1e-9
            and self.reflection_deviation < 1e-9
        )


def verify_symmetry(spec: TwoTermSpec, n: int = 1024) -> SymmetryReport:
    """Measure the rotation and reflection identities over n samples.

    The rotation identity gamma(t + 1/(b-a)) = R_{2*pi*a/(b-a)} gamma(t)
    holds for every weight s (the weights multiply both sides equally);
    the reflection identity gamma(1-t) = conj(gamma(t)) needs only real
    weights.  Deviations are maxima of pointwise distances.  Both sides
    are weighted sums of per-term samples that curve keeps per frequency:
    the grid samples exp(2*pi*i*f*j/n), gathered once from the table of
    n-th roots of unity, and the shifted samples exp(2*pi*i*f*(j/n +
    1/(b-a))), gathered from the table turned by the class f mod (b-a),
    whose phases are reduced exactly (module docstring).  So a sweep over s
    gathers them once, and above curve's cache limit one table per class
    serves every term of that class.  Since 1 - j/n = (n-j)/n mod 1, the
    reflected samples are the grid samples at n-j.

    The grid is walked in blocks of _SYMMETRY_BLOCK indices j <= n/2.  A
    block reads the samples at j and at their mirrors n-j as two
    contiguous slices, weights and sums them in term order, and pairs each
    j with n-j by reversing one side of the reflection difference; j = 0
    is its own mirror.  Every sample is evaluated once, no
    temporary grows with n, and the reflection distance at n-j is that
    at j with its real part negated, so the first half holds its maximum.
    Running maxima are exact: the deviations have the same bits for any
    block size.  Non-coprime (a, b) get coprime=False rather than an
    error; |s| = 1 is flagged degenerate (the image is a circle, whose
    symmetry group is larger).  n must be an integer in
    [100, MAX_GRID_SAMPLES]; ValueError is raised before any sample is
    built, as TypeError is for a spec that is not a TwoTermSpec.
    """
    _curve(spec)
    n = _grid_size(n, 100)
    d = spec.b - spec.a
    grid, shifted = (list(_weighted_samples(spec, k, n)) for k in (1, d))
    turn = np.exp(2j * np.pi * spec.a / d)
    rotation, reflection = [], []
    half = n // 2 + 1
    for lo in range(0, half, _SYMMETRY_BLOCK):
        hi = min(lo + _SYMMETRY_BLOCK, half)
        # the mirrors n-j of j = lo..hi-1 in increasing order; j = 0 is its own
        mirror = (n + 1 - hi, n + 1 - max(lo, 1))
        z = _weighted_sum(grid, lo, hi)
        z_mirror = _weighted_sum(grid, *mirror)
        for zs, span in ((z, (lo, hi)), (z_mirror, mirror)):
            shift = _weighted_sum(shifted, *span)
            rotation.append(np.abs(shift - turn * zs).max(initial=0.0))
        # z_mirror[i] is the mirror of z[-1 - i]
        paired = np.conj(z[::-1][: len(z_mirror)])
        reflection.append(np.abs(z_mirror - paired).max(initial=0.0))
        if lo == 0:
            reflection.append(np.abs(z[0] - np.conj(z[0])))
    return SymmetryReport(
        claimed_order=d,
        rotation_deviation=float(np.max(rotation)),
        reflection_deviation=float(np.max(reflection)),
        coprime=math.gcd(spec.a, spec.b) == 1,
        degenerate=abs(spec.s) == 1.0,
    )


def _weighted_sum(terms: list[tuple[complex, np.ndarray]], lo: int, hi: int) -> np.ndarray:
    """wa * ea[lo:hi] + wb * eb[lo:hi] for the two terms (wa, ea), (wb, eb).

    eval_grid adds the first product to zeros, which turns a -0.0 part
    into 0.0.  Starting from the first product instead changes at most
    the sign of a zero part of the sum, which no distance sees.
    """
    (wa, ea), (wb, eb) = terms
    out = wa * ea[lo:hi]
    out += wb * eb[lo:hi]
    return out


def self_intersections(spec: TwoTermSpec) -> list[IntersectionRecord]:
    """Every parameter pair (t1, t2), t1 < t2 in [0, 1), with gamma(t1) = gamma(t2).

    The pairs come from the roots of g_+ and g_- on (0, 1/2), as set out in
    the module docstring, and a double root, where a loop is born or dies,
    is one record.  Records are sorted by t1, then t2, and their point is
    the mean of gamma(t1) and gamma(t2).

    For the balanced weight s = 0 the pairs are the exact rationals of
    spec._balanced_intersections, whose records are on the grid
    j/(b^2 - a^2) but for meetings of two origin passages.  For any other
    weight singularity._level_root_rows finds the roots, and records are off
    the grid.

    Raises
    ------
    TypeError
        If spec is not a TwoTermSpec.
    ValueError
        If the intersections form a continuum: a and b share a factor, or
        s = 1, or s = -1 with a >= 2.  Each curve retraces itself.
    """
    _curve(spec)
    if spec.s == 0.0:
        return _balanced_intersections(spec)
    _check_isolated(spec)
    t1, t2 = _level_pairs(spec.a, spec.b, spec.s)
    z1, z2 = eval_complex(spec, t1), eval_complex(spec, t2)
    x, y = 0.5 * (z1.real + z2.real), 0.5 * (z1.imag + z2.imag)
    points = map(PlanePoint._make, zip(x.tolist(), y.tolist()))
    on, pairs = itertools.repeat(False), itertools.repeat(None)
    return list(map(IntersectionRecord._make, zip(t1.tolist(), t2.tolist(), points, on, pairs)))


def _level_pairs(a: int, b: int, s: float) -> tuple[np.ndarray, np.ndarray]:
    """t1 and t2 of every pair from the kernel's roots of g_+ and g_-, sorted."""
    half_gaps = _half_gap_roots(a, b, s)
    d = b - a
    centre = np.concatenate([np.full(len(half_gaps[m % 2]), m / (2 * d)) for m in range(d)])
    u = np.concatenate([half_gaps[m % 2] for m in range(d)])
    # centre - u lies in (-1/2, 1/2); the final % 1.0 turns a tiny negative
    # one, which rounds to 1.0 once wrapped, into 0.0
    first = np.where(centre < u, centre - u + 1.0, centre - u) % 1.0
    second = centre + u
    t1, t2 = np.minimum(first, second), np.maximum(first, second)
    order = np.lexsort((t2, t1))
    return t1[order], t2[order]


def _half_gap_roots(a: int, b: int, s: float) -> list[np.ndarray]:
    """The roots of g_+ and of g_- in (0, 1/2), each sorted, for coprime a, b."""
    from .singularity import _level_root_rows

    roots, counts = _level_root_rows(a, b, 1.0, np.array([[1.0], [-1.0]]), np.full(2, s))
    return np.split(roots, counts[:1])


def grid_intersection_check(a: int, b: int) -> bool:
    """Check the rational-grid structure of balanced self-intersections.

    Builds the brute-force oracle of all grid index pairs (j1, j2), j1 < j2,
    whose curve points agree within 1e-12 of the curve's scale, and compares
    it with self_intersections, whose pairs at s = 0 are exact.  A record on
    the grid must carry an oracle pair as its grid_index_pair, and its t1, t2
    must equal j1/n, j2/n: both are correctly rounded quotients of the same
    rationals.  A record off the grid must be a meeting of two origin
    passages, both t being floats h/(2(b-a)) (these leave the grid when a+b
    is odd).  The grid pairs found must be the oracle's, each once.  The
    oracle compares whole blocks of rows at once, each block holding about
    _PAIR_BLOCK comparisons.
    """
    a, b = _check_pair(a, b)
    if math.gcd(a, b) != 1:
        raise ValueError("need coprime a, b")
    spec = TwoTermSpec(a, b, 0.0)
    n = b * b - a * a
    tol = 1e-12 * curve_scale(spec)
    pts = eval_complex(spec, np.arange(n) / n)
    rows = max(1, _PAIR_BLOCK // n)
    oracle = set()
    for lo in range(0, n, rows):
        near = np.abs(pts[lo : lo + rows, None] - pts) < tol
        j1, j2 = np.nonzero(np.triu(near, k=lo + 1))  # j2 > j1 only
        oracle.update(zip((j1 + lo).tolist(), j2.tolist()))

    origin_pairs = set(itertools.combinations([float(f) for f in zeros_of_curve(a, b)], 2))
    found = []
    for r in self_intersections(spec):
        if r.grid_index_pair is None:
            if (r.t1, r.t2) not in origin_pairs:
                return False
        elif (r.t1, r.t2) != (r.grid_index_pair[0] / n, r.grid_index_pair[1] / n):
            return False
        else:
            found.append(r.grid_index_pair)
    return sorted(found) == sorted(oracle)


_PAIR_BLOCK = 1 << 18  # comparisons per block in grid_intersection_check
