"""Symmetry verification and self-intersections of the two-term family.

The image of gamma_{a,b}^s carries the dihedral symmetry of order b-a for
coprime a, b: advancing the parameter by 1/(b-a) rotates the point by
2*pi*a/(b-a), and reversing it mirrors across the x-axis.  Both are checked
on the grid t_j = j/n.  Each term's grid samples exp(2*pi*i*f*j/n) are
gathered once from one table of n-th roots of unity, and the curve is
their weighted sum; the reflection gamma(1 - t_j) = gamma(t_{(n-j) mod n})
reads the same samples at the mirrored indices.  The rotation is checked
against the shifted parameters evaluated by eval_complex, independently
of the table.  Both kinds of per-term samples depend on the frequency and
n alone, so curve keeps them for the next weight.  The grid is walked in
blocks of a few thousand samples, read as slices, so a check allocates
nothing of size n beyond the kept samples.

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

For the balanced weight s = 0 every intersection parameter lies on the
rational grid j/(b^2 - a^2), except that passages through the origin may
meet off that grid; records carry the grid flag either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curve import (
    MAX_GRID_SAMPLES,
    _shifted_unit_roots,
    _term_samples,
    _terms,
    curve_scale,
    eval_complex,
)
from .singularity import _level_root_rows
from .spec import PlanePoint, TwoTermSpec, _check_pair, zeros_of_curve


_SYMMETRY_BLOCK = 4096  # indices j per block, and as many mirrors: 64 KB per complex array


@dataclass(frozen=True)
class SymmetryReport:
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


@dataclass(frozen=True)
class IntersectionRecord:
    """A self-intersection: gamma(t1) = gamma(t2) with t1 < t2."""

    t1: float
    t2: float
    point: PlanePoint
    on_rational_grid: bool
    grid_index_pair: Optional[tuple[int, int]] = None


def verify_symmetry(spec: TwoTermSpec, n: int = 1024) -> SymmetryReport:
    """Measure the rotation and reflection identities over n samples.

    The rotation identity gamma(t + 1/(b-a)) = R_{2*pi*a/(b-a)} gamma(t)
    holds for every weight s (the weights multiply both sides equally);
    the reflection identity gamma(1-t) = conj(gamma(t)) needs only real
    weights.  Deviations are maxima of pointwise distances.  Both sides
    are weighted sums of per-term samples that curve keeps per frequency:
    the grid samples exp(2*pi*i*f*j/n), gathered once from the table of
    n-th roots of unity, and the shifted samples exp(2*pi*i*f*(j/n +
    1/(b-a))), which eval_complex computes independently of the table.
    So the rotation identity compares two independent evaluations, and a
    sweep over s gathers and evaluates them once.  Since 1 - j/n =
    (n-j)/n mod 1, the reflected samples are the grid samples at n-j.

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
    symmetry group is larger).  n must lie in [100, MAX_GRID_SAMPLES];
    ValueError is raised before any sample is built.
    """
    if n < 100:
        raise ValueError("need n >= 100")
    if n > MAX_GRID_SAMPLES:
        raise ValueError(f"need n <= {MAX_GRID_SAMPLES}")
    terms = _terms(spec)
    d = spec.b - spec.a
    grid = [(w, _term_samples(f, n)) for f, w in terms]
    shifted = [(w, _shifted_unit_roots(f, d, n)) for f, w in terms]
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
    the module docstring; singularity._level_root_rows finds them, and a
    double root, where a loop is born or dies, is one record.  Records are
    sorted by t1, and their point is the mean of gamma(t1) and gamma(t2).

    For the balanced weight s = 0 each record is tested against the
    rational grid j/(b^2 - a^2): both parameters within 1e-9 of grid
    points set on_rational_grid and the index pair.

    Raises
    ------
    TypeError
        If spec is not a TwoTermSpec.
    ValueError
        If the intersections form a continuum: a and b share a factor, or
        s = 1, or s = -1 with a >= 2.  Each curve retraces itself.
    """
    if not isinstance(spec, TwoTermSpec):
        raise TypeError(f"self_intersections needs a TwoTermSpec, not {spec!r}")
    a, b, s = spec.a, spec.b, spec.s
    if math.gcd(a, b) > 1 or s == 1.0 or (s == -1.0 and a > 1):
        raise ValueError(
            f"({a},{b},{s}) retraces itself, so its self-intersections form a continuum"
        )
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
    t1, t2 = t1[order], t2[order]
    z1, z2 = eval_complex(spec, t1), eval_complex(spec, t2)
    x, y = 0.5 * (z1.real + z2.real), 0.5 * (z1.imag + z2.imag)

    pairs = [None] * len(t1)
    if s == 0.0:
        # np.rint rounds half to even as round() does; j / n is correctly
        # rounded, as int / int is
        n = b * b - a * a
        j1, j2 = np.rint(t1 * n).astype(np.int64), np.rint(t2 * n).astype(np.int64)
        on = (np.abs(t1 - j1 / n) < 1e-9) & (np.abs(t2 - j2 / n) < 1e-9)
        grid = zip((j1 % n).tolist(), (j2 % n).tolist())
        pairs = [pair if ok else None for ok, pair in zip(on.tolist(), grid)]
    rows = zip(t1.tolist(), t2.tolist(), x.tolist(), y.tolist(), pairs)
    return [
        IntersectionRecord(r1, r2, PlanePoint(px, py), pair is not None, pair)
        for r1, r2, px, py, pair in rows
    ]


def _half_gap_roots(a: int, b: int, s: float) -> list[np.ndarray]:
    """The roots of g_+ and of g_- in (0, 1/2), each sorted, for coprime a, b."""
    roots, counts = _level_root_rows(a, b, 1.0, np.array([[1.0], [-1.0]]), np.full(2, s))
    return np.split(roots, counts[:1])


def grid_intersection_check(a: int, b: int) -> bool:
    """Check the rational-grid structure of balanced self-intersections.

    Builds the brute-force oracle of all grid pairs (j, j') with equal
    curve points, runs the numerical detector, and requires an exact
    two-way match within 1e-9: every oracle pair is found and every
    found pair is either a grid pair or a meeting of two origin passages
    (those lie at t = h/(2(b-a)), which leaves the grid when a+b is odd).
    Both the oracle and the matching compare whole blocks of rows at once,
    each block holding about _PAIR_BLOCK comparisons.
    """
    a, b = _check_pair(a, b)
    if math.gcd(a, b) != 1:
        raise ValueError("need coprime a, b")
    spec = TwoTermSpec(a, b, 0.0)
    n = b * b - a * a
    tol = 1e-12 * curve_scale(spec)
    pts = eval_complex(spec, np.arange(n) / n)
    rows = max(1, _PAIR_BLOCK // n)
    oracle = []
    for lo in range(0, n, rows):
        near = np.abs(pts[lo : lo + rows, None] - pts) < tol
        j1, j2 = np.nonzero(np.triu(near, k=lo + 1))  # j2 > j1 only
        oracle.append(np.column_stack((j1 + lo, j2)) / n)
    oracle = np.concatenate(oracle)

    origin_ts = np.array([float(f) for f in zeros_of_curve(a, b)])
    i, k = np.triu_indices(len(origin_ts), 1)
    origin_pairs = np.column_stack((origin_ts[i], origin_ts[k]))

    found = np.array([(r.t1, r.t2) for r in self_intersections(spec)]).reshape(-1, 2)
    if not _matched(oracle, found).all():
        return False
    return bool((_matched(found, oracle) | _matched(found, origin_pairs)).all())


_PAIR_BLOCK = 1 << 18  # comparisons per block in grid_intersection_check


def _matched(pairs: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per row (t1, t2) of pairs: is some reference row within 1e-9 of both, mod 1?"""
    hit = np.zeros(len(pairs), dtype=bool)
    rows = max(1, _PAIR_BLOCK // max(len(reference), 1))
    for lo in range(0, len(pairs), rows):
        block = pairs[lo : lo + rows]
        near = np.ones((len(block), len(reference)), dtype=bool)
        for col in (0, 1):
            d = np.abs(block[:, col, None] - reference[:, col]) % 1.0  # as _circ_dist
            near &= np.minimum(d, 1.0 - d) < 1e-9
        hit[lo : lo + rows] = near.any(axis=1)
    return hit
