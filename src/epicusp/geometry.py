"""Symmetry verification and self-intersection detection.

The image of gamma_{a,b}^s carries the dihedral symmetry of order b-a for
coprime a, b: advancing the parameter by 1/(b-a) rotates the point by
2*pi*a/(b-a), and reversing it mirrors across the x-axis.  Both identities
are checked by direct sampling.  Self-intersections are found numerically:
sampled points are spatially hashed, nearby non-adjacent sample pairs
become candidates, and each candidate is polished by a damped
Gauss-Newton iteration on gamma(t1) - gamma(t2) = 0.  For the balanced
weight s = 0 every intersection parameter is expected on the rational grid
j/(b^2 - a^2), except that passages through the origin may meet off that
grid; records carry the grid flag either way.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curve import (
    AnySpec,
    CurveSpec,
    PlanePoint,
    TwoTermSpec,
    as_curve,
    curve_scale,
    eval_complex,
)
from .winding import zeros_of_curve

log = logging.getLogger(__name__)


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
    weights.  Deviations are maxima of pointwise distances.  Non-coprime
    (a, b) get coprime=False rather than an error; |s| = 1 is flagged
    degenerate (the image is a circle, whose symmetry group is larger).
    """
    if n < 100:
        raise ValueError("need n >= 100")
    t = np.arange(n) / n
    z = eval_complex(spec, t)
    shift = eval_complex(spec, t + 1.0 / (spec.b - spec.a))
    rot = np.exp(2j * np.pi * spec.a / (spec.b - spec.a)) * z
    refl = eval_complex(spec, 1.0 - t)
    return SymmetryReport(
        claimed_order=spec.b - spec.a,
        rotation_deviation=float(np.max(np.abs(shift - rot))),
        reflection_deviation=float(np.max(np.abs(refl - np.conj(z)))),
        coprime=math.gcd(spec.a, spec.b) == 1,
        degenerate=abs(spec.s) == 1.0,
    )


def _all_frequencies_odd(spec: CurveSpec) -> bool:
    return all(term.frequency % 2 == 1 for term in spec.terms)


def _refine_pair(spec: CurveSpec, t1: float, t2: float, scale: float):
    """Damped Gauss-Newton on gamma(t1) - gamma(t2) = 0.

    Solved via least squares throughout: at a tangential contact the
    2x2 Jacobian [gamma'(t1), -gamma'(t2)] is singular and plain solve
    would blow up.
    """
    def f(u1, u2):
        return complex(eval_complex(spec, u1) - eval_complex(spec, u2))

    val = f(t1, t2)
    for _ in range(30):
        if abs(val) < 1e-13 * scale:
            break
        d1 = complex(eval_complex(spec, t1, order=1))
        d2 = complex(eval_complex(spec, t2, order=1))
        jac = np.array([[d1.real, -d2.real], [d1.imag, -d2.imag]])
        step = np.linalg.lstsq(jac, [-val.real, -val.imag], rcond=None)[0]
        lam = 1.0
        while lam > 1.0 / 256.0:
            cand = f(t1 + lam * step[0], t2 + lam * step[1])
            if abs(cand) <= (1.0 - 0.25 * lam) * abs(val) + 1e-16 * scale:
                t1, t2, val = t1 + lam * step[0], t2 + lam * step[1], cand
                break
            lam *= 0.5
        else:
            break
    return t1, t2, abs(val)


def _polish_antipodal(spec: CurveSpec, t1: float, scale: float) -> Optional[float]:
    """Refine t1 toward a passage of the curve through the origin.

    Curves with all frequencies odd satisfy gamma(t + 1/2) = -gamma(t),
    so a contact between antipodal passages can only happen at the
    origin, where the two branches meet tangentially and Gauss-Newton
    stalls a few 1e-9 short.  One-dimensional Newton toward the nearest
    minimum of |gamma| lands on the passage parameter exactly; returns
    None if the minimum is not an actual origin crossing.
    """
    for _ in range(12):
        g = complex(eval_complex(spec, t1))
        if abs(g) < 1e-13 * scale:
            return t1
        d = complex(eval_complex(spec, t1, order=1))
        t1 -= (g.conjugate() * d).real / abs(d) ** 2
    g = complex(eval_complex(spec, t1))
    return t1 if abs(g) < 1e-13 * scale else None


def _close_pairs(pts: np.ndarray, r: float) -> np.ndarray:
    """Index pairs (i, j), i < j, of the rows of pts at most r apart.

    Points are binned into square cells of side r, so a close pair lies in
    one cell or in two adjacent ones.  Each cell is compared with itself
    and with its four forward neighbours, which meets every adjacent pair
    of cells exactly once.
    """
    cell = np.floor((pts - pts.min(axis=0)) / r).astype(np.int64)
    # the +1 offset and the stride of max+3 keep the y neighbours -1 and
    # +1 from aliasing into the next column of cells
    stride = int(cell[:, 1].max()) + 3
    key = cell[:, 0] * stride + cell[:, 1] + 1
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    rank = np.argsort(order)  # each point's position in the sorted order
    found_i, found_j = [], []
    for dx, dy in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1)):
        target = key + dx * stride + dy
        hi = np.searchsorted(sorted_key, target, side="right")
        # within its own cell a point meets only the members after it
        lo = rank + 1 if dx == dy == 0 else np.searchsorted(sorted_key, target, side="left")
        count = hi - lo
        at = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
        found_i.append(np.repeat(np.arange(len(pts)), count))
        found_j.append(order[at])
    i, j = np.concatenate(found_i), np.concatenate(found_j)
    d = pts[i] - pts[j]
    near = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= r * r
    return np.column_stack([np.minimum(i, j)[near], np.maximum(i, j)[near]])


def self_intersections(
    spec: AnySpec, t_grid: int = 4096, tol: float | None = None
) -> list[IntersectionRecord]:
    """Find parameter pairs (t1, t2), t1 < t2, with gamma(t1) = gamma(t2).

    Sampled points go into a spatial hash with cells the size of the
    longest polyline segment, so close passes of the curve to itself
    become candidate pairs in O(n); tangential contacts are caught this
    way too, which a crossing-only test would miss.  Candidates are
    refined by Gauss-Newton, filtered to genuine coincidences within
    1e-9 of the curve scale, deduplicated, and sorted by t1.

    For a two-term balanced spec (s = 0) each record is tested against
    the rational grid j/(b^2 - a^2): both parameters within 1e-9 of grid
    points set on_rational_grid and the index pair.
    """
    c = as_curve(spec)
    if t_grid < 256:
        raise ValueError("need t_grid >= 256")
    scale = curve_scale(c)
    if tol is None:
        tol = 1e-6 * scale
    accept_tol = 1e-9 * scale

    t = np.arange(t_grid) / t_grid
    z = eval_complex(c, t)
    seg = np.abs(np.diff(np.append(z, z[0])))
    capture = max(float(np.max(seg)), 2.0 * tol)

    # all non-adjacent sample pairs within one segment length of each other;
    # the capture radius must reach the longest segment or crossings sitting
    # between samples could slip through
    pts = np.column_stack([z.real, z.imag])
    pairs = _close_pairs(pts, capture)
    min_sep = max(2, t_grid // 2048)
    candidates: list[tuple[int, int]] = []
    if len(pairs):
        pi, pj = pairs[:, 0], pairs[:, 1]
        gap = np.minimum(pj - pi, t_grid - (pj - pi))
        pi, pj = pi[gap > min_sep], pj[gap > min_sep]
        # keep only discrete closest approaches: sliding either index (or
        # both, for contacts where the branches run parallel) must not get
        # closer, else every slow arc floods the refiner with duplicates
        d = np.abs(z[pi] - z[pj])
        keep = np.ones(len(pi), dtype=bool)
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)):
            keep &= d <= np.abs(z[(pi + di) % t_grid] - z[(pj + dj) % t_grid])
        candidates = sorted(zip(pi[keep].tolist(), pj[keep].tolist()))

    antipodal = _all_frequencies_odd(c)
    refined = [_refine_pair(c, float(t[i]), float(t[j]), scale) for i, j in candidates]
    hits = []
    dropped = 0
    for t1, t2, resid in refined:
        t1, t2 = t1 % 1.0, t2 % 1.0
        if t1 > t2:
            t1, t2 = t2, t1
        gap = min(t2 - t1, 1.0 - (t2 - t1))
        if gap <= 1.0 / t_grid:
            dropped += 1
            continue
        if antipodal and abs((t2 - t1) - 0.5) < 1e-6:
            polished = _polish_antipodal(c, t1, scale)
            if polished is not None:
                t1 = polished % 1.0
                t2 = (t1 + 0.5) % 1.0
                if t1 > t2:
                    t1, t2 = t2, t1
                resid = abs(complex(eval_complex(c, t1) - eval_complex(c, t2)))
        if resid > accept_tol:
            dropped += 1
            continue
        hits.append((t1, t2, resid))
    if dropped:
        log.debug("self_intersections: dropped %d unresolved candidates", dropped)

    kept = _merge_duplicates(hits)

    grid_n = _rational_grid_size(spec)
    records = []
    for t1, t2, _ in kept:
        z1 = complex(eval_complex(c, t1))
        z2 = complex(eval_complex(c, t2))
        point = PlanePoint.from_complex((z1 + z2) / 2.0)
        on_grid = False
        pair = None
        if grid_n is not None:
            j1, j2 = round(t1 * grid_n), round(t2 * grid_n)
            if abs(t1 - j1 / grid_n) < 1e-9 and abs(t2 - j2 / grid_n) < 1e-9:
                on_grid = True
                pair = (int(j1 % grid_n), int(j2 % grid_n))
        records.append(
            IntersectionRecord(
                t1=t1, t2=t2, point=point, on_rational_grid=on_grid, grid_index_pair=pair
            )
        )
    return records


def _merge_duplicates(hits: list[tuple[float, float, float]]) -> list[tuple[float, float, float]]:
    """Collapse (t1, t2, residual) hits that lie within 1e-4 of each other.

    Tangential contacts can leave several nearby converged copies, of which
    the smallest residual wins.  Hits are taken in ascending order, and each
    one merges into the first kept record, in the order kept, that lies
    within 1e-4 in both parameters.  A kept t1 only grows, and never beyond
    the current hit's, so only the records whose t1 is within 2e-4 of the
    hit's can match it, plus those with t1 < 2e-4, which match across the
    wrap at t = 1; a record that leaves that window never matches again.
    """
    kept: list[tuple[float, float, float]] = []
    near: list[int] = []  # indices of the kept records that can still match, ascending
    for t1, t2, resid in sorted(hits):
        near = [k for k in near if kept[k][0] >= t1 - 2e-4 or kept[k][0] < 2e-4]
        for k in near:
            u1, u2, ur = kept[k]
            if _circ(t1, u1) < 1e-4 and _circ(t2, u2) < 1e-4:
                if resid < ur:
                    kept[k] = (t1, t2, resid)
                break
        else:
            near.append(len(kept))
            kept.append((t1, t2, resid))
    return sorted(kept)


def _circ(x: float, y: float) -> float:
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


def _rational_grid_size(spec: AnySpec) -> Optional[int]:
    """b^2 - a^2 for a balanced two-term spec, else None."""
    if isinstance(spec, TwoTermSpec):
        if spec.s == 0:
            return spec.b**2 - spec.a**2
        return None
    c = as_curve(spec)
    if len(c.terms) != 2:
        return None
    (f1, w1), (f2, w2) = [(t.frequency, t.weight) for t in c.terms]
    if abs(w1 - 1.0) < 1e-12 and abs(w2 - 1.0) < 1e-12 and 1 <= f1 < f2:
        return f2**2 - f1**2
    return None


def grid_intersection_check(a: int, b: int) -> bool:
    """Check the rational-grid structure of balanced self-intersections.

    Builds the brute-force oracle of all grid pairs (j, j') with equal
    curve points, runs the numerical detector, and requires an exact
    two-way match within 1e-9: every oracle pair is found and every
    found pair is either a grid pair or a meeting of two origin passages
    (those lie at t = h/(2(b-a)), which leaves the grid when a+b is odd).
    """
    if not 1 <= a < b:
        raise ValueError("need 1 <= a < b")
    if math.gcd(a, b) != 1:
        raise ValueError("need coprime a, b")
    spec = TwoTermSpec(a, b, 0.0)
    n = b * b - a * a
    scale = curve_scale(spec)
    pts = eval_complex(spec, np.arange(n) / n)
    oracle = set()
    for j1 in range(n):
        for j2 in range(j1 + 1, n):
            if abs(pts[j1] - pts[j2]) < 1e-12 * scale:
                oracle.add((j1 / n, j2 / n))

    origin_ts = [float(f) for f in zeros_of_curve(a, b)]
    origin_pairs = {
        (u1, u2) for i, u1 in enumerate(origin_ts) for u2 in origin_ts[i + 1 :]
    }

    found = [(r.t1, r.t2) for r in self_intersections(spec)]

    def matches(pair, reference):
        return any(
            _circ(pair[0], q[0]) < 1e-9 and _circ(pair[1], q[1]) < 1e-9
            for q in reference
        )

    for pair in oracle:
        if not matches(pair, found):
            return False
    for pair in found:
        if not matches(pair, oracle) and not matches(pair, origin_pairs):
            return False
    return True
