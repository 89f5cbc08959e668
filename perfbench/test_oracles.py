"""Tests of the benchmark's reference computations (no epicusp needed).

    python3 -m pytest perfbench/test_oracles.py -q

Each check passes on a case derived by hand or by a second method, and
fails once the output is damaged: one record dropped, one coordinate moved.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles as O  # noqa: E402


def _damaged(rows, move):
    """Two damaged copies of rows: the last one dropped, and one coordinate moved."""
    dropped = rows[:-1]
    moved = [list(r) for r in rows]
    moved[len(moved) // 2][1] += move
    return dropped, [tuple(r) for r in moved]


# --- cusp locus -------------------------------------------------------------


@pytest.mark.parametrize("a, b", [(1, 3), (2, 5), (3, 11)])
def test_cusp_locus_is_where_the_derivative_vanishes(a, b):
    s_bar, ts = O.cusp_locus(a, b)
    assert len(ts) == b - a
    s = float(s_bar)
    for t in ts:
        d = (1 - s) * a * np.exp(2j * np.pi * a * float(t)) + (1 + s) * b * np.exp(2j * np.pi * b * float(t))
        assert abs(d) < 1e-12 * (a + b)


def test_cusp_check_passes_on_the_locus_and_fails_when_damaged():
    assert O.cusp_locus(1, 3) == (Fraction(-1, 2), [Fraction(1, 4), Fraction(3, 4)])
    s_bar, ts = O.cusp_locus(2, 7)
    rows = [(float(s_bar), float(t)) for t in ts]
    O.check_cusps(2, 7, rows)
    for bad in _damaged(rows, 1e-5):
        with pytest.raises(O.Mismatch):
            O.check_cusps(2, 7, bad)


# --- s = 0 intersections ----------------------------------------------------


def test_intersection_oracle_of_1_3_by_hand():
    # gamma(j/8) = i^j (1 + i^(2j)) pairs up j -> 3j mod 8; the origin
    # passages 1/4 and 3/4 are grid points 2/8 and 6/8
    eighths = {(Fraction(1, 8), Fraction(3, 8)), (Fraction(2, 8), Fraction(6, 8)), (Fraction(5, 8), Fraction(7, 8))}
    assert O.intersection_oracle(1, 3) == eighths


@pytest.mark.parametrize("a, b", [(1, 4), (2, 5), (3, 8), (5, 7), (11, 29)])
def test_intersection_oracle_matches_a_float_grid_search(a, b):
    n = b * b - a * a
    z = O.gamma_on_grid(a, b, 0.0, n)
    close = np.abs(z[:, None] - z[None, :]) < 1e-9
    grid = {(Fraction(i, n), Fraction(j, n)) for i, j in zip(*np.nonzero(np.triu(close, 1)))}
    _, origin = O.cusp_locus(a, b)
    pairs = grid | {(u, v) for i, u in enumerate(origin) for v in origin[i + 1 :]}
    assert O.intersection_oracle(a, b) == pairs


def test_intersection_check_fails_when_damaged():
    rows = sorted((float(u), float(v)) for u, v in O.intersection_oracle(3, 8))
    O.check_intersections_s0(3, 8, rows)
    for bad in _damaged(rows, 1e-6):
        with pytest.raises(O.Mismatch):
            O.check_intersections_s0(3, 8, bad)


# --- s != 0 intersections ---------------------------------------------------


def _limacon_record(s):
    # (1, 2): gamma(t1) = gamma(t2) needs u1 + u2 = -(1-s)/(1+s), so u2 = conj(u1)
    t1 = math.acos(-(1 - s) / (2 * (1 + s))) / (2 * math.pi)
    return t1, 1.0 - t1, O.gamma(1, 2, s, t1)


def test_general_check_passes_on_the_limacon_and_fails_when_damaged():
    t1, t2, z = _limacon_record(0.5)
    O.check_intersections_general(1, 2, 0.5, [(t1, t2, z)])
    with pytest.raises(O.Mismatch):
        O.check_intersections_general(1, 2, 0.5, [(t1, t2 + 1e-6, z)])
    with pytest.raises(O.Mismatch):
        O.check_intersections_general(1, 2, 0.5, [(t1, t2, z + 1e-6)])


def _orbit(a, b, t1, t2):
    """All images of one pair under t -> t + 1/(b-a) and t -> 1 - t."""
    out = set()
    for k in range(b - a):
        for u1, u2 in ((t1, t2), (1.0 - t1, 1.0 - t2)):
            p = sorted(((u1 + k / (b - a)) % 1.0, (u2 + k / (b - a)) % 1.0))
            out.add((round(p[0], 12), round(p[1], 12)))
    return sorted(out)


def test_dihedral_closure_holds_for_an_orbit_and_fails_when_damaged():
    rows = _orbit(2, 7, 0.013, 0.291)
    assert len(rows) == 10
    O.check_dihedral_closure(2, 7, rows)
    for bad in _damaged(rows, 1e-5):
        with pytest.raises(O.Mismatch):
            O.check_dihedral_closure(2, 7, bad)


# --- zeros of x'(t) ------------------------------------------------------------


def _sign_changes(a, b, s, n=1 << 16):
    t = (np.arange(n) + 0.5) / n  # offset grid: never lands on t = 0 or 1/2
    x = (1 - s) * a * np.sin(2 * np.pi * a * t) + (1 + s) * b * np.sin(2 * np.pi * b * t)
    return int(np.sum(np.sign(x) != np.sign(np.roll(x, 1))))


@pytest.mark.parametrize("a, b", [(1, 3), (2, 5), (3, 4), (4, 5), (2, 9)])
@pytest.mark.parametrize("s", [Fraction(-1), Fraction(-7, 10), Fraction(-1, 5), Fraction(3, 10), Fraction(1)])
def test_x_prime_zero_count_matches_sign_changes(a, b, s):
    assert O.x_prime_zero_count(a, b, s) == _sign_changes(a, b, float(s))


def test_x_prime_zero_count_of_1_3_in_closed_form():
    # criterion 10's cardinalities: two branches merge at s = -1/2
    for s, count in ((-0.9, 2), (-0.75, 2), (-0.5, 4), (-0.25, 6), (0, 6), (1, 6)):
        assert O.x_prime_zero_count(1, 3, Fraction(s)) == count


def _diagram(a, b, s_grid=11):
    """A minimal document in the diagram's layout with the right counts."""
    lines = []
    for i in range(s_grid):
        s = Fraction(-1) + Fraction(2 * i, s_grid - 1)
        x = (float(s) + 1.1) / 2.2 * 800
        lines += [f'<circle class="udef-dot" cx="{x:.3f}" cy="{k}" r="1.2"/>' for k in range(O.x_prime_zero_count(a, b, s))]
    s_bar, ts = O.cusp_locus(a, b)
    lines += [f'<circle class="cusp-marker" cx="0" cy="0" r="5" data-s="{float(s_bar):.6g}" data-t="{float(t):.6g}"/>' for t in ts]
    return lines


def test_diagram_check_passes_and_fails_when_damaged():
    lines = _diagram(2, 5)
    O.check_diagram_svg(2, 5, "\n".join(lines), s_grid=11)
    first_dot = next(i for i, line in enumerate(lines) if "udef-dot" in line)
    with pytest.raises(O.Mismatch):
        O.check_diagram_svg(2, 5, "\n".join(lines[:first_dot] + lines[first_dot + 1 :]), s_grid=11)
    moved = [line.replace('data-t="0.5"', 'data-t="0.50001"') for line in lines]
    assert moved != lines
    with pytest.raises(O.Mismatch):
        O.check_diagram_svg(2, 5, "\n".join(moved), s_grid=11)


# --- winding and polylines ------------------------------------------------------


@pytest.mark.parametrize("a, b, s", [(1, 3, -0.5), (1, 3, 0.5), (2, 7, -0.2), (4, 9, 0.8)])
def test_winding_by_roots_about_the_origin_and_far_away(a, b, s):
    assert O.winding_by_roots(a, b, s, 0j)[0] == (a if s < 0 else b)
    assert O.winding_by_roots(a, b, s, 3 + 1j)[0] == 0


def test_winding_by_roots_matches_argument_tracking():
    rng = np.random.default_rng(7)
    for _ in range(20):
        z0 = complex(*rng.uniform(-2, 2, 2))
        w = O.gamma_on_grid(2, 5, 0.3, 1 << 15) - z0
        if np.min(np.abs(w)) < 0.05:
            continue
        turns = np.sum(np.angle(np.roll(w, -1) / w)) / (2 * np.pi)
        assert O.winding_by_roots(2, 5, 0.3, z0)[0] == round(turns)


def _polyline_doc(curves, samples):
    out = []
    for a, b, s in curves:
        z = O.gamma_on_grid(a, b, s, samples)
        z = np.append(z, z[0])
        pts = " ".join(f"{(v.real + 2.2) / 4.4 * 800:.3f},{(2.2 - v.imag) / 4.4 * 800:.3f}" for v in z)
        out.append(f'<polyline points="{pts}" fill="none"/>')
    return "\n".join(out)


def test_curve_svg_check_passes_and_fails_when_damaged():
    curves = [(1, 3, 0.5), (1, 3, -0.5)]
    doc = _polyline_doc(curves, 64)
    O.check_curve_svg(doc, curves, 64)
    first = doc.split('points="')[1].split(" ")[0]
    x, y = first.split(",")
    with pytest.raises(O.Mismatch):
        O.check_curve_svg(doc.replace(first + " ", "", 1), curves, 64)
    with pytest.raises(O.Mismatch):
        O.check_curve_svg(doc.replace(first, f"{float(x) + 0.01:.3f},{y}", 1), curves, 64)
