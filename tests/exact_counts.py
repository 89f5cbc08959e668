"""Exact zero counts of the two-term family, in rational arithmetic.

Both the self-intersections and the zeros of x'(t) come down to the roots
u in (0, 1/2) of w_a sin(2 pi a u) + w_b sin(2 pi b u).  Divided by
sin(2 pi u) > 0 that sum is g(cos 2 pi u) for the polynomial
g = w_a U_{a-1} + w_b U_{b-1}, U_k being the Chebyshev polynomials of the
second kind, so its distinct roots are those of g in (-1, 1), counted here
by a Sturm sequence over Fractions.  Nothing here uses the library's
search; only the weights near which counts change are read off it.

gamma(t1) = gamma(t2) with t1 = m/(2(b-a)) - u, t2 = m/(2(b-a)) + u and
0 < u < 1/2 holds for the u with g = (1-s) U_{a-1} + (-1)^m (1+s) U_{b-1}
zero at cos 2 pi u (see the geometry module), and every pair arises from
one m in 0..b-a-1.  x'(t) vanishes at t = 0, t = 1/2 and at t = u, 1 - u
for the roots u of g = (1-s) a U_{a-1} + (1+s) b U_{b-1}.
"""

import math
from fractions import Fraction

import numpy as np

from epicusp.singularity import _monotone_pieces


def chebyshev_u(k: int) -> list[Fraction]:
    """Coefficients, lowest first, of U_k, from U_{k+1} = 2x U_k - U_{k-1}."""
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(2)]
    if k == 0:
        return prev
    for _ in range(k - 1):
        nxt = [Fraction(0)] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def _trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def poly_value(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def roots_inside(p: list[Fraction], lo=-1, hi=1) -> int:
    """Distinct roots of p in the open interval (lo, hi), p not zero.

    -1 <= lo < hi <= 1, and an end inside (-1, 1) must not be a root.
    A Sturm sequence in integers: p is scaled to integer coefficients, each
    remainder is a pseudo-remainder scaled by a positive factor and divided
    by its content, so every member keeps the signs of the rational one.
    """
    p = _trim(p)
    scale = math.lcm(*(Fraction(c).denominator for c in p))
    p = [int(c * scale) for c in p]
    for end in (1, -1):
        while len(p) > 1 and poly_value(p, end) == 0:
            # divide by (x - end)
            q, carry = [0] * (len(p) - 1), 0
            for i in range(len(p) - 1, 0, -1):
                carry = p[i] + carry * end
                q[i - 1] = carry
            p = q
    if len(p) <= 1:
        return 0
    seq = [p, _primitive([i * c for i, c in enumerate(p)][1:])]
    while len(seq[-1]) > 1:
        rem, divisor = list(seq[-2]), seq[-1]
        lead = divisor[-1]
        while len(rem) >= len(divisor):
            # |lead| * rem - sign(lead) * rem[-1] * x^shift * divisor cancels rem[-1]
            c, shift = rem[-1] if lead > 0 else -rem[-1], len(rem) - len(divisor)
            rem = [abs(lead) * r for r in rem]
            for i, d in enumerate(divisor):
                rem[i + shift] -= c * d
            rem = _trim(rem[:-1])
        if not rem:
            break
        seq.append(_primitive([-c for c in rem]))

    def sign_changes(x):
        signs = [v > 0 for v in (poly_value(q, x) for q in seq) if v != 0]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    return sign_changes(Fraction(lo)) - sign_changes(Fraction(hi))


def _primitive(p: list[int]) -> list[int]:
    """p divided by the gcd of its coefficients, a positive integer."""
    g = math.gcd(*p)
    return [c // g for c in p]


def u_sum(a: int, b: int, wa, wb) -> list[Fraction]:
    """Coefficients of wa*U_{a-1} + wb*U_{b-1}."""
    g = [Fraction(0)] * b
    for i, c in enumerate(chebyshev_u(a - 1)):
        g[i] += wa * c
    for i, c in enumerate(chebyshev_u(b - 1)):
        g[i] += wb * c
    return g


def intersection_count(a: int, b: int, s) -> int:
    """The number of self-intersection pairs of (a, b, s), exactly."""
    s = Fraction(s)
    plus, minus = (roots_inside(u_sum(a, b, 1 - s, sign * (1 + s))) for sign in (1, -1))
    d = b - a
    return (d + 1) // 2 * plus + d // 2 * minus


def x_prime_count(a: int, b: int, s) -> int:
    """The number of distinct t in [0, 1) with x'(t) = 0, exactly."""
    s = Fraction(s)
    return 2 + 2 * roots_inside(u_sum(a, b, (1 - s) * a, (1 + s) * b))


def critical_values(a: int, b: int) -> list[float]:
    """R(u) = sin(2 pi b u) / sin(2 pi a u) at its critical points in (0, 1/2)."""
    # the interior breakpoints other than the poles k/(2a)
    u = np.array([p for p in _monotone_pieces(a, b)[1:-1] if abs(2 * a * p - round(2 * a * p)) > 1e-9])
    return (np.sin(2 * np.pi * b * u) / np.sin(2 * np.pi * a * u)).tolist()


def tangency_weights(a: int, b: int) -> list[float]:
    """The weights in (-1, 1) at which g_+ or g_- has a double root: there
    the level -(1-s)/(1+s) or (1-s)/(1+s) of R meets a critical value."""
    weights = []
    for r in critical_values(a, b):
        for num, den in ((1 + r, 1 - r), (1 - r, 1 + r)):
            if abs(num) < abs(den):
                weights.append(num / den)
    return weights


def fold_weights(a: int, b: int) -> list[float]:
    """The weights in (-1, 1) at which two zeros of x' meet: there the
    level -(1-s)a/((1+s)b) of R meets a critical value."""
    return [
        (a + r * b) / (a - r * b) for r in critical_values(a, b) if abs(a + r * b) < abs(a - r * b)
    ]


def coprime_pairs(top: int) -> list[tuple[int, int]]:
    return [(a, b) for b in range(2, top + 1) for a in range(1, b) if math.gcd(a, b) == 1]
