import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epicusp import (
    CuspLocus,
    NotSingular,
    TwoTermSpec,
    Unresolved,
    certify_cusp,
    eval_complex,
    find_cusps,
    grid_intersection_check,
    loop_birth_count,
    predicted_cusp_locus,
    rotated_param_deriv,
    undefined_derivative_sets,
    zeros_of_curve,
)
from epicusp import singularity
from epicusp.cli import main
from epicusp.curve import derivative_scale
from epicusp.singularity import (
    CUSP_FLIP_TOL,
    SINGULAR_RTOL,
    _certify_cusps,
    _monotone_pieces,
)
from epicusp.geometry import _half_gap_roots
from exact_counts import (
    chebyshev_u,
    coprime_pairs,
    fold_weights,
    roots_inside,
    tangency_weights,
    u_sum,
    x_prime_count,
)
from per_item import circ_dist

CUSP_SPEC = TwoTermSpec(1, 3, -0.5)


# 1e-9 above the cusp weight of (1, 3), gamma' at t = 1/4 is within
# SINGULAR_RTOL of 0, and a loop 1.4e-5 across has been born there.
# Offsets of 1e-6 and less fall inside it, where the tangent flip does not
# extrapolate to -1: singular, but no cusp at that scale
NEAR_CUSP_SPEC = TwoTermSpec(1, 3, -0.5 + 1e-9)
NEAR_CUSP_DELTA = 1e-6


def is_singular(spec, t: float) -> bool:
    """x'(t) and y'(t) both within SINGULAR_RTOL of the derivative scale."""
    d = complex(eval_complex(spec, float(t), order=1))
    tol = SINGULAR_RTOL * derivative_scale(spec)
    return abs(d.real) <= tol and abs(d.imag) <= tol


def turn_angle(a: int, b: int) -> float:
    """pi*(1/2 - a/(b-a)): the turn that takes cusp 0, at the angle pi*a/(b-a), to pi/2."""
    return math.pi * (0.5 - a / (b - a))


def rotated_at(a: int, b: int, t: float, order: int = 0) -> complex:
    """The cusp-weight curve turned by turn_angle(a, b), or a t-derivative of it."""
    spec = TwoTermSpec(a, b, (a - b) / (a + b))
    return cmath.exp(1j * turn_angle(a, b)) * complex(eval_complex(spec, float(t), order))


def undefined_derivative_set(a: int, b: int, s: float) -> list[float]:
    """The zeros of x' in [0, 1) at one weight."""
    return undefined_derivative_sets(a, b, [s])[0]


def slope(d: complex) -> float:
    return d.imag / d.real


class TestCertifyCusp:
    def test_certifies_the_known_cusp(self):
        cert = certify_cusp(CUSP_SPEC, 0.25)
        assert cert is not None
        assert cert.flip_dot <= -1.0 + 1e-6
        assert cert.s == -0.5 and cert.t == 0.25
        assert cert.proven

    def test_tangents_are_vertical_and_opposed(self):
        cert = certify_cusp(CUSP_SPEC, 0.25)
        assert abs(cert.tangent_left.x) < 1e-6
        assert abs(cert.tangent_right.x) < 1e-6
        dot = (cert.tangent_left.x * cert.tangent_right.x
               + cert.tangent_left.y * cert.tangent_right.y)
        assert dot == pytest.approx(-1.0, abs=1e-6)

    def test_second_cusp_certifies_too(self):
        assert certify_cusp(CUSP_SPEC, 0.75) is not None

    def test_regular_point_is_refused(self):
        with pytest.raises(NotSingular):
            certify_cusp(TwoTermSpec(1, 3, 0.3), 0.25)

    @pytest.mark.parametrize("delta", [0.0, -1e-4, 2e-3])
    def test_offset_range_is_enforced(self, delta):
        with pytest.raises(ValueError):
            certify_cusp(CUSP_SPEC, 0.25, delta=delta)

    def test_flat_tangent_point_is_not_certified(self):
        assert is_singular(NEAR_CUSP_SPEC, 0.25)
        assert certify_cusp(NEAR_CUSP_SPEC, 0.25, delta=NEAR_CUSP_DELTA) is None

    def test_a_stopped_curve_is_not_certified(self, monkeypatch):
        # with gamma' 0 everywhere there is no one-sided tangent
        monkeypatch.setattr(singularity, "eval_complex", lambda spec, t, order: np.zeros(np.shape(t), complex))
        assert certify_cusp(CUSP_SPEC, 0.25) is None

    def test_the_first_failing_point_decides(self):
        # t = 0.3 is regular, t = 1/4 singular without a flip: whichever
        # comes first decides, as it would one point at a time
        with pytest.raises(NotSingular, match="t=0.3"):
            _certify_cusps(NEAR_CUSP_SPEC, [0.3, 0.25], NEAR_CUSP_DELTA)
        assert _certify_cusps(NEAR_CUSP_SPEC, [0.25, 0.3], NEAR_CUSP_DELTA)[0] is None
        with pytest.raises(NotSingular, match="t=0.1"):
            _certify_cusps(CUSP_SPEC, [0.25, 0.1, 0.75], 1e-3)


class TestPredictedLocus:
    def test_quarter_cusps(self):
        locus = predicted_cusp_locus(1, 3)
        assert locus == CuspLocus(
            s_bar=Fraction(-1, 2),
            t_values=(Fraction(1, 4), Fraction(3, 4)),
            proven=True,
        )

    def test_adjacent_frequencies(self):
        locus = predicted_cusp_locus(1, 2)
        assert locus.s_bar == Fraction(-1, 3)
        assert locus.t_values == (Fraction(1, 2),)

    def test_general_low_frequency_is_conjectural(self):
        locus = predicted_cusp_locus(2, 5)
        assert locus.s_bar == Fraction(-3, 7)
        assert locus.t_values == (Fraction(1, 6), Fraction(1, 2), Fraction(5, 6))
        assert not locus.proven

    def test_locus_points_have_zero_speed(self):
        locus = predicted_cusp_locus(2, 7)
        spec = TwoTermSpec(2, 7, float(locus.s_bar))
        for t in locus.t_values:
            assert abs(eval_complex(spec, float(t), order=1)) < 1e-12


class TestFindCusps:
    def test_four_cusps_of_one_five(self):
        certs = find_cusps(1, 5)
        assert len(certs) == 4
        for k, cert in enumerate(certs):
            assert cert.s == pytest.approx(-2.0 / 3.0, abs=1e-6)
            assert cert.t == pytest.approx((2 * k + 1) / 8.0, abs=1e-6)
            assert cert.proven

    def test_conjectural_pair_found(self):
        certs = find_cusps(2, 3)
        assert len(certs) == 1
        assert certs[0].s == pytest.approx(-0.2, abs=1e-6)
        assert certs[0].t == pytest.approx(0.5, abs=1e-6)
        assert not certs[0].proven

    def test_cusps_are_equally_spaced_in_t(self):
        certs = find_cusps(2, 5)
        ts = [c.t for c in certs]
        for u, v in zip(ts, ts[1:]):
            assert v - u == pytest.approx(1.0 / 3.0, abs=1e-9)

    # the two pairs the former 256x256 seed grid left short, (1, 130), and
    # a stride of pairs up to b = 149
    @pytest.mark.parametrize(
        "a,b",
        [(20, 41), (7, 60), (1, 130)]
        + [(a, b) for b in range(13, 151, 17) for a in (1, b // 3, b // 2 + 1, b - 1)],
    )
    def test_every_locus_point_is_certified_exactly(self, a, b):
        certs = find_cusps(a, b)
        d = 2 * (b - a)
        assert len(certs) == b - a
        for h, cert in zip(range(1, d, 2), certs):
            assert cert.s == float(Fraction(a - b, a + b))
            assert cert.t == float(Fraction(h, d))
            assert cert.flip_dot <= -1.0 + 1e-6
            assert cert.proven == (a == 1)

    @pytest.mark.parametrize("a,b", [(a, b) for b in range(2, 13) for a in range(1, b)])
    def test_grid_search_finds_the_same_singular_points(self, a, b):
        ts = [c.t for c in find_cusps(a, b)]
        found = reference_singular_points(a, b)
        s_bar = float(Fraction(a - b, a + b))
        for s, t in found:
            assert abs(s - s_bar) < 1e-6
            assert min(circ_dist(t, u) for u in ts) < 1e-6
        for u in ts:
            assert min(circ_dist(t, u) for _, t in found) < 1e-6

    def test_failed_certification_raises(self, monkeypatch):
        monkeypatch.setattr(singularity, "_certify_cusps", lambda spec, ts, delta: [None] * len(ts))
        with pytest.raises(Unresolved):
            find_cusps(2, 5)

    @pytest.mark.parametrize("a,b", [(True, 3), (1.5, 3), (1, 3.0), ("1", 3)])
    def test_frequencies_must_be_integers(self, a, b):
        # every function of a frequency pair checks it with spec._check_pair
        for check in (
            predicted_cusp_locus,
            find_cusps,
            zeros_of_curve,
            grid_intersection_check,
            lambda a, b: rotated_param_deriv(a, b, 0.1),
            lambda a, b: loop_birth_count(a, b, 0.0),
            lambda a, b: undefined_derivative_sets(a, b, [0.0]),
        ):
            with pytest.raises(ValueError):
                check(a, b)

    def test_numpy_integer_frequencies_are_accepted(self):
        locus = predicted_cusp_locus(np.int64(2), np.int32(5))
        assert locus == predicted_cusp_locus(2, 5)
        assert find_cusps(np.int64(2), np.int64(5)) == find_cusps(2, 5)


def reference_certificate(spec, t: float, delta: float = 1e-3):
    """certify_cusp one point at a time in Python complex arithmetic.

    This was certify_cusp before the certificates of a pair were built in
    one array pass: nine scalar evaluations of gamma', one to classify the
    point and eight for the one-sided tangents.  It is the reference for
    the bits of that pass.
    """
    if not is_singular(spec, t):
        raise NotSingular(f"no singular point at t={t}")

    def unit_tangent(u):
        d = complex(eval_complex(spec, u, order=1))
        return d / abs(d)

    offsets = [delta / 4**k for k in range(4)]
    left = [unit_tangent(t - d) for d in offsets]
    right = [unit_tangent(t + d) for d in offsets]
    flips = [(lt.conjugate() * rt).real for lt, rt in zip(left, right)]
    for coarse, fine in zip(flips, flips[1:]):
        if (16.0 * fine - coarse) / 15.0 > -1.0 + CUSP_FLIP_TOL:
            return None
    tl = 4.0 * left[3] - left[2]
    tr = 4.0 * right[3] - right[2]
    tl, tr = tl / abs(tl), tr / abs(tr)
    return singularity.CuspCertificate(
        s=spec.s,
        t=float(t),
        tangent_left=singularity.PlanePoint.from_complex(tl),
        tangent_right=singularity.PlanePoint.from_complex(tr),
        flip_dot=(tl.conjugate() * tr).real,
        proven=(spec.a == 1),
    )


def reference_cusps(a: int, b: int) -> tuple[TwoTermSpec, float, list]:
    """The spec, offset and per-point reference certificates find_cusps uses."""
    locus = predicted_cusp_locus(a, b)
    spec = TwoTermSpec(a, b, float(locus.s_bar))
    delta = min(1e-3, 0.01 / (a + b))
    return spec, delta, [reference_certificate(spec, float(t), delta) for t in locus.t_values]


class TestOneArrayPass:
    """find_cusps and certify_cusp have the bits of the per-point reference.

    Both sides are computed in this process: the contract is determinism
    on one machine, so no bytes are stored.
    """

    @pytest.mark.parametrize("b", range(2, 61))
    def test_every_pair_up_to_sixty_has_the_reference_bits(self, b):
        for a in range(1, b):
            spec, delta, want = reference_cusps(a, b)
            assert repr(find_cusps(a, b)) == repr(want), (a, b)
            for cert in want:
                assert repr(certify_cusp(spec, cert.t, delta=delta)) == repr(cert), (a, b, cert.t)

    def test_certify_cusp_keeps_the_reference_bits_off_the_locus(self):
        for spec, t, delta in [(CUSP_SPEC, 0.75, 1e-3), (NEAR_CUSP_SPEC, 0.25, 1e-3),
                               (NEAR_CUSP_SPEC, 0.25, NEAR_CUSP_DELTA), (TwoTermSpec(1, 4, -0.6), 1.0 / 6.0, 1e-3)]:
            want = reference_certificate(spec, t, delta)
            assert repr(certify_cusp(spec, t, delta)) == repr(want)

    def test_cli_prints_the_reference_certificates(self, capsys):
        assert main(["cusps", "-a", "7", "-b", "60"]) == 0
        lines = [
            json.dumps({"s": c.s, "t": c.t, "flip_dot": c.flip_dot, "proven": c.proven}) + "\n"
            for c in reference_cusps(7, 60)[2]
        ]
        assert capsys.readouterr().out == "".join(lines)


def _newton_refine_singular(a: int, b: int, s0: float, t0: float):
    """Damped Newton on gamma'(s, t) = 0 from a grid seed; None if it stalls."""
    ca, cb = 2j * np.pi * a, 2j * np.pi * b
    dscale = 2.0 * np.pi * (a + b) * 2.0

    def gprime(s, t):
        ea = np.exp(2j * np.pi * a * t)
        eb = np.exp(2j * np.pi * b * t)
        return (1.0 - s) * ca * ea + (1.0 + s) * cb * eb, ea, eb

    s, t = s0, t0
    g, ea, eb = gprime(s, t)
    for _ in range(50):
        if abs(g) < 1e-12 * dscale:
            return s, t % 1.0
        dg_ds = -ca * ea + cb * eb
        dg_dt = (1.0 - s) * ca * (2j * np.pi * a) * ea + (1.0 + s) * cb * (2j * np.pi * b) * eb
        jac = np.array([[dg_ds.real, dg_dt.real], [dg_ds.imag, dg_dt.imag]])
        rhs = -np.array([g.real, g.imag])
        try:
            step = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, rhs, rcond=None)[0]
        lam = 1.0
        while lam > 1.0 / 64.0:
            s_new = min(max(s + lam * step[0], -1.0 + 1e-6), 1.0 - 1e-6)
            t_new = t + lam * step[1]
            g_new, ea_new, eb_new = gprime(s_new, t_new)
            if abs(g_new) < (1.0 - 0.5 * lam) * abs(g) + 1e-15:
                s, t, g, ea, eb = s_new, t_new, g_new, ea_new, eb_new
                break
            lam *= 0.5
        else:
            return None
    return (s, t % 1.0) if abs(g) < 1e-12 * dscale else None


def reference_singular_points(a: int, b: int) -> list[tuple[float, float]]:
    """Singular points found without the locus: local minima of |gamma'|^2
    on a 256x256 (s, t) grid, refined by damped Newton.  This was
    find_cusps' search before it listed the closed-form locus; it is kept
    as an independent completeness oracle for small b."""
    ss = np.linspace(-1.0 + 1e-3, 1.0 - 1e-3, 256)
    tt = np.arange(256) / 256
    S = ss[:, None]
    G = (1.0 - S) * (2j * np.pi * a) * np.exp(2j * np.pi * a * tt) + (
        1.0 + S
    ) * (2j * np.pi * b) * np.exp(2j * np.pi * b * tt)
    D = np.abs(G) ** 2
    dscale = 2.0 * np.pi * (a + b) * 2.0
    is_min = D < (0.05 * dscale) ** 2
    for ds, dt in ((di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)):
        shifted = np.roll(D, (ds, dt), axis=(0, 1))
        if ds == -1:
            shifted[-1, :] = np.inf  # s does not wrap
        elif ds == 1:
            shifted[0, :] = np.inf
        is_min &= D <= shifted
    seeds = [(float(ss[i]), float(tt[j])) for i, j in zip(*np.nonzero(is_min))]
    refined = [_newton_refine_singular(a, b, s, t) for s, t in seeds]
    return [hit for hit in refined if hit is not None]


class TestRotation:
    def test_angle_examples(self):
        # cusp 0 lies at the angle pi*a/(b-a), so the turn is 0, pi/4, pi/2 - pi/8
        for (a, b), turn in (((1, 3), 0.0), ((1, 5), math.pi / 4), ((1, 9), math.pi / 2 - math.pi / 8)):
            spec = TwoTermSpec(a, b, (a - b) / (a + b))
            cusp = complex(eval_complex(spec, 1.0 / (2 * (b - a))))
            assert cmath.phase(cusp) == pytest.approx(math.pi * a / (b - a))
            assert turn_angle(a, b) == pytest.approx(turn, abs=1e-15)

    def test_rotation_puts_cusp_on_vertical_axis(self):
        # after the rotation the cusp tangent is vertical, so x'(t) has a
        # double zero at the cusp parameter
        assert abs(rotated_at(1, 5, 1.0 / 8.0, order=1).real) < 1e-12

    def test_slope_poles_return_none(self):
        assert rotated_param_deriv(1, 3, 0.25) is None
        assert rotated_param_deriv(1, 5, 0.125) is None

    def test_slope_zero_crossing(self):
        assert rotated_param_deriv(1, 3, 0.125) == pytest.approx(0.0, abs=1e-12)

    def test_matches_cotangent_form(self):
        for k in range(1, 40):
            t = k / 40.0
            if min(abs(t - p / 4.0) for p in range(5)) < 0.02:
                continue
            assert rotated_param_deriv(1, 3, t) == pytest.approx(
                -1.0 / math.tan(4.0 * math.pi * t), abs=1e-9
            )

    def test_matches_measured_slope_of_rotated_curve(self):
        for t in (0.03, 0.2, 0.31, 0.55, 0.77):
            measured = slope(rotated_at(1, 5, t, order=1))
            assert measured == pytest.approx(rotated_param_deriv(1, 5, t), abs=1e-9)

    @pytest.mark.parametrize("a,b", [(2, 5), (3, 5), (2, 7), (3, 8), (3, 20), (4, 9)])
    def test_first_cusp_lands_on_the_vertical_axis_for_every_a(self, a, b):
        # cusp 0 lies at the angle pi*a/(b-a), not pi/(b-a)
        cusp = rotated_at(a, b, 1.0 / (2 * (b - a)))
        assert abs(cusp.real) < 1e-12 and cusp.imag > 0.0

    @pytest.mark.parametrize("a,b", [(2, 5), (3, 5), (2, 7), (3, 8)])
    def test_slope_matches_the_rotated_curve_for_every_a(self, a, b):
        for t in (0.013, 0.03, 0.2, 0.31, 0.55, 0.77):
            want = rotated_param_deriv(a, b, t)
            assert slope(rotated_at(a, b, t, order=1)) == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("a,b", [(2, 5), (3, 8), (3, 20)])
    def test_the_first_cusp_is_a_slope_pole_for_every_a(self, a, b):
        assert rotated_param_deriv(a, b, 1.0 / (2 * (b - a))) is None


class TestLoopBirth:
    def test_counts_around_the_transition(self):
        assert loop_birth_count(1, 3, -0.495, 0.03) == 3
        assert loop_birth_count(1, 3, -0.5, 0.03) == 1
        assert loop_birth_count(1, 3, -0.505, 0.03) == 1

    @pytest.mark.parametrize("b", [2, 3, 4, 5, 6])
    def test_pattern_across_frequencies(self, b):
        s_bar = (1 - b) / (1 + b)
        pattern = tuple(loop_birth_count(1, b, s_bar + ds) for ds in (-0.005, 0.0, 0.005))
        assert pattern == (1, 1, 3)

    @pytest.mark.parametrize("a,b,eps", [(2, 5, 1e-3), (2, 7, 1e-3), (3, 20, 1e-4)])
    def test_loop_is_born_above_the_cusp_weight_for_every_a(self, a, b, eps):
        s_bar = (a - b) / (a + b)
        assert loop_birth_count(a, b, s_bar + eps) == 3
        assert loop_birth_count(a, b, s_bar - eps) == 1

    def test_window_spanning_two_cusps_is_refused(self):
        # a window that reaches the midpoint 1/(2(b-a)) to the next cusp
        for a, b, half_width in ((1, 3, 0.3), (1, 3, 0.25), (2, 5, 1.0 / 6.0), (2, 6, 0.125), (1, 2, 0.5)):
            with pytest.raises(ValueError, match="half_width must lie in"):
                loop_birth_count(a, b, -0.5, half_width)
        assert loop_birth_count(1, 3, -0.4, np.nextafter(0.25, 0.0)) == 3

    @pytest.mark.parametrize(
        "s,half_width",
        [(math.nan, 0.01), (math.inf, 0.01), (0.25, math.nan), (0.25, math.inf), (0.25, 0.0), (0.25, -0.01)],
    )
    def test_a_window_that_is_not_finite_and_open_is_refused(self, s, half_width):
        # a negative half-width would count -1 crossings; a weight that is
        # not finite is refused as well
        with pytest.raises(ValueError, match="must lie in"):
            loop_birth_count(1, 3, s, half_width)

    @given(
        st.sampled_from([pair for pair in coprime_pairs(15) if pair[0] >= 2]),
        st.sampled_from([1e-3, 1e-5, 1e-8, 1e-10, 1e-12]),
        st.sampled_from([-1.0, 1.0]),
    )
    @settings(deadline=None, max_examples=80)
    def test_loops_smaller_than_any_grid_cell_for_every_a(self, pair, eps, sign):
        # 1 + 2 * (the exact number of roots of g_- in (0, half_width)):
        # u < w is cos(2 pi u) > cos(2 pi w)
        a, b = pair
        s = (a - b) / (a + b) + sign * eps
        half_width = 0.75 / (2 * (b - a) * (a + b))
        g_minus = u_sum(a, b, 1 - Fraction(s), -(1 + Fraction(s)))
        exact = roots_inside(g_minus, lo=math.cos(2.0 * math.pi * half_width))
        count = loop_birth_count(a, b, s)
        assert count == 1 + 2 * exact
        if eps <= 1e-8:
            # the loop born at the cusp weight is far inside the window
            assert count == (3 if sign > 0 else 1)

    @pytest.mark.parametrize("a,b", [(1, 3), (2, 5), (3, 8)])
    def test_a_loop_ten_to_the_minus_eight_above_the_cusp_weight(self, a, b):
        # the loop is ~1e-4 of a period across, far inside one cell of a
        # 1,001-point window
        s_bar = (a - b) / (a + b)
        assert [loop_birth_count(a, b, s_bar + ds) for ds in (-1e-8, 0.0, 1e-8)] == [1, 1, 3]

    @pytest.mark.parametrize("a,b,g", [(2, 4, 2), (2, 6, 2), (4, 10, 2), (3, 9, 3), (6, 9, 3)])
    def test_a_shared_factor_reduces_the_pair(self, a, b, g):
        # gamma_{a,b}(t) = gamma_{a/g,b/g}(g t): the window of half-width w
        # is one of half-width g*w for the reduced pair
        s_bar = (a - b) / (a + b)
        half_width = 0.75 / (2 * (b - a) * (a + b))
        for ds in (-1e-3, 1e-6, 1e-3, 0.2):
            s = s_bar + ds
            g_minus = u_sum(a // g, b // g, 1 - Fraction(s), -(1 + Fraction(s)))
            exact = roots_inside(g_minus, lo=math.cos(2.0 * math.pi * g * half_width))
            assert loop_birth_count(a, b, s) == 1 + 2 * exact

    @pytest.mark.parametrize(
        "a,b,s,half_width",
        [(1, 3, -0.3, 0.05), (2, 5, -0.2, 0.05), (1, 4, 0.1, 0.1), (3, 5, -0.2, 0.2), (1, 3, 0.3, 0.2), (2, 6, 0.4, 0.1)],
    )
    def test_a_cusp_centred_window_counts_the_sign_changes(self, a, b, s, half_width):
        # a fine sign scan of the rotated x-component resolves these windows
        centre = 1.0 / (2 * (b - a))
        t = np.linspace(centre - half_width, centre + half_width, 200_001)
        x = (eval_complex(TwoTermSpec(a, b, s), t) * np.exp(1j * turn_angle(a, b))).real
        signs = np.sign(x[x != 0.0])
        assert loop_birth_count(a, b, s, half_width) == np.sum(signs[:-1] != signs[1:])

    @pytest.mark.parametrize("a,b,half_width,count", [(3, 7, 0.05, 3), (6, 14, 0.025, 3), (13, 17, 0.05, 5)])
    def test_a_zero_on_the_window_edge_counts_with_its_mirror(self, a, b, half_width, count):
        # at s = 0, g_- has roots u = 1/20 for (3, 7) and 1/60, 1/20 for
        # (13, 17): the window's edge; 1 - u does not round to the mirror of u
        assert loop_birth_count(a, b, 0.0, half_width) == count

    def test_weights_outside_the_family_are_refused(self):
        with pytest.raises(ValueError):
            loop_birth_count(1, 3, 1.5)


class TestUndefinedDerivativeSet:
    def test_small_weight_has_only_the_fixed_pair(self):
        assert undefined_derivative_set(1, 3, -0.75) == [0.0, 0.5]

    def test_transition_weight_collapses_to_quarters(self):
        assert undefined_derivative_set(1, 3, -0.5) == [0.0, 0.25, 0.5, 0.75]

    def test_degenerate_weight_hits_sixths(self):
        values = undefined_derivative_set(1, 3, 1.0)
        sixths = [0.0, 1.0 / 6.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 5.0 / 6.0]
        assert values == pytest.approx(sixths, abs=1e-12)

    @pytest.mark.parametrize("s,count", [(-0.9, 2), (-0.5, 4), (0.0, 6), (0.7, 6)])
    def test_cardinality_steps_with_weight(self, s, count):
        assert len(undefined_derivative_set(1, 3, s)) == count

    def test_values_are_slope_poles(self):
        for s in (-0.3, 0.0, 0.4):
            spec = TwoTermSpec(1, 3, s)
            for v in undefined_derivative_set(1, 3, s):
                assert abs(eval_complex(spec, v, order=1).real) <= 1e-9 * derivative_scale(spec)

    def test_numeric_fallback_pair(self):
        values = undefined_derivative_set(1, 2, 0.4)
        assert len(values) == 4
        assert 0.0 in values and 0.5 in values
        spec = TwoTermSpec(1, 2, 0.4)
        for v in values:
            assert abs(eval_complex(spec, v, order=1).real) < 1e-8


def reference_x_prime_zeros(spec: TwoTermSpec) -> list[float]:
    """One weight's search through eval_complex: the bisection that the
    batched kernel replaced, kept as its reference."""
    n = 256 * (spec.a + spec.b)

    def xp(t):
        return eval_complex(spec, t, order=1).real

    t = np.arange(n + 1) / n
    v = xp(t)
    bracket = np.nonzero(v[:-1] * v[1:] < 0.0)[0]
    lo, hi, v_lo = t[bracket], t[bracket + 1], v[bracket]
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            break
        v_mid = xp(mid)
        up = live & (np.sign(v_mid) == np.sign(v_lo))
        lo, v_lo = np.where(up, mid, lo), np.where(up, v_mid, v_lo)
        hi = np.where(live & ~up, mid, hi)
    ends = np.where(np.abs(xp(lo)) <= np.abs(xp(hi)), lo, hi)
    roots = sorted(t[:-1][v[:-1] == 0.0].tolist() + ends.tolist())
    out: list[float] = []
    for r in roots:
        r %= 1.0
        if all(min(abs(r - q) % 1.0, 1.0 - abs(r - q) % 1.0) > 1e-9 for q in out):
            out.append(r)
    return sorted(out)


# the weights render_singularity_diagram draws
DIAGRAM_WEIGHTS = [-1.0 + 2.0 * i / 200 for i in range(201)]


def one_three_set(s: float) -> list[float]:
    """The zeros of x' for (1, 3) in closed form: t = 0 and 1/2, plus the
    four solutions of 4*pi*t = +-arccos((-2-s)/(3(1+s))) mod pi once
    s >= -1/2, which coincide in pairs at s = -1/2."""
    values = [0.0, 0.5]
    if s >= -0.5:
        tbar = math.acos((-2.0 - s) / (3.0 * (1.0 + s))) / (4.0 * math.pi)
        for v in (tbar, 0.5 - tbar, 0.5 + tbar, 1.0 - tbar):
            v %= 1.0
            if all(abs(v - w) > 1e-12 for w in values):
                values.append(v)
    return sorted(values)


def exact_weight(s: float) -> Fraction:
    # the rational a float weight stands for: a level within rounding of a
    # critical value of R counts as meeting it
    return Fraction(s).limit_denominator(10**6)


def max_x_prime(a: int, b: int, s: float, ts: list[float]) -> float:
    """max |x'(t)| over ts, in units of its scale 2*pi*(|1-s|*a + |1+s|*b)."""
    spec = TwoTermSpec(a, b, s)
    scale = 2.0 * math.pi * (abs(1.0 - s) * a + abs(1.0 + s) * b)
    return float(np.max(np.abs(eval_complex(spec, np.array(ts), order=1).real))) / scale


class TestBatchedXPrimeZeros:
    # (1, 2) and (9, 11) include weights where zeros coalesce
    @pytest.mark.parametrize("a,b", [(2, 5), (3, 4), (3, 5), (4, 5), (1, 2), (9, 11)])
    def test_every_diagram_weight_has_the_exact_count(self, a, b):
        batched = undefined_derivative_sets(a, b, DIAGRAM_WEIGHTS)
        assert [repr(undefined_derivative_set(a, b, s)) for s in DIAGRAM_WEIGHTS] == [
            repr(v) for v in batched
        ]
        for s, got in zip(DIAGRAM_WEIGHTS, batched):
            exact = x_prime_count(a, b, exact_weight(s))
            assert len(got) == exact, s
            reference = reference_x_prime_zeros(TwoTermSpec(a, b, s))
            if len(reference) == exact:
                # the reference bisects a triple zero at t = 1/2 only to 6.2e-7
                tol = 1e-6 if (a, b, round(s, 9)) in ((1, 2, -0.6), (3, 4, -0.28)) else 1e-9
                assert np.max(np.abs(np.subtract(got, reference))) <= tol, s

    def test_one_three_keeps_its_closed_form(self):
        weights = DIAGRAM_WEIGHTS + [-0.75, -0.5, -0.4999999, 0.0, 1.0]
        for s, got in zip(weights, undefined_derivative_sets(1, 3, weights)):
            want = one_three_set(s)
            assert len(got) == len(want), s
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-12, s

    @pytest.mark.parametrize("a,b", [pair for pair in coprime_pairs(8) if fold_weights(*pair)])
    def test_counts_next_to_every_fold_weight(self, a, b):
        # within 1e-9 of a fold two zeros of x' lie ~3e-5 apart, closer
        # than one cell of a uniform sign scan
        for s0 in fold_weights(a, b):
            for s in [s0 + sign * 10.0**-k for k in (3, 6, 9) for sign in (-1, 1)]:
                ts = undefined_derivative_set(a, b, s)
                assert len(ts) == x_prime_count(a, b, Fraction(s)), s
                assert max_x_prime(a, b, s, ts) < 1e-12

    def test_two_zeros_one_scan_cell_apart(self):
        s = -0.6264917519439482
        ts = undefined_derivative_set(1, 4, s)
        assert len(ts) == x_prime_count(1, 4, Fraction(s)) == 8
        assert max_x_prime(1, 4, s, ts) < 1e-12

    @pytest.mark.parametrize("a,b", [(1, 2), (1, 30), (1, 34), (2, 35), (1, 38)])
    def test_a_triple_zero_at_one_half_is_exact(self, a, b):
        # at s = (a^2-b^2)/(a^2+b^2), e.g. (1, 2, -0.6), x', x'' and x'''
        # all vanish at t = 1/2; rounding s moves g(1/2) by up to
        # eps*(a^2+b^2)/2, which must not split off two zeros next to 1/2
        s = Fraction(a * a - b * b, a * a + b * b)
        ts = undefined_derivative_set(a, b, float(s))
        assert 0.5 in ts and len(ts) == x_prime_count(a, b, s)
        assert undefined_derivative_set(1, 2, -0.6) == [0.0, 0.5]

    @pytest.mark.parametrize("a,b", [(2, 4), (3, 6), (4, 6), (6, 9)])
    def test_a_shared_factor_repeats_the_reduced_zeros(self, a, b):
        g = math.gcd(a, b)
        weights = [-0.9, -0.5, 0.0, 0.3, 0.5, 0.9]
        reduced = undefined_derivative_sets(a // g, b // g, weights)
        for s, got, base in zip(weights, undefined_derivative_sets(a, b, weights), reduced):
            assert len(got) == x_prime_count(a, b, exact_weight(s)) == g * len(base), s
            assert got == sorted(got) and 0.0 <= got[0] and got[-1] < 1.0
            assert got[: len(base)] == [t / g for t in base]
            assert max_x_prime(a, b, s, got) < 1e-12

    @pytest.mark.parametrize("a,b", coprime_pairs(13))
    def test_breakpoints_are_every_turn_of_r(self, a, b):
        # R's critical points are the zeros of
        # W = (b-a) sin 2 pi (a+b) u - (a+b) sin 2 pi (b-a) u, and W / sin 2 pi u
        # is (b-a) U_{a+b-1} - (a+b) U_{b-a-1} at cos 2 pi u
        w = [(b - a) * c for c in chebyshev_u(a + b - 1)]
        for i, c in enumerate(chebyshev_u(b - a - 1)):
            w[i] -= (a + b) * c
        pieces = _monotone_pieces(a, b)
        assert pieces[0] == 0.0 and pieces[-1] == 0.5 and np.all(np.diff(pieces) > 0.0)
        assert len(pieces) == 2 + (a - 1) + roots_inside(w)
        assert not pieces.flags.writeable

    def test_no_weights_give_no_sets(self):
        assert undefined_derivative_sets(2, 5, []) == []

    @pytest.mark.parametrize("weights", [[0.0, 1.5], [float("nan")]])
    def test_every_weight_is_checked(self, weights):
        with pytest.raises(ValueError):
            undefined_derivative_sets(2, 5, weights)


def computed_h(a: int, b: int, wa: float, wb: float, u) -> np.ndarray:
    """wa*sin(2*pi*a*u) + wb*sin(2*pi*b*u) with the phases reduced as
    eval_complex reduces them: the bits the level-set kernel computes."""
    u = np.asarray(u, dtype=float)
    ta, tb = a * u, b * u
    return wa * np.sin(2.0 * np.pi * (ta - np.floor(ta))) + wb * np.sin(2.0 * np.pi * (tb - np.floor(tb)))


def plain_bisection_roots(a: int, b: int, wa: float, wb: float) -> np.ndarray:
    """The roots of plain bisection, each bracket halved down to adjacent
    floats, kept as the reference for the narrowed kernel.  Its brackets are
    the sign changes between breakpoints, the ends' signs those of g; no
    coalescing, so near a double root it may list a different count."""
    pieces = _monotone_pieces(a, b)
    v = computed_h(a, b, wa, wb, pieces)
    v[0] = wa * a + wb * b
    v[-1] = (-1) ** (a - 1) * wa * a + (-1) ** (b - 1) * wb * b
    k = np.nonzero(v[:-1] * v[1:] < 0.0)[0]
    lo, hi, sign = pieces[k], pieces[k + 1], np.sign(v[k])
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            break
        up = live & (np.sign(computed_h(a, b, wa, wb, mid)) == sign)
        lo, hi = np.where(up, mid, lo), np.where(live & ~up, mid, hi)
    return np.where(np.abs(computed_h(a, b, wa, wb, lo)) <= np.abs(computed_h(a, b, wa, wb, hi)), lo, hi)


COPRIME_PAIRS = st.integers(2, 40).flatmap(
    lambda b: st.tuples(st.integers(1, b - 1), st.just(b))
).filter(lambda pair: math.gcd(*pair) == 1)


class TestRootContract:
    """Every root of _level_root_rows is an exact zero of the computed h, a
    breakpoint double root, or an end of two adjacent floats across which
    the computed h changes sign; a root that differs from plain bisection
    lies in the band where |h| is rounding noise."""

    @given(COPRIME_PAIRS, st.none() | st.floats(-1.0, 1.0), st.sampled_from(["g+", "g-", "x'"]))
    @settings(deadline=None, max_examples=150)
    def test_every_root_is_a_sign_change_of_the_computed_h(self, pair, s, kind):
        a, b = pair
        if s is None:  # the cusp weight, where g vanishes at an end
            s = (a - b) / (a + b)
        if kind == "x'":
            ca, cb = a, b
            roots = singularity._level_root_rows(a, b, a, b, [s])[0]
        else:
            ca, cb = 1, (1 if kind == "g+" else -1)
            roots = _half_gap_roots(a, b, s)[0 if kind == "g+" else 1]
        wa, wb = ca * (1.0 - s), cb * (1.0 + s)
        # a float that is the nearest one to a simple rational stands for it;
        # within rounding of a weight where two roots meet, they count as one
        exact = exact_weight(s) if float(exact_weight(s)) == s else Fraction(s)
        meet = fold_weights(a, b) if kind == "x'" else tangency_weights(a, b)
        if all(abs(s - w) > 1e-9 for w in meet):
            assert len(roots) == roots_inside(u_sum(a, b, ca * (1 - exact), cb * (1 + exact)))
        assert np.all(np.diff(roots) > 0.0) and np.all((0.0 < roots) & (roots < 0.5))

        v = computed_h(a, b, wa, wb, roots)
        below = computed_h(a, b, wa, wb, np.nextafter(roots, 0.0))
        above = computed_h(a, b, wa, wb, np.nextafter(roots, 1.0))
        double = np.isin(roots, _monotone_pieces(a, b))
        assert np.all((v == 0.0) | double | (v * below < 0.0) | (v * above < 0.0))

        reference = plain_bisection_roots(a, b, wa, wb)
        if len(reference) != len(roots):
            return
        # within the noise band: |h - computed h| <= noise, and h has slope
        # h' there, so two sign changes lie within 2*noise/|h'| of each other
        noise = 8.0 * np.finfo(float).eps * (abs(wa) * a + abs(wb) * b)
        slope = 2.0 * np.pi * (
            wa * a * np.cos(2.0 * np.pi * a * reference) + wb * b * np.cos(2.0 * np.pi * b * reference)
        )
        with np.errstate(divide="ignore"):
            band = 2.0 * noise / np.abs(slope) + 2.0 * np.spacing(reference)
        moved = (roots != reference) & ~double
        assert np.all(np.abs(roots - reference)[moved] <= band[moved])

    def test_a_point_outside_the_open_bracket_moves_no_end(self):
        # probes may fall outside a bracket, and h at u = 0 or 1/2 is noise
        lo, hi, sign_lo = np.array([0.0, 0.1]), np.array([0.5, 0.2]), np.array([1.0, -1.0])
        for x in (lo, hi, lo - 0.01, hi + 0.01):
            for v in (-1.0, 0.0, 1.0):
                got = singularity._narrow(lo, hi, sign_lo, x, np.full(2, v))
                assert np.array_equal(got[0], lo) and np.array_equal(got[1], hi)

    def test_a_root_in_rounding_noise_is_one_of_its_sign_changes(self):
        # (4, 7, 0): g_+ vanishes at u = 1/6; on the five floats around it
        # the computed h reads -, +, -, 0, +, so bisection alone returns the
        # exact zero above float(1/6) and the narrowed kernel the sign
        # change below it
        roots = _half_gap_roots(4, 7, 0.0)[0]
        sixth = roots[np.argmin(np.abs(roots - 1.0 / 6.0))]
        assert sixth in (np.nextafter(1.0 / 6.0, 0.0), np.nextafter(1.0 / 6.0, 1.0))
